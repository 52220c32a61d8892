import ctypes
import pathlib

import numpy as np
import pytest

# numpy's wheels bundle a 64-bit-integer OpenBLAS whose symbols carry this
# prefix and suffix; a numpy linked against another BLAS has no such library
_OPENBLAS_GLOB = "libscipy_openblas*.so*"
_SET, _GET = "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"


def _bundled_openblas():
    """numpy's bundled OpenBLAS as (set, get) thread-count functions, or None."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob(_OPENBLAS_GLOB)):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, _SET) and hasattr(lib, _GET):
            setter, getter = getattr(lib, _SET), getattr(lib, _GET)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@pytest.fixture
def blas_threads():
    """A function n -> None that sets the BLAS thread count of this process.

    The environment variables that pin it are read only when numpy loads,
    so this calls numpy's bundled OpenBLAS directly. The count in force
    before the test is restored after it. A test using it skips where numpy
    has no bundled OpenBLAS with a thread-count setter.
    """
    found = _bundled_openblas()
    if found is None:
        pytest.skip(f"numpy bundles no OpenBLAS exporting {_SET} to set its thread count")
    setter, getter = found
    before = getter()
    yield setter
    setter(before)
