"""`python -m mapfgnn`: the same command line as the mapfgnn script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
