"""The JSON value rules shared by every reader: each artifact round-trips
byte for byte, and each value the writers never emit is refused with the
file and line it came from (or, in the config file, the field)."""

import base64
import json
import math
import string
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mapfgnn import jsonio
from mapfgnn.cli import build_parser, resolve_config
from mapfgnn.datastore import (
    SCHEMA_VERSION,
    CaseRecord,
    expand_samples,
    load_cases,
    load_dataset,
    load_maps,
    load_weights,
    read_csv,
    save_cases,
    save_dataset,
    save_maps,
    save_weights,
)
from mapfgnn.errors import (
    ConfigError,
    InfeasibleCase,
    ParseError,
    PlanInfeasible,
    SolverTimeout,
)
from mapfgnn.expert import cbs_solve
from mapfgnn.gridworld import Case, GridMap, generate_case
from mapfgnn.policy import PolicyArch, PolicyNetwork
from mapfgnn.training import AdamState

TINY = PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16, taps=2)


class TestReaders:
    @pytest.mark.parametrize("value", [True, 1.0, "1", None, [1]])
    def test_int_is_a_json_integer(self, value):
        with pytest.raises(TypeError):
            jsonio.read_int(value)

    def test_real_takes_an_int_and_returns_a_float(self):
        assert type(jsonio.read_real(5)) is float and jsonio.read_real(5) == 5.0

    @pytest.mark.parametrize("value", [True, "1.5", None, 1e999, -(10**400), 10**400])
    def test_real_is_a_finite_json_number(self, value):
        with pytest.raises((TypeError, ValueError)):
            jsonio.read_real(value)

    @pytest.mark.parametrize(
        "value", [[[1, 2, 3]], [[1]], [[1.0, 2]], [[True, 2]], [(1, 2)], [[1, "2"]], "12", None]
    )
    def test_cells_are_pairs_of_json_integers(self, value):
        with pytest.raises(TypeError):
            jsonio.read_cells(value)


# ---------------------------------------------------------------------------
# the float64le codec: one exact spelling per array


def _bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _with_first(value: float) -> str:
    """The text of [value, 1.0], written past the encoder's own checks."""
    return base64.b64encode(struct.pack("<dd", value, 1.0)).decode("ascii")


def _with_last(value: float) -> str:
    """The text of [1.0, value], written past the encoder's own checks."""
    return base64.b64encode(struct.pack("<dd", 1.0, value)).decode("ascii")


def _non_canonical(text: str) -> str:
    """text, ending in "==", with a low bit set in its last data character,
    which the four bits it holds past the last byte leave unused."""
    alphabet = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
    return text[:-3] + alphabet[alphabet.index(text[-3]) + 1] + "=="


# two float64s are 16 bytes: 24 characters ending in "=="
PAIR = jsonio.encode_float64s(np.array([0.5, -2.25]))

# each value read_float64s must refuse for an array of two, with the rule
# its message names
REFUSED_FLOAT64S = {
    "list": ([0.5, -2.25], "not a JSON string"),
    "nested": ([[0.5], [-2.25]], "not a JSON string"),
    "bool": (True, "not a JSON string"),
    "null": (None, "not a JSON string"),
    "dict": ({"a": 0.5}, "not a JSON string"),
    "non-alphabet": (PAIR[:3] + "." + PAIR[4:], "not base64"),
    "urlsafe-alphabet": (PAIR[:3] + "-" + PAIR[4:], "not base64"),
    "non-ascii": (PAIR[:3] + "\u00e9" + PAIR[4:], "not base64"),
    "no-padding": (PAIR.rstrip("="), "not base64"),
    "whitespace": (PAIR[:12] + "\n" + PAIR[12:], "not base64"),
    "trailing-newline": (PAIR + "\n", "not base64"),
    "non-canonical": (_non_canonical(PAIR), "not canonical"),
    "empty": ("", "holds 0 bytes, not 16"),
    "short-8": (jsonio.encode_float64s(np.array([0.5])), "holds 8 bytes, not 16"),
    "long-8": (jsonio.encode_float64s(np.array([0.5, -2.25, 1.0])), "holds 24 bytes, not 16"),
    "nan": (_with_first(math.nan), "not all finite"),
    "inf": (_with_first(math.inf), "not all finite"),
    "inf-last": (_with_last(math.inf), "not all finite"),
    "-inf": (_with_first(-math.inf), "not all finite"),
}


class TestFloat64s:
    @pytest.mark.parametrize(
        "values",
        [[-0.0, 0.0], [5e-324, -5e-324], [sys.float_info.max, -sys.float_info.max],
         [1, -0.0, 5e-324], []],
        ids=["signed-zero", "subnormal", "max", "ints", "empty"],
    )
    def test_round_trip_is_exact(self, values):
        text = jsonio.encode_float64s(np.array(values, dtype=np.float64))
        back = jsonio.read_float64s(text, len(values), "w")
        assert back.dtype == np.float64 and back.tobytes() == _bits(values)
        assert jsonio.encode_float64s(back) == text

    def test_text_is_the_little_endian_bytes_in_c_order(self):
        array = np.arange(6, dtype=np.float64).reshape(2, 3)
        text = jsonio.encode_float64s(array.T)
        assert base64.b64decode(text) == struct.pack("<6d", 0, 3, 1, 4, 2, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_writer_refuses_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            jsonio.encode_float64s(np.array([0.5, bad]))

    def test_a_pair_is_padded(self):
        assert len(PAIR) == 24 and PAIR.endswith("==")

    @pytest.mark.parametrize("rule", list(REFUSED_FLOAT64S))
    def test_refuses_what_the_writer_never_emits(self, rule):
        value, reason = REFUSED_FLOAT64S[rule]
        with pytest.raises((TypeError, ValueError), match=f"^w: .*{reason}"):
            jsonio.read_float64s(value, 2, "w")


# ---------------------------------------------------------------------------
# save -> load -> save is byte-identical


@st.composite
def grid_maps(draw):
    width, height = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cells = [(x, y) for y in range(height) for x in range(width)]
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 3))
    density = draw(st.floats(0.0, 1.0, exclude_max=True))
    seed = draw(st.none() | st.integers(0, 2**63 - 1))
    return GridMap(width, height, frozenset(obstacles), density=density, seed=seed)


def _resave(tmp_path, save, load, *args):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save(str(a), *args)
    loaded = load(str(a))
    save(str(b), loaded, *args[1:])
    assert a.read_bytes() == b.read_bytes()
    return loaded


SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@SETTINGS
@given(grids=st.lists(grid_maps(), min_size=1, max_size=3))
def test_maps_round_trip(tmp_path, grids):
    maps = {f"m{i}": grid for i, grid in enumerate(grids)}
    assert _resave(tmp_path, save_maps, load_maps, maps) == maps


@SETTINGS
@given(
    grid=grid_maps(),
    robots=st.integers(1, 2),
    seed=st.integers(0, 2**32),
    split=st.sampled_from(["train", "valid", "test"]),
    fov=st.integers(1, 4),
    comm=st.floats(0.1, 10.0),
)
def test_cases_and_dataset_round_trip(tmp_path, grid, robots, seed, split, fov, comm):
    maps = {"m0": grid}
    try:
        case = generate_case(grid, robots, seed=seed, map_id="m0")
    except InfeasibleCase:
        assume(False)
    try:
        plan = cbs_solve(grid, case, timeout_s=2.0)
    except (PlanInfeasible, SolverTimeout):
        plan = None
    records = [CaseRecord("m0/c0", case, plan), CaseRecord("m0/c1", case)]
    loaded = _resave(tmp_path, save_cases, lambda p: load_cases(p, maps), records)
    assert loaded == records
    assume(plan is not None and plan.makespan > 0)
    ds = expand_samples(records[:1], maps, split=split, fov_radius=fov, comm_radius=comm)
    back = _resave(tmp_path, save_dataset, lambda p: load_dataset(p, maps), ds)
    assert (back.split, back.fov_radius, back.comm_radius) == (split, fov, comm)


@st.composite
def solved_pools(draw):
    """A map and up to three solved cases on it. In a repair-style case, as
    the online expert makes, some robots start on their goals."""
    grid = draw(grid_maps())
    records = []
    for k in range(draw(st.integers(1, 3))):
        try:
            case = generate_case(grid, draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32)),
                                 map_id="m0")
        except InfeasibleCase:
            continue
        parked = draw(st.lists(st.booleans(), min_size=case.num_robots,
                               max_size=case.num_robots))
        starts = tuple(g if p else s for s, g, p in zip(case.starts, case.goals, parked))
        if len(set(starts)) == len(starts):
            case = Case("m0", starts, case.goals)
        try:
            records.append(CaseRecord(f"m0/c{k}", case, cbs_solve(grid, case, timeout_s=2.0)))
        except (PlanInfeasible, SolverTimeout):
            pass
    assume(records)
    return {"m0": grid}, records


@SETTINGS
@given(
    drawn=solved_pools(),
    fov=st.integers(1, 4),
    comm=st.floats(0.1, 10.0),
)
def test_a_split_reexpands_to_the_samples_it_was_saved_from(tmp_path, drawn, fov, comm):
    maps, pool = drawn
    ds = expand_samples(pool, maps, split="train", fov_radius=fov, comm_radius=comm)
    save_dataset(str(tmp_path / "split.jsonl"), ds)
    back = load_dataset(str(tmp_path / "split.jsonl"), maps)
    assert [(s.case_id, s.t) for s in back.samples] == [(s.case_id, s.t) for s in ds.samples]
    for a, b in zip(ds.samples, back.samples):
        for name in ("obs", "gso", "labels"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    # the split holds the solver's own records: a robot parked on its goal keeps [goal]
    moving = [rec for rec in pool if rec.plan.makespan > 0]
    save_cases(str(tmp_path / "cases.jsonl"), moving)
    lines = [(tmp_path / name).read_text().splitlines()[1:] for name in ("split.jsonl",
                                                                         "cases.jsonl")]
    assert lines[0] == lines[1]


finite = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(seed=st.integers(0, 2**32), values=st.lists(finite, min_size=1, max_size=8))
def test_weights_round_trip(tmp_path, seed, values):
    net = PolicyNetwork(TINY, seed=seed)
    flat = net.store.params["cnn.conv0.weight"].reshape(-1)
    flat[: len(values)] = values
    loaded = _resave(tmp_path, save_weights, load_weights, net)
    for name, arr in {**net.store.params, **net.store.state}.items():
        back = {**loaded.store.params, **loaded.store.state}[name]
        assert back.tobytes() == arr.tobytes(), name


@SETTINGS
@given(t=st.integers(0, 10**6), values=st.lists(finite, min_size=1, max_size=4))
def test_adam_state_round_trip(t, values):
    store = PolicyNetwork(TINY, seed=0).store
    adam = AdamState(store)
    adam.t = t
    adam.m["mlp.head.weight"].reshape(-1)[: len(values)] = values
    adam.v["cnn.bn0.gamma"].reshape(-1)[: len(values)] = np.abs(values)
    text = jsonio.dumps_canonical(adam.to_jsonable())
    again = AdamState(store)
    again.load_jsonable(jsonio.loads(text))
    assert jsonio.dumps_canonical(again.to_jsonable()) == text
    assert again.t == t
    for moments, loaded in ((adam.m, again.m), (adam.v, again.v)):
        assert all(loaded[k].tobytes() == a.tobytes() for k, a in moments.items())


def test_a_map_without_a_seed_round_trips(tmp_path):
    maps = {"m0": GridMap(5, 4, frozenset({(2, 1)}))}
    assert _resave(tmp_path, save_maps, load_maps, maps) == maps
    assert '"seed":null' in (tmp_path / "a.jsonl").read_text()


def test_weights_take_comm_radius_as_a_json_int(tmp_path):
    p = tmp_path / "model.json"
    save_weights(str(p), PolicyNetwork(TINY, seed=0))
    doc = json.loads(p.read_text())
    doc["model"]["arch"]["comm_radius"] = 5
    p.write_text(json.dumps(doc))
    arch = load_weights(str(p)).arch
    assert type(arch.comm_radius) is float and arch == TINY


# ---------------------------------------------------------------------------
# every value the writers never emit is refused where it stands


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One valid file of each kind: a 6x6 map, one solved case, its samples
    and a weights file."""
    tmp_path = tmp_path_factory.mktemp("artifacts")
    grid = GridMap(6, 6, frozenset({(2, 2), (3, 3)}), density=0.05, seed=7)
    maps = {"m0": grid}
    case = Case("m0", starts=((0, 0), (5, 0)), goals=((0, 5), (5, 5)))
    records = [CaseRecord("m0/c0", case, cbs_solve(grid, case, timeout_s=30.0))]
    paths = {kind: tmp_path / f"{kind}.jsonl" for kind in ("maps", "cases", "dataset", "weights")}
    save_maps(str(paths["maps"]), maps)
    save_cases(str(paths["cases"]), records)
    save_dataset(str(paths["dataset"]), expand_samples(records, maps))
    save_weights(str(paths["weights"]), PolicyNetwork(TINY, seed=0))
    return maps, paths


def _weights_entry(docs):
    return docs[0]["model"]["params"]["cnn.bn0.gamma"]


def _set_width(value):
    return lambda docs: docs[1].update(width=value)


def _duplicate_case(docs):
    docs.append(dict(docs[1]))
    docs[0]["count"] = 2


def _collide(docs):
    """Robot 1 walks onto robot 0's start while robot 0 still waits there:
    each path is legal on its own, so only the plan check sees it."""
    wait = [[0, 0]] * 6 + [[0, y] for y in range(1, 6)]
    detour = [[x, 0] for x in (5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5)] + [[5, y] for y in range(1, 6)]
    docs[1]["plan"] = {"paths": [wait, detour], "flowtime": 25, "makespan": 15}


# a refused weights entry is named at the start of the message
NAMED_ENTRY = {
    "weights-entry-list": "mlp.head.bias",
    "weights-entry-no-shape": "cnn.bn0.gamma",
    "weights-entry-no-float64le": "cnn.bn0.gamma",
    "weights-entry-shape-int": "cnn.bn0.gamma",
}


# (artifact, edit of the file's JSON documents, line of the refused value)
REFUSED = {
    "map-width-real": ("maps", _set_width(6.9), 2),
    "map-width-string": ("maps", _set_width("6"), 2),
    "map-width-zero": ("maps", _set_width(0), 2),
    "map-seed-bool": ("maps", lambda d: d[1].update(seed=True), 2),
    "map-obstacle-real": ("maps", lambda d: d[1].update(obstacles=[[1.5, 2]]), 2),
    "map-obstacle-off-map": ("maps", lambda d: d[1].update(obstacles=[[40, 2]]), 2),
    "map-id-list": ("maps", lambda d: d[1].update(map_id=["m0"]), 2),
    "map-id-dict": ("maps", lambda d: d[1].update(map_id={"m": 0}), 2),
    "case-map-id-list": ("cases", lambda d: d[1].update(map_id=["m0"]), 2),
    "case-flowtime-real": ("cases", lambda d: d[1]["plan"].update(flowtime=2.5), 2),
    "case-id-int": ("cases", lambda d: d[1].update(case_id=5), 2),
    "case-id-duplicate": ("cases", _duplicate_case, 3),
    "record-map-id-dict": ("dataset", lambda d: d[1].update(map_id={"m": 0}), 2),
    "record-makespan-real": ("dataset", lambda d: d[1]["plan"].update(makespan=0.9), 2),
    "record-plan-null": ("dataset", lambda d: d[1].update(plan=None), 2),
    "record-paths-collide": ("dataset", _collide, 2),
    "dataset-split-int": ("dataset", lambda d: d[0].update(split=1), 1),
    "weight-string": ("weights", lambda d: _weights_entry(d).update(float64le="1.5"), 1),
    "weight-bool": ("weights", lambda d: _weights_entry(d).update(float64le=True), 1),
    "weights-nested": ("weights", lambda d: _weights_entry(d).update(float64le=[[1.0]] * 4), 1),
    "weights-shape-real": ("weights", lambda d: _weights_entry(d).update(shape=[4.0]), 1),
    "weights-entry-list": (
        "weights", lambda d: d[0]["model"]["params"].update({"mlp.head.bias": [0.0] * 5}), 1
    ),
    "weights-model-int": ("weights", lambda d: d[0].update(model=5), 1),
    "weights-entry-no-shape": ("weights", lambda d: _weights_entry(d).pop("shape"), 1),
    "weights-entry-no-float64le": ("weights", lambda d: _weights_entry(d).pop("float64le"), 1),
    "weights-entry-shape-int": ("weights", lambda d: _weights_entry(d).update(shape=4), 1),
    # the config file: (config, its JSON document, no line)
    "config-width-real": ("config", {"width": 6.9}, None),
    "config-width-string": ("config", {"width": "6"}, None),
    "config-seed-bool": ("config", {"seed": True}, None),
    "config-seed-negative": ("config", {"seed": -1}, None),
    "config-channels-empty": ("config", {"channels": []}, None),
}


@pytest.mark.parametrize("rule", sorted(REFUSED))
def test_refused_values_name_their_place(artifacts, rule, tmp_path):
    kind, edit, line = REFUSED[rule]
    if kind == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(edit))
        args = build_parser().parse_args(["gen-maps", "--out", "x", "--config", str(path)])
        with pytest.raises(ConfigError):
            resolve_config(args)
        return
    maps, paths = artifacts
    docs = [json.loads(text) for text in paths[kind].read_text().splitlines()]
    edit(docs)
    broken = tmp_path / f"{kind}.jsonl"
    broken.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    load = {
        "maps": load_maps,
        "cases": lambda p: load_cases(p, maps),
        "dataset": lambda p: load_dataset(p, maps),
        "weights": load_weights,
    }[kind]
    with pytest.raises(ParseError) as err:
        load(str(broken))
    assert f"{broken}:{line}" in str(err.value)
    if rule in NAMED_ENTRY:
        assert str(err.value).startswith(f"{NAMED_ENTRY[rule]}: ")


@pytest.mark.parametrize(
    "header", ['"kind":["report"],"meta":{}', '"kind":"report","meta":5', '"kind":"report"'],
    ids=["kind-list", "meta-int", "no-meta"],
)
def test_csv_header_values_are_read_alike(tmp_path, header):
    p = tmp_path / "report.csv"
    p.write_text(f'# {{"schema":"{SCHEMA_VERSION}",{header}}}\nlabel,alpha\nk3,0.5\n')
    with pytest.raises(ParseError) as err:
        read_csv(str(p))
    assert f"{p}:1" in str(err.value)
