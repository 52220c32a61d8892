"""Dataset pipeline and persistence.

Pools and datasets are JSON-lines: line 1 is a header carrying the schema
tag, the record kind, a record count (for truncation checks), and caller
metadata; every following line is one record. Reals are spelled by repr,
so float64 values round-trip bit-exactly and re-running a seeded pipeline
reproduces files byte for byte. A dataset split stores its solved cases
in the cases file's spelling; its samples are re-expanded on load.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .errors import (
    InfeasibleCase,
    MapfGnnError,
    ParseError,
    PlanInfeasible,
    SolverTimeout,
    VersionMismatch,
)
from .executor import MetricsReport, Trajectory
from .expert import DEFAULT_TIMEOUT_S, Plan, cbs_solve, plan_to_labels, validate_plan
from .gridworld import (
    DEFAULT_COMM_RADIUS,
    DEFAULT_FOV_RADIUS,
    Case,
    GridMap,
    generate_case,
    generate_map,
)
# unused here; perfbench patches them on this module until ROADMAP item 1
from .gridworld import build_gso, team_observations  # noqa: F401
from .jsonio import (
    dumps_canonical,
    loads,
    read_cells,
    read_int,
    read_real,
    read_str,
)
from .policy import PolicyNetwork
from .training import Dataset

SCHEMA_VERSION = "mapfgnn-files-v1"

# seed-stream offsets so map, case, and split draws never collide
_MAP_STREAM = 32452843
_CASE_STREAM = 49979687


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file and rename so readers never see partials. The
    one place an output directory is made: a missing parent is created."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


@contextmanager
def _located(path: str, line: int):
    """Report what a reader raises as a ParseError at path:line: a missing
    field (KeyError), a value of the wrong JSON type (TypeError) or a broken
    rule (ValueError). The one place a JSON value's error gets a location."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"missing field {exc}", path=path, line=line) from None
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc), path=path, line=line) from None


def _parse_line(line: str, path: str, lineno: int) -> dict:
    with _located(path, lineno):
        doc = loads(line)
        if type(doc) is not dict:
            raise TypeError("expected a JSON object")
    return doc


def _header(kind: str, meta, **extra) -> dict:
    """Schema tag and record kind first, caller metadata last."""
    return {"schema": SCHEMA_VERSION, "kind": kind, **extra, "meta": dict(meta) if meta else {}}


def _check_header(doc: dict, kind: str | None, path: str) -> None:
    """The schema tag, then a string kind (the given one, if any) and a
    meta object."""
    tag = doc.get("schema")
    if tag != SCHEMA_VERSION:
        raise VersionMismatch(
            f"{path}: schema tag {tag!r}, expected {SCHEMA_VERSION!r}"
        )
    with _located(path, 1):
        found = read_str(doc["kind"])
        if kind is not None and found != kind:
            raise ValueError(f"expected kind {kind!r}, found {found!r}")
        if type(doc["meta"]) is not dict:
            raise TypeError(f"meta {doc['meta']!r} is not a JSON object")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path)


def _write_jsonl(path: str, kind: str, records: list, meta=None, **header_extra):
    header = _header(kind, meta, count=len(records), **header_extra)
    lines = [dumps_canonical(header)]
    lines.extend(dumps_canonical(rec) for rec in records)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_jsonl(path: str, kind: str):
    """The header and the (record, line number) pairs of a JSON-lines
    artifact, whose header must hold an integer record count; loaders read
    each record inside _located at its line."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError("empty file", path=path, line=1)
    header = _parse_line(lines[0], path, 1)
    _check_header(header, kind, path)
    with _located(path, 1):
        count = read_int(header["count"])
    records = [
        (_parse_line(line, path, i + 2), i + 2)
        for i, line in enumerate(lines[1:])
        if line.strip()
    ]
    if len(records) != count:
        raise ParseError(
            f"header promises {count} records, found {len(records)}",
            path=path,
            line=len(lines),
        )
    return header, records


# ---------------------------------------------------------------------------
# domain record types


@dataclass(frozen=True)
class CaseRecord:
    """A case plus its expert solution, if it has been solved."""

    case_id: str
    case: Case
    plan: Plan | None = None


@dataclass
class PoolStats:
    """Per-item outcomes of a generation pipeline run."""

    requested: int = 0
    stored: int = 0
    duplicates: int = 0
    infeasible: int = 0
    timeouts: int = 0
    unsolvable: int = 0


# ---------------------------------------------------------------------------
# maps


def _cells_to_lists(cells) -> list:
    return [[int(x), int(y)] for x, y in cells]


def save_maps(path: str, maps: dict[str, GridMap], meta=None) -> None:
    records = []
    for map_id, grid in maps.items():
        records.append(
            {
                "map_id": map_id,
                "width": grid.width,
                "height": grid.height,
                "density": grid.density,
                "seed": grid.seed,
                "obstacles": _cells_to_lists(sorted(grid.obstacles)),
            }
        )
    _write_jsonl(path, "maps", records, meta=meta)


def load_maps(path: str) -> dict[str, GridMap]:
    """Maps keyed by map_id, each id once. A map is at least 2x2, every
    obstacle lies on it, its density is in [0, 1) and its seed an integer or
    null."""
    _, records = _read_jsonl(path, "maps")
    maps: dict[str, GridMap] = {}
    for doc, lineno in records:
        with _located(path, lineno):
            map_id = read_str(doc["map_id"])
            if map_id in maps:
                raise ValueError(f"duplicate map_id {map_id!r}")
            width, height = read_int(doc["width"]), read_int(doc["height"])
            if width < 2 or height < 2:
                raise ValueError(f"map is {width}x{height}, below 2x2")
            obstacles = frozenset(read_cells(doc["obstacles"]))
            if not all(0 <= x < width and 0 <= y < height for x, y in obstacles):
                raise ValueError("an obstacle lies off the map")
            density = read_real(doc["density"])
            if not 0 <= density < 1:
                raise ValueError(f"density {density!r} is not in [0, 1)")
            seed = None if doc["seed"] is None else read_int(doc["seed"])
            maps[map_id] = GridMap(width, height, obstacles, density=density, seed=seed)
    return maps


# ---------------------------------------------------------------------------
# cases


def _plan_to_doc(plan: Plan) -> dict:
    return {
        "paths": [_cells_to_lists(p) for p in plan.paths],
        "flowtime": plan.flowtime,
        "makespan": plan.makespan,
    }


def _plan_from_doc(doc: dict) -> Plan:
    """A stored plan as written; validate_plan checks it against its case."""
    return Plan(
        paths=tuple(read_cells(p) for p in doc["paths"]),
        flowtime=read_int(doc["flowtime"]),
        makespan=read_int(doc["makespan"]),
    )


def _read_team(doc: dict, maps: dict[str, GridMap]):
    """(map_id, starts, goals), checked as every case must be: on a known
    map, as many goals as robots and at least one, every cell free on the
    map, and no two robots on one cell or one goal."""
    map_id = read_str(doc["map_id"])
    grid = maps.get(map_id)
    if grid is None:
        raise ValueError(f"unknown map_id {map_id!r}")
    starts, goals = read_cells(doc["starts"]), read_cells(doc["goals"])
    if not starts or len(starts) != len(goals):
        raise ValueError("robot and goal counts differ or are 0")
    if len(set(starts)) < len(starts) or len(set(goals)) < len(goals):
        raise ValueError("two robots share a cell or a goal")
    if not all(map(grid.is_free, starts + goals)):
        raise ValueError(f"a cell or goal is not free on {map_id!r}")
    return map_id, starts, goals


def _case_doc(rec: CaseRecord) -> dict:
    """The one spelling of a case record, in cases and dataset files alike."""
    return {
        "case_id": rec.case_id,
        "map_id": rec.case.map_id,
        "starts": _cells_to_lists(rec.case.starts),
        "goals": _cells_to_lists(rec.case.goals),
        "plan": _plan_to_doc(rec.plan) if rec.plan is not None else None,
    }


def _read_cases(
    path: str, records, maps: dict[str, GridMap], solved: bool
) -> list[CaseRecord]:
    """The case records of a file's (record, line number) pairs, each
    case_id once. Starts and goals obey _read_team's rules, every stored
    plan is re-validated against its map, and a solved file refuses a
    null plan."""
    out = []
    seen = set()
    for doc, lineno in records:
        with _located(path, lineno):
            case_id = read_str(doc["case_id"])
            if case_id in seen:
                raise ValueError(f"duplicate case_id {case_id!r}")
            seen.add(case_id)
            map_id, starts, goals = _read_team(doc, maps)
            case = Case(map_id=map_id, starts=starts, goals=goals)
            plan = doc["plan"]
            if plan is None and solved:
                raise ValueError(f"case {case_id!r} has no plan")
            if plan is not None:
                plan = _plan_from_doc(plan)
                try:
                    validate_plan(maps[map_id], case, plan)
                except ValueError as exc:
                    raise ValueError(f"stored plan invalid: {exc}") from None
            out.append(CaseRecord(case_id=case_id, case=case, plan=plan))
    return out


def save_cases(path: str, records: list[CaseRecord], meta=None) -> None:
    _write_jsonl(path, "cases", [_case_doc(rec) for rec in records], meta=meta)


def load_cases(path: str, maps: dict[str, GridMap]) -> list[CaseRecord]:
    """Load case records as _read_cases checks them; a plan may be null."""
    _, records = _read_jsonl(path, "cases")
    return _read_cases(path, records, maps, solved=False)


# ---------------------------------------------------------------------------
# datasets (a split's solved cases, expanded to per-timestep samples on load)


def _case_from_samples(run: list) -> CaseRecord:
    """The solved case whose expansion is run. Its starts are the cells at
    t = 0, and robot i's path is its cells over t followed by its goal, less
    trailing repeats at the goal: a CBS path never ends in a wait there. A
    run whose t is not 0, 1, ..., whose map or goals change, or whose plan
    does not re-expand to exactly its positions and labels raises
    ValueError."""
    first = run[0]
    whole = [s.t for s in run] == list(range(len(run))) and all(
        (s.map_id, s.goals) == (first.map_id, first.goals) for s in run
    )
    if whole:
        paths = []
        for i, goal in enumerate(first.goals):
            path = [s.positions[i] for s in run] + [goal]
            while len(path) >= 2 and path[-1] == path[-2] == goal:
                path.pop()
            paths.append(tuple(path))
        costs = [len(p) - 1 for p in paths]
        plan = Plan(paths=tuple(paths), flowtime=sum(costs), makespan=max(costs))
        try:
            # the rebuilt positions equal run's once the makespan does
            whole = plan.makespan == len(run) and np.array_equal(
                plan_to_labels(plan), np.stack([s.labels for s in run])
            )
        except KeyError:  # a jump that no action makes
            whole = False
    if not whole:
        raise ValueError(f"samples of {first.case_id!r} are not one whole trajectory")
    return CaseRecord(first.case_id, Case(first.map_id, first.positions, first.goals), plan)


def save_dataset(
    path: str,
    dataset: Dataset,
    fov_radius: int | None = None,
    comm_radius: float | None = None,
    meta=None,
) -> None:
    """The solved cases whose expansions the dataset holds, one line each in
    save_cases's spelling, under a header with the dataset's radii, at which
    load rebuilds the samples. The samples must be whole trajectories, case
    after case with t ascending, as expand_samples and load_dataset give
    them; other samples, or a radius passed that differs from the dataset's,
    raise ValueError before any write."""
    for name, given in (("fov_radius", fov_radius), ("comm_radius", comm_radius)):
        built = getattr(dataset, name)
        if given is not None and given != built:
            raise ValueError(f"{name}={given}, but the dataset was built with {built}")
    records: dict[str, CaseRecord] = {}
    for case_id, run in groupby(dataset.samples, key=lambda s: s.case_id):
        if case_id in records:
            raise ValueError(f"samples of {case_id!r} do not form one run")
        records[case_id] = _case_from_samples(list(run))
    _write_jsonl(
        path,
        "dataset",
        [_case_doc(rec) for rec in records.values()],
        meta=meta,
        split=dataset.split,
        fov_radius=int(dataset.fov_radius),
        comm_radius=float(dataset.comm_radius),
    )


def load_dataset(path: str, maps: dict[str, GridMap]) -> Dataset:
    """The samples of a split's solved cases, in file order, re-expanded by
    expand_samples at the header's radii, an integer fov_radius of at least
    1 and a comm_radius above 0, under the header's string split. Records
    are read as load_cases reads them, and each must hold a plan."""
    header, records = _read_jsonl(path, "dataset")
    with _located(path, 1):
        fov = read_int(header["fov_radius"])
        comm = read_real(header["comm_radius"])
        split = read_str(header["split"])
        if fov < 1:
            raise ValueError(f"fov_radius {fov} is below 1")
        if comm <= 0:
            raise ValueError(f"comm_radius {comm!r} is not above 0")
    pool = _read_cases(path, records, maps, solved=True)
    return expand_samples(pool, maps, split=split, fov_radius=fov, comm_radius=comm)


def load_dataset_case_ids(path: str) -> set[str]:
    """Case ids of a dataset file, without rebuilding any observation."""
    _, records = _read_jsonl(path, "dataset")
    ids = set()
    for doc, lineno in records:
        with _located(path, lineno):
            ids.add(read_str(doc["case_id"]))
    return ids


# ---------------------------------------------------------------------------
# weights, traces


def save_weights(path: str, net: PolicyNetwork, meta=None) -> None:
    doc = {**_header("weights", meta), "model": net.to_jsonable()}
    atomic_write_text(path, dumps_canonical(doc) + "\n")


def load_weights(path: str) -> PolicyNetwork:
    doc = _parse_line(_read_text(path), path, 1)
    _check_header(doc, "weights", path)
    with _located(path, 1):
        return PolicyNetwork.from_jsonable(doc["model"])


def save_trace(path: str, traj: Trajectory, case_id: str = "", meta=None) -> None:
    doc = {
        **_header("trace", meta),
        "case_id": case_id,
        "map_id": traj.case.map_id,
        "goals": _cells_to_lists(traj.case.goals),
        "t_max": traj.t_max,
        "success": traj.success,
        "robot_success": list(traj.robot_success),
        "arrivals": list(traj.arrivals),
        "positions": [_cells_to_lists(step) for step in traj.positions],
        "shielded": [[int(b) for b in step] for step in traj.shielded],
    }
    atomic_write_text(path, dumps_canonical(doc) + "\n")


# ---------------------------------------------------------------------------
# CSV artifacts: line 1 is a '#' comment holding the schema header, then a
# regular CSV table; reals are spelled by repr, as in the JSON files


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # CSV cells may be missing (e.g. no validation split): leave empty
        return repr(float(value)) if np.isfinite(value) else ""
    return str(value)


def write_csv(path: str, kind: str, fieldnames: list[str], rows: list[dict], meta=None):
    buf = io.StringIO()
    buf.write("# " + dumps_canonical(_header(kind, meta)) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_cell(row.get(name)) for name in fieldnames])
    atomic_write_text(path, buf.getvalue())


def read_csv(path: str, kind: str | None = None):
    """Returns (header dict, fieldnames, rows as string dicts)."""
    lines = _read_text(path).splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ParseError("missing schema comment line", path=path, line=1)
    header = _parse_line(lines[0][2:], path, 1)
    _check_header(header, kind, path)
    body = list(csv.reader(lines[1:]))
    if not body:
        raise ParseError("missing CSV column header", path=path, line=2)
    fieldnames = body[0]
    rows = []
    for i, cells in enumerate(body[1:]):
        if len(cells) != len(fieldnames):
            raise ParseError(
                f"row has {len(cells)} cells, expected {len(fieldnames)}",
                path=path,
                line=i + 3,
            )
        rows.append(dict(zip(fieldnames, cells)))
    return header, fieldnames, rows


REPORT_FIELDS = [
    "label",
    "num_cases",
    "num_success",
    "alpha",
    "flowtime",
    "expert_flowtime",
    "delta_ft",
]

HIST_FIELDS = ["label", "robots_at_goal", "case_count", "proportion"]

TRAINING_LOG_FIELDS = [
    "epoch",
    "lr",
    "train_loss",
    "train_acc",
    "valid_loss",
    "valid_acc",
    "train_size",
    "oe_rolled",
    "oe_failed",
    "oe_repaired",
    "oe_added",
]


def save_report_csv(path: str, reports: list[tuple[str, MetricsReport]], meta=None):
    rows = []
    for label, rep in reports:
        rows.append(
            {
                "label": label,
                "num_cases": rep.num_cases,
                "num_success": rep.num_success,
                "alpha": rep.alpha,
                "flowtime": rep.flowtime,
                "expert_flowtime": rep.expert_flowtime,
                "delta_ft": rep.delta_ft,
            }
        )
    write_csv(path, "report", REPORT_FIELDS, rows, meta=meta)


def save_hist_csv(path: str, reports: list[tuple[str, MetricsReport]], meta=None):
    rows = []
    for label, rep in reports:
        for robots_at_goal in sorted(rep.histogram):
            count = rep.histogram[robots_at_goal]
            rows.append(
                {
                    "label": label,
                    "robots_at_goal": robots_at_goal,
                    "case_count": count,
                    "proportion": count / rep.num_cases,
                }
            )
    write_csv(path, "hist", HIST_FIELDS, rows, meta=meta)


def save_training_log(path: str, history: list[dict], meta=None):
    write_csv(path, "training-log", TRAINING_LOG_FIELDS, list(history), meta=meta)


def write_long_csv(in_path: str, out_path: str, id_fields: list[str], meta=None):
    """Wide CSV -> long (id..., metric, value) rows, one per value column."""
    header, fieldnames, rows = read_csv(in_path)
    missing = [f for f in id_fields if f not in fieldnames]
    if missing:
        raise ParseError(f"id fields {missing} not in columns", path=in_path, line=2)
    value_fields = [f for f in fieldnames if f not in id_fields]
    out_rows = []
    for row in rows:
        for metric in value_fields:
            out = {f: row[f] for f in id_fields}
            out["metric"] = metric
            out["value"] = row[metric]
            out_rows.append(out)
    merged = dict(header["meta"])
    if meta:
        merged.update(meta)
    write_csv(out_path, "long", id_fields + ["metric", "value"], out_rows, meta=merged)


# ---------------------------------------------------------------------------
# generation pipeline


def generate_map_pool(
    num_maps: int, width: int, height: int, density: float, seed: int
) -> dict[str, GridMap]:
    """Seeded map pool keyed m0000, m0001, ... in generation order."""
    rng = np.random.default_rng([seed, _MAP_STREAM])
    maps: dict[str, GridMap] = {}
    for i in range(num_maps):
        map_seed = int(rng.integers(2**63))
        maps[f"m{i:04d}"] = generate_map(width, height, density, seed=map_seed)
    return maps


def generate_case_pool(
    maps: dict[str, GridMap],
    cases_per_map: int,
    num_robots: int,
    seed: int,
    stats: PoolStats | None = None,
    log=None,
) -> list[CaseRecord]:
    """Unsolved case records; duplicate (starts, goals) per map are filtered
    and per-item generation failures are counted without aborting the pool.
    """
    rng = np.random.default_rng([seed, _CASE_STREAM])
    stats = stats if stats is not None else PoolStats()
    records = []
    for map_id, grid in maps.items():
        seen = set()
        for k in range(cases_per_map):
            stats.requested += 1
            case_seed = int(rng.integers(2**63))
            try:
                case = generate_case(grid, num_robots, seed=case_seed, map_id=map_id)
            except InfeasibleCase as exc:
                stats.infeasible += 1
                if log is not None:
                    log(f"skipped {map_id} case {k}: {exc}")
                continue
            key = (case.starts, case.goals)
            if key in seen:
                stats.duplicates += 1
                continue
            seen.add(key)
            records.append(CaseRecord(case_id=f"{map_id}/c{k:04d}", case=case))
    stats.stored = len(records)
    return records


def _solve_one(args):
    grid, record, timeout_s = args
    try:
        plan = cbs_solve(grid, record.case, timeout_s=timeout_s)
    except SolverTimeout:
        return record, "timeout"
    except (PlanInfeasible, MapfGnnError):
        return record, "unsolvable"
    return replace(record, plan=plan), "solved"


def solve_case_pool(
    maps: dict[str, GridMap],
    records: list[CaseRecord],
    timeout_s: float = DEFAULT_TIMEOUT_S,
    workers: int = 1,
    stats: PoolStats | None = None,
    log=None,
) -> list[CaseRecord]:
    """Attach expert plans; timeouts and unsolvable cases are dropped and
    counted, and stats.stored becomes the number solved. Output order
    follows input order regardless of worker count. The one solve-and-drop
    rule: `expert`, `build-dataset` and the online expert's repairs all
    solve through here.
    """
    stats = stats if stats is not None else PoolStats()
    jobs = [(maps[rec.case.map_id], rec, timeout_s) for rec in records]
    if workers <= 1:
        results = [_solve_one(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_solve_one, jobs))
    solved = []
    for rec, outcome in results:
        if outcome == "solved":
            solved.append(rec)
        elif outcome == "timeout":
            stats.timeouts += 1
            if log is not None:
                log(f"expert timeout on {rec.case_id}")
        else:
            stats.unsolvable += 1
            if log is not None:
                log(f"unsolvable case {rec.case_id}")
    stats.stored = len(solved)
    return solved


def build_dataset(
    num_maps: int,
    cases_per_map: int,
    num_robots: int,
    width: int,
    height: int,
    density: float,
    seed: int,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    workers: int = 1,
    log=None,
):
    """generate_map -> generate_case -> cbs_solve, a pure function of
    (seed, config). Returns (maps, solved case records, stats).
    """
    stats = PoolStats()
    maps = generate_map_pool(num_maps, width, height, density, seed)
    records = generate_case_pool(
        maps, cases_per_map, num_robots, seed, stats=stats, log=log
    )
    solved = solve_case_pool(
        maps, records, timeout_s=timeout_s, workers=workers, stats=stats, log=log
    )
    return maps, solved, stats


def expand_samples(
    pool: list[CaseRecord],
    maps: dict[str, GridMap],
    split: str = "train",
    fov_radius: int = DEFAULT_FOV_RADIUS,
    comm_radius: float = DEFAULT_COMM_RADIUS,
) -> Dataset:
    """One sample per expert timestep for every solved record in the pool."""
    # looked up at call time, not bound at import: perfbench's span patch
    # replaces training.expand_case, and dataset loads expand through here too
    from .training import expand_case

    samples = []
    for rec in pool:
        if rec.plan is None:
            raise ValueError(f"record {rec.case_id} has no plan to expand")
        samples.extend(
            expand_case(
                maps[rec.case.map_id],
                rec.case,
                rec.plan,
                case_id=rec.case_id,
                fov_radius=fov_radius,
                comm_radius=comm_radius,
            )
        )
    return Dataset(
        split=split, samples=samples, fov_radius=fov_radius, comm_radius=comm_radius
    )
