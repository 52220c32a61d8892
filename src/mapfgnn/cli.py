"""Command-line entry point: generation, expert solving, training,
evaluation, and report emission.

Configuration comes from built-in defaults, then an optional JSON config
file (path via --config or the MAPFGNN_CONFIG environment variable), then
command-line flags; later sources win. Artifact headers record the settings
their subcommand read. Exit codes: 0 ok, 1 check failed, 2 config error,
3 infeasible or timeout-dominated run, 4 I/O error.
"""

from __future__ import annotations

import os

# single-threaded BLAS keeps reductions bit-stable; set before numpy loads
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__, datastore
from .errors import (
    ConfigError,
    EmptyInput,
    InfeasibleCase,
    MapfGnnError,
    ParseError,
    PlanInfeasible,
    SolverTimeout,
    TooLarge,
    VersionMismatch,
)
from .executor import (
    IdlePolicy,
    NetworkPolicy,
    PlanReplayPolicy,
    RandomPolicy,
    compute_metrics,
    rollout,
    rollout_cases,
)
from .expert import cbs_solve, joint_bfs_oracle
from .gridworld import generate_case, generate_map
from .jsonio import loads, read_int, read_ints, read_real
from .policy import PolicyArch, PolicyNetwork
from .training import TrainConfig, fit, split_dataset

CONFIG_ENV = "MAPFGNN_CONFIG"

_ORACLE_STREAM = 86028157

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings; each subcommand records the ones it reads.

    Fields shared with PolicyArch and TrainConfig carry the same names and
    take their defaults from those classes, which own them and check them.
    """

    width: int = 20
    height: int = 20
    density: float = 0.10
    num_robots: int = 10
    num_maps: int = 600
    cases_per_map: int = 50
    fov_radius: int = PolicyArch.fov_radius
    comm_radius: float = PolicyArch.comm_radius
    taps: int = PolicyArch.taps
    features: int = PolicyArch.features
    channels: tuple = PolicyArch.channels
    epochs: int = TrainConfig.epochs
    lr_max: float = TrainConfig.lr_max
    lr_min: float = TrainConfig.lr_min
    batch_size: int = TrainConfig.batch_size
    l2: float = TrainConfig.l2
    oe_interval: int = TrainConfig.oe_interval
    oe_cases: int = TrainConfig.oe_cases
    timeout_s: float = TrainConfig.timeout_s
    split_train: float = 0.70
    split_valid: float = 0.15
    split_test: float = 0.15
    seed: int = TrainConfig.seed
    workers: int = 1

    def validate(self) -> None:
        """The rules on fields no other class owns, then the owners' own."""
        checks = [
            (self.width >= 2 and self.height >= 2, "map must be at least 2x2"),
            (0.0 <= self.density < 1.0, "density must be in [0, 1)"),
            (self.num_robots >= 1, "need at least one robot"),
            (self.num_maps >= 0 and self.cases_per_map >= 0, "counts must be >= 0"),
            (self.workers >= 1, "workers must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (
                min(self.split_train, self.split_valid, self.split_test) >= 0
                and abs(self.split_train + self.split_valid + self.split_test - 1.0)
                <= 1e-9,
                "split ratios must be nonnegative and sum to 1",
            ),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            self.arch()
            self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc))

    def _derive(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def arch(self) -> PolicyArch:
        return self._derive(PolicyArch)

    def train_config(self) -> TrainConfig:
        return self._derive(TrainConfig)

    def ratios(self) -> tuple:
        return (self.split_train, self.split_valid, self.split_test)

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["channels"] = list(self.channels)
        return doc


# the RunConfig fields each subcommand reads: its flags and its headers'
# meta.config both come from this one list
_READS = {
    "gen-maps": ("num_maps", "width", "height", "density", "seed"),
    "gen-cases": ("cases_per_map", "num_robots", "seed"),
    "expert": ("timeout_s", "workers", "seed"),
    "build-dataset": (
        "num_maps", "cases_per_map", "num_robots", "width", "height", "density",
        "fov_radius", "comm_radius", "timeout_s", "split_train", "split_valid",
        "split_test", "seed", "workers",
    ),
    "train": (
        "epochs", "lr_max", "lr_min", "batch_size", "l2", "oe_interval", "oe_cases",
        "taps", "features", "channels", "timeout_s", "seed",
    ),
    "eval": ("seed",),
    "rollout": ("seed",),
    "oracle-check": ("timeout_s", "seed"),
    "report": (),
}

# set from the config file only
_NO_FLAG = {"features", "channels"}


def _meta(command: str, config: RunConfig, net=None) -> dict:
    """Run metadata: the settings the subcommand read and, with a network,
    the arch it ran with."""
    settings = {k: v for k, v in config.as_dict().items() if k in _READS[command]}
    meta = {"tool": f"mapfgnn {__version__}", "command": command, "config": settings}
    if net is not None:
        meta["arch"] = net.arch.to_jsonable()
    return meta


# each RunConfig field's JSON reader, picked by the type of its default
_READERS = {int: read_int, float: read_real, tuple: read_ints}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- JSON config file <- explicitly passed flags; every key is
    checked, including those the subcommand does not read."""
    values = RunConfig().as_dict()
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = loads(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except ValueError as exc:
            raise ConfigError(f"config file: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(values))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values.update(doc)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key, value in values.items():
        try:
            values[key] = _READERS[type(getattr(RunConfig, key))](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}")
    config = RunConfig(**values)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen_maps(args, config: RunConfig) -> int:
    maps = datastore.generate_map_pool(
        config.num_maps, config.width, config.height, config.density, config.seed
    )
    datastore.save_maps(args.out, maps, meta=_meta("gen-maps", config))
    print(f"gen-maps: wrote {len(maps)} maps to {args.out}")
    return EXIT_OK


def _cmd_gen_cases(args, config: RunConfig) -> int:
    maps = datastore.load_maps(args.maps)
    stats = datastore.PoolStats()
    records = datastore.generate_case_pool(
        maps,
        config.cases_per_map,
        config.num_robots,
        config.seed,
        stats=stats,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    datastore.save_cases(args.out, records, meta=_meta("gen-cases", config))
    print(f"gen-cases: wrote {len(records)} cases to {args.out} {asdict(stats)}")
    return EXIT_OK


def _cmd_expert(args, config: RunConfig) -> int:
    maps = datastore.load_maps(args.maps)
    records = datastore.load_cases(args.cases, maps)
    stats = datastore.PoolStats()
    solved = datastore.solve_case_pool(
        maps,
        records,
        timeout_s=config.timeout_s,
        workers=config.workers,
        stats=stats,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    datastore.save_cases(args.out, solved, meta=_meta("expert", config))
    print(f"expert: solved {len(solved)}/{len(records)} cases {asdict(stats)}")
    if records and not solved:
        raise SolverTimeout("no case solved")
    return EXIT_OK


def _cmd_build_dataset(args, config: RunConfig) -> int:
    maps, solved, stats = datastore.build_dataset(
        config.num_maps,
        config.cases_per_map,
        config.num_robots,
        config.width,
        config.height,
        config.density,
        config.seed,
        timeout_s=config.timeout_s,
        workers=config.workers,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    if not solved:
        raise InfeasibleCase("empty solved pool")
    os.makedirs(args.out_dir, exist_ok=True)
    meta = _meta("build-dataset", config)
    datastore.save_maps(os.path.join(args.out_dir, "maps.jsonl"), maps, meta=meta)
    datastore.save_cases(os.path.join(args.out_dir, "cases.jsonl"), solved, meta=meta)
    splits = split_dataset(solved, ratios=config.ratios(), seed=config.seed)
    for name, records in zip(("train", "valid", "test"), splits):
        ds = datastore.expand_samples(
            records,
            maps,
            split=name,
            fov_radius=config.fov_radius,
            comm_radius=config.comm_radius,
        )
        datastore.save_dataset(os.path.join(args.out_dir, f"dataset.{name}.jsonl"), ds, meta=meta)
        print(f"build-dataset: {name} split has {len(records)} cases, {len(ds)} samples")
    print(f"build-dataset: stats {asdict(stats)}")
    return EXIT_OK


def _cmd_train(args, config: RunConfig) -> int:
    """Trains at the train split's radii; fit rejects a valid split built
    with others."""
    maps = datastore.load_maps(os.path.join(args.data_dir, "maps.jsonl"))
    train_ds = datastore.load_dataset(os.path.join(args.data_dir, "dataset.train.jsonl"), maps)
    valid_path = os.path.join(args.data_dir, "dataset.valid.jsonl")
    if os.path.exists(valid_path):
        valid_ds = datastore.load_dataset(valid_path, maps)
    else:
        valid_ds = replace(train_ds, split="valid", samples=[])
    train_records = None
    cases_path = os.path.join(args.data_dir, "cases.jsonl")
    if not args.no_oe and os.path.exists(cases_path):
        train_ids = train_ds.case_ids()
        pool = datastore.load_cases(cases_path, maps)
        train_records = [rec for rec in pool if rec.case_id in train_ids]
    try:
        arch = replace(
            config.arch(), fov_radius=train_ds.fov_radius, comm_radius=train_ds.comm_radius
        )
    except ValueError as exc:
        raise ConfigError(f"the train split's radii make no valid arch: {exc}")
    net = PolicyNetwork(arch, seed=config.seed)
    meta = _meta("train", config, net)
    weights_path = os.path.join(args.out_dir, "model.json")
    log_path = os.path.join(args.out_dir, "log.csv")
    history = []

    def on_epoch(net_, adam_, epoch_, row):
        # made at the first checkpoint: fit checks its inputs before any
        # epoch, so a refused run leaves no directory
        os.makedirs(args.out_dir, exist_ok=True)
        history.append(row)
        datastore.save_weights(weights_path, net_, meta=meta)
        datastore.save_training_log(log_path, history, meta=meta)
        print(
            "train: epoch={epoch} lr={lr:.3e} loss={train_loss:.4f} "
            "acc={train_acc:.4f} valid_acc={valid_acc}".format(**row)
        )

    fit(
        net,
        train_ds,
        valid_ds,
        config.train_config(),
        train_records=train_records,
        maps=maps if train_records is not None else None,
        on_epoch=on_epoch,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    print(f"train: wrote {weights_path} and {log_path}")
    return EXIT_OK


def _make_policy(name: str, record, net):
    if name == "network":
        return NetworkPolicy(net, mode="greedy")
    if name == "expert-replay":
        return PlanReplayPolicy(record.plan)
    if name == "idle":
        return IdlePolicy()
    if name == "random":
        return RandomPolicy()
    raise ConfigError(f"unknown policy {name!r}")


def _load_eval_records(args, maps):
    records = datastore.load_cases(os.path.join(args.data_dir, "cases.jsonl"), maps)
    records = [rec for rec in records if rec.plan is not None]
    split_path = os.path.join(args.data_dir, f"dataset.{args.split}.jsonl")
    if os.path.exists(split_path):
        ids = datastore.load_dataset_case_ids(split_path)
        records = [rec for rec in records if rec.case_id in ids]
    return records


def _cmd_eval(args, config: RunConfig) -> int:
    maps = datastore.load_maps(os.path.join(args.data_dir, "maps.jsonl"))
    records = _load_eval_records(args, maps)
    if not records:
        raise EmptyInput(f"no cases found for split {args.split!r}")
    net = datastore.load_weights(args.weights) if args.policy == "network" else None
    os.makedirs(args.out_dir, exist_ok=True)
    trajectories = rollout_cases(
        lambda rec: _make_policy(args.policy, rec, net), maps, records, config.seed
    )
    report = compute_metrics(trajectories, [rec.plan for rec in records])
    label = f"{args.policy}:{args.split}"
    if net is not None:
        label += f":K{net.arch.taps}"
    meta = _meta("eval", config, net)
    datastore.save_report_csv(
        os.path.join(args.out_dir, "report.csv"), [(label, report)], meta=meta
    )
    datastore.save_hist_csv(
        os.path.join(args.out_dir, "hist.csv"), [(label, report)], meta=meta
    )
    print(
        f"eval: cases={report.num_cases} alpha={report.alpha:.4f} "
        f"delta_ft={report.delta_ft:.4f}"
    )
    return EXIT_OK


def _cmd_rollout(args, config: RunConfig) -> int:
    maps = datastore.load_maps(os.path.join(args.data_dir, "maps.jsonl"))
    records = datastore.load_cases(os.path.join(args.data_dir, "cases.jsonl"), maps)
    if args.case_id:
        matches = [rec for rec in records if rec.case_id == args.case_id]
        if not matches:
            raise ConfigError(f"case {args.case_id!r} not found")
        rec = matches[0]
    elif records:
        rec = records[0]
    else:
        raise EmptyInput("case pool is empty")
    if rec.plan is None:
        raise ConfigError(f"case {rec.case_id!r} has no expert plan; run expert first")
    net = datastore.load_weights(args.weights) if args.policy == "network" else None
    policy = _make_policy(args.policy, rec, net)
    traj = rollout(policy, maps[rec.case.map_id], rec.case, rec.plan, seed=config.seed)
    datastore.save_trace(args.out, traj, case_id=rec.case_id, meta=_meta("rollout", config, net))
    print(
        f"rollout: case={rec.case_id} success={traj.success} "
        f"steps={traj.steps} arrivals={list(traj.arrivals)}"
    )
    return EXIT_OK


def _cmd_oracle_check(args, config: RunConfig) -> int:
    for ok, message in [
        (args.instances >= 1, "--instances must be >= 1"),
        (args.max_size >= 2, "--max-size must be >= 2"),
        (args.max_robots >= 1, "--max-robots must be >= 1"),
        (0.0 <= args.max_density < 1.0, "--max-density must be in [0, 1)"),
    ]:
        if not ok:
            raise ConfigError(message)
    rng = np.random.default_rng([config.seed, _ORACLE_STREAM])
    checked = 0
    mismatches = 0
    attempts = 0
    max_attempts = 50 * args.instances
    while checked < args.instances:
        attempts += 1
        if attempts > max_attempts:
            raise InfeasibleCase(
                f"could not generate {args.instances} instances "
                f"within {max_attempts} attempts"
            )
        width = int(rng.integers(2, args.max_size + 1))
        height = int(rng.integers(2, args.max_size + 1))
        robots = int(rng.integers(1, args.max_robots + 1))
        density = float(rng.uniform(0.0, args.max_density))
        map_seed = int(rng.integers(2**63))
        case_seed = int(rng.integers(2**63))
        grid = generate_map(width, height, density, seed=map_seed)
        try:
            case = generate_case(grid, robots, seed=case_seed, map_id="check")
        except InfeasibleCase:
            continue
        try:
            reference = joint_bfs_oracle(grid, case)
        except (TooLarge, PlanInfeasible):
            # the solver can only prove infeasibility by exhausting its
            # constraint tree, which is intractable; compare solvable cases
            continue
        plan = cbs_solve(grid, case, timeout_s=config.timeout_s)
        checked += 1
        if plan.flowtime != reference.flowtime:
            mismatches += 1
            print(
                f"oracle-check: MISMATCH case starts={case.starts} "
                f"goals={case.goals} cbs={plan.flowtime} oracle={reference.flowtime}"
            )
    print(f"checked: {checked}")
    print(f"mismatches: {mismatches}")
    return EXIT_OK if mismatches == 0 else EXIT_CHECK_FAILED


_DEFAULT_ID_FIELDS = {
    "report": ["label"],
    "hist": ["label", "robots_at_goal"],
    "training-log": ["epoch"],
}


def _cmd_report(args, config: RunConfig) -> int:
    if args.id_fields:
        id_fields = [f.strip() for f in args.id_fields.split(",") if f.strip()]
    else:
        header, _, _ = datastore.read_csv(args.input)
        kind = header["kind"]
        if kind not in _DEFAULT_ID_FIELDS:
            raise ConfigError(
                f"cannot infer id fields for kind {kind!r}; pass --id-fields"
            )
        id_fields = _DEFAULT_ID_FIELDS[kind]
    datastore.write_long_csv(args.input, args.out, id_fields, meta=_meta("report", config))
    print(f"report: wrote {args.out}")
    return EXIT_OK


_HANDLERS = {
    "gen-maps": _cmd_gen_maps,
    "gen-cases": _cmd_gen_cases,
    "expert": _cmd_expert,
    "build-dataset": _cmd_build_dataset,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "rollout": _cmd_rollout,
    "oracle-check": _cmd_oracle_check,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argument parsing


# flags spelled other than "--" + the field name with "-" for "_"
_FLAG_SPELLINGS = {
    "num_robots": "--robots",
    "taps": "--k",
    "lr_max": "--lr",
    "batch_size": "--batch",
}


def _add_config_flags(sub: argparse.ArgumentParser, command: str) -> None:
    """Flags overriding the RunConfig fields the command reads, typed like
    the field's default; None means 'not provided'."""
    for name in _READS[command]:
        if name in _NO_FLAG:
            continue
        flag = _FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-"))
        sub.add_argument(flag, dest=name, default=None, type=type(getattr(RunConfig, name)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapfgnn",
        description="Grid-world multi-robot path planning: expert data, "
        "imitation-trained graph policies, and shielded execution.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")

    def sub(name, help_text):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file")
        _add_config_flags(p, name)
        return p

    p = sub("gen-maps", "generate a pool of random grid maps")
    p.add_argument("--out", required=True)

    p = sub("gen-cases", "generate start/goal cases over a map pool")
    p.add_argument("--maps", required=True)
    p.add_argument("--out", required=True)

    p = sub("expert", "solve cases optimally and store the plans")
    p.add_argument("--maps", required=True)
    p.add_argument("--cases", required=True)
    p.add_argument("--out", required=True)

    p = sub("build-dataset", "maps + cases + expert plans + split sample files")
    p.add_argument("--out-dir", required=True)

    p = sub("train", "imitation training with online-expert aggregation")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--no-oe", action="store_true", help="disable aggregation")

    p = sub("eval", "roll a policy over a split and write metric CSVs")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--split", default="test", choices=("train", "valid", "test"))
    p.add_argument(
        "--policy",
        default="network",
        choices=("network", "expert-replay", "idle", "random"),
    )
    p.add_argument("--weights", default=None, help="model.json for --policy network")

    p = sub("rollout", "trace a single case")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--case-id", default=None)
    p.add_argument(
        "--policy",
        default="network",
        choices=("network", "expert-replay", "idle", "random"),
    )
    p.add_argument("--weights", default=None)

    p = sub("oracle-check", "compare the solver against a joint-space oracle")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--max-robots", type=int, default=3)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--max-density", type=float, default=0.2)

    p = sub("report", "convert a metric CSV into a long-format table")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--id-fields", default=None, help="comma-separated id columns")

    return parser


def _fail(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    if args.command == "eval" or args.command == "rollout":
        if getattr(args, "policy", None) == "network" and not args.weights:
            _fail(ConfigError("--policy network requires --weights"))
            return EXIT_CONFIG
    try:
        config = resolve_config(args)
        return _HANDLERS[args.command](args, config)
    except ConfigError as exc:
        _fail(exc)
        return EXIT_CONFIG
    except (SolverTimeout, InfeasibleCase, PlanInfeasible, TooLarge, EmptyInput) as exc:
        _fail(exc)
        return EXIT_INFEASIBLE
    except (ParseError, VersionMismatch, OSError) as exc:
        _fail(exc)
        return EXIT_IO
    except MapfGnnError as exc:
        _fail(exc)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
