"""Command-line entry point: generation, expert solving, training,
evaluation, and report emission.

Configuration comes from built-in defaults, then an optional JSON config
file (path via --config or the MAPFGNN_CONFIG environment variable), then
command-line flags; later sources win. The fully resolved configuration is
echoed into every output artifact. Exit codes: 0 ok, 1 check failed,
2 config error, 3 infeasible or timeout-dominated run, 4 I/O error.
"""

from __future__ import annotations

import os

# single-threaded BLAS keeps reductions bit-stable; set before numpy loads
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import sys
from dataclasses import asdict, dataclass

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
)
from .expert import cbs_solve, joint_bfs_oracle
from .gridworld import generate_case, generate_map
from .policy import PolicyArch, PolicyNetwork
from .training import Dataset, TrainConfig, fit, split_dataset

CONFIG_ENV = "MAPFGNN_CONFIG"

_ORACLE_STREAM = 86028157

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings, embedded into every artifact."""

    width: int = 20
    height: int = 20
    density: float = 0.10
    num_robots: int = 10
    num_maps: int = 600
    cases_per_map: int = 50
    fov_radius: int = 4
    comm_radius: float = 5.0
    taps: int = 3
    features: int = 128
    channels: tuple = (32, 32, 64, 64, 128, 128)
    epochs: int = 150
    lr_max: float = 1e-3
    lr_min: float = 1e-6
    batch_size: int = 64
    l2: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    oe_interval: int = 4
    oe_cases: int = 500
    timeout_s: float = 300.0
    split_train: float = 0.70
    split_valid: float = 0.15
    split_test: float = 0.15
    seed: int = 0
    workers: int = 1

    def validate(self) -> None:
        checks = [
            (self.width >= 2 and self.height >= 2, "map must be at least 2x2"),
            (0.0 <= self.density < 1.0, "density must be in [0, 1)"),
            (self.num_robots >= 1, "need at least one robot"),
            (self.num_maps >= 0 and self.cases_per_map >= 0, "counts must be >= 0"),
            (self.fov_radius >= 1, "fov_radius must be >= 1"),
            (self.comm_radius > 0, "comm_radius must be positive"),
            (self.taps >= 1, "taps must be >= 1"),
            (self.epochs >= 1 and self.batch_size >= 1, "counts must be positive"),
            (self.lr_min < self.lr_max, "lr_min must be below lr_max"),
            (self.oe_interval >= 1 and self.oe_cases >= 1, "counts must be positive"),
            (self.timeout_s > 0, "timeout_s must be positive"),
            (self.workers >= 1, "workers must be >= 1"),
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
        except ValueError as exc:
            raise ConfigError(str(exc))

    def arch(self) -> PolicyArch:
        return PolicyArch(
            fov_radius=self.fov_radius,
            taps=self.taps,
            features=self.features,
            channels=tuple(self.channels),
        )

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                lr_max=self.lr_max,
                lr_min=self.lr_min,
                epochs=self.epochs,
                batch_size=self.batch_size,
                l2=self.l2,
                beta1=self.beta1,
                beta2=self.beta2,
                eps=self.eps,
                oe_interval=self.oe_interval,
                oe_cases=self.oe_cases,
                expert_timeout_s=self.timeout_s,
                comm_radius=self.comm_radius,
                seed=self.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc))

    def ratios(self) -> tuple:
        return (self.split_train, self.split_valid, self.split_test)

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["channels"] = list(self.channels)
        return doc


def _meta(command: str, config: RunConfig) -> dict:
    return {"tool": f"mapfgnn {__version__}", "command": command, "config": config.as_dict()}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- JSON config file <- explicitly passed flags."""
    values = RunConfig().as_dict()
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
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
    values["channels"] = tuple(int(c) for c in values["channels"])
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc))
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
    print(f"gen-cases: wrote {len(records)} cases to {args.out} {stats.as_dict()}")
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
    print(f"expert: solved {len(solved)}/{len(records)} cases {stats.as_dict()}")
    if records and not solved:
        print(
            json.dumps({"error": "SolverTimeout", "message": "no case solved"}),
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_build_dataset(args, config: RunConfig) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
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
        print(
            json.dumps({"error": "InfeasibleCase", "message": "empty solved pool"}),
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
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
        datastore.save_dataset(
            os.path.join(args.out_dir, f"dataset.{name}.jsonl"),
            ds,
            fov_radius=config.fov_radius,
            comm_radius=config.comm_radius,
            meta=meta,
        )
        print(f"build-dataset: {name} split has {len(records)} cases, {len(ds)} samples")
    print(f"build-dataset: stats {stats.as_dict()}")
    return EXIT_OK


def _load_split(data_dir: str, split: str, maps) -> Dataset:
    return datastore.load_dataset(
        os.path.join(data_dir, f"dataset.{split}.jsonl"), maps
    )


def _cmd_train(args, config: RunConfig) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    maps = datastore.load_maps(os.path.join(args.data_dir, "maps.jsonl"))
    train_ds = _load_split(args.data_dir, "train", maps)
    valid_path = os.path.join(args.data_dir, "dataset.valid.jsonl")
    if os.path.exists(valid_path):
        valid_ds = datastore.load_dataset(valid_path, maps)
    else:
        valid_ds = Dataset(split="valid")
    train_records = None
    cases_path = os.path.join(args.data_dir, "cases.jsonl")
    if not args.no_oe and os.path.exists(cases_path):
        train_ids = train_ds.case_ids()
        pool = datastore.load_cases(cases_path, maps)
        train_records = [rec for rec in pool if rec.case_id in train_ids]
    net = PolicyNetwork(config.arch(), seed=config.seed)
    meta = _meta("train", config)
    weights_path = os.path.join(args.out_dir, "model.json")
    log_path = os.path.join(args.out_dir, "log.csv")
    history = []

    def on_epoch(net_, adam_, epoch_, row):
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


def _make_policy(name: str, record, net, config: RunConfig):
    if name == "network":
        return NetworkPolicy(net, mode="greedy", comm_radius=config.comm_radius)
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
    os.makedirs(args.out_dir, exist_ok=True)
    maps = datastore.load_maps(os.path.join(args.data_dir, "maps.jsonl"))
    records = _load_eval_records(args, maps)
    if not records:
        raise EmptyInput(f"no cases found for split {args.split!r}")
    net = datastore.load_weights(args.weights) if args.policy == "network" else None
    trajectories, plans = [], []
    for i, rec in enumerate(records):
        policy = _make_policy(args.policy, rec, net, config)
        grid = maps[rec.case.map_id]
        trajectories.append(
            rollout(policy, grid, rec.case, rec.plan, seed=config.seed + i)
        )
        plans.append(rec.plan)
    report = compute_metrics(trajectories, plans)
    label = f"{args.policy}:{args.split}:K{config.taps}"
    meta = _meta("eval", config)
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
    policy = _make_policy(args.policy, rec, net, config)
    traj = rollout(policy, maps[rec.case.map_id], rec.case, rec.plan, seed=config.seed)
    datastore.save_trace(args.out, traj, case_id=rec.case_id, meta=_meta("rollout", config))
    print(
        f"rollout: case={rec.case_id} success={traj.success} "
        f"steps={traj.steps} arrivals={list(traj.arrivals)}"
    )
    return EXIT_OK


def _cmd_oracle_check(args, config: RunConfig) -> int:
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
        kind = header.get("kind")
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


def _add_config_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Flags overriding RunConfig fields; None means 'not provided'."""
    spec = {
        "width": dict(type=int),
        "height": dict(type=int),
        "density": dict(type=float),
        "num_robots": dict(type=int, flag="--robots"),
        "num_maps": dict(type=int),
        "cases_per_map": dict(type=int),
        "fov_radius": dict(type=int),
        "comm_radius": dict(type=float),
        "taps": dict(type=int, flag="--k"),
        "epochs": dict(type=int),
        "lr_max": dict(type=float, flag="--lr"),
        "lr_min": dict(type=float),
        "batch_size": dict(type=int, flag="--batch"),
        "l2": dict(type=float),
        "oe_interval": dict(type=int),
        "oe_cases": dict(type=int),
        "timeout_s": dict(type=float),
        "split_train": dict(type=float),
        "split_valid": dict(type=float),
        "split_test": dict(type=float),
        "seed": dict(type=int),
        "workers": dict(type=int),
    }
    for name in names:
        entry = dict(spec[name])
        flag = entry.pop("flag", "--" + name.replace("_", "-"))
        sub.add_argument(flag, dest=name, default=None, **entry)


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
        return p

    p = sub("gen-maps", "generate a pool of random grid maps")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "num_maps", "width", "height", "density", "seed")

    p = sub("gen-cases", "generate start/goal cases over a map pool")
    p.add_argument("--maps", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "cases_per_map", "num_robots", "seed")

    p = sub("expert", "solve cases optimally and store the plans")
    p.add_argument("--maps", required=True)
    p.add_argument("--cases", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "timeout_s", "workers", "seed")

    p = sub("build-dataset", "maps + cases + expert plans + split sample files")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(
        p,
        "num_maps",
        "cases_per_map",
        "num_robots",
        "width",
        "height",
        "density",
        "fov_radius",
        "comm_radius",
        "timeout_s",
        "split_train",
        "split_valid",
        "split_test",
        "seed",
        "workers",
    )

    p = sub("train", "imitation training with online-expert aggregation")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--no-oe", action="store_true", help="disable aggregation")
    _add_config_flags(
        p,
        "epochs",
        "lr_max",
        "lr_min",
        "batch_size",
        "l2",
        "oe_interval",
        "oe_cases",
        "taps",
        "fov_radius",
        "comm_radius",
        "timeout_s",
        "seed",
    )

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
    _add_config_flags(p, "taps", "fov_radius", "comm_radius", "seed")

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
    _add_config_flags(p, "taps", "fov_radius", "comm_radius", "seed")

    p = sub("oracle-check", "compare the solver against a joint-space oracle")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--max-robots", type=int, default=3)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--max-density", type=float, default=0.2)
    _add_config_flags(p, "timeout_s", "seed")

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
