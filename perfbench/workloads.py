"""The three workloads: build, train and eval.

Each workload is a closed loop with one client. ``setup()`` makes its inputs
from the seed; ``run_round()`` performs one round of the same operations
through mapfgnn's public functions, the way the CLI subcommands call them,
and returns the timings of those calls; ``check_round()`` verifies the
outputs with the independent checks in ``checks``. Calls go through module
attributes (``expert.cbs_solve``, ``datastore.save_cases``, ...) so that a
traced run sees them.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from mapfgnn import datastore, executor, expert, training
from mapfgnn.errors import SolverTimeout
from mapfgnn.gridworld import Case, GridMap
from mapfgnn.policy import PolicyArch, PolicyNetwork

from . import checks

# a kept case needs at most hl_cap high-level nodes, so this wall-clock
# timeout is never reached; it only guards against a hung solver
SEEDED_TIMEOUT_S = 60.0

# per-workload seed streams, so build, train and eval draw different cases
_STREAMS = {"build": 11, "train": 12, "eval": 13}

# A 20x20 / 10-robot case that plain CBS cannot solve: it timed out after
# 20 s, 30 s and 120 s (54,069 high-level nodes). It is map m0019 of
# generate_map_pool(20, 20, 20, 0.1, seed=4) with its case from
# generate_case_pool(maps, 1, 10, seed=4), stored literally so that it
# depends neither on the run's seed nor on the generators.
HARD_OBSTACLES = (
    (0, 3), (0, 5), (1, 3), (1, 15), (2, 5), (2, 9), (2, 15), (2, 19), (3, 3), (3, 8),
    (3, 10), (3, 12), (4, 4), (5, 11), (6, 6), (6, 12), (6, 13), (7, 5), (7, 19), (8, 7),
    (8, 8), (8, 11), (8, 16), (9, 9), (10, 18), (11, 10), (12, 6), (12, 7), (12, 17),
    (12, 19), (13, 9), (13, 14), (14, 10), (15, 1), (15, 6), (15, 17), (16, 14), (16, 16),
    (18, 8), (19, 0),
)
HARD_STARTS = ((3, 5), (7, 1), (1, 16), (10, 0), (11, 2), (19, 3), (12, 9), (6, 2), (17, 3),
               (15, 11))
HARD_GOALS = ((8, 6), (18, 19), (11, 13), (9, 11), (19, 11), (10, 10), (1, 2), (18, 13),
              (18, 9), (9, 16))
HARD_MAP_ID = "hard"


@dataclass(frozen=True)
class Scale:
    """Input sizes. PAPER is the benchmark; TINY only exercises the code paths."""

    width: int = 20
    height: int = 20
    density: float = 0.10
    robots: int = 10
    cases_per_map: int = 4
    hl_cap: int = 20
    build_cases: int = 60
    hard_timeout_s: float = 1.0
    train_samples: int = 256
    valid_samples: int = 64
    batch_size: int = 64
    epochs: int = 3
    eval_cases: int = 32
    fov_radius: int = 4
    comm_radius: float = 5.0
    arch: PolicyArch = field(default_factory=PolicyArch)


PAPER = Scale()
TINY = Scale(
    width=10,
    height=10,
    robots=4,
    build_cases=6,
    hard_timeout_s=0.2,
    train_samples=32,
    valid_samples=16,
    batch_size=16,
    epochs=3,
    eval_cases=3,
    arch=PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16),
)
SCALES = {"paper": PAPER, "tiny": TINY}


@dataclass
class RoundResult:
    """Wall times of the program calls in one round, plus operation counts."""

    round_s: float
    items: int
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)
    # program outputs for check_round; dropped after the check
    outputs: dict | None = None


class _NodeCap(Exception):
    pass


def stream_seed(seed: int, workload: str) -> int:
    return int(np.random.SeedSequence([seed, _STREAMS[workload]]).generate_state(1)[0])


def screen_cases(maps, records, cap: int, enough):
    """Solve candidates in order and keep those CBS solves within `cap` high-level nodes.

    High-level nodes are counted as calls to detect_first_conflict, so the
    choice is deterministic; it stops once enough(kept) holds. Candidates over
    the cap are left out of the workload. Returns the kept records with their
    plans, the solve time of each kept case, and that of each left-out one.
    """
    original = expert.detect_first_conflict
    nodes = [0]

    def counted(paths):
        nodes[0] += 1
        if nodes[0] > cap:
            raise _NodeCap()
        return original(paths)

    kept, kept_s, left_out_s = [], [], []
    expert.detect_first_conflict = counted
    try:
        for rec in records:
            nodes[0] = 0
            t0 = time.perf_counter()
            try:
                plan = expert.cbs_solve(maps[rec.case.map_id], rec.case, SEEDED_TIMEOUT_S)
            except _NodeCap:
                left_out_s.append(time.perf_counter() - t0)
                continue
            kept_s.append(time.perf_counter() - t0)
            kept.append(replace(rec, plan=plan))
            if enough(kept):
                return kept, kept_s, left_out_s
    finally:
        expert.detect_first_conflict = original
    raise RuntimeError(f"only {len(kept)} of {len(records)} candidates within {cap} nodes")


def candidate_pool(scale: Scale, seed: int, count: int):
    maps = datastore.generate_map_pool(
        math.ceil(count / scale.cases_per_map), scale.width, scale.height, scale.density, seed
    )
    records = datastore.generate_case_pool(maps, scale.cases_per_map, scale.robots, seed)
    return maps, records


def hard_case():
    grid = GridMap(20, 20, frozenset(HARD_OBSTACLES), density=0.1, seed=None)
    return grid, Case(map_id=HARD_MAP_ID, starts=HARD_STARTS, goals=HARD_GOALS)


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, scale: Scale, seed: int, workdir: str, tracer=None):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.meta = {"tool": "perfbench", "workload": self.name, "seed": seed}

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _name_net(self, net) -> None:
        if self.tracer is not None:
            self.tracer.name_net(net)

    def input_digest(self) -> str:
        raise NotImplementedError

    def restart(self) -> None:
        """Make the next round repeat the first one."""

    def finish(self) -> None:
        """Checks that run once after the timed rounds."""


class Build(Workload):
    """Expert solves of fresh seeded cases each round, then samples written and read back."""

    name = "build"

    def setup(self) -> None:
        self.hard_grid, self.hard = hard_case()
        self.round_index = 0
        self._next_pool()

    def _next_pool(self) -> None:
        # round r draws its own candidates, so a run never solves a case twice
        s = self.scale
        seed = stream_seed(self.seed, self.name) + self.round_index
        self.maps, self.candidates = candidate_pool(s, seed, 2 * s.build_cases)
        self.maps[HARD_MAP_ID] = self.hard_grid

    def restart(self) -> None:
        self.round_index = 0
        self._next_pool()

    def input_digest(self) -> str:
        return _digest(repr([(r.case_id, r.case) for r in self.candidates]))

    def run_round(self) -> RoundResult:
        s = self.scale
        maps = self.maps
        records, solve_s, left_out_s = screen_cases(
            maps, self.candidates, s.hl_cap, lambda kept: len(kept) == s.build_cases
        )
        solved = list(records)
        failed = 0
        t0 = time.perf_counter()
        try:
            plan = expert.cbs_solve(self.hard_grid, self.hard, s.hard_timeout_s)
        except SolverTimeout:
            failed = 1
        else:
            solved.append(datastore.CaseRecord(case_id="hard/c0000", case=self.hard, plan=plan))
        hard_s = time.perf_counter() - t0
        cases_path, data_path = self._path("cases.jsonl"), self._path("dataset.jsonl")
        t0 = time.perf_counter()
        ds = datastore.expand_samples(
            solved, maps, split="train", fov_radius=s.fov_radius, comm_radius=s.comm_radius
        )
        datastore.save_cases(cases_path, solved, meta=self.meta)
        datastore.save_dataset(
            data_path, ds, fov_radius=s.fov_radius, comm_radius=s.comm_radius, meta=self.meta
        )
        loaded_cases = datastore.load_cases(cases_path, maps)
        loaded = datastore.load_dataset(data_path, maps)
        dataset_s = time.perf_counter() - t0
        self.round_index += 1
        self._next_pool()
        return RoundResult(
            round_s=sum(solve_s) + sum(left_out_s) + hard_s + dataset_s,
            items=len(solved),
            attempted=len(records) + 1 + 5,
            failed=failed,
            extra={
                # a failed solve ranks slower than every solved one
                "solve_times": solve_s + [math.inf] * failed,
                # attempts left out over the cap are solver time too
                "solve_s": sum(solve_s) + sum(left_out_s) + hard_s,
                "dataset_s": dataset_s,
                "samples": len(loaded),
                "flowtime": sum(rec.plan.flowtime for rec in solved),
                "left_out_s": left_out_s,
            },
            outputs={
                "maps": maps, "solved": solved, "loaded_cases": loaded_cases, "loaded": loaded
            },
        )

    def check_round(self, result: RoundResult) -> None:
        s = self.scale
        maps, solved = result.outputs["maps"], result.outputs["solved"]
        for rec in solved:
            checks.check_plan(
                maps[rec.case.map_id], rec.case.starts, rec.case.goals, rec.plan.paths,
                rec.plan.flowtime,
            )
        if [(r.case_id, r.case, r.plan) for r in result.outputs["loaded_cases"]] != [
            (r.case_id, r.case, r.plan) for r in solved
        ]:
            checks.fail("loaded cases differ from the saved ones")
        loaded = result.outputs["loaded"]
        by_case: dict[str, list] = {}
        for sample in loaded.samples:
            by_case.setdefault(sample.case_id, []).append(sample)
        for rec in solved:
            samples = sorted(by_case.pop(rec.case_id, []), key=lambda x: x.t)
            if [x.t for x in samples] != list(range(rec.plan.makespan)):
                checks.fail(f"{rec.case_id}: samples do not cover every plan step")
            labels = [x.labels.tolist() for x in samples]
            checks.check_label_replay(rec.case.starts, labels, rec.plan.paths)
            for x in samples[:: 5]:
                grid = maps[x.map_id]
                if x.goals != rec.case.goals:
                    checks.fail(f"{rec.case_id} t={x.t}: sample goals differ from the case")
                if x.positions != checks.team_positions(rec.plan.paths, x.t):
                    checks.fail(f"{rec.case_id} t={x.t}: sample positions leave the plan")
                checks.check_observations(grid, x.positions, x.goals, x.obs, s.fov_radius)
                checks.check_gso(x.positions, x.gso, s.comm_radius)
        if by_case:
            checks.fail(f"samples of unknown cases {sorted(by_case)}")

    def summarise(self, rounds: list[RoundResult]) -> dict:
        solve_s = sum(r.extra["solve_s"] for r in rounds)
        items = [t for r in rounds for t in r.extra["solve_times"]]
        dataset_s = sum(r.extra["dataset_s"] for r in rounds)
        samples = sum(r.extra["samples"] for r in rounds)
        left_out = [t for r in rounds for t in r.extra["left_out_s"]]
        return {
            "items_per_s": sum(r.items for r in rounds) / solve_s,
            "stage": [
                ("solve_cases_per_s", sum(r.items for r in rounds) / solve_s, "1/s"),
                ("solve_ms_p50", statistics.median(items) * 1e3, "ms"),
                ("solve_ms_p90", _percentile(items, 0.9) * 1e3, "ms"),
                ("dataset_samples_per_s", samples / dataset_s, "1/s"),
                ("failed_solves_per_round", rounds[0].failed, "count"),
                ("expert_flowtime_first_round", rounds[0].extra["flowtime"], "count"),
                ("solves_timed", len(items), "count"),
                ("cases_left_out_over_cap", len(left_out), "count"),
                ("left_out_solve_s", sum(left_out), "s"),
            ],
        }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def weights_digest(net: PolicyNetwork) -> str:
    h = hashlib.sha256()
    for store in (net.store.params, net.store.state):
        for name, arr in store.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Train(Workload):
    """Imitation training epochs, each with a validation pass and a checkpoint."""

    name = "train"
    min_rounds = 2

    def setup(self) -> None:
        s = self.scale
        seed = stream_seed(self.seed, self.name)
        need = s.train_samples + s.valid_samples
        self.maps, candidates = candidate_pool(s, seed, 3 * math.ceil(need / 8))

        def enough(kept):
            # train cases until train_samples, then valid cases until valid_samples
            total = 0
            for i, rec in enumerate(kept):
                total += rec.plan.makespan
                if total >= s.train_samples:
                    rest = sum(r.plan.makespan for r in kept[i + 1 :])
                    return rest >= s.valid_samples
            return False

        records = screen_cases(self.maps, candidates, s.hl_cap, enough)[0]
        split = 0
        total = 0
        while total < s.train_samples:
            total += records[split].plan.makespan
            split += 1
        self.records = records
        cases_path = self._path("cases.jsonl")
        datastore.save_cases(cases_path, records, meta=self.meta)
        datasets = {}
        for name, recs, n in (
            ("train", records[:split], s.train_samples),
            ("valid", records[split:], s.valid_samples),
        ):
            path = self._path(f"dataset.{name}.jsonl")
            samples = datastore.expand_samples(
                recs, self.maps, split=name, fov_radius=s.fov_radius, comm_radius=s.comm_radius
            )
            datastore.save_dataset(
                path, samples, fov_radius=s.fov_radius, comm_radius=s.comm_radius, meta=self.meta
            )
            ds = datastore.load_dataset(path, self.maps)
            # whole batches of one team size: every batch has batch_size * robots rows
            datasets[name] = training.Dataset(split=name, samples=ds.samples[:n])
        self.train_ds, self.valid_ds = datasets["train"], datasets["valid"]
        self.config = training.TrainConfig(
            epochs=s.epochs, batch_size=s.batch_size, seed=self.seed
        )
        self.first_digest = None

    def input_digest(self) -> str:
        return _digest(
            repr([(r.case_id, r.plan) for r in self.records])
            + repr([(x.case_id, x.t) for x in self.train_ds.samples + self.valid_ds.samples])
        )

    def run_round(self) -> RoundResult:
        s = self.scale
        net = PolicyNetwork(s.arch, seed=self.seed)
        self._name_net(net)
        adam = training.AdamState(net.store)
        weights_path, log_path = self._path("model.json"), self._path("log.csv")
        train_s, valid_s, ckpt_s, history = [], [], [], []
        for epoch in range(s.epochs):
            t0 = time.perf_counter()
            loss, acc = training.train_epoch(net, adam, self.train_ds, self.config, epoch)
            t1 = time.perf_counter()
            valid_loss, valid_acc = training.evaluate(net, self.valid_ds, self.config)
            t2 = time.perf_counter()
            history.append(
                {
                    "epoch": epoch,
                    "lr": training.cosine_lr(epoch, self.config),
                    "train_loss": loss,
                    "train_acc": acc,
                    "valid_loss": valid_loss,
                    "valid_acc": valid_acc,
                    "train_size": len(self.train_ds),
                }
            )
            datastore.save_weights(weights_path, net, meta=self.meta)
            datastore.save_training_log(log_path, history, meta=self.meta)
            t3 = time.perf_counter()
            train_s.append(t1 - t0)
            valid_s.append(t2 - t1)
            ckpt_s.append(t3 - t2)
        return RoundResult(
            round_s=sum(train_s) + sum(valid_s) + sum(ckpt_s),
            items=self.train_ds.num_rows() * s.epochs,
            attempted=3 * s.epochs,
            failed=0,
            extra={
                "train_s": sum(train_s),
                "valid_s": sum(valid_s),
                "ckpt_s": ckpt_s,
                "history": history,
                "digest": weights_digest(net),
            },
        )

    def check_round(self, result: RoundResult) -> None:
        history = result.extra["history"]
        for row in history:
            if not (math.isfinite(row["train_loss"]) and math.isfinite(row["valid_loss"])):
                checks.fail(f"epoch {row['epoch']}: loss is not finite")
        first, last = history[0]["train_loss"], history[-1]["train_loss"]
        if not (last < first and last < math.log(5)):
            checks.fail(f"train loss went {first} -> {last}; expected a fall below ln 5")
        if self.first_digest is None:
            self.first_digest = result.extra["digest"]
        elif result.extra["digest"] != self.first_digest:
            checks.fail("repeated training from one seed gave different weights")

    def summarise(self, rounds: list[RoundResult]) -> dict:
        train_rows = sum(r.items for r in rounds)
        valid_rows = self.valid_ds.num_rows() * self.scale.epochs * len(rounds)
        hist = rounds[0].extra["history"]
        return {
            "items_per_s": train_rows / sum(r.extra["train_s"] for r in rounds),
            "stage": [
                ("train_rows_per_s", train_rows / sum(r.extra["train_s"] for r in rounds), "1/s"),
                ("valid_rows_per_s", valid_rows / sum(r.extra["valid_s"] for r in rounds), "1/s"),
                ("checkpoint_s", statistics.median(t for r in rounds for t in r.extra["ckpt_s"]),
                 "s"),
                ("train_loss_first_epoch", hist[0]["train_loss"], "nats"),
                ("train_loss_last_epoch", hist[-1]["train_loss"], "nats"),
                ("rows_per_batch", self.train_ds.num_rows() / math.ceil(
                    len(self.train_ds) / self.scale.batch_size), "count"),
            ],
        }


class Eval(Workload):
    """Closed-loop shielded rollouts of the seed-initialised policy, sampling actions."""

    name = "eval"

    def setup(self) -> None:
        s = self.scale
        seed = stream_seed(self.seed, self.name)
        self.maps, candidates = candidate_pool(s, seed, 3 * s.eval_cases)
        self.records = screen_cases(
            self.maps, candidates, s.hl_cap, lambda kept: len(kept) == s.eval_cases
        )[0]
        weights_path = self._path("model.json")
        datastore.save_weights(weights_path, PolicyNetwork(s.arch, seed=self.seed), meta=self.meta)
        self.net = datastore.load_weights(weights_path)
        self._name_net(self.net)
        self.first_digest = None

    def input_digest(self) -> str:
        return _digest(repr([(r.case_id, r.plan) for r in self.records]) + weights_digest(self.net))

    def _rollouts(self, make_policy):
        trajectories, times = [], []
        for i, rec in enumerate(self.records):
            t0 = time.perf_counter()
            traj = executor.rollout(
                make_policy(rec), self.maps[rec.case.map_id], rec.case, rec.plan,
                seed=self.seed + i,
            )
            times.append(time.perf_counter() - t0)
            trajectories.append(traj)
        return trajectories, times

    def run_round(self) -> RoundResult:
        policy = executor.NetworkPolicy(
            self.net, mode="sample", comm_radius=self.scale.comm_radius
        )
        trajectories, times = self._rollouts(lambda rec: policy)
        t0 = time.perf_counter()
        report = executor.compute_metrics(trajectories, [r.plan for r in self.records])
        metrics_s = time.perf_counter() - t0
        steps = [t.steps for t in trajectories]
        return RoundResult(
            round_s=sum(times) + metrics_s,
            items=sum(steps),
            attempted=len(self.records),
            failed=0,
            extra={
                "rollout_s": sum(times),
                "alpha": report.alpha,
                "delta_ft": report.delta_ft,
                "expert_flowtime": report.expert_flowtime,
                "idled": sum(sum(map(sum, t.shielded)) for t in trajectories),
            },
            outputs={"trajectories": trajectories, "report": report},
        )

    def _check_trajectories(self, trajectories, report) -> None:
        for rec, traj in zip(self.records, trajectories):
            grid = self.maps[rec.case.map_id]
            if traj.positions[0] != rec.case.starts:
                checks.fail(f"{rec.case_id}: rollout does not begin at the starts")
            for t in range(1, len(traj.positions)):
                checks.check_transition(
                    grid, traj.positions[t - 1], traj.positions[t], f"{rec.case_id} step {t}"
                )
        checks.check_eval_metrics(trajectories, [r.plan.flowtime for r in self.records], report)

    def check_round(self, result: RoundResult) -> None:
        trajectories = result.outputs["trajectories"]
        self._check_trajectories(trajectories, result.outputs["report"])
        digest = _digest(repr([t.positions for t in trajectories]))
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            checks.fail("rollouts from one seed differ between rounds")

    def finish(self) -> None:
        trajectories, _ = self._rollouts(lambda rec: executor.PlanReplayPolicy(rec.plan))
        report = executor.compute_metrics(trajectories, [r.plan for r in self.records])
        self._check_trajectories(trajectories, report)
        if report.alpha != 1.0 or report.delta_ft != 0.0:
            checks.fail(
                f"expert replay scored alpha={report.alpha} delta_ft={report.delta_ft}"
            )

    def summarise(self, rounds: list[RoundResult]) -> dict:
        first = rounds[0].extra
        robot_steps = rounds[0].items * self.scale.robots
        steps_per_s = sum(r.items for r in rounds) / sum(r.extra["rollout_s"] for r in rounds)
        return {
            "items_per_s": steps_per_s,
            "stage": [
                ("eval_steps_per_s", steps_per_s, "1/s"),
                ("alpha", first["alpha"], "ratio"),
                ("delta_ft", first["delta_ft"], "ratio"),
                ("expert_flowtime", first["expert_flowtime"], "count"),
                ("team_steps_per_round", rounds[0].items, "count"),
                ("robot_steps_idled_by_shield", first["idled"], "count"),
                ("robot_steps", robot_steps, "count"),
            ],
        }


WORKLOADS = {"build": Build, "train": Train, "eval": Eval}
