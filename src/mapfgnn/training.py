"""Imitation learning: Adam with cosine annealing, L2 regularization, and
online-expert dataset aggregation.

A sample is one timestep of one case: the team's observations, the
communication matrix, and the expert's actions. Batches mix timesteps across
cases; the CNN runs once over every robot in the batch while the graph
filter runs per sample (team sizes differ). Gradient reductions follow a
fixed order so identical seeds give bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MapfGnnError, SolverTimeout
from .executor import NetworkPolicy, rollout
from .expert import Plan, cbs_solve, plan_to_labels, positions_at
from .gridworld import (
    DEFAULT_COMM_RADIUS,
    Case,
    GridMap,
    build_gso,
    team_observations,
)
from .nn_core import log_softmax, one_hot
from .policy import PolicyNetwork

# distinct per-purpose offsets keep the seed streams independent
_SHUFFLE_STREAM = 7919
_OE_STREAM = 104729


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 1e-3
    lr_min: float = 1e-6
    epochs: int = 150
    batch_size: int = 64
    l2: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    oe_interval: int = 4
    oe_cases: int = 500
    expert_timeout_s: float = 300.0
    comm_radius: float = DEFAULT_COMM_RADIUS
    seed: int = 0

    def __post_init__(self):
        if not self.lr_min < self.lr_max:
            raise ValueError("lr_min must be below lr_max")
        if min(self.epochs, self.batch_size, self.oe_interval, self.oe_cases) < 1:
            raise ValueError("counts must be positive")


@dataclass
class Sample:
    """One timestep of one case; observations stored as compact binary.

    Positions and goals make the sample self-describing: observations and
    the communication matrix are rebuilt from them plus the map, so
    persistence stores just the geometry.
    """

    case_id: str
    t: int
    obs: np.ndarray
    gso: np.ndarray
    labels: np.ndarray
    map_id: str = ""
    positions: tuple = ()
    goals: tuple = ()

    @property
    def num_robots(self) -> int:
        return self.labels.size


@dataclass
class Dataset:
    split: str
    samples: list[Sample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def num_rows(self) -> int:
        return sum(s.num_robots for s in self.samples)

    def case_ids(self) -> set[str]:
        return {s.case_id for s in self.samples}


def expand_case(
    grid: GridMap,
    case: Case,
    plan: Plan,
    case_id: str,
    fov_radius: int = 4,
    comm_radius: float = DEFAULT_COMM_RADIUS,
) -> list[Sample]:
    """Per-timestep samples along the expert trajectory, t in [0, makespan)."""
    labels = plan_to_labels(plan)
    samples = []
    for t in range(plan.makespan):
        positions = positions_at(plan.paths, t)
        obs = team_observations(grid, positions, case.goals, fov_radius)
        samples.append(
            Sample(
                case_id=case_id,
                t=t,
                obs=obs.astype(np.uint8),
                gso=build_gso(positions, comm_radius).matrix,
                labels=labels[t].copy(),
                map_id=case.map_id,
                positions=tuple(positions),
                goals=tuple(case.goals),
            )
        )
    return samples


def cosine_lr(epoch: int, config: TrainConfig) -> float:
    """Anneal from lr_max at epoch 0 to lr_min at the final epoch."""
    span = config.lr_max - config.lr_min
    return config.lr_min + 0.5 * span * (1 + math.cos(math.pi * epoch / config.epochs))


class AdamState:
    """First/second moment buffers plus the bias-correction step count."""

    def __init__(self, store):
        self.m = {k: np.zeros_like(p) for k, p in store.params.items()}
        self.v = {k: np.zeros_like(p) for k, p in store.params.items()}
        self.t = 0

    def to_jsonable(self) -> dict:
        return {
            "t": self.t,
            "m": {k: a.ravel().tolist() for k, a in self.m.items()},
            "v": {k: a.ravel().tolist() for k, a in self.v.items()},
        }

    def load_jsonable(self, doc: dict) -> None:
        self.t = doc["t"]
        for k, arr in self.m.items():
            arr[...] = np.asarray(doc["m"][k]).reshape(arr.shape)
        for k, arr in self.v.items():
            arr[...] = np.asarray(doc["v"][k]).reshape(arr.shape)


def adam_step(store, adam: AdamState, lr: float, config: TrainConfig) -> None:
    """One coupled-L2 Adam update in place; aborts on non-finite gradients."""
    store.check_finite()
    adam.t += 1
    bc1 = 1 - config.beta1**adam.t
    bc2 = 1 - config.beta2**adam.t
    for name, p in store.params.items():
        g = store.grads[name] + config.l2 * p
        m = adam.m[name]
        v = adam.v[name]
        m[...] = config.beta1 * m + (1 - config.beta1) * g
        v[...] = config.beta2 * v + (1 - config.beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + config.eps)


def _batch_forward(net: PolicyNetwork, batch, train: bool):
    """Concatenated logits over every robot row in the batch, plus caches."""
    obs = np.concatenate([s.obs for s in batch]).astype(np.float64)
    feats = net.encode(obs, train)
    logits = np.empty((feats.shape[0], net.arch.num_actions))
    offset = 0
    for s in batch:
        sl = slice(offset, offset + s.num_robots)
        logits[sl] = net.head_forward(feats[sl], s.gso, train)
        offset += s.num_robots
    return feats, logits


def _batch_stats(logits, batch):
    labels = np.concatenate([s.labels for s in batch])
    logp = log_softmax(logits)
    onehot = one_hot(labels, logits.shape[1])
    loss_sum = -(onehot * logp).sum()
    correct = int((logits.argmax(axis=1) == labels).sum())
    return loss_sum, correct, logp, onehot


def train_epoch(
    net: PolicyNetwork, adam: AdamState, dataset: Dataset, config: TrainConfig, epoch: int
):
    """One pass of shuffled minibatches; returns (mean loss, action accuracy)."""
    if not dataset.samples:
        raise ValueError("empty train split")
    rng = np.random.default_rng([config.seed, _SHUFFLE_STREAM, epoch])
    order = rng.permutation(len(dataset.samples))
    lr = cosine_lr(epoch, config)
    loss_total = 0.0
    correct_total = 0
    rows_total = 0
    for lo in range(0, len(order), config.batch_size):
        batch = [dataset.samples[i] for i in order[lo : lo + config.batch_size]]
        rows = sum(s.num_robots for s in batch)
        net.store.zero_grads()
        obs = np.concatenate([s.obs for s in batch]).astype(np.float64)
        feats = net.encode(obs, train=True)
        gfeat = np.empty_like(feats)
        offset = 0
        for s in batch:
            sl = slice(offset, offset + s.num_robots)
            logits = net.head_forward(feats[sl], s.gso, train=True)
            logp = log_softmax(logits)
            onehot = one_hot(s.labels, logits.shape[1])
            loss_total += -(onehot * logp).sum()
            correct_total += int((logits.argmax(axis=1) == s.labels).sum())
            # every row of the batch contributes 1/rows to the mean loss
            gfeat[sl] = net.head_backward((np.exp(logp) - onehot) / rows)
            offset += s.num_robots
        net.encode_backward(gfeat)
        adam_step(net.store, adam, lr, config)
        rows_total += rows
    return loss_total / rows_total, correct_total / rows_total


def evaluate(net: PolicyNetwork, dataset: Dataset, config: TrainConfig):
    """Mean loss and action accuracy in eval mode; no parameter updates."""
    if not dataset.samples:
        return float("nan"), float("nan")
    loss_total = 0.0
    correct_total = 0
    rows_total = 0
    for lo in range(0, len(dataset.samples), config.batch_size):
        batch = dataset.samples[lo : lo + config.batch_size]
        _, logits = _batch_forward(net, batch, train=False)
        loss_sum, correct, _, _ = _batch_stats(logits, batch)
        loss_total += loss_sum
        correct_total += correct
        rows_total += logits.shape[0]
    return loss_total / rows_total, correct_total / rows_total


def split_dataset(records, ratios=(0.7, 0.15, 0.15), seed: int = 0):
    """Case-level split: floor-sized valid/test, remainder to train."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    records = list(records)
    rng = np.random.default_rng([seed, 15485863])
    order = rng.permutation(len(records))
    n = len(records)
    n_valid = math.floor(ratios[1] * n)
    n_test = math.floor(ratios[2] * n)
    n_train = n - n_valid - n_test
    train = [records[i] for i in order[:n_train]]
    valid = [records[i] for i in order[n_train : n_train + n_valid]]
    test = [records[i] for i in order[n_train + n_valid :]]
    return train, valid, test


def aggregate_online_expert(
    net: PolicyNetwork,
    dataset: Dataset,
    train_records,
    maps: dict[str, GridMap],
    config: TrainConfig,
    epoch: int,
    log=None,
    policy_factory=None,
):
    """Roll the current policy on random train cases; append expert repairs.

    A failed rollout (timeout with robots off-goal) is re-solved by the
    expert from the failure positions with the original goals; the repair's
    timestep samples extend the train split. Other splits are never touched.
    policy_factory(record) -> policy overrides the trained policy (stubs in
    tests). Returns (cases rolled, failures, repairs added, samples added).
    """
    rng = np.random.default_rng([config.seed, _OE_STREAM, epoch])
    k = min(config.oe_cases, len(train_records))
    picks = rng.choice(len(train_records), size=k, replace=False)
    if policy_factory is None:
        shared = NetworkPolicy(net, mode="greedy", comm_radius=config.comm_radius)
        policy_factory = lambda rec: shared
    failures = 0
    repairs = 0
    added = 0
    for idx in picks:
        rec = train_records[int(idx)]
        grid = maps[rec.case.map_id]
        traj = rollout(policy_factory(rec), grid, rec.case, rec.plan, seed=0)
        if traj.success:
            continue
        failures += 1
        repair_case = Case(
            map_id=rec.case.map_id,
            starts=traj.positions[-1],
            goals=rec.case.goals,
        )
        try:
            repair_plan = cbs_solve(grid, repair_case, config.expert_timeout_s)
        except (SolverTimeout, MapfGnnError) as exc:
            if log is not None:
                log(f"online expert skipped {rec.case_id}: {exc}")
            continue
        repairs += 1
        samples = expand_case(
            grid,
            repair_case,
            repair_plan,
            case_id=f"{rec.case_id}/oe{epoch}",
            fov_radius=net.arch.fov_radius,
            comm_radius=config.comm_radius,
        )
        dataset.samples.extend(samples)
        added += len(samples)
    return k, failures, repairs, added


def fit(
    net: PolicyNetwork,
    train_ds: Dataset,
    valid_ds: Dataset,
    config: TrainConfig,
    train_records=None,
    maps=None,
    on_epoch=None,
    log=None,
):
    """Full training loop; returns one stats row per epoch.

    Online-expert aggregation runs after every oe_interval-th epoch when
    train_records and maps are provided.
    """
    adam = AdamState(net.store)
    history = []
    for epoch in range(config.epochs):
        train_loss, train_acc = train_epoch(net, adam, train_ds, config, epoch)
        valid_loss, valid_acc = evaluate(net, valid_ds, config)
        row = {
            "epoch": epoch,
            "lr": cosine_lr(epoch, config),
            "train_loss": train_loss,
            "train_acc": train_acc,
            "valid_loss": valid_loss,
            "valid_acc": valid_acc,
            "train_size": len(train_ds),
        }
        if (
            train_records is not None
            and maps is not None
            and (epoch + 1) % config.oe_interval == 0
        ):
            rolled, failed, repaired, added = aggregate_online_expert(
                net, train_ds, train_records, maps, config, epoch, log=log
            )
            row.update(
                {
                    "oe_rolled": rolled,
                    "oe_failed": failed,
                    "oe_repaired": repaired,
                    "oe_added": added,
                }
            )
        history.append(row)
        if on_epoch is not None:
            on_epoch(net, adam, epoch, row)
    return history
