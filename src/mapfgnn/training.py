"""Imitation learning: Adam with cosine annealing, L2 regularization, and
online-expert dataset aggregation.

A sample is one timestep of one case: the team's observations, the
communication matrix, and the expert's actions. Batches mix timesteps across
cases; the CNN runs once over every robot in the batch, and the graph filter
and action head run once per team size present, on that size's samples
stacked along a batch axis. Gradient reductions follow a fixed order so
identical seeds give bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .executor import NetworkPolicy, rollout_cases
from .expert import DEFAULT_TIMEOUT_S, Plan, plan_to_labels, positions_at
from .gridworld import (
    DEFAULT_COMM_RADIUS,
    DEFAULT_FOV_RADIUS,
    Case,
    GridMap,
    build_gso,
    team_observations,
)
from .jsonio import encode_arrays, read_arrays, read_int
from .nn_core import one_hot, softmax_nll
from .policy import PolicyNetwork

# distinct per-purpose offsets keep the seed streams independent
_SHUFFLE_STREAM = 7919
_OE_STREAM = 104729

# Adam's moment decay rates and denominator guard, at Kingma and Ba's defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 1e-3
    lr_min: float = 1e-6
    epochs: int = 150
    batch_size: int = 64
    l2: float = 1e-5
    oe_interval: int = 4
    oe_cases: int = 500
    timeout_s: float = DEFAULT_TIMEOUT_S
    seed: int = 0

    def __post_init__(self):
        if not self.lr_min < self.lr_max:
            raise ValueError("lr_min must be below lr_max")
        if min(self.epochs, self.batch_size, self.oe_interval, self.oe_cases) < 1:
            raise ValueError("counts must be positive")
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive")


@dataclass
class Sample:
    """One timestep of one solved case's expert trajectory, as expand_case
    builds it.

    obs is (N, 3, W, W) uint8 and gso (N, N), views of the stacks
    expand_case builds per case. Positions and goals are the team's cells
    at t and its goals; a dataset file stores the case, not its samples,
    and loading re-expands it.
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
    """Samples of one split plus the radii their tensors were built with."""

    split: str
    samples: list[Sample] = field(default_factory=list)
    fov_radius: int = DEFAULT_FOV_RADIUS
    comm_radius: float = DEFAULT_COMM_RADIUS

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
    fov_radius: int = DEFAULT_FOV_RADIUS,
    comm_radius: float = DEFAULT_COMM_RADIUS,
) -> list[Sample]:
    """Per-timestep samples along the expert trajectory, t in [0, makespan),
    the one place a Sample is built. One team_observations and one build_gso
    call build every timestep's tensors; each sample holds views of them.
    """
    labels = plan_to_labels(plan)
    steps = [tuple(positions_at(plan.paths, t)) for t in range(plan.makespan)]
    # shaped by the labels, so a plan with no steps keeps its team size
    cells = np.array(steps, dtype=np.int64).reshape(labels.shape + (2,))
    obs = team_observations(grid, cells, case.goals, fov_radius)
    gso = build_gso(cells, comm_radius).matrix
    goals = tuple(case.goals)
    return [
        Sample(case_id, t, obs[t], gso[t], labels[t], case.map_id, step, goals)
        for t, step in enumerate(steps)
    ]


def cosine_lr(epoch: int, config: TrainConfig) -> float:
    """Anneal from lr_max at epoch 0 to lr_min at the final epoch."""
    span = config.lr_max - config.lr_min
    return config.lr_min + 0.5 * span * (1 + math.cos(math.pi * epoch / config.epochs))


class AdamState:
    """First/second moment buffers plus the bias-correction step count.

    Its JSON form holds the step count and each moment in
    jsonio.encode_arrays's entries, the weights' form, exact to the bit.
    """

    def __init__(self, store):
        self.m = {k: np.zeros_like(p) for k, p in store.params.items()}
        self.v = {k: np.zeros_like(p) for k, p in store.params.items()}
        self.t = 0

    def to_jsonable(self) -> dict:
        return {"t": self.t, "m": encode_arrays(self.m), "v": encode_arrays(self.v)}

    def load_jsonable(self, doc: dict) -> None:
        """Restore a state to_jsonable wrote for the same parameters, all or
        nothing: a step count that is not a non-negative int, or a moment
        jsonio.read_arrays refuses, raises KeyError, TypeError or ValueError
        and leaves the state as it was."""
        t = read_int(doc["t"])
        if t < 0:
            raise ValueError(f"step count {t} is negative")
        shapes = {name: arr.shape for name, arr in self.m.items()}
        m, v = read_arrays(doc["m"], shapes), read_arrays(doc["v"], shapes)
        self.t = t
        for name in shapes:
            self.m[name][...], self.v[name][...] = m[name], v[name]


def adam_step(store, adam: AdamState, lr: float, config: TrainConfig) -> None:
    """One coupled-L2 Adam update in place; aborts on non-finite gradients."""
    store.check_finite()
    adam.t += 1
    bc1 = 1 - ADAM_BETA1**adam.t
    bc2 = 1 - ADAM_BETA2**adam.t
    for name, p in store.params.items():
        g = store.grads[name] + config.l2 * p
        m = adam.m[name]
        v = adam.v[name]
        # in place, in the order of beta * m + (1 - beta) * g: the same bits
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _batch_pass(net: PolicyNetwork, batch, train: bool):
    """Summed loss, correct count and row count over one batch of samples.

    The head runs once per team size on that size's samples stacked; in train
    mode each size's head backward runs before the next size's forward, since
    layers cache only their latest call, then the CNN backward runs once.
    """
    feats = net.encode(np.concatenate([s.obs for s in batch]), train)
    rows = feats.shape[0]
    sizes = np.array([s.num_robots for s in batch])
    row_sizes = np.repeat(sizes, sizes)
    gfeat = np.empty_like(feats)
    loss_sum = 0.0
    correct = 0
    for n in dict.fromkeys(sizes.tolist()):
        team = [s for s in batch if s.num_robots == n]
        idx = np.flatnonzero(row_sizes == n)
        gso = np.stack([s.gso for s in team])
        labels = np.stack([s.labels for s in team])
        logits = net.head_forward(feats[idx].reshape(len(team), n, -1), gso, train)
        nll, glogits = softmax_nll(logits, one_hot(labels, logits.shape[-1]))
        loss_sum += nll
        correct += int((logits.argmax(axis=-1) == labels).sum())
        if train:
            # every row of the batch contributes 1/rows to the mean loss
            gfeat[idx] = net.head_backward(glogits / rows).reshape(idx.size, -1)
    if train:
        net.encode_backward(gfeat)
    return loss_sum, correct, rows


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
        net.store.zero_grads()
        loss_sum, correct, rows = _batch_pass(net, batch, train=True)
        adam_step(net.store, adam, lr, config)
        loss_total += loss_sum
        correct_total += correct
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
        loss_sum, correct, rows = _batch_pass(net, batch, train=False)
        loss_total += loss_sum
        correct_total += correct
        rows_total += rows
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

    Each failed rollout (timeout with robots off-goal) becomes a case from
    the failure positions to the original goals. The repairs go through the
    dataset pipeline's solve_case_pool, which drops and logs the ones the
    expert times out on or cannot solve, and expand_samples; their timestep
    samples extend the train split. Other splits are never touched. The
    rollouts run through rollout_cases at seeds 0, 1, ...; the greedy policy
    draws no random numbers, so the seeds cannot move them.
    policy_factory(record) -> policy overrides the trained policy (stubs in
    tests). Returns (cases rolled, failures, repairs added, samples added).
    """
    # datastore imports this module at its top
    from .datastore import CaseRecord, expand_samples, solve_case_pool

    rng = np.random.default_rng([config.seed, _OE_STREAM, epoch])
    k = min(config.oe_cases, len(train_records))
    picks = rng.choice(len(train_records), size=k, replace=False)
    if policy_factory is None:
        shared = NetworkPolicy(net, mode="greedy")
        policy_factory = lambda rec: shared
    records = [train_records[int(idx)] for idx in picks]
    failed = []
    for rec, traj in zip(records, rollout_cases(policy_factory, maps, records, seed=0)):
        if not traj.success:
            repair = Case(rec.case.map_id, traj.positions[-1], rec.case.goals)
            failed.append(CaseRecord(f"{rec.case_id}/oe{epoch}", repair))
    repaired = solve_case_pool(maps, failed, timeout_s=config.timeout_s, log=log)
    added = expand_samples(
        repaired, maps, fov_radius=net.arch.fov_radius, comm_radius=net.arch.comm_radius
    ).samples
    dataset.samples.extend(added)
    return k, len(failed), len(repaired), len(added)


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

    Both splits must have been built with net.arch's radii, or ConfigError
    is raised before the first epoch. Online-expert aggregation runs after
    every oe_interval-th epoch when train_records and maps are provided.
    """
    arch = net.arch
    for ds in (train_ds, valid_ds):
        if (ds.fov_radius, ds.comm_radius) != (arch.fov_radius, arch.comm_radius):
            raise ConfigError(
                f"{ds.split} split was built at radii {ds.fov_radius}/{ds.comm_radius}, "
                f"the network at {arch.fov_radius}/{arch.comm_radius}"
            )
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
