"""Closed-loop decentralized execution with collision shielding and metrics.

Each rollout step builds observations and the communication graph from the
current positions, queries the policy, shields the proposed actions, and
steps the world synchronously. Shielding only ever converts moves to idle,
so it terminates and never injects motion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .expert import Plan, plan_to_labels
from .gridworld import (
    ACTION_OFFSETS,
    IDLE,
    Case,
    Cell,
    GridMap,
    build_gso,
    step_positions,
    team_observations,
)
from .policy import ACTION_MODES, PolicyNetwork, policy_forward, select_actions

HORIZON_FACTOR = 3
DEADLOCK_WINDOW = 5


@dataclass(frozen=True)
class Trajectory:
    """One executed episode. positions[t][i] is robot i's cell at time t."""

    case: Case
    positions: tuple[tuple[Cell, ...], ...]
    shielded: tuple[tuple[bool, ...], ...]
    arrivals: tuple[int, ...]
    robot_success: tuple[bool, ...]
    success: bool
    t_max: int

    @property
    def steps(self) -> int:
        return len(self.positions) - 1

    @property
    def robots_at_goal(self) -> int:
        return sum(self.robot_success)


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate evaluation over a batch of cases."""

    num_cases: int
    num_success: int
    alpha: float
    flowtime: int
    expert_flowtime: int
    delta_ft: float
    histogram: dict[int, int]


def _targets(positions, actions) -> list[Cell]:
    out = []
    for (x, y), a in zip(positions, actions):
        dx, dy = ACTION_OFFSETS[a]
        out.append((x + dx, y + dy))
    return out


def shield_with_stats(grid: GridMap, positions, proposed):
    """Shielded actions plus the number of rounds that idled somebody.

    Each round idles at least one mover, so the count is at most N.
    """
    n = len(positions)
    actions = list(proposed)
    iterations = 0
    while True:
        targets = _targets(positions, actions)
        marks = set()
        movers = [i for i in range(n) if actions[i] != IDLE]
        for i in movers:
            if not grid.is_free(targets[i]):
                marks.add(i)
        for ai, i in enumerate(movers):
            for j in movers[ai + 1 :]:
                if targets[i] == positions[j] and targets[j] == positions[i]:
                    marks.add(i)
                    marks.add(j)
        crowd: dict[Cell, list[int]] = {}
        for i in movers:
            crowd.setdefault(targets[i], []).append(i)
        for contenders in crowd.values():
            if len(contenders) > 1:
                marks.update(contenders)
        idle_cells = {positions[i] for i in range(n) if actions[i] == IDLE}
        for i in movers:
            if targets[i] in idle_cells:
                marks.add(i)
        if not marks:
            return actions, iterations
        iterations += 1
        for i in marks:
            actions[i] = IDLE


def collision_shield(grid: GridMap, positions, proposed):
    """Replace unsafe proposals with idle; see shield_with_stats for rules."""
    actions, _ = shield_with_stats(grid, positions, proposed)
    return actions


class NetworkPolicy:
    """Wraps a PolicyNetwork for rollout: observe, communicate, act.

    The communication radius defaults to the one the weights were trained
    for, net.arch.comm_radius. Each step draws the whole team's actions in
    one select_actions call.
    """

    def __init__(
        self,
        net: PolicyNetwork,
        mode: str = "greedy",
        comm_radius: float | None = None,
    ):
        if mode not in ACTION_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.net = net
        self.mode = mode
        self.comm_radius = net.arch.comm_radius if comm_radius is None else comm_radius

    def act(self, grid, case, positions, t, rng):
        obs = team_observations(grid, positions, case.goals, self.net.arch.fov_radius)
        gso = build_gso(positions, self.comm_radius).matrix
        probs = policy_forward(self.net, obs, gso)
        return select_actions(probs, self.mode, rng)


class RandomPolicy:
    """Uniform over the five primitives; shielding stress test."""

    def act(self, grid, case, positions, t, rng):
        return [int(a) for a in rng.integers(0, 5, size=len(positions))]


class IdlePolicy:
    """Never moves; guaranteed failure on any case with a robot off-goal."""

    def act(self, grid, case, positions, t, rng):
        return [IDLE] * len(positions)


class PlanReplayPolicy:
    """Emits the expert plan's actions; idle once the plan is exhausted."""

    def __init__(self, plan: Plan):
        self.labels = plan_to_labels(plan)

    def act(self, grid, case, positions, t, rng):
        if t < self.labels.shape[0]:
            return [int(a) for a in self.labels[t]]
        return [IDLE] * len(positions)


def rollout(
    policy,
    grid: GridMap,
    case: Case,
    plan: Plan,
    seed: int = 0,
) -> Trajectory:
    """Execute the policy for up to HORIZON_FACTOR * expert makespan steps.

    Robots that reach their goals stay active and can be moved off again;
    the run ends early only when the whole team sits on its goals at once.
    """
    t_max = HORIZON_FACTOR * plan.makespan
    rng = np.random.default_rng(seed)
    positions = list(case.starts)
    history = [tuple(positions)]
    shielded = []
    for t in range(t_max):
        if all(p == g for p, g in zip(positions, case.goals)):
            break
        proposed = policy.act(grid, case, positions, t, rng)
        actions = collision_shield(grid, positions, proposed)
        shielded.append(tuple(a != p for a, p in zip(actions, proposed)))
        positions = step_positions(grid, positions, actions)
        history.append(tuple(positions))

    final = history[-1]
    arrivals = []
    robot_success = []
    for i, goal in enumerate(case.goals):
        if final[i] == goal:
            t_arr = len(history) - 1
            while t_arr > 0 and history[t_arr - 1][i] == goal:
                t_arr -= 1
            arrivals.append(t_arr)
            robot_success.append(True)
        else:
            arrivals.append(t_max)
            robot_success.append(False)
    return Trajectory(
        case=case,
        positions=tuple(history),
        shielded=tuple(shielded),
        arrivals=tuple(arrivals),
        robot_success=tuple(robot_success),
        success=all(robot_success),
        t_max=t_max,
    )


def rollout_cases(policy_for, maps: dict[str, GridMap], records, seed: int) -> list[Trajectory]:
    """One rollout per solved case record, rollout i of policy_for(record)
    at seed + i: the loop behind evaluation and the online expert."""
    return [
        rollout(policy_for(rec), maps[rec.case.map_id], rec.case, rec.plan, seed=seed + i)
        for i, rec in enumerate(records)
    ]


def compute_metrics(trajectories, plans) -> MetricsReport:
    """Success rate, flowtime increase, and robots-at-goal histogram."""
    if not trajectories:
        raise EmptyInput("no trajectories to score")
    if len(trajectories) != len(plans):
        raise ValueError("trajectory/plan lists must align")
    num_success = sum(1 for t in trajectories if t.success)
    flowtime = sum(sum(t.arrivals) for t in trajectories)
    expert_flowtime = sum(p.flowtime for p in plans)
    histogram: dict[int, int] = {}
    for t in trajectories:
        k = t.robots_at_goal
        histogram[k] = histogram.get(k, 0) + 1
    return MetricsReport(
        num_cases=len(trajectories),
        num_success=num_success,
        alpha=num_success / len(trajectories),
        flowtime=flowtime,
        expert_flowtime=expert_flowtime,
        delta_ft=(flowtime - expert_flowtime) / expert_flowtime,
        histogram=histogram,
    )


def detect_deadlock(traj: Trajectory):
    """(deadlocked, first stuck step): failed and frozen for the final steps.

    A failed run counts as deadlocked when its last DEADLOCK_WINDOW transitions
    show no movement at all; livelock cycles keep moving and do not count.
    """
    if traj.success:
        return False, None
    snaps = traj.positions
    stuck = len(snaps) - 1
    while stuck > 0 and snaps[stuck - 1] == snaps[-1]:
        stuck -= 1
    if len(snaps) - 1 - stuck >= DEADLOCK_WINDOW:
        return True, stuck
    return False, None
