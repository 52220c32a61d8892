"""Correctness checks on the program's outputs, written independently of it.

Nothing here calls mapfgnn's own validators: moves, collisions, distances,
observation windows and communication matrices are recomputed from first
principles. A grid is anything with width, height and a set of obstacle
cells. Every check raises CheckFailed on the first violation.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# (dx, dy) for idle, up, left, down, right; y grows downward
MOVES = ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0))


class CheckFailed(Exception):
    pass


def fail(message: str):
    raise CheckFailed(message)


def _free(grid, cell) -> bool:
    x, y = cell
    return 0 <= x < grid.width and 0 <= y < grid.height and cell not in grid.obstacles


def bfs_distance(grid, start, goal) -> int:
    """Shortest 4-connected path length on free cells, ignoring robots."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        if cell == goal:
            return dist[cell]
        for dx, dy in MOVES[1:]:
            nxt = (cell[0] + dx, cell[1] + dy)
            if nxt not in dist and _free(grid, nxt):
                dist[nxt] = dist[cell] + 1
                queue.append(nxt)
    fail(f"goal {goal} unreachable from {start}")


def check_transition(grid, before, after, where: str) -> None:
    """One synchronous team step: unit moves on free cells, no shared cell, no swap."""
    for i, (a, b) in enumerate(zip(before, after)):
        if (b[0] - a[0], b[1] - a[1]) not in MOVES:
            fail(f"{where}: robot {i} jumps {a} -> {b}")
        if not _free(grid, b):
            fail(f"{where}: robot {i} enters blocked cell {b}")
    if len(set(after)) != len(after):
        fail(f"{where}: two robots share a cell")
    for i in range(len(before)):
        for j in range(i + 1, len(before)):
            if before[i] == after[j] and before[j] == after[i] and before[i] != after[i]:
                fail(f"{where}: robots {i} and {j} swap cells")


def team_positions(paths, t: int):
    """Positions at time t; a robot whose path ended rests on its last cell."""
    return tuple(p[min(t, len(p) - 1)] for p in paths)


def check_plan(grid, starts, goals, paths, flowtime) -> None:
    """Expert plan: endpoints, moves, collisions, flowtime and its lower bound."""
    if len(paths) != len(starts):
        fail("path count differs from robot count")
    for i, path in enumerate(paths):
        if path[0] != starts[i] or path[-1] != goals[i]:
            fail(f"robot {i}: path does not run from its start to its goal")
        if not _free(grid, path[0]):
            fail(f"robot {i}: starts on a blocked cell")
    span = max(len(p) for p in paths)
    for t in range(1, span):
        check_transition(
            grid, team_positions(paths, t - 1), team_positions(paths, t), f"plan t={t}"
        )
    lengths = sum(len(p) - 1 for p in paths)
    if flowtime != lengths:
        fail(f"flowtime {flowtime} != sum of path lengths {lengths}")
    bound = sum(bfs_distance(grid, s, g) for s, g in zip(starts, goals))
    if flowtime < bound:
        fail(f"flowtime {flowtime} below the single-robot distance bound {bound}")


def observation(grid, positions, goals, robot, fov) -> np.ndarray:
    """Reference (3, 2*fov+1, 2*fov+1) window: obstacles, clamped goal, robots."""
    w = 2 * fov + 1
    out = np.zeros((3, w, w), dtype=np.uint8)
    x0, y0 = positions[robot]
    for row in range(w):
        for col in range(w):
            if not _free(grid, (x0 + col - fov, y0 + row - fov)):
                out[0, row, col] = 1
    gx = min(max(goals[robot][0] - x0, -fov), fov)
    gy = min(max(goals[robot][1] - y0, -fov), fov)
    out[1, gy + fov, gx + fov] = 1
    for px, py in positions:
        if abs(px - x0) <= fov and abs(py - y0) <= fov:
            out[2, py - y0 + fov, px - x0 + fov] = 1
    return out


def check_observations(grid, positions, goals, obs, fov) -> None:
    for i in range(len(positions)):
        expected = observation(grid, positions, goals, i, fov)
        if obs[i].shape != expected.shape or not np.array_equal(obs[i], expected):
            fail(f"observation of robot {i} at {positions[i]} differs from the reference")


def check_gso(positions, gso, comm_radius) -> None:
    """Symmetric 0/1 adjacency within the radius, scaled to spectral radius 1."""
    n = len(positions)
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and math.dist(positions[i], positions[j]) <= comm_radius:
                adj[i, j] = 1.0
    if gso.shape != (n, n):
        fail(f"gso shape {gso.shape} for {n} robots")
    if not np.array_equal(gso, gso.T):
        fail("gso is not symmetric")
    if not np.array_equal(gso != 0, adj != 0):
        fail("gso edges differ from the communication radius rule")
    if adj.any():
        scale = gso[adj != 0]
        if not np.all(scale == scale[0]):
            fail("gso edge weights differ")
        radius = np.abs(np.linalg.eigvals(adj)).max() * scale[0]
        if abs(radius - 1.0) > 1e-9:
            fail(f"gso spectral radius {radius}, expected 1")


def check_label_replay(starts, labels, paths) -> None:
    """Replaying the per-step action labels from the starts retraces the plan."""
    positions = tuple(starts)
    for t, row in enumerate(labels):
        positions = tuple(
            (x + MOVES[a][0], y + MOVES[a][1]) for (x, y), a in zip(positions, row)
        )
        if positions != team_positions(paths, t + 1):
            fail(f"labels replayed to t={t + 1} leave the plan's paths")
    if positions != tuple(p[-1] for p in paths):
        fail("labels end before the plan does")


def arrivals(positions, goals, t_max: int) -> list[int]:
    """Per robot: the step from which it stays on its goal, or t_max if it never settles."""
    out = []
    last = len(positions) - 1
    for i, goal in enumerate(goals):
        if positions[last][i] != goal:
            out.append(t_max)
            continue
        t = last
        while t > 0 and positions[t - 1][i] == goal:
            t -= 1
        out.append(t)
    return out


def check_eval_metrics(trajectories, plan_flowtimes, report) -> None:
    """alpha and delta-FT recomputed from the executed positions and the plans."""
    successes = 0
    flowtime = 0
    for traj in trajectories:
        goals = traj.case.goals
        successes += traj.positions[-1] == tuple(goals)
        flowtime += sum(arrivals(traj.positions, goals, traj.t_max))
    expert = sum(plan_flowtimes)
    alpha = successes / len(trajectories)
    delta = (flowtime - expert) / expert
    if report.alpha != alpha or report.delta_ft != delta:
        fail(
            f"reported alpha={report.alpha} delta_ft={report.delta_ft}, "
            f"recomputed alpha={alpha} delta_ft={delta}"
        )
