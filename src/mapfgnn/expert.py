"""Centralized optimal planners: conflict-based search plus a joint-space oracle.

Both solvers minimize flowtime (sum of individual path costs) where a robot's
cost counts every step until it permanently rests at its goal; trailing rest
is free. Robots resting at their goals still occupy their cells, so conflicts
with them are real.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import PlanInfeasible, SolverTimeout, TooLarge, Unreachable
from .gridworld import ACTION_OFFSETS, IDLE, OFFSET_TO_ACTION, Case, Cell, GridMap

VERTEX = "vertex"
EDGE = "edge"

# joint states (free_cells^N * 2^N) the oracle is willing to enumerate
ORACLE_STATE_BOUND = 10_000_000

# wall-clock seconds a CBS solve may take before SolverTimeout
DEFAULT_TIMEOUT_S = 300.0

# sentinel joint-oracle action: robot locks onto its goal, all later steps free
_COMMIT = 5


@dataclass(frozen=True)
class Plan:
    """Collision-free joint solution. Each path ends at its robot's goal."""

    paths: tuple[tuple[Cell, ...], ...]
    flowtime: int
    makespan: int


@dataclass(frozen=True)
class Constraint:
    """Space-time prohibition for one robot.

    vertex: cells = (cell,), the robot may not occupy cell at `time`.
    edge: cells = (u, v), the robot may not traverse u -> v arriving at `time`.
    """

    robot: int
    kind: str
    cells: tuple[Cell, ...]
    time: int


@dataclass(frozen=True)
class Conflict:
    """First collision between two paths; edge conflicts use robot a's move."""

    time: int
    kind: str
    robots: tuple[int, int]
    cells: tuple[Cell, ...]


def bfs_distances(grid: GridMap, goal: Cell) -> dict[Cell, int]:
    """Unit-cost distance from every reachable free cell to the (free) goal.

    Breadth-first one level at a time: every cell of a level gets the same
    distance, so no cell's distance is read back. Keys are inserted in the
    order a FIFO-queue BFS would reach them.
    """
    successors = grid.successors
    dist = {goal: 0}
    level = [goal]
    d = 0
    while level:
        d += 1
        nxt_level = []
        for cell in level:
            for nxt in successors[cell]:
                if nxt not in dist:
                    dist[nxt] = d
                    nxt_level.append(nxt)
        level = nxt_level
    return dist


def default_horizon(grid: GridMap) -> int:
    return 4 * (grid.width + grid.height)


def low_level_search(
    grid: GridMap,
    start: Cell,
    goal: Cell,
    constraints=(),
    horizon: int | None = None,
    dist_to_goal: dict[Cell, int] | None = None,
) -> list[Cell]:
    """Space-time A*: cheapest constraint-satisfying path from start to goal.

    The path ends at the first arrival that may become permanent rest, i.e.
    after the last vertex constraint on the goal cell. Cost equals arrival
    time, so g doubles as the timestep. States pop in (f, g, push order),
    with successors generated in the fixed action order. `dist_to_goal`
    must be the goal's bfs_distances.

    Every push of a state (cell, t) carries the same f = t + h(cell) and
    g = t, so a second push could only pop after the first and be dropped.
    Each state is therefore pushed once, its first parent kept, and the
    per-timestep parent tables double as the closed set.

    The open list is a bucket queue: one FIFO list per (f, g). h is a BFS
    distance, so a step changes it by -1, 0 or +1 and a child's f is its
    parent's f, f + 1 or f + 2. f therefore never falls below the f being
    expanded, and within one f a child has a larger g than its parent.
    Popping the lowest f, then the lowest g, then each bucket front to back
    gives the order a (f, g, push-order) heap would. Only the goal has h = 0,
    so a bucket with f == g holds the goal alone.
    """
    if horizon is None:
        horizon = default_horizon(grid)
    if dist_to_goal is None:
        dist_to_goal = bfs_distances(grid, goal)
    if start not in dist_to_goal:
        raise Unreachable(f"no route {start} -> {goal}")

    # t -> banned cells (vertex) and banned (from, to) moves arriving at t (edge)
    bans: dict[int, set] = {}
    for c in constraints:
        bans.setdefault(c.time, set()).add(c.cells[0] if c.kind == VERTEX else c.cells)
    if start in bans.get(0, ()):
        raise Unreachable("start cell constrained at t=0")
    last_goal_ban = max((t for t, banned in bans.items() if goal in banned), default=-1)

    successors = grid.successors
    # parents[t]: cell -> the cell it was first reached from at t - 1
    parents: list[dict[Cell, Cell | None]] = [{start: None}]
    # f -> g -> cells pushed with that (f, g), in push order
    open_levels: dict[int, dict[int, list[Cell]]] = {dist_to_goal[start]: {0: [start]}}
    while open_levels:
        f = min(open_levels)
        level = open_levels.pop(f)
        while level:
            g = min(level)
            cells = level.pop(g)
            if not cells:
                continue
            if g == f and g > last_goal_ban:
                path = [goal]
                for t in range(g, 0, -1):
                    path.append(parents[t][path[-1]])
                path.reverse()
                return path
            if g >= horizon:
                continue
            t1 = g + 1
            if t1 == len(parents):
                parents.append({})
            reached = parents[t1]
            banned = bans.get(t1)
            later = open_levels.setdefault(f + 1, {})
            latest = open_levels.setdefault(f + 2, {})
            # keyed by a child's f = t1 + h: the parent's f, f + 1 or f + 2
            push = {
                f: level.setdefault(t1, []),
                f + 1: later.setdefault(t1, []),
                f + 2: latest.setdefault(t1, []),
            }
            for cell in cells:
                for nxt in successors[cell]:
                    if nxt in reached:
                        continue
                    if banned is not None and (nxt in banned or (cell, nxt) in banned):
                        continue
                    reached[nxt] = cell
                    push[t1 + dist_to_goal[nxt]].append(nxt)
    raise Unreachable(f"no path {start} -> {goal} within horizon {horizon}")


def positions_at(paths, t: int) -> list[Cell]:
    """Team positions at time t; finished robots rest at their last cell."""
    return [p[min(t, len(p) - 1)] for p in paths]


def detect_first_conflict(paths) -> Conflict | None:
    """Earliest collision, vertex before edge at equal time, lowest robot pair.

    One linear pass per timestep. A vertex conflict shows as fewer distinct
    cells than robots. Positions at t - 1 are then distinct, so a cell ->
    robot table of them names the one robot j that could have swapped with
    robot i; scanning i upward finds the lowest pair first.
    """
    span = max(len(p) for p in paths)
    n = len(paths)
    padded = [tuple(p) + (p[-1],) * (span - len(p)) for p in paths]
    prev = None
    for t, cur in enumerate(zip(*padded)):
        if len(set(cur)) < n:
            seen: dict[Cell, int] = {}
            for i, cell in enumerate(cur):
                if cell in seen:
                    return Conflict(t, VERTEX, (seen[cell], i), (cell,))
                seen[cell] = i
        if prev is not None and prev != cur:
            robot_at = {cell: i for i, cell in enumerate(prev)}
            for i, cell in enumerate(cur):
                j = robot_at.get(cell)
                if j is not None and j != i and cur[j] == prev[i]:
                    return Conflict(t, EDGE, (i, j), (prev[i], cell))
        prev = cur
    return None


def _make_plan(paths) -> Plan:
    costs = [len(p) - 1 for p in paths]
    return Plan(
        paths=tuple(tuple(p) for p in paths),
        flowtime=sum(costs),
        makespan=max(costs),
    )


def cbs_solve(grid: GridMap, case: Case, timeout_s: float = DEFAULT_TIMEOUT_S) -> Plan:
    """Flowtime-optimal collision-free plan via conflict-based search.

    High-level nodes expand in (cost, insertion order); branching adds one
    vertex or edge constraint per child and re-solves only the touched robot.
    """
    t0 = time.monotonic()
    n = case.num_robots
    dists = [bfs_distances(grid, g) for g in case.goals]
    horizon = default_horizon(grid)

    def solve_robot(i: int, constraints) -> list[Cell]:
        mine = tuple(c for c in constraints if c.robot == i)
        return low_level_search(
            grid, case.starts[i], case.goals[i], mine, horizon, dists[i]
        )

    try:
        paths = [solve_robot(i, ()) for i in range(n)]
    except Unreachable as exc:
        raise PlanInfeasible(str(exc)) from exc

    tie = itertools.count()
    root_cost = sum(len(p) - 1 for p in paths)
    heap = [(root_cost, next(tie), paths, ())]
    while heap:
        if time.monotonic() - t0 > timeout_s:
            raise SolverTimeout(f"no solution within {timeout_s}s")
        cost, _, paths, constraints = heapq.heappop(heap)
        conflict = detect_first_conflict(paths)
        if conflict is None:
            return _make_plan(paths)
        a, b = conflict.robots
        if conflict.kind == VERTEX:
            branches = [
                Constraint(a, VERTEX, conflict.cells, conflict.time),
                Constraint(b, VERTEX, conflict.cells, conflict.time),
            ]
        else:
            u, v = conflict.cells
            branches = [
                Constraint(a, EDGE, (u, v), conflict.time),
                Constraint(b, EDGE, (v, u), conflict.time),
            ]
        for new_con in branches:
            child_constraints = constraints + (new_con,)
            try:
                new_path = solve_robot(new_con.robot, child_constraints)
            except Unreachable:
                continue
            child_paths = list(paths)
            child_paths[new_con.robot] = new_path
            child_cost = sum(len(p) - 1 for p in child_paths)
            heapq.heappush(
                heap, (child_cost, next(tie), child_paths, child_constraints)
            )
    raise PlanInfeasible("constraint tree exhausted")


def joint_bfs_oracle(grid: GridMap, case: Case) -> Plan:
    """Exhaustive joint-space search; ground truth for small instances.

    State is (positions, committed-mask). Uncommitted robots pay one unit per
    step; a robot standing on its goal may take a zero-cost commit action that
    freezes it there, making further rest free. A* over this space with the
    sum of single-robot distances as heuristic returns the exact optimum
    under the same conflict rules as cbs_solve.
    """
    n = case.num_robots
    n_free = len(grid.free_cells())
    if (n_free**n) * (2**n) > ORACLE_STATE_BOUND:
        raise TooLarge(
            f"{n_free}^{n} * 2^{n} joint states exceed {ORACLE_STATE_BOUND}"
        )
    dists = [bfs_distances(grid, g) for g in case.goals]
    for s, d in zip(case.starts, dists):
        if s not in d:
            raise PlanInfeasible(f"goal unreachable from start {s}")

    def heuristic(positions, done) -> int:
        return sum(
            dists[i][positions[i]] for i in range(n) if not done[i]
        )

    start_state = (tuple(case.starts), (False,) * n)
    tie = itertools.count()
    best_g = {start_state: 0}
    parent: dict = {}
    heap = [(heuristic(*start_state), 0, next(tie), start_state)]
    while heap:
        _, g, _, state = heapq.heappop(heap)
        if g > best_g.get(state, g):
            continue
        positions, done = state
        if all(done):
            return _reconstruct_joint(case, parent, state)
        options = []
        for i in range(n):
            if done[i]:
                options.append(((positions[i], None),))
                continue
            opts = []
            x, y = positions[i]
            for a, (dx, dy) in enumerate(ACTION_OFFSETS):
                nxt = (x + dx, y + dy)
                if grid.is_free(nxt):
                    opts.append((nxt, a))
            if positions[i] == case.goals[i]:
                opts.append((positions[i], _COMMIT))
            options.append(tuple(opts))
        for combo in itertools.product(*options):
            new_pos = tuple(c[0] for c in combo)
            if len(set(new_pos)) < n:
                continue
            if any(
                new_pos[i] == positions[j]
                and new_pos[j] == positions[i]
                and positions[i] != positions[j]
                for i in range(n)
                for j in range(i + 1, n)
            ):
                continue
            new_done = tuple(
                done[i] or combo[i][1] == _COMMIT for i in range(n)
            )
            step_cost = sum(
                1 for i in range(n) if not done[i] and combo[i][1] != _COMMIT
            )
            new_state = (new_pos, new_done)
            ng = g + step_cost
            if ng < best_g.get(new_state, ng + 1):
                best_g[new_state] = ng
                parent[new_state] = state
                heapq.heappush(
                    heap,
                    (ng + heuristic(new_pos, new_done), ng, next(tie), new_state),
                )
    raise PlanInfeasible("joint state space exhausted")


def _reconstruct_joint(case: Case, parent, terminal) -> Plan:
    chain = [terminal]
    while chain[-1] in parent:
        chain.append(parent[chain[-1]])
    chain.reverse()
    paths = []
    for i in range(case.num_robots):
        path = [state[0][i] for state in chain]
        goal = case.goals[i]
        while len(path) >= 2 and path[-1] == goal and path[-2] == goal:
            path.pop()
        paths.append(path)
    return _make_plan(paths)


def plan_to_labels(plan: Plan) -> np.ndarray:
    """Per-timestep expert action ids, shape (makespan, num_robots).

    Robots that finish early emit idle. Replaying the labels through
    step_positions from the starts reproduces plan.paths exactly.
    """
    n = len(plan.paths)
    labels = np.full((plan.makespan, n), IDLE, dtype=np.int64)
    for i, path in enumerate(plan.paths):
        for t in range(len(path) - 1):
            dx = path[t + 1][0] - path[t][0]
            dy = path[t + 1][1] - path[t][1]
            labels[t, i] = OFFSET_TO_ACTION[(dx, dy)]
    return labels


def validate_plan(grid: GridMap, case: Case, plan: Plan) -> None:
    """Raise ValueError on any structural or collision violation."""
    if len(plan.paths) != case.num_robots:
        raise ValueError("path count does not match robot count")
    for i, path in enumerate(plan.paths):
        if not path:
            raise ValueError(f"robot {i}: empty path")
        if path[0] != case.starts[i]:
            raise ValueError(f"robot {i}: path does not begin at start")
        if path[-1] != case.goals[i]:
            raise ValueError(f"robot {i}: path does not end at goal")
        for t, cell in enumerate(path):
            if not grid.is_free(cell):
                raise ValueError(f"robot {i}: blocked cell {cell} at t={t}")
        for t in range(len(path) - 1):
            dx = path[t + 1][0] - path[t][0]
            dy = path[t + 1][1] - path[t][1]
            if (dx, dy) not in OFFSET_TO_ACTION:
                raise ValueError(f"robot {i}: illegal jump at t={t}")
    conflict = detect_first_conflict(plan.paths)
    if conflict is not None:
        raise ValueError(f"plan has a {conflict.kind} conflict at t={conflict.time}")
    costs = [len(p) - 1 for p in plan.paths]
    if plan.flowtime != sum(costs):
        raise ValueError("flowtime does not match path costs")
    if plan.makespan != max(costs):
        raise ValueError("makespan does not match path lengths")
