import heapq
import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfgnn import expert
from mapfgnn.errors import PlanInfeasible, TooLarge, Unreachable
from mapfgnn.expert import (
    Constraint,
    bfs_distances,
    cbs_solve,
    detect_first_conflict,
    joint_bfs_oracle,
    low_level_search,
    plan_to_labels,
    validate_plan,
)
from mapfgnn.gridworld import (
    ACTION_OFFSETS,
    Case,
    GridMap,
    generate_case,
    generate_map,
    step_positions,
)


def empty_map(w, h):
    return GridMap(w, h, frozenset())


# The low level as it stood before the per-map successor table and the
# push-once A*, kept verbatim except that the map's free test and neighbour
# list are spelled out from the fields, so the reference shares no table with
# the code under test.


def reference_is_free(grid, cell):
    x, y = cell
    return 0 <= x < grid.width and 0 <= y < grid.height and cell not in grid.obstacles


def reference_neighbors(grid, cell):
    x, y = cell
    out = []
    for dx, dy in ((0, -1), (-1, 0), (0, 1), (1, 0)):
        nxt = (x + dx, y + dy)
        if reference_is_free(grid, nxt):
            out.append(nxt)
    return out


def reference_bfs(grid, goal):
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        cell = queue.popleft()
        for nxt in reference_neighbors(grid, cell):
            if nxt not in dist:
                dist[nxt] = dist[cell] + 1
                queue.append(nxt)
    return dist


def reference_low_level_search(
    grid, start, goal, constraints=(), horizon=None, dist_to_goal=None
):
    if horizon is None:
        horizon = expert.default_horizon(grid)
    if dist_to_goal is None:
        dist_to_goal = reference_bfs(grid, goal)
    if start not in dist_to_goal:
        raise Unreachable(f"no route {start} -> {goal}")

    vertex_banned = set()
    edge_banned = set()
    for c in constraints:
        if c.kind == expert.VERTEX:
            vertex_banned.add((c.cells[0], c.time))
        else:
            edge_banned.add((c.cells[0], c.cells[1], c.time))
    if (start, 0) in vertex_banned:
        raise Unreachable("start cell constrained at t=0")
    last_goal_ban = max((t for cell, t in vertex_banned if cell == goal), default=-1)

    tie = itertools.count()
    heap = [(dist_to_goal[start], 0, next(tie), start)]
    came_from = {}
    closed = set()
    while heap:
        _, g, _, cell = heapq.heappop(heap)
        if (cell, g) in closed:
            continue
        closed.add((cell, g))
        if cell == goal and g > last_goal_ban:
            path = [cell]
            key = (cell, g)
            while key in came_from:
                prev = came_from[key]
                path.append(prev[0])
                key = prev
            path.reverse()
            return path
        if g >= horizon:
            continue
        t1 = g + 1
        for dx, dy in ACTION_OFFSETS:
            nxt = (cell[0] + dx, cell[1] + dy)
            if not reference_is_free(grid, nxt):
                continue
            if (nxt, t1) in vertex_banned or (cell, nxt, t1) in edge_banned:
                continue
            if (nxt, t1) in closed:
                continue
            h = dist_to_goal.get(nxt)
            if h is None:
                continue
            if (nxt, t1) not in came_from:
                came_from[(nxt, t1)] = (cell, g)
            heapq.heappush(heap, (t1 + h, t1, next(tie), nxt))
    raise Unreachable(f"no path {start} -> {goal} within horizon {horizon}")


# detect_first_conflict as it stood before the linear scan, verbatim apart
# from its name and the inlined positions helper.


def reference_positions_at(paths, t):
    return [p[min(t, len(p) - 1)] for p in paths]


def reference_detect_first_conflict(paths):
    span = max(len(p) for p in paths)
    prev = None
    for t in range(span):
        cur = reference_positions_at(paths, t)
        seen = {}
        for i, cell in enumerate(cur):
            if cell in seen:
                return expert.Conflict(t, expert.VERTEX, (seen[cell], i), (cell,))
            seen[cell] = i
        if prev is not None:
            n = len(paths)
            for i in range(n):
                for j in range(i + 1, n):
                    if prev[i] == cur[j] and prev[j] == cur[i] and prev[i] != cur[i]:
                        return expert.Conflict(t, expert.EDGE, (i, j), (prev[i], cur[i]))
        prev = cur
    return None


def search_outcome(search, *args):
    try:
        return search(*args)
    except Unreachable:
        return "unreachable"


@st.composite
def search_problems(draw):
    """A small map, free start and goal, constraints and an optional horizon."""
    w = draw(st.integers(1, 6))
    h = draw(st.integers(1, 6))
    cells = [(x, y) for y in range(h) for x in range(w)]
    start = draw(st.sampled_from(cells))
    goal = draw(st.sampled_from(cells))
    obstacles = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 2))
    if draw(st.booleans()):
        # wall the goal in
        obstacles |= {(goal[0] + dx, goal[1] + dy) for dx, dy in ACTION_OFFSETS[1:]}
    grid = GridMap(w, h, frozenset((obstacles & set(cells)) - {start, goal}))
    horizon = draw(st.none() | st.integers(0, 12))
    cons = []
    for cell, t in draw(st.lists(st.tuples(st.sampled_from(cells), st.integers(0, 14)))):
        cons.append(Constraint(0, "vertex", (cell,), t))
    for cell, a, t in draw(
        st.lists(st.tuples(st.sampled_from(cells), st.integers(0, 4), st.integers(1, 14)))
    ):
        dx, dy = ACTION_OFFSETS[a]
        cons.append(Constraint(0, "edge", (cell, (cell[0] + dx, cell[1] + dy)), t))
    arrival = reference_bfs(grid, goal).get(start)
    if arrival is not None:
        # bans on the goal from the first arrival on
        for k in draw(st.sets(st.integers(0, 6), max_size=3)):
            cons.append(Constraint(0, "vertex", (goal,), arrival + k))
    if draw(st.booleans()):
        cons.append(Constraint(0, "vertex", (start,), 0))
    return grid, start, goal, tuple(draw(st.permutations(cons))), horizon


class TestLowLevelSearch:
    def test_straight_line_cost(self):
        m = empty_map(5, 5)
        path = low_level_search(m, (0, 0), (0, 3))
        assert len(path) - 1 == 3
        assert path[0] == (0, 0) and path[-1] == (0, 3)

    def test_vertex_constraint_forces_one_wait(self):
        m = empty_map(5, 5)
        con = Constraint(0, "vertex", ((0, 1),), 1)
        path = low_level_search(m, (0, 0), (0, 3), [con])
        assert len(path) - 1 == 4
        assert path[1] != (0, 1)

    def test_goal_enclosed_raises(self):
        m = GridMap(5, 5, frozenset({(3, 2), (2, 3), (4, 3), (3, 4)}))
        with pytest.raises(Unreachable):
            low_level_search(m, (0, 0), (3, 3))

    def test_edge_constraint_blocks_traversal(self):
        m = empty_map(4, 1)
        con = Constraint(0, "edge", ((0, 0), (1, 0)), 1)
        path = low_level_search(m, (0, 0), (3, 0), [con])
        assert len(path) - 1 == 4
        assert path[0] == (0, 0) and path[1] == (0, 0)

    def test_goal_constraint_delays_arrival(self):
        m = empty_map(5, 1)
        con = Constraint(0, "vertex", ((2, 0),), 5)
        path = low_level_search(m, (0, 0), (2, 0), [con])
        assert len(path) - 1 >= 6
        assert path[-1] == (2, 0)

    def test_path_steps_are_unit_moves(self):
        m = generate_map(8, 8, 0.2, seed=1)
        goal = m.free_cells()[-1]
        dist = bfs_distances(m, goal)
        start = next(c for c in m.free_cells() if c in dist)
        path = low_level_search(m, start, goal)
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1

    def test_monotone_under_added_constraints(self):
        m = empty_map(6, 6)
        cons = []
        prev_cost = len(low_level_search(m, (0, 0), (5, 5))) - 1
        for t in (1, 2, 3):
            cons.append(Constraint(0, "vertex", ((t, 0),), t))
            cost = len(low_level_search(m, (0, 0), (5, 5), cons)) - 1
            assert cost >= prev_cost
            prev_cost = cost


class TestLowLevelMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(search_problems())
    def test_same_path_or_both_unreachable(self, problem):
        grid, start, goal, cons, horizon = problem
        new = search_outcome(low_level_search, grid, start, goal, cons, horizon)
        ref = search_outcome(reference_low_level_search, grid, start, goal, cons, horizon)
        assert new == ref

    @settings(max_examples=200, deadline=None)
    @given(search_problems())
    def test_bfs_distances_equal(self, problem):
        grid, _, goal, _, _ = problem
        new = bfs_distances(grid, goal)
        ref = reference_bfs(grid, goal)
        assert new == ref
        assert list(new.items()) == list(ref.items())

    def test_paper_scale_maps(self):
        for seed in range(5):
            m = generate_map(20, 20, 0.1, seed=seed)
            case = generate_case(m, 10, seed=seed)
            for s, g in zip(case.starts, case.goals):
                cons = [Constraint(0, "vertex", (g,), t) for t in (3, 30)]
                for c in ((), cons):
                    assert low_level_search(m, s, g, c) == reference_low_level_search(
                        m, s, g, c
                    )


def solve_logged(grid, case, cap):
    """cbs_solve outcome and the conflict found at each high-level node,
    stopped past `cap` nodes."""
    original = expert.detect_first_conflict
    log = []

    class Capped(Exception):
        pass

    def logged(paths):
        if len(log) == cap:
            raise Capped()
        log.append(original(paths))
        return log[-1]

    expert.detect_first_conflict = logged
    try:
        outcome = cbs_solve(grid, case)
    except Capped:
        outcome = "capped"
    except PlanInfeasible:
        outcome = "infeasible"
    finally:
        expert.detect_first_conflict = original
    return outcome, log


# A 20x20 / 10-robot case plain CBS cannot solve within 120 s, copied from
# the benchmark's build workload so that this test depends on no generator.
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


class TestCbsMatchesReference:
    def reference_solve(self, monkeypatch, grid, case, cap):
        with monkeypatch.context() as mp:
            mp.setattr(expert, "low_level_search", reference_low_level_search)
            mp.setattr(expert, "bfs_distances", reference_bfs)
            mp.setattr(expert, "detect_first_conflict", reference_detect_first_conflict)
            return solve_logged(grid, case, cap)

    @pytest.mark.parametrize(
        "size, robots, seeds, cap",
        [(12, 6, range(20), 200), (20, 10, range(4), 60)],
    )
    def test_same_plans_and_node_counts(self, monkeypatch, size, robots, seeds, cap):
        solved = 0
        for seed in seeds:
            m = generate_map(size, size, 0.1, seed=seed)
            case = generate_case(m, robots, seed=seed)
            new = solve_logged(m, case, cap)
            assert new == self.reference_solve(monkeypatch, m, case, cap), f"seed {seed}"
            solved += isinstance(new[0], expert.Plan)
        assert solved >= len(seeds) // 2

    def test_hard_case_first_nodes(self, monkeypatch):
        grid = GridMap(20, 20, frozenset(HARD_OBSTACLES))
        case = Case("hard", HARD_STARTS, HARD_GOALS)
        new = solve_logged(grid, case, 300)
        assert new[0] == "capped" and len(new[1]) == 300
        assert new == self.reference_solve(monkeypatch, grid, case, 300)


class TestDetectFirstConflict:
    def test_vertex_conflict(self):
        paths = [
            [(0, 0), (1, 0), (1, 1)],
            [(2, 2), (2, 1), (1, 1)],
        ]
        c = detect_first_conflict(paths)
        assert c.kind == "vertex"
        assert c.time == 2
        assert c.robots == (0, 1)
        assert c.cells == ((1, 1),)

    def test_edge_conflict_reported_at_arrival(self):
        paths = [
            [(0, 0), (0, 1)],
            [(0, 1), (0, 0)],
        ]
        c = detect_first_conflict(paths)
        assert c.kind == "edge"
        assert c.time == 1
        assert c.cells == ((0, 0), (0, 1))

    def test_disjoint_paths_clean(self):
        paths = [
            [(0, 0), (1, 0)],
            [(3, 3), (3, 2)],
        ]
        assert detect_first_conflict(paths) is None

    def test_vertex_beats_edge_at_equal_time(self):
        # robots 0,1 swap arriving t=1 while robots 2,3 collide at t=1
        paths = [
            [(0, 0), (0, 1)],
            [(0, 1), (0, 0)],
            [(5, 5), (5, 6)],
            [(5, 7), (5, 6)],
        ]
        c = detect_first_conflict(paths)
        assert c.kind == "vertex"
        assert c.robots == (2, 3)

    def test_finished_robot_occupies_its_goal(self):
        paths = [
            [(1, 1)],
            [(3, 1), (2, 1), (1, 1)],
        ]
        c = detect_first_conflict(paths)
        assert c.kind == "vertex"
        assert c.time == 2
        assert c.cells == ((1, 1),)


GRID4 = [(x, y) for y in range(4) for x in range(4)]


class TestDetectFirstConflictMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(GRID4), min_size=1, max_size=8),
                    min_size=1, max_size=6))
    def test_arbitrary_paths(self, paths):
        assert detect_first_conflict(paths) == reference_detect_first_conflict(paths)

    @pytest.mark.parametrize(
        "paths, expected",
        [
            # robots 1,2 and 0,3 swap arriving t=1: the lowest pair wins
            (
                [[(0, 0), (0, 1)], [(2, 0), (3, 0)], [(3, 0), (2, 0)], [(0, 1), (0, 0)]],
                expert.Conflict(1, "edge", (0, 3), ((0, 0), (0, 1))),
            ),
            # robots 0,1 swap while robots 2,3 meet at t=1: vertex first
            (
                [[(0, 0), (0, 1)], [(0, 1), (0, 0)], [(2, 2), (2, 3)], [(3, 3), (2, 3)]],
                expert.Conflict(1, "vertex", (2, 3), ((2, 3),)),
            ),
            # robot 0 rests at its goal from t=0; robot 1 idles, then enters it
            (
                [[(1, 1)], [(2, 1), (2, 1), (1, 1)]],
                expert.Conflict(2, "vertex", (0, 1), ((1, 1),)),
            ),
            # robot 1 rests beside robot 0's path, which never enters its cell
            ([[(0, 0), (1, 0), (2, 0), (3, 0)], [(1, 1)]], None),
            ([[(0, 0), (1, 0), (1, 1), (1, 0)]], None),
        ],
        ids=["two-swaps", "vertex-and-edge", "resting-robot", "resting-clean", "single"],
    )
    def test_pinned(self, paths, expected):
        assert detect_first_conflict(paths) == expected
        assert reference_detect_first_conflict(paths) == expected


class TestCbsSolve:
    def test_single_robot_shortest_path(self):
        m = empty_map(20, 20)
        case = Case("m", ((0, 0),), ((3, 0),))
        plan = cbs_solve(m, case)
        assert plan.flowtime == 3
        assert plan.makespan == 3

    def test_corridor_swap_with_passing_bay(self):
        # 3x1 corridor with one side cell above the middle
        m = GridMap(3, 2, frozenset({(0, 1), (2, 1)}))
        case = Case("m", ((0, 0), (2, 0)), ((2, 0), (0, 0)))
        plan = cbs_solve(m, case)
        oracle = joint_bfs_oracle(m, case)
        assert plan.flowtime == oracle.flowtime
        validate_plan(m, case, plan)

    def test_bare_corridor_swap_infeasible(self):
        m = empty_map(2, 1)
        case = Case("m", ((0, 0), (1, 0)), ((1, 0), (0, 0)))
        with pytest.raises(PlanInfeasible):
            cbs_solve(m, case)

    def test_solution_is_collision_free(self):
        m = generate_map(8, 8, 0.1, seed=3)
        case = generate_case(m, 4, seed=7)
        plan = cbs_solve(m, case)
        assert detect_first_conflict(plan.paths) is None
        validate_plan(m, case, plan)

    def test_deterministic(self):
        m = generate_map(8, 8, 0.1, seed=4)
        case = generate_case(m, 4, seed=2)
        assert cbs_solve(m, case) == cbs_solve(m, case)

    def test_resting_robot_forces_detour(self):
        # robot 1 parks on robot 0's straight line; detour adds 2 steps
        m = empty_map(5, 3)
        case = Case("m", ((0, 1), (2, 0)), ((4, 1), (2, 1)))
        plan = cbs_solve(m, case)
        oracle = joint_bfs_oracle(m, case)
        assert plan.flowtime == oracle.flowtime
        validate_plan(m, case, plan)


class TestJointOracle:
    def test_single_robot_matches_low_level(self):
        m = generate_map(5, 5, 0.1, seed=6)
        case = generate_case(m, 1, seed=1)
        plan = joint_bfs_oracle(m, case)
        path = low_level_search(m, case.starts[0], case.goals[0])
        assert plan.flowtime == len(path) - 1

    def test_crossing_diagonals_matches_cbs(self):
        m = empty_map(3, 3)
        case = Case("m", ((0, 0), (2, 0)), ((2, 2), (0, 2)))
        oracle = joint_bfs_oracle(m, case)
        plan = cbs_solve(m, case)
        assert oracle.flowtime == plan.flowtime == 8
        validate_plan(m, case, oracle)

    def test_bare_swap_infeasible(self):
        m = empty_map(2, 1)
        case = Case("m", ((0, 0), (1, 0)), ((1, 0), (0, 0)))
        with pytest.raises(PlanInfeasible):
            joint_bfs_oracle(m, case)

    def test_state_bound_enforced(self):
        m = empty_map(30, 30)
        case = Case(
            "m",
            ((0, 0), (5, 5), (10, 10), (15, 15)),
            ((1, 1), (6, 6), (11, 11), (16, 16)),
        )
        with pytest.raises(TooLarge):
            joint_bfs_oracle(m, case)

    def test_flowtime_equals_path_costs(self):
        m = generate_map(5, 5, 0.1, seed=9)
        case = generate_case(m, 2, seed=3)
        plan = joint_bfs_oracle(m, case)
        assert plan.flowtime == sum(len(p) - 1 for p in plan.paths)
        validate_plan(m, case, plan)

    def test_matches_cbs_on_random_small_instances(self):
        hits = 0
        for seed in range(12):
            m = generate_map(4, 4, 0.1, seed=seed)
            try:
                case = generate_case(m, 2, seed=seed)
            except Exception:
                continue
            oracle = joint_bfs_oracle(m, case)
            plan = cbs_solve(m, case)
            assert plan.flowtime == oracle.flowtime, f"seed {seed}"
            hits += 1
        assert hits >= 8


class TestPlanLabels:
    def test_up_move_label(self):
        plan = cbs_solve(empty_map(3, 3), Case("m", ((2, 2),), ((2, 1),)))
        labels = plan_to_labels(plan)
        assert labels.shape == (1, 1)
        assert labels[0, 0] == 1

    def test_early_finisher_idles(self):
        m = empty_map(6, 1)
        case = Case("m", ((0, 0), (2, 0)), ((1, 0), (5, 0)))
        plan = cbs_solve(m, case)
        labels = plan_to_labels(plan)
        assert labels.shape[0] == plan.makespan
        assert (labels[1:, 0] == 0).all()

    def test_replay_reproduces_paths(self):
        m = generate_map(8, 8, 0.15, seed=11)
        case = generate_case(m, 4, seed=5)
        plan = cbs_solve(m, case)
        labels = plan_to_labels(plan)
        positions = list(case.starts)
        replayed = [[p] for p in positions]
        for t in range(labels.shape[0]):
            positions = step_positions(m, positions, labels[t])
            for i, p in enumerate(positions):
                replayed[i].append(p)
        for i, path in enumerate(plan.paths):
            assert tuple(replayed[i][: len(path)]) == path
            assert all(p == path[-1] for p in replayed[i][len(path) :])


class TestValidatePlan:
    def test_accepts_solver_output(self):
        m = generate_map(7, 7, 0.1, seed=2)
        case = generate_case(m, 3, seed=8)
        validate_plan(m, case, cbs_solve(m, case))

    def test_rejects_teleport(self):
        m = empty_map(5, 5)
        case = Case("m", ((0, 0),), ((2, 0),))
        from mapfgnn.expert import Plan

        bad = Plan(paths=(((0, 0), (2, 0)),), flowtime=1, makespan=1)
        with pytest.raises(ValueError):
            validate_plan(m, case, bad)

    def test_rejects_vertex_collision(self):
        m = empty_map(5, 5)
        case = Case("m", ((0, 0), (2, 0)), ((1, 0), (1, 0)))
        from mapfgnn.expert import Plan

        bad = Plan(
            paths=(((0, 0), (1, 0)), ((2, 0), (1, 0))), flowtime=2, makespan=1
        )
        with pytest.raises(ValueError):
            validate_plan(m, case, bad)
