import math
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfgnn.errors import InfeasibleCase, OutOfBounds
from mapfgnn.gridworld import (
    ACTION_OFFSETS,
    GridMap,
    build_gso,
    generate_case,
    generate_map,
    step_positions,
    team_observations,
)


def empty_map(w, h):
    return GridMap(w, h, frozenset())


def scalar_observation(grid, positions, goals, robot, fov_radius=4):
    """Reference: one robot's window built cell by cell."""
    r = fov_radius
    w = 2 * r + 1
    channels = np.zeros((3, w, w), dtype=np.float64)
    x0, y0 = positions[robot]
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            cell = (x0 + dx, y0 + dy)
            if not grid.in_bounds(cell) or cell in grid.obstacles:
                channels[0, dy + r, dx + r] = 1.0
    gx, gy = goals[robot]
    rel_x = min(max(gx - x0, -r), r)
    rel_y = min(max(gy - y0, -r), r)
    channels[1, rel_y + r, rel_x + r] = 1.0
    channels[2, r, r] = 1.0
    for j, (px, py) in enumerate(positions):
        if j == robot:
            continue
        dx, dy = px - x0, py - y0
        if abs(dx) <= r and abs(dy) <= r:
            channels[2, dy + r, dx + r] = 1.0
    return channels


def scalar_gso(positions, comm_radius):
    """Reference: pairwise loop on math.hypot, then spectral normalization."""
    n = len(positions)
    mat = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            (xi, yi), (xj, yj) = positions[i], positions[j]
            if math.hypot(xi - xj, yi - yj) <= comm_radius:
                mat[i, j] = mat[j, i] = 1.0
    if mat.any():
        mat = mat / np.abs(np.linalg.eigvalsh(mat)).max()
    return mat


def reference_reachable(grid, start, goal):
    """Reference: 4-connected reachability by one BFS from start."""
    if start == goal:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for nxt in grid.neighbors(cell):
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def observe(grid, positions, goals, robot, fov_radius=4):
    return team_observations(grid, positions, goals, fov_radius)[robot]


class TestGridMapTables:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 7),
        st.integers(1, 7),
        st.floats(0.0, 0.6),
        st.integers(0, 10_000),
    )
    def test_free_test_and_neighbours_match_the_fields(self, w, h, density, seed):
        m = GridMap(w, h, generate_map(max(w, 2), max(h, 2), density, seed).obstacles)

        def free(cell):
            x, y = cell
            return 0 <= x < w and 0 <= y < h and cell not in m.obstacles

        around = [(x, y) for y in range(-1, h + 1) for x in range(-1, w + 1)]
        assert [m.is_free(c) for c in around] == [free(c) for c in around]
        assert m.free_cells() == [c for c in around if free(c)]
        for x, y in m.free_cells():
            reach = [(x + dx, y + dy) for dx, dy in ACTION_OFFSETS]
            assert m.successors[(x, y)] == tuple(c for c in reach if free(c))
            assert m.neighbors((x, y)) == [c for c in reach[1:] if free(c)]
        # successors reuse the key objects rather than storing each cell again
        keys = {c: c for c in m.successors}
        assert all(c is keys[c] for succ in m.successors.values() for c in succ)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(2, 6),
        st.floats(0.0, 0.6),
        st.integers(0, 10_000),
    )
    def test_component_labels_match_pairwise_bfs(self, w, h, density, seed):
        m = generate_map(w, h, density, seed)
        comp = m.components
        assert m.components is comp
        assert not comp.flags.writeable
        assert comp.shape == (h, w)
        free = m.free_cells()
        assert all(comp[y, x] == -1 for x, y in m.obstacles)
        assert all(comp[y, x] >= 0 for x, y in free)
        for s in free:
            for g in free:
                same = comp[s[1], s[0]] == comp[g[1], g[0]]
                assert same == reference_reachable(m, s, g), (s, g)

    def test_built_tables_leave_identity_alone(self):
        fresh = generate_map(9, 7, 0.2, seed=5)
        used = generate_map(9, 7, 0.2, seed=5)
        used.successors
        used.components
        used.padded_occupancy(4)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        data = pickle.dumps(used)
        assert data == pickle.dumps(fresh)
        back = pickle.loads(data)
        assert back == fresh
        assert back.successors == used.successors

    def test_padded_occupancy_is_cached_and_read_only(self):
        m = generate_map(6, 5, 0.2, seed=2)
        padded = m.padded_occupancy(2)
        assert m.padded_occupancy(2) is padded
        assert padded.shape == (9, 10)
        assert not padded.flags.writeable
        with pytest.raises(ValueError):
            padded[0, 0] = 0.0
        assert m.padded_occupancy(3).shape == (11, 12)


class TestGenerateMap:
    def test_obstacle_count_20x20_density_010(self):
        m = generate_map(20, 20, 0.10, seed=7)
        assert len(m.obstacles) == 40

    def test_zero_density_gives_empty_map(self):
        m = generate_map(5, 5, 0.0, seed=1)
        assert m.obstacles == frozenset()
        assert len(m.free_cells()) == 25

    def test_deterministic_given_seed(self):
        a = generate_map(12, 9, 0.25, seed=42)
        b = generate_map(12, 9, 0.25, seed=42)
        assert a.obstacles == b.obstacles

    def test_different_seeds_differ(self):
        a = generate_map(20, 20, 0.10, seed=1)
        b = generate_map(20, 20, 0.10, seed=2)
        assert a.obstacles != b.obstacles

    def test_obstacles_inside_bounds(self):
        m = generate_map(7, 13, 0.3, seed=3)
        assert all(m.in_bounds(c) for c in m.obstacles)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_map(1, 5, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_map(5, 5, 1.0, seed=0)


class TestGenerateCase:
    def test_pigeonhole_full_occupancy(self):
        m = empty_map(2, 2)
        case = generate_case(m, 4, seed=0)
        assert set(case.starts) == set(m.free_cells())
        assert set(case.goals) == set(m.free_cells())
        assert all(s != g for s, g in zip(case.starts, case.goals))

    def test_capacity_overflow_raises(self):
        m = empty_map(2, 2)
        with pytest.raises(InfeasibleCase):
            generate_case(m, 5, seed=0)

    def test_isolated_cell_never_paired_across_the_wall(self):
        # (0,0) is walled off from the rest of the 3x3 map
        m = GridMap(3, 3, frozenset({(1, 0), (0, 1), (1, 1)}))
        for seed in range(30):
            case = generate_case(m, 2, seed=seed)
            for s, g in zip(case.starts, case.goals):
                assert ((s == (0, 0)) == (g == (0, 0)))

    def test_validity_invariants(self):
        m = generate_map(10, 10, 0.2, seed=5)
        case = generate_case(m, 6, seed=9)
        assert len(set(case.starts)) == 6
        assert len(set(case.goals)) == 6
        assert all(m.is_free(c) for c in case.starts + case.goals)
        assert all(s != g for s, g in zip(case.starts, case.goals))

    def test_deterministic_given_seed(self):
        m = generate_map(10, 10, 0.1, seed=0)
        a = generate_case(m, 4, seed=11)
        b = generate_case(m, 4, seed=11)
        assert a == b


class TestLocalObservation:
    def test_goal_in_view_relative_placement(self):
        m = empty_map(20, 20)
        obs = observe(m, [(5, 5)], [(6, 5)], 0, fov_radius=4)
        goal_chan = obs[1]
        assert goal_chan[4, 5] == 1.0
        assert goal_chan.sum() == 1.0
        assert obs[2][4, 4] == 1.0

    def test_goal_out_of_view_clamped_componentwise(self):
        m = empty_map(60, 60)
        obs = observe(m, [(5, 5)], [(5, 50)], 0, fov_radius=4)
        goal_chan = obs[1]
        # straight down, clamped to relative (0, +4)
        assert goal_chan[8, 4] == 1.0
        assert goal_chan.sum() == 1.0

    def test_interior_no_obstacles_channel_zero(self):
        m = empty_map(20, 20)
        obs = observe(m, [(10, 10)], [(11, 10)], 0, fov_radius=4)
        assert not obs[0].any()

    def test_border_padding_marked_as_obstacle(self):
        m = empty_map(20, 20)
        obs = observe(m, [(0, 0)], [(1, 1)], 0, fov_radius=4)
        # everything left of / above the map reads as an obstacle
        assert obs[0][:, :4].all()
        assert obs[0][:4, :].all()
        assert not obs[0][4:, 4:].any()

    def test_real_obstacle_appears(self):
        m = GridMap(9, 9, frozenset({(5, 4)}))
        obs = observe(m, [(4, 4)], [(0, 0)], 0, fov_radius=4)
        assert obs[0][4, 5] == 1.0

    def test_other_robots_inside_fov_only(self):
        m = empty_map(30, 30)
        positions = [(10, 10), (12, 10), (10, 20)]
        goals = [(0, 0)] * 3
        obs = observe(m, positions, goals, 0, fov_radius=4)
        self_chan = obs[2]
        assert self_chan[4, 4] == 1.0
        assert self_chan[4, 6] == 1.0
        assert self_chan.sum() == 2.0

    def test_window_shape(self):
        m = empty_map(20, 20)
        obs = team_observations(m, [(5, 5)], [(6, 5)], fov_radius=4)
        assert obs.shape == (1, 3, 9, 9)
        assert obs.dtype == np.float64

    @given(
        x=st.integers(0, 19),
        y=st.integers(0, 19),
        gx=st.integers(0, 19),
        gy=st.integers(0, 19),
    )
    @settings(max_examples=60, deadline=None)
    def test_goal_channel_always_single_one(self, x, y, gx, gy):
        m = empty_map(20, 20)
        obs = observe(m, [(x, y)], [(gx, gy)], 0, fov_radius=4)
        assert obs[1].sum() == 1.0
        assert obs[2][4, 4] == 1.0

    def test_team_observations_stack(self):
        m = empty_map(10, 10)
        positions, goals = [(1, 1), (8, 8)], [(2, 2), (7, 7)]
        stacked = team_observations(m, positions, goals)
        assert stacked.shape == (2, 3, 9, 9)
        for i in range(2):
            assert np.array_equal(stacked[i], scalar_observation(m, positions, goals, i))

    @given(
        width=st.integers(2, 14),
        height=st.integers(2, 14),
        fov=st.integers(1, 4),
        density=st.floats(0.0, 0.5),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, width, height, fov, density, data):
        m = generate_map(width, height, density, seed=width * 100 + height)
        free = m.free_cells()
        n = data.draw(st.integers(1, min(6, len(free))))
        picks = data.draw(st.permutations(range(len(free))))[:n]
        positions = [free[i] for i in picks]
        goals = data.draw(st.lists(st.sampled_from(free), min_size=n, max_size=n))
        stacked = team_observations(m, positions, goals, fov)
        assert stacked.dtype == np.float64
        for i in range(n):
            ref = scalar_observation(m, positions, goals, i, fov)
            assert np.array_equal(stacked[i], ref)


    @given(
        width=st.integers(2, 12),
        height=st.integers(2, 12),
        fov=st.integers(1, 7),
        density=st.floats(0.0, 0.5),
        per_row_goals=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_stack_equals_one_call_per_team(
        self, width, height, fov, density, per_row_goals, data
    ):
        m = generate_map(width, height, density, seed=width * 100 + height)
        free = m.free_cells()
        n = data.draw(st.integers(1, min(5, len(free))))
        steps = data.draw(st.integers(1, 4))
        cells = st.permutations(free).map(lambda perm: perm[:n])
        teams = [data.draw(cells) for _ in range(steps)]
        goals = [data.draw(cells) for _ in range(steps if per_row_goals else 1)]
        stacked = team_observations(m, teams, goals if per_row_goals else goals[0], fov)
        w = 2 * fov + 1
        assert stacked.shape == (steps, n, 3, w, w) and stacked.dtype == np.float64
        for k, team in enumerate(teams):
            team_goals = goals[k if per_row_goals else 0]
            single = team_observations(m, team, team_goals, fov)
            assert stacked[k].tobytes() == single.tobytes()
            for i in range(n):
                ref = scalar_observation(m, team, team_goals, i, fov)
                assert stacked[k, i].tobytes() == ref.tobytes()

    def test_every_leading_axis_is_a_stack(self):
        m = generate_map(8, 8, 0.2, seed=4)
        free = m.free_cells()
        teams = np.array([[free[i], free[i + 7]] for i in range(6)]).reshape(2, 3, 2, 2)
        goals = [free[-1], free[-2]]
        stacked = team_observations(m, teams, goals, 2)
        assert stacked.shape == (2, 3, 2, 3, 5, 5)
        for a in range(2):
            for b in range(3):
                single = team_observations(m, teams[a, b], goals, 2)
                assert stacked[a, b].tobytes() == single.tobytes()

class TestGso:
    def test_two_robots_in_range(self):
        gso = build_gso([(0, 0), (3, 0)], comm_radius=5.0)
        assert np.array_equal(gso.matrix, [[0.0, 1.0], [1.0, 0.0]])

    def test_single_robot(self):
        gso = build_gso([(4, 4)], comm_radius=5.0)
        assert np.array_equal(gso.matrix, [[0.0]])

    def test_two_robots_out_of_range(self):
        gso = build_gso([(0, 0), (6, 0)], comm_radius=5.0)
        assert not gso.matrix.any()

    def test_boundary_distance_counts(self):
        gso = build_gso([(0, 0), (3, 4)], comm_radius=5.0)
        assert gso.matrix[0, 1] == 1.0
        # np.hypot(17, 27) rounds above math.hypot(17, 27) and drops this edge
        gso = build_gso([(0, 0), (17, 27)], comm_radius=math.hypot(17, 27))
        assert gso.matrix[0, 1] == 1.0

    @given(
        pts=st.lists(
            st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=8
        ),
        radius=st.one_of(
            st.floats(0.5, 40.0),
            st.builds(math.hypot, st.integers(1, 30), st.integers(0, 30)),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_reference(self, pts, radius):
        assert np.array_equal(build_gso(pts, radius).matrix, scalar_gso(pts, radius))

    def test_spectral_radius_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = [tuple(p) for p in rng.integers(0, 12, size=(8, 2))]
            gso = build_gso(pts, comm_radius=5.0)
            eigs = np.abs(np.linalg.eigvals(gso.matrix))
            assert eigs.max() <= 1.0 + 1e-9

    @given(
        dx=st.integers(-50, 50),
        dy=st.integers(-50, 50),
        n=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, dx, dy, n, seed):
        rng = np.random.default_rng(seed)
        pts = [tuple(int(v) for v in p) for p in rng.integers(0, 15, size=(n, 2))]
        moved = [(x + dx, y + dy) for x, y in pts]
        a = build_gso(pts).matrix
        b = build_gso(moved).matrix
        assert np.allclose(a, b)

    @given(n=st.integers(2, 6), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_permutation_consistency(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = [tuple(int(v) for v in p) for p in rng.integers(0, 12, size=(n, 2))]
        perm = rng.permutation(n)
        base = build_gso(pts).matrix
        permuted = build_gso([pts[i] for i in perm]).matrix
        assert np.allclose(permuted, base[np.ix_(perm, perm)])

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(3)
        pts = [tuple(int(v) for v in p) for p in rng.integers(0, 10, size=(7, 2))]
        mat = build_gso(pts).matrix
        assert np.allclose(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)


    def test_a_stack_mixes_edge_free_and_connected_teams(self):
        radius = math.hypot(17, 27)
        teams = [[(0, 0), (17, 27)], [(0, 0), (40, 0)], [(5, 5), (5, 6)]]
        stacked = build_gso(teams, radius).matrix
        assert stacked.shape == (3, 2, 2)
        assert np.array_equal(stacked[0], [[0.0, 1.0], [1.0, 0.0]])
        assert not stacked[1].any() and not np.signbit(stacked[1]).any()
        for k, team in enumerate(teams):
            assert stacked[k].tobytes() == build_gso(team, radius).matrix.tobytes()
        assert build_gso([[(4, 4)], [(9, 9)]], 5.0).matrix.tobytes() == bytes(16)

    @given(
        teams=st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=5,
            )
        ),
        radius=st.one_of(
            st.floats(0.5, 40.0),
            st.builds(math.hypot, st.integers(1, 30), st.integers(0, 30)),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_stack_equals_one_call_per_team(self, teams, radius):
        n = len(teams[0])
        stacked = build_gso(teams, radius).matrix
        assert stacked.shape == (len(teams), n, n)
        for k, team in enumerate(teams):
            assert stacked[k].tobytes() == build_gso(team, radius).matrix.tobytes()
            assert stacked[k].tobytes() == scalar_gso(team, radius).tobytes()

class TestStepPositions:
    def test_idle_stays(self):
        m = empty_map(5, 5)
        assert step_positions(m, [(1, 1)], [0]) == [(1, 1)]

    def test_right_moves_positive_x(self):
        m = empty_map(5, 5)
        assert step_positions(m, [(1, 1)], [4]) == [(2, 1)]

    def test_up_moves_negative_y(self):
        m = empty_map(5, 5)
        assert step_positions(m, [(1, 1)], [1]) == [(1, 0)]

    def test_off_map_raises(self):
        m = empty_map(5, 5)
        with pytest.raises(OutOfBounds):
            step_positions(m, [(0, 0)], [2])

    def test_action_offsets_convention(self):
        assert ACTION_OFFSETS == ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0))
