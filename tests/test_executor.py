import numpy as np
import pytest

from mapfgnn import executor
from mapfgnn.errors import EmptyInput
from mapfgnn.executor import (
    IdlePolicy,
    MetricsReport,
    NetworkPolicy,
    PlanReplayPolicy,
    RandomPolicy,
    Trajectory,
    collision_shield,
    compute_metrics,
    detect_deadlock,
    rollout,
    shield_with_stats,
)
from mapfgnn.expert import Plan, cbs_solve, detect_first_conflict
from mapfgnn.gridworld import (
    Case,
    GridMap,
    build_gso,
    generate_case,
    generate_map,
    team_observations,
)
from mapfgnn.nn_core import BatchNorm2d, Conv2d
from mapfgnn.policy import PolicyArch, PolicyNetwork, policy_forward

RIGHT, LEFT, UP, DOWN = 4, 2, 1, 3


class ScriptedPolicy:
    """Plays a fixed list of action vectors, repeating the last one."""

    def __init__(self, script):
        self.script = [list(step) for step in script]

    def act(self, grid, case, positions, t, rng):
        step = self.script[min(t, len(self.script) - 1)]
        return list(step)


def empty_map(w, h):
    return GridMap(w, h, frozenset())


def assert_no_collisions(traj):
    for t in range(len(traj.positions)):
        cur = traj.positions[t]
        assert len(set(cur)) == len(cur), f"vertex collision at t={t}"
        if t:
            prev = traj.positions[t - 1]
            for i in range(len(cur)):
                for j in range(i + 1, len(cur)):
                    swapped = prev[i] == cur[j] and prev[j] == cur[i]
                    assert not (swapped and prev[i] != prev[j]), f"swap at t={t}"


class TestCollisionShield:
    def test_swap_idles_both(self):
        m = empty_map(3, 1)
        out = collision_shield(m, [(0, 0), (1, 0)], [RIGHT, LEFT])
        assert out == [0, 0]

    def test_obstacle_move_idles_only_offender(self):
        m = GridMap(3, 1, frozenset({(1, 0)}))
        out = collision_shield(m, [(0, 0), (2, 0)], [RIGHT, 0])
        assert out == [0, 0]
        m2 = empty_map(3, 3)
        out2 = collision_shield(m2, [(0, 0), (1, 1)], [UP, RIGHT])
        # (0,0) moving up leaves the map; (1,1) is unaffected
        assert out2 == [0, RIGHT]

    def test_conflict_free_chain_passes(self):
        m = empty_map(4, 1)
        out = collision_shield(m, [(0, 0), (1, 0)], [RIGHT, RIGHT])
        assert out == [RIGHT, RIGHT]

    def test_same_target_idles_all(self):
        m = empty_map(3, 3)
        out = collision_shield(m, [(0, 1), (2, 1), (1, 0)], [RIGHT, LEFT, DOWN])
        assert out == [0, 0, 0]

    def test_move_into_idler_blocked(self):
        m = empty_map(3, 1)
        out = collision_shield(m, [(0, 0), (1, 0)], [RIGHT, 0])
        assert out == [0, 0]

    def test_cascade_bounded_by_team_size(self):
        m = GridMap(5, 1, frozenset({(4, 0)}))
        positions = [(0, 0), (1, 0), (2, 0), (3, 0)]
        actions, rounds = shield_with_stats(m, positions, [RIGHT] * 4)
        assert actions == [0, 0, 0, 0]
        assert rounds <= 4

    def test_never_converts_idle_to_move(self):
        m = empty_map(3, 3)
        out = collision_shield(m, [(1, 1)], [0])
        assert out == [0]

    def test_shield_is_deterministic(self):
        m = generate_map(10, 10, 0.2, seed=0)
        rng = np.random.default_rng(1)
        free = m.free_cells()
        for _ in range(20):
            idx = rng.choice(len(free), size=6, replace=False)
            pos = [free[i] for i in idx]
            acts = [int(a) for a in rng.integers(0, 5, size=6)]
            assert collision_shield(m, pos, acts) == collision_shield(m, pos, acts)


class TestRollout:
    def test_expert_replay_succeeds_with_expert_flowtime(self):
        m = generate_map(10, 10, 0.1, seed=2)
        case = generate_case(m, 4, seed=3)
        plan = cbs_solve(m, case)
        traj = rollout(PlanReplayPolicy(plan), m, case, plan, seed=0)
        assert traj.success
        assert sum(traj.arrivals) == plan.flowtime
        assert_no_collisions(traj)

    def test_idle_policy_fails_with_tmax_arrivals(self):
        m = empty_map(5, 5)
        case = Case("m", ((0, 0), (4, 4)), ((2, 0), (4, 2)))
        plan = cbs_solve(m, case)
        traj = rollout(IdlePolicy(), m, case, plan, seed=0)
        assert not traj.success
        assert traj.arrivals == (traj.t_max, traj.t_max)

    def test_tmax_is_three_expert_makespans(self):
        m = empty_map(10, 1)
        case = Case("m", ((0, 0),), ((7, 0),))
        plan = cbs_solve(m, case)
        assert plan.makespan == 7
        traj = rollout(IdlePolicy(), m, case, plan, seed=0)
        assert traj.t_max == 21
        assert traj.steps == 21

    def test_early_termination_on_team_success(self):
        m = empty_map(10, 1)
        case = Case("m", ((0, 0),), ((3, 0),))
        plan = cbs_solve(m, case)
        traj = rollout(PlanReplayPolicy(plan), m, case, plan, seed=0)
        assert traj.steps == 3

    def test_goal_departure_resets_arrival(self):
        m = empty_map(5, 2)
        case = Case("m", ((0, 0), (4, 1)), ((1, 0), (0, 1)))
        plan = cbs_solve(m, case)
        script = [[RIGHT, LEFT], [RIGHT, LEFT], [LEFT, LEFT], [0, LEFT]]
        traj = rollout(ScriptedPolicy(script), m, case, plan, seed=0)
        assert traj.success
        # robot 0 reached its goal at t=1, left, and returned at t=3
        assert traj.arrivals == (3, 4)

    def test_network_policy_runs_and_stays_safe(self):
        m = generate_map(8, 8, 0.1, seed=4)
        case = generate_case(m, 3, seed=5)
        plan = cbs_solve(m, case)
        net = PolicyNetwork(PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16), seed=0)
        for mode in ("greedy", "sample"):
            traj = rollout(NetworkPolicy(net, mode=mode), m, case, plan, seed=6)
            assert_no_collisions(traj)

    def test_random_policy_rollouts_collision_free(self):
        for seed in range(25):
            m = generate_map(10, 10, 0.1, seed=seed)
            case = generate_case(m, 5, seed=seed)
            plan = cbs_solve(m, case)
            traj = rollout(RandomPolicy(), m, case, plan, seed=seed)
            assert_no_collisions(traj)

    def test_rollout_deterministic(self):
        m = generate_map(8, 8, 0.1, seed=7)
        case = generate_case(m, 3, seed=8)
        plan = cbs_solve(m, case)
        a = rollout(RandomPolicy(), m, case, plan, seed=9)
        b = rollout(RandomPolicy(), m, case, plan, seed=9)
        assert a == b


def rebuilt_unrolled_weight(conv, h, w, dtype, memoise):
    """Conv2d's small-map weight rebuilt through the tap matrix on every
    call, ignoring memoise: the arithmetic before the eval memo and the 1x1
    slice, with rows ordered (yi, xi, ci) and columns (yo, xo, co), in the
    dtype the layer computes in (each entry is one weight, so the cast of
    the float64 matrix rounds each weight once)."""
    c_out, c = conv.weight.shape[:2]
    yi, xi, yo, xo = np.indices((h, w, h, w)).reshape(4, -1)
    ky, kx = yi - yo + 1, xi - xo + 1
    pairs = np.flatnonzero((ky >= 0) & (ky < 3) & (kx >= 0) & (kx < 3))
    taps = np.zeros((9, h * w * h * w))
    taps[ky[pairs] * 3 + kx[pairs], pairs] = 1.0
    placed = conv.weight.reshape(c_out, c, 9) @ taps
    placed = placed.reshape(c_out, c, h, w, h, w).transpose(2, 3, 1, 4, 5, 0)
    return np.ascontiguousarray(placed.reshape(h * w * c, h * w * c_out), dtype=dtype)


class ScalarDrawPolicy:
    """NetworkPolicy's step with one Generator.choice (or argmax) per robot;
    it keeps each step's probabilities."""

    def __init__(self, net, mode):
        self.net, self.mode = net, mode
        self.probs = []

    def act(self, grid, case, positions, t, rng):
        obs = team_observations(grid, positions, case.goals, self.net.arch.fov_radius)
        probs = policy_forward(self.net, obs, build_gso(positions, self.net.arch.comm_radius).matrix)
        self.probs.append(probs)
        if self.mode == "greedy":
            return [int(np.argmax(row)) for row in probs]
        return [int(rng.choice(row.size, p=row / row.sum())) for row in probs]


def net_with_running_statistics(seed):
    """A paper-arch network whose BatchNorms hold the running statistics of
    a few train forwards and non-trivial affine parameters, so its action
    probabilities are far from uniform and move with any conv's arithmetic."""
    net = PolicyNetwork(PolicyArch(), seed=seed)
    rng = np.random.default_rng(seed)
    for layer in net.cnn:
        if isinstance(layer, BatchNorm2d):
            layer.gamma[...] = rng.uniform(0.5, 2.0, size=layer.gamma.shape)
            layer.beta[...] = rng.normal(0.0, 0.5, size=layer.beta.shape)
    for _ in range(3):
        net.encode((rng.random((64, 3, 9, 9)) < 0.3).astype(np.uint8), train=True)
    net.head.weight *= 8.0
    return net


class TestNetworkPolicyEquivalence:
    @pytest.mark.parametrize("mode", ["sample", "greedy"])
    def test_rollout_equals_the_scalar_rebuild_reference(self, mode, monkeypatch):
        m = generate_map(20, 20, 0.1, seed=11)
        case = generate_case(m, 10, seed=12)
        plan = cbs_solve(m, case)
        net = net_with_running_statistics(13)
        reference = ScalarDrawPolicy(net, mode)
        with monkeypatch.context() as patched:
            patched.setattr(Conv2d, "_unrolled_weight", rebuilt_unrolled_weight)
            expected = rollout(reference, m, case, plan, seed=14)
        probs = []

        def recorded(*args):
            probs.append(policy_forward(*args))
            return probs[-1]

        monkeypatch.setattr(executor, "policy_forward", recorded)
        got = rollout(NetworkPolicy(net, mode=mode), m, case, plan, seed=14)
        assert len(set(expected.positions)) > 1
        assert len(probs) == len(reference.probs)
        for step, want in zip(probs, reference.probs):
            assert step.tobytes() == want.tobytes()
        assert got.positions == expected.positions
        assert got.shielded == expected.shielded
        assert got.arrivals == expected.arrivals


def one_robot_traj(arrival, t_max, success):
    case = Case("m", ((0, 0),), ((1, 0),))
    pos = ((0, 0),) * 2
    return Trajectory(
        case=case,
        positions=pos,
        shielded=(),
        arrivals=(arrival,),
        robot_success=(success,),
        success=success,
        t_max=t_max,
    )


class TestMetrics:
    def test_half_successful(self):
        m = empty_map(5, 5)
        case = Case("m", ((0, 0),), ((2, 0),))
        plan = cbs_solve(m, case)
        good = rollout(PlanReplayPolicy(plan), m, case, plan, seed=0)
        bad = rollout(IdlePolicy(), m, case, plan, seed=0)
        report = compute_metrics([good, bad], [plan, plan])
        assert report.alpha == 0.5
        assert report.histogram == {1: 1, 0: 1}

    def test_expert_replay_zero_increase(self):
        m = generate_map(9, 9, 0.1, seed=10)
        trajs, plans = [], []
        for seed in range(4):
            case = generate_case(m, 3, seed=seed)
            plan = cbs_solve(m, case)
            trajs.append(rollout(PlanReplayPolicy(plan), m, case, plan, seed=0))
            plans.append(plan)
        report = compute_metrics(trajs, plans)
        assert report.alpha == 1.0
        assert report.delta_ft == 0.0

    def test_fixture_arithmetic(self):
        case_b = Case("m", ((0, 0), (3, 3)), ((1, 0), (3, 4)))
        traj_a = one_robot_traj(arrival=18, t_max=54, success=True)
        traj_b = Trajectory(
            case=case_b,
            positions=(((0, 0), (3, 3)),) * 4,
            shielded=(),
            arrivals=(3, 3),
            robot_success=(False, False),
            success=False,
            t_max=3,
        )
        plan_a = Plan(paths=(tuple([(0, 0)] * 19),), flowtime=18, makespan=18)
        plan_b = Plan(
            paths=(((0, 0), (1, 0)), ((3, 3), (3, 4))), flowtime=2, makespan=1
        )
        report = compute_metrics([traj_a, traj_b], [plan_a, plan_b])
        assert report.alpha == 0.5
        assert report.delta_ft == pytest.approx(0.2)

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInput):
            compute_metrics([], [])

    def test_histogram_counts_sum_to_cases(self):
        m = generate_map(9, 9, 0.1, seed=11)
        trajs, plans = [], []
        for seed in range(6):
            case = generate_case(m, 3, seed=seed)
            plan = cbs_solve(m, case)
            trajs.append(rollout(RandomPolicy(), m, case, plan, seed=seed))
            plans.append(plan)
        report = compute_metrics(trajs, plans)
        assert sum(report.histogram.values()) == 6


class TestDeadlock:
    def test_success_is_not_deadlock(self):
        m = empty_map(5, 5)
        case = Case("m", ((0, 0),), ((2, 0),))
        plan = cbs_solve(m, case)
        traj = rollout(PlanReplayPolicy(plan), m, case, plan, seed=0)
        assert detect_deadlock(traj) == (False, None)

    def test_corridor_swap_jams_at_step_three(self):
        m = empty_map(8, 1)
        case = Case("m", ((0, 0), (7, 0)), ((7, 0), (0, 0)))
        fake_plan = Plan(paths=(((0, 0),), ((7, 0),)), flowtime=14, makespan=7)
        traj = rollout(
            ScriptedPolicy([[RIGHT, LEFT]]), m, case, fake_plan, seed=0
        )
        assert not traj.success
        deadlocked, stuck = detect_deadlock(traj)
        assert deadlocked
        assert stuck == 3

    def test_livelock_is_not_deadlock(self):
        m = empty_map(4, 1)
        case = Case("m", ((0, 0),), ((3, 0),))
        fake_plan = Plan(paths=(((0, 0),),), flowtime=4, makespan=4)
        script = [[RIGHT], [LEFT]] * 6
        traj = rollout(ScriptedPolicy(script), m, case, fake_plan, seed=0)
        assert not traj.success
        assert detect_deadlock(traj) == (False, None)
