"""Each checker accepts the program's real output and rejects a broken copy."""

import pytest

from mapfgnn import executor, expert
from mapfgnn.gridworld import Case, GridMap, build_gso
from mapfgnn.training import expand_case
from perfbench import checks

GRID = GridMap(5, 4, frozenset({(2, 1), (2, 2)}))
CASE = Case("m", starts=((0, 0), (4, 3), (0, 3)), goals=((4, 0), (0, 3), (1, 1)))


@pytest.fixture(scope="module")
def plan():
    return expert.cbs_solve(GRID, CASE, timeout_s=30.0)


def check_plan(paths, flowtime=None, case=CASE):
    if flowtime is None:
        flowtime = sum(len(p) - 1 for p in paths)
    checks.check_plan(GRID, case.starts, case.goals, paths, flowtime)


def test_plan_accepts_cbs_output(plan):
    check_plan(plan.paths, plan.flowtime)


@pytest.mark.parametrize(
    "paths, case, message",
    [
        ([[(0, 0), (1, 0), (2, 0)], [(2, 1)]], Case("m", ((0, 0), (2, 1)), ((2, 0), (2, 1))),
         "blocked"),
        ([[(0, 0), (2, 0)], [(4, 3)]], Case("m", ((0, 0), (4, 3)), ((2, 0), (4, 3))), "jumps"),
        ([[(0, 0), (1, 0)], [(1, 0), (0, 0)]], Case("m", ((0, 0), (1, 0)), ((1, 0), (0, 0))),
         "swap"),
        ([[(0, 0), (1, 0)], [(2, 0), (1, 0)]], Case("m", ((0, 0), (2, 0)), ((1, 0), (1, 0))),
         "share"),
        # robot 1 rests on its goal at (1, 0) after arriving; robot 0 runs into it
        ([[(0, 0), (0, 1), (1, 1), (1, 0)], [(1, 0)]],
         Case("m", ((0, 0), (1, 0)), ((1, 0), (1, 0))), "share"),
        ([[(0, 0), (1, 0)], [(4, 3)]], Case("m", ((0, 0), (4, 3)), ((0, 1), (4, 3))), "goal"),
    ],
)
def test_plan_rejects_broken_paths(paths, case, message):
    with pytest.raises(checks.CheckFailed, match=message):
        check_plan(paths, case=case)


def test_plan_rejects_wrong_flowtime(plan):
    with pytest.raises(checks.CheckFailed, match="flowtime"):
        check_plan(plan.paths, plan.flowtime - 1)


def test_bfs_distance_goes_around_obstacles():
    assert checks.bfs_distance(GRID, (1, 1), (3, 1)) == 4
    wall = GridMap(3, 3, frozenset({(1, 0), (1, 1), (1, 2)}))
    with pytest.raises(checks.CheckFailed, match="unreachable"):
        checks.bfs_distance(wall, (0, 0), (2, 0))


def test_plan_below_distance_bound_is_rejected(plan, monkeypatch):
    # valid paths can never beat the bound, so lengthen the reference distances
    real = checks.bfs_distance
    monkeypatch.setattr(checks, "bfs_distance", lambda *args: real(*args) + 1)
    with pytest.raises(checks.CheckFailed, match="bound"):
        check_plan(plan.paths, plan.flowtime)


@pytest.fixture(scope="module")
def samples(plan):
    return expand_case(GRID, CASE, plan, case_id="c", fov_radius=2, comm_radius=2.0)


def test_observations_and_gso_accept_program_output(samples):
    for s in samples:
        checks.check_observations(GRID, s.positions, s.goals, s.obs, 2)
        checks.check_gso(s.positions, s.gso, 2.0)


@pytest.mark.parametrize("channel", [0, 1, 2])
def test_observation_with_one_flipped_cell_is_rejected(samples, channel):
    s = samples[0]
    obs = s.obs.copy()
    obs[1, channel, 0, 4] ^= 1
    with pytest.raises(checks.CheckFailed, match="robot 1"):
        checks.check_observations(GRID, s.positions, s.goals, obs, 2)


def test_gso_rejects_missing_edge_bad_scale_and_asymmetry():
    positions = ((0, 0), (1, 0), (3, 0))
    good = build_gso(positions, 2.0).matrix
    checks.check_gso(positions, good, 2.0)
    no_edge = good.copy()
    no_edge[0, 1] = no_edge[1, 0] = 0.0
    with pytest.raises(checks.CheckFailed, match="edges"):
        checks.check_gso(positions, no_edge, 2.0)
    with pytest.raises(checks.CheckFailed, match="spectral radius"):
        checks.check_gso(positions, good * 2, 2.0)
    lopsided = good.copy()
    lopsided[0, 1] *= 0.5
    with pytest.raises(checks.CheckFailed, match="symmetric"):
        checks.check_gso(positions, lopsided, 2.0)


def test_label_replay(plan):
    labels = expert.plan_to_labels(plan).tolist()
    checks.check_label_replay(CASE.starts, labels, plan.paths)
    moving = next(i for i, a in enumerate(labels[0]) if a != 0)
    labels[0][moving] = 0
    with pytest.raises(checks.CheckFailed, match="t=1"):
        checks.check_label_replay(CASE.starts, labels, plan.paths)
    with pytest.raises(checks.CheckFailed, match="end"):
        checks.check_label_replay(CASE.starts, expert.plan_to_labels(plan).tolist()[:-1],
                                  plan.paths)


@pytest.mark.parametrize(
    "before, after, message",
    [
        (((0, 0), (2, 0)), ((1, 0), (1, 0)), "share"),
        (((0, 0), (1, 0)), ((1, 0), (0, 0)), "swap"),
        (((1, 1), (4, 3)), ((2, 1), (4, 3)), "blocked"),
        (((0, 0), (4, 3)), ((1, 1), (4, 3)), "jumps"),
        (((0, 0), (4, 3)), ((-1, 0), (4, 3)), "blocked"),
    ],
)
def test_transition_rejects_collisions(before, after, message):
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_transition(GRID, before, after, "t")


def test_eval_metrics_recomputed(plan):
    trajs = [
        executor.rollout(executor.PlanReplayPolicy(plan), GRID, CASE, plan),
        executor.rollout(executor.IdlePolicy(), GRID, CASE, plan),
    ]
    report = executor.compute_metrics(trajs, [plan, plan])
    checks.check_eval_metrics(trajs, [plan.flowtime] * 2, report)
    assert report.alpha == 0.5
    wrong = executor.MetricsReport(
        report.num_cases, report.num_success, 1.0, report.flowtime, report.expert_flowtime,
        report.delta_ft, report.histogram,
    )
    with pytest.raises(checks.CheckFailed, match="alpha"):
        checks.check_eval_metrics(trajs, [plan.flowtime] * 2, wrong)
    with pytest.raises(checks.CheckFailed, match="delta_ft"):
        checks.check_eval_metrics(trajs, [plan.flowtime + 1] * 2, report)


def test_arrivals_count_from_the_last_arrival():
    positions = [((0, 0),), ((1, 0),), ((0, 0),), ((1, 0),), ((1, 0),)]
    assert checks.arrivals(positions, ((1, 0),), 9) == [3]
    assert checks.arrivals(positions, ((0, 0),), 9) == [9]
