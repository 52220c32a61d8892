"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion NN ...: PASS/FAIL`` line (visible with
``pytest -s``; pytest's own verdict mirrors it) and then asserts the stated
tolerance. Criterion 8 is directional: it reports both success rates and
flags a flipped run without failing the suite.
"""

import time

import numpy as np
import pytest

from mapfgnn import cli
from mapfgnn.errors import InfeasibleCase, PlanInfeasible, TooLarge
from mapfgnn.executor import (
    IdlePolicy,
    NetworkPolicy,
    PlanReplayPolicy,
    Trajectory,
    compute_metrics,
    rollout,
    shield_with_stats,
)
from mapfgnn.expert import Plan, cbs_solve, joint_bfs_oracle
from mapfgnn.gridworld import (
    Case,
    build_gso,
    generate_case,
    generate_map,
    step_positions,
)
from mapfgnn.nn_core import (
    BatchNorm2d,
    Conv2d,
    GraphFilter,
    Linear,
    MaxPool2d,
    ReLU,
    cross_entropy,
    gradient_check,
    one_hot,
)
from mapfgnn.policy import PolicyArch, PolicyNetwork, policy_forward
from mapfgnn.training import (
    AdamState,
    Dataset,
    TrainConfig,
    aggregate_online_expert,
    cosine_lr,
    expand_case,
    train_epoch,
)

TINY = PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16, taps=3)


def half_arch(taps):
    return PolicyArch(channels=(16, 16, 32, 32, 64, 64), features=64, taps=taps)


def report_line(num, name, ok, detail, soft=False):
    verdict = "PASS" if ok else ("FLAGGED" if soft else "FAIL")
    print(f"criterion {num:02d} ({name}): {verdict} - {detail}")


def solved_cases(num, robots, width, height, density, seed, cases_per_map=50):
    """(grid, case, plan) triples from the seeded generation pipeline."""
    rng = np.random.default_rng([seed, 555557])
    out = []
    mi = 0
    while len(out) < num:
        grid = generate_map(width, height, density, seed=int(rng.integers(2**63)))
        for _ in range(cases_per_map):
            if len(out) >= num:
                break
            try:
                case = generate_case(
                    grid, robots, seed=int(rng.integers(2**63)), map_id=f"m{mi}"
                )
                plan = cbs_solve(grid, case, timeout_s=60.0)
            except Exception:
                continue
            out.append((grid, case, plan))
        mi += 1
    return out


def dataset_of(triples, split="train"):
    ds = Dataset(split=split)
    for k, (grid, case, plan) in enumerate(triples):
        ds.samples.extend(expand_case(grid, case, plan, f"c{k}"))
    return ds


class FakeRecord:
    def __init__(self, case_id, case, plan):
        self.case_id = case_id
        self.case = case
        self.plan = plan


def test_criterion_01_expert_optimality():
    """cbs_solve flowtime equals the joint-space oracle: 200 seeded
    instances, at most 3 robots on at most 4x4 grids, density <= 0.2,
    zero mismatches, total runtime under 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng([1, 777])
    checked = 0
    mismatches = 0
    while checked < 200:
        width = int(rng.integers(2, 5))
        height = int(rng.integers(2, 5))
        robots = int(rng.integers(1, 4))
        density = float(rng.uniform(0.0, 0.2))
        grid = generate_map(width, height, density, seed=int(rng.integers(2**63)))
        try:
            case = generate_case(
                grid, robots, seed=int(rng.integers(2**63)), map_id="a1"
            )
        except InfeasibleCase:
            continue
        try:
            reference = joint_bfs_oracle(grid, case)
        except (TooLarge, PlanInfeasible):
            continue
        plan = cbs_solve(grid, case, timeout_s=60.0)
        checked += 1
        if plan.flowtime != reference.flowtime:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report_line(
        1,
        "expert optimality",
        ok,
        f"{checked} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_02_shielding_safety():
    """1,000 seeded random-action episodes with 10 robots on 20x20 maps at
    density 0.1: no vertex or edge collision ever occurs and the shield
    fixed point is reached within N iterations."""
    episodes = 0
    worst_iters = 0
    rng_master = np.random.default_rng([2, 777])
    for mi in range(10):
        grid = generate_map(20, 20, 0.1, seed=int(rng_master.integers(2**63)))
        for ci in range(10):
            case = generate_case(
                grid, 10, seed=int(rng_master.integers(2**63)), map_id=f"m{mi}"
            )
            for si in range(10):
                rng = np.random.default_rng([2, mi, ci, si])
                positions = list(case.starts)
                for _ in range(60):
                    proposed = [int(a) for a in rng.integers(0, 5, size=10)]
                    actions, iters = shield_with_stats(grid, positions, proposed)
                    assert iters <= 10, "shield exceeded N iterations"
                    worst_iters = max(worst_iters, iters)
                    new_positions = step_positions(grid, positions, actions)
                    assert len(set(new_positions)) == 10, "vertex collision"
                    index_of = {cell: i for i, cell in enumerate(new_positions)}
                    for i, old in enumerate(positions):
                        j = index_of.get(old)
                        if j is not None and j != i:
                            assert new_positions[i] != positions[j], "edge collision"
                    positions = new_positions
                episodes += 1
    ok = episodes == 1000
    report_line(
        2,
        "shielding safety",
        ok,
        f"{episodes} episodes x 60 steps, 0 collisions, "
        f"max fixed-point iterations {worst_iters} <= 10",
    )
    assert episodes == 1000


class TestCriterion03GradientFidelity:
    """Every layer op and the end-to-end policy+loss pass a central
    finite-difference check (h = 1e-5, float64) with relative error
    below 1e-4, 100 random trials per op."""

    TOL = 1e-4
    TRIALS = 100

    def run_trials(self, name, build):
        worst = 0.0
        for trial in range(self.TRIALS):
            rng = np.random.default_rng([3, hash(name) % (2**31), trial])
            func, arrays = build(rng)
            err = gradient_check(func, arrays, max_coords=4, rng=rng)
            worst = max(worst, err)
        ok = worst < self.TOL
        report_line(
            3,
            f"gradient fidelity / {name}",
            ok,
            f"{self.TRIALS} trials, worst rel err {worst:.2e} < {self.TOL}",
        )
        assert worst < self.TOL

    @staticmethod
    def away_from_zero(rng, shape):
        sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        return sign * rng.uniform(0.2, 1.0, size=shape)

    @staticmethod
    def distinct_values(rng, shape):
        n = int(np.prod(shape))
        return (rng.permutation(n).astype(np.float64) * 0.37).reshape(shape)

    def test_conv(self):
        def build(rng):
            layer = Conv2d(2, 3, rng)
            x = rng.normal(size=(2, 2, 5, 5))
            target = rng.normal(size=(2, 3, 5, 5))

            def func():
                y = layer.forward(x)
                loss = 0.5 * np.sum((y - target) ** 2)
                gx = layer.backward(y - target)
                return loss, [gx.copy(), layer.gweight.copy(), layer.gbias.copy()]

            return func, [x, layer.weight, layer.bias]

        self.run_trials("conv2d", build)

    def test_batchnorm_train(self):
        def build(rng):
            layer = BatchNorm2d(3)
            layer.gamma[:] = rng.uniform(0.5, 1.5, size=3)
            layer.beta[:] = rng.normal(size=3)
            x = rng.normal(size=(3, 3, 4, 4))
            target = rng.normal(size=(3, 3, 4, 4))

            def func():
                saved = (layer.running_mean.copy(), layer.running_var.copy())
                y = layer.forward(x, train=True)
                layer.running_mean[:], layer.running_var[:] = saved
                loss = 0.5 * np.sum((y - target) ** 2)
                gx = layer.backward(y - target)
                return loss, [gx.copy(), layer.ggamma.copy(), layer.gbeta.copy()]

            return func, [x, layer.gamma, layer.beta]

        self.run_trials("batchnorm train", build)

    def test_batchnorm_eval(self):
        def build(rng):
            layer = BatchNorm2d(3)
            layer.gamma[:] = rng.uniform(0.5, 1.5, size=3)
            layer.beta[:] = rng.normal(size=3)
            layer.running_mean[:] = rng.normal(size=3)
            layer.running_var[:] = rng.uniform(0.5, 2.0, size=3)
            x = rng.normal(size=(2, 3, 4, 4))
            target = rng.normal(size=(2, 3, 4, 4))

            def func():
                y = layer.forward(x, train=False)
                loss = 0.5 * np.sum((y - target) ** 2)
                gx = layer.backward(y - target)
                return loss, [gx.copy()]

            return func, [x]

        self.run_trials("batchnorm eval", build)

    def test_relu(self):
        def build(rng):
            layer = ReLU()
            x = self.away_from_zero(rng, (3, 2, 4, 4))
            target = rng.normal(size=x.shape)

            def func():
                y = layer.forward(x)
                loss = 0.5 * np.sum((y - target) ** 2)
                gx = layer.backward(y - target)
                return loss, [gx.copy()]

            return func, [x]

        self.run_trials("relu", build)

    def test_maxpool(self):
        def build(rng):
            layer = MaxPool2d()
            x = self.distinct_values(rng, (2, 3, 6, 6))
            target = rng.normal(size=(2, 3, 3, 3))

            def func():
                y = layer.forward(x)
                loss = 0.5 * np.sum((y - target) ** 2)
                gx = layer.backward(y - target)
                return loss, [gx.copy()]

            return func, [x]

        self.run_trials("maxpool", build)

    def test_linear(self):
        def build(rng):
            layer = Linear(6, 4, rng)
            x = rng.normal(size=(3, 6))
            target = rng.normal(size=(3, 4))

            def func():
                y = layer.forward(x)
                loss = 0.5 * np.sum((y - target) ** 2)
                gx = layer.backward(y - target)
                return loss, [gx.copy(), layer.gweight.copy(), layer.gbias.copy()]

            return func, [x, layer.weight, layer.bias]

        self.run_trials("linear", build)

    def test_graph_filter(self):
        def build(rng):
            n = int(rng.integers(2, 6))
            layer = GraphFilter(5, 4, taps=3, rng=rng)
            x = rng.normal(size=(n, 5))
            s = rng.normal(size=(n, n))
            s = (s + s.T) / 2
            np.fill_diagonal(s, 0.0)
            target = rng.normal(size=(n, 4))

            def func():
                y = layer.forward(x, s)
                loss = 0.5 * np.sum((y - target) ** 2)
                gx = layer.backward(y - target)
                return loss, [gx.copy(), layer.gtaps.copy()]

            return func, [x, layer.taps]

        self.run_trials("graph filter", build)

    def test_cross_entropy(self):
        def build(rng):
            logits = rng.normal(size=(4, 5))
            labels = one_hot(rng.integers(0, 5, size=4), 5)

            def func():
                loss, grad = cross_entropy(logits, labels)
                return loss, [grad.copy()]

            return func, [logits]

        self.run_trials("softmax cross-entropy", build)

    def test_end_to_end_policy_loss(self):
        def build(rng):
            net = PolicyNetwork(TINY, seed=int(rng.integers(2**31)))
            n = 3
            obs = (rng.random((n, 3, 9, 9)) < 0.3).astype(np.float64)
            gso = build_gso([(0, 0), (3, 0), (6, 0)], 5.0).matrix
            labels = one_hot(rng.integers(0, 5, size=n), 5)
            params = list(net.store.params.values())

            def func():
                saved = {k: v.copy() for k, v in net.store.state.items()}
                logits = net.forward(obs, gso, train=True)
                for k, v in saved.items():
                    net.store.state[k][:] = v
                loss, grad = cross_entropy(logits, labels)
                net.store.zero_grads()
                net.encode_backward(net.head_backward(grad))
                return loss, [g.copy() for g in net.store.grads.values()]

            return func, params

        worst = 0.0
        for trial in range(self.TRIALS):
            rng = np.random.default_rng([3, 999331, trial])
            func, arrays = build(rng)
            err = gradient_check(func, arrays, max_coords=1, rng=rng)
            worst = max(worst, err)
        ok = worst < self.TOL
        report_line(
            3,
            "gradient fidelity / end-to-end policy+loss",
            ok,
            f"{self.TRIALS} trials, worst rel err {worst:.2e} < {self.TOL}",
        )
        assert worst < self.TOL


def random_team(rng, n):
    obs = (rng.random((n, 3, 9, 9)) < 0.3).astype(np.float64)
    cells = rng.choice(400, size=n, replace=False)
    positions = [(int(c % 20), int(c // 20)) for c in cells]
    gso = build_gso(positions, 8.0).matrix
    return obs, gso


def test_criterion_04_equivariance_and_locality():
    """Permutation equivariance within 1e-9 over 100 random teams; outputs
    are exactly local (no change beyond K-1 hops) and exactly independent
    of the graph when K=1."""
    net = PolicyNetwork(TINY, seed=4)
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([4, trial])
        n = int(rng.integers(2, 9))
        obs, gso = random_team(rng, n)
        perm = rng.permutation(n)
        base = policy_forward(net, obs, gso)
        permuted = policy_forward(net, obs[perm], gso[np.ix_(perm, perm)])
        worst = max(worst, float(np.max(np.abs(base[perm] - permuted))))
    equivariant = worst < 1e-9

    # path graph 0-1-2-3-4 with unit spacing 5 apart: robot 4 sits
    # taps hops from robot 0, one hop beyond the K-1 communication radius
    positions = [(i * 5, 0) for i in range(5)]
    gso = build_gso(positions, 5.0).matrix
    rng = np.random.default_rng([4, 4242])
    obs = (rng.random((5, 3, 9, 9)) < 0.3).astype(np.float64)
    far = obs.copy()
    far[4] = (rng.random((3, 9, 9)) < 0.3).astype(np.float64)
    near = obs.copy()
    near[2] = (rng.random((3, 9, 9)) < 0.3).astype(np.float64)
    base = policy_forward(net, obs, gso)
    local_exact = np.array_equal(
        policy_forward(net, far, gso)[0], base[0]
    ) and not np.array_equal(policy_forward(net, near, gso)[0], base[0])

    # batch shapes stay fixed in these comparisons: BLAS kernels round
    # differently per shape, which would mask the mathematical property
    solo = PolicyNetwork(
        PolicyArch(channels=TINY.channels, features=TINY.features, taps=1), seed=4
    )
    with_graph = policy_forward(solo, obs, gso)
    without_graph = policy_forward(solo, obs, np.zeros_like(gso))
    independent = np.array_equal(with_graph, without_graph)
    for i in range(5):
        other = (rng.random(obs.shape) < 0.3).astype(np.float64)
        other[i] = obs[i]
        scrambled = policy_forward(solo, other, build_gso(positions, 25.0).matrix)
        independent = independent and np.array_equal(scrambled[i], with_graph[i])

    ok = equivariant and local_exact and independent
    report_line(
        4,
        "equivariance and locality",
        ok,
        f"permutation max abs diff {worst:.2e} < 1e-9 over 100 teams; "
        f"beyond-(K-1)-hop invariance exact: {local_exact}; "
        f"K=1 graph independence exact: {independent}",
    )
    assert equivariant
    assert local_exact
    assert independent


def test_criterion_05_metrics_correctness():
    """Expert replay scores alpha = 1.0 and delta_FT = 0.0 exactly; a
    hand-built two-case fixture scores alpha = 0.5 and delta_FT = 0.2."""
    triples = solved_cases(6, robots=3, width=9, height=9, density=0.1, seed=5)
    trajs = [
        rollout(PlanReplayPolicy(plan), grid, case, plan, seed=0)
        for grid, case, plan in triples
    ]
    replay = compute_metrics(trajs, [plan for _, _, plan in triples])
    replay_exact = replay.alpha == 1.0 and replay.delta_ft == 0.0

    case_a = Case("m", ((0, 0),), ((1, 0),))
    traj_a = Trajectory(
        case=case_a,
        positions=((0, 0),) * 2,
        shielded=(),
        arrivals=(18,),
        robot_success=(True,),
        success=True,
        t_max=54,
    )
    plan_a = Plan(paths=(tuple([(0, 0)] * 19),), flowtime=18, makespan=18)
    case_b = Case("m", ((0, 0), (3, 3)), ((1, 0), (3, 4)))
    traj_b = Trajectory(
        case=case_b,
        positions=(((0, 0), (3, 3)),) * 4,
        shielded=(),
        arrivals=(3, 3),
        robot_success=(False, False),
        success=False,
        t_max=3,
    )
    plan_b = Plan(paths=(((0, 0), (1, 0)), ((3, 3), (3, 4))), flowtime=2, makespan=1)
    fixture = compute_metrics([traj_a, traj_b], [plan_a, plan_b])
    fixture_exact = fixture.alpha == 0.5 and abs(fixture.delta_ft - 0.2) < 1e-15

    ok = replay_exact and fixture_exact
    report_line(
        5,
        "metrics correctness",
        ok,
        f"replay alpha={replay.alpha} delta_ft={replay.delta_ft}; "
        f"fixture alpha={fixture.alpha} delta_ft={fixture.delta_ft}",
    )
    assert replay.alpha == 1.0 and replay.delta_ft == 0.0
    assert fixture.alpha == 0.5
    assert fixture.delta_ft == pytest.approx(0.2, abs=1e-15)


def test_criterion_06_schedule_endpoints():
    """cosine_lr equals 1e-3 at epoch 0 and 1e-6 at the final epoch, both
    within 1e-12."""
    cfg = TrainConfig()
    err0 = abs(cosine_lr(0, cfg) - 1e-3)
    err1 = abs(cosine_lr(cfg.epochs, cfg) - 1e-6)
    ok = err0 < 1e-12 and err1 < 1e-12
    report_line(
        6,
        "schedule endpoints",
        ok,
        f"|lr(0) - 1e-3| = {err0:.1e}, |lr({cfg.epochs}) - 1e-6| = {err1:.1e}, "
        "both < 1e-12",
    )
    assert err0 < 1e-12
    assert err1 < 1e-12


def test_criterion_07_desk_scale_overfit():
    """50 cases with 4 robots on 10x10 maps, K=3: training action accuracy
    reaches 99% within 300 epochs and under 30 minutes."""
    t0 = time.perf_counter()
    triples = solved_cases(
        50, robots=4, width=10, height=10, density=0.1, seed=7, cases_per_map=5
    )
    ds = dataset_of(triples)
    net = PolicyNetwork(PolicyArch(), seed=7)
    cfg = TrainConfig(epochs=300, seed=7)
    adam = AdamState(net.store)
    acc = 0.0
    epochs_used = 0
    for epoch in range(300):
        _, acc = train_epoch(net, adam, ds, cfg, epoch)
        epochs_used = epoch + 1
        if acc >= 0.99:
            break
    elapsed = time.perf_counter() - t0
    ok = acc >= 0.99 and epochs_used <= 300 and elapsed < 1800.0
    report_line(
        7,
        "desk-scale overfit",
        ok,
        f"{len(ds)} samples, accuracy {acc:.4f} >= 0.99 after {epochs_used} "
        f"epochs (<= 300), {elapsed:.0f}s < 1800s",
    )
    assert acc >= 0.99
    assert epochs_used <= 300
    assert elapsed < 1800.0


def test_criterion_08_communication_benefit():
    """Directional check (soft): identical budgets of 2,000 training cases
    with 4 robots on 10x10 maps; success rate alpha(K=3) should be at least
    alpha(K=1) over >= 200 held-out cases. Both numbers are reported and a
    flipped run is flagged without failing the suite."""
    triples = solved_cases(
        2200, robots=4, width=10, height=10, density=0.1, seed=8
    )
    order = np.random.default_rng([8, 909090]).permutation(len(triples))
    train_triples = [triples[i] for i in order[:2000]]
    held_out = [triples[i] for i in order[2000:]]
    train_ds = dataset_of(train_triples)
    alphas = {}
    for taps in (3, 1):
        net = PolicyNetwork(half_arch(taps), seed=8)
        cfg = TrainConfig(epochs=10, seed=8)
        adam = AdamState(net.store)
        for epoch in range(cfg.epochs):
            train_epoch(net, adam, train_ds, cfg, epoch)
        policy = NetworkPolicy(net, mode="greedy")
        trajs = [
            rollout(policy, grid, case, plan, seed=i)
            for i, (grid, case, plan) in enumerate(held_out)
        ]
        rep = compute_metrics(trajs, [plan for _, _, plan in held_out])
        alphas[taps] = rep.alpha
    holds = alphas[3] >= alphas[1]
    detail = (
        f"alpha(K=3)={alphas[3]:.4f}, alpha(K=1)={alphas[1]:.4f} over "
        f"{len(held_out)} held-out cases"
    )
    if not holds:
        detail += "; directional trend did not hold in this run"
    report_line(8, "communication benefit (soft)", holds, detail, soft=True)
    assert len(held_out) >= 200
    assert 0.0 <= alphas[3] <= 1.0 and 0.0 <= alphas[1] <= 1.0


def test_criterion_09_online_expert_mechanics(tmp_path):
    """With an always-idle stub policy, aggregation after epoch C extends
    the train split by exactly the expert-repair timesteps of the failed
    selections; validation and test files are byte-identical throughout."""
    from mapfgnn.datastore import save_dataset

    triples = solved_cases(9, robots=3, width=8, height=8, density=0.1, seed=9)
    records = [
        FakeRecord(f"c{k}", case, plan) for k, (_, case, plan) in enumerate(triples)
    ]
    maps = {case.map_id: grid for grid, case, _ in triples}
    train_recs, valid_recs, test_recs = records[:5], records[5:7], records[7:]

    def build(split, recs):
        ds = Dataset(split=split)
        for rec in recs:
            ds.samples.extend(
                expand_case(maps[rec.case.map_id], rec.case, rec.plan, rec.case_id)
            )
        return ds

    train_ds = build("train", train_recs)
    valid_ds = build("valid", valid_recs)
    test_ds = build("test", test_recs)
    before = len(train_ds)

    def snapshot(tag):
        paths = {}
        for ds in (valid_ds, test_ds):
            p = tmp_path / f"{tag}.{ds.split}.jsonl"
            save_dataset(str(p), ds)
            paths[ds.split] = p.read_bytes()
        return paths

    pre = snapshot("pre")
    cfg = TrainConfig(epochs=8, oe_interval=4, oe_cases=len(train_recs), seed=9)
    rolled, failed, repaired, added = aggregate_online_expert(
        PolicyNetwork(TINY, seed=9),
        train_ds,
        train_recs,
        maps,
        cfg,
        epoch=cfg.oe_interval - 1,
        policy_factory=lambda rec: IdlePolicy(),
    )
    post = snapshot("post")

    expected = sum(rec.plan.makespan for rec in train_recs)
    exact_growth = (
        rolled == len(train_recs)
        and failed == len(train_recs)
        and repaired == len(train_recs)
        and added == expected
        and len(train_ds) == before + expected
    )
    untouched = pre == post
    ok = exact_growth and untouched
    report_line(
        9,
        "online-expert mechanics",
        ok,
        f"{failed}/{rolled} selections failed, train grew by {added} "
        f"(expected {expected}); valid/test files byte-identical: {untouched}",
    )
    assert exact_growth
    assert untouched


def test_criterion_10_determinism(tmp_path):
    """Two end-to-end runs with --workers 1 and the same seeds produce
    byte-identical dataset files, training logs, and weights."""
    config = tmp_path / "config.json"
    config.write_text('{"channels": [4, 4, 8, 8, 16, 16], "features": 16}')
    for tag in ("one", "two"):
        data_dir = tmp_path / tag / "data"
        run_dir = tmp_path / tag / "run"
        rc = cli.main(
            [
                "build-dataset",
                "--out-dir", str(data_dir),
                "--num-maps", "3",
                "--cases-per-map", "4",
                "--robots", "2",
                "--width", "6",
                "--height", "6",
                "--seed", "17",
                "--workers", "1",
                "--split-train", "0.5",
                "--split-valid", "0.25",
                "--split-test", "0.25",
            ]
        )
        assert rc == 0
        rc = cli.main(
            [
                "train",
                "--data-dir", str(data_dir),
                "--out-dir", str(run_dir),
                "--config", str(config),
                "--epochs", "4",
                "--k", "2",
                "--oe-interval", "2",
                "--oe-cases", "3",
                "--seed", "17",
                "--timeout-s", "30",
            ]
        )
        assert rc == 0
    names = [
        ("data", "maps.jsonl"),
        ("data", "cases.jsonl"),
        ("data", "dataset.train.jsonl"),
        ("data", "dataset.valid.jsonl"),
        ("data", "dataset.test.jsonl"),
        ("run", "log.csv"),
        ("run", "model.json"),
    ]
    diffs = [
        f"{sub}/{name}"
        for sub, name in names
        if (tmp_path / "one" / sub / name).read_bytes()
        != (tmp_path / "two" / sub / name).read_bytes()
    ]
    ok = not diffs
    report_line(
        10,
        "determinism",
        ok,
        "all dataset files, the training log, and the weights are "
        "byte-identical across runs"
        if ok
        else f"files differ: {diffs}",
    )
    assert not diffs
