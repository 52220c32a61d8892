import math

import numpy as np
import pytest

from mapfgnn.errors import NonFiniteGradient
from mapfgnn.executor import IdlePolicy, PlanReplayPolicy
from mapfgnn.expert import cbs_solve
from mapfgnn.gridworld import build_gso, generate_case, generate_map
from mapfgnn.policy import PolicyArch, PolicyNetwork
from mapfgnn.training import (
    AdamState,
    Dataset,
    TrainConfig,
    adam_step,
    aggregate_online_expert,
    cosine_lr,
    evaluate,
    expand_case,
    fit,
    split_dataset,
    train_epoch,
)

TINY = PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16, taps=2)


class FakeRecord:
    def __init__(self, case_id, case, plan):
        self.case_id = case_id
        self.case = case
        self.plan = plan


def solved_pool(num_cases=4, robots=3, seed=0, size=8):
    grid = generate_map(size, size, 0.1, seed=seed)
    maps = {"m0": grid}
    records = []
    for i in range(num_cases):
        case = generate_case(grid, robots, seed=seed * 1000 + i, map_id="m0")
        plan = cbs_solve(grid, case)
        records.append(FakeRecord(f"case{i}", case, plan))
    return maps, records


def dataset_from(records, maps, split="train"):
    ds = Dataset(split=split)
    for rec in records:
        ds.samples.extend(
            expand_case(maps[rec.case.map_id], rec.case, rec.plan, rec.case_id)
        )
    return ds


class TestCosineLr:
    def test_endpoints(self):
        cfg = TrainConfig(epochs=150)
        assert abs(cosine_lr(0, cfg) - 1e-3) < 1e-12
        assert abs(cosine_lr(150, cfg) - 1e-6) < 1e-12

    def test_midpoint(self):
        cfg = TrainConfig(epochs=100)
        assert cosine_lr(50, cfg) == pytest.approx(5.005e-4, abs=1e-12)

    def test_monotone_decreasing(self):
        cfg = TrainConfig(epochs=60)
        rates = [cosine_lr(e, cfg) for e in range(61)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_max=1e-6, lr_min=1e-3)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestAdam:
    def make_store(self):
        net = PolicyNetwork(TINY, seed=0)
        return net.store

    def test_zero_gradient_no_decay_is_identity(self):
        store = self.make_store()
        adam = AdamState(store)
        cfg = TrainConfig(l2=0.0)
        before = {k: p.copy() for k, p in store.params.items()}
        store.zero_grads()
        adam_step(store, adam, 1e-3, cfg)
        for k, p in store.params.items():
            assert np.array_equal(p, before[k])

    def test_first_step_magnitude_close_to_lr(self):
        store = self.make_store()
        adam = AdamState(store)
        cfg = TrainConfig(l2=0.0)
        store.zero_grads()
        for g in store.grads.values():
            g[...] = 0.37
        before = {k: p.copy() for k, p in store.params.items()}
        adam_step(store, adam, 1e-3, cfg)
        for k, p in store.params.items():
            delta = np.abs(p - before[k])
            assert np.allclose(delta, 1e-3, rtol=1e-4)

    def test_weight_decay_shrinks_parameters(self):
        store = self.make_store()
        adam = AdamState(store)
        cfg = TrainConfig(l2=0.1)
        w = store.params["mlp.head.weight"]
        before = np.abs(w).sum()
        store.zero_grads()
        adam_step(store, adam, 1e-4, cfg)
        assert np.abs(w).sum() < before

    def test_zero_lr_is_exact_identity(self):
        store = self.make_store()
        adam = AdamState(store)
        cfg = TrainConfig()
        store.zero_grads()
        for g in store.grads.values():
            g[...] = 1.0
        before = {k: p.copy() for k, p in store.params.items()}
        adam_step(store, adam, 0.0, cfg)
        for k, p in store.params.items():
            assert np.array_equal(p, before[k])

    def test_non_finite_gradient_aborts(self):
        store = self.make_store()
        adam = AdamState(store)
        store.zero_grads()
        store.grads["mlp.head.bias"][0] = np.nan
        with pytest.raises(NonFiniteGradient):
            adam_step(store, adam, 1e-3, TrainConfig())

    def test_state_round_trip(self):
        import json

        store = self.make_store()
        adam = AdamState(store)
        store.zero_grads()
        for g in store.grads.values():
            g[...] = 0.5
        adam_step(store, adam, 1e-3, TrainConfig())
        doc = json.loads(json.dumps(adam.to_jsonable()))
        adam2 = AdamState(store)
        adam2.load_jsonable(doc)
        assert adam2.t == adam.t
        for k in adam.m:
            assert np.array_equal(adam2.m[k], adam.m[k])
            assert np.array_equal(adam2.v[k], adam.v[k])


class TestSplit:
    def test_hundred_cases(self):
        train, valid, test = split_dataset(list(range(100)), seed=1)
        assert (len(train), len(valid), len(test)) == (70, 15, 15)

    def test_twenty_cases_floor_remainder_to_train(self):
        train, valid, test = split_dataset(list(range(20)), seed=1)
        assert (len(train), len(valid), len(test)) == (14, 3, 3)

    def test_deterministic_and_disjoint(self):
        a = split_dataset(list(range(40)), seed=5)
        b = split_dataset(list(range(40)), seed=5)
        assert a == b
        all_items = [x for part in a for x in part]
        assert sorted(all_items) == list(range(40))

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_dataset([1, 2, 3], ratios=(0.5, 0.2, 0.2))


class TestExpandCase:
    def test_sample_count_equals_makespan(self):
        maps, records = solved_pool(num_cases=1, robots=3, seed=2)
        rec = records[0]
        samples = expand_case(maps["m0"], rec.case, rec.plan, "c")
        assert len(samples) == rec.plan.makespan
        assert all(s.labels.size == 3 for s in samples)

    def test_straight_line_repeats_one_move(self):
        from mapfgnn.gridworld import Case, GridMap

        grid = GridMap(6, 1, frozenset())
        case = Case("m", ((0, 0),), ((3, 0),))
        plan = cbs_solve(grid, case)
        samples = expand_case(grid, case, plan, "c")
        assert [int(s.labels[0]) for s in samples] == [4, 4, 4]

    def test_observations_track_plan_positions(self):
        maps, records = solved_pool(num_cases=1, robots=2, seed=3)
        rec = records[0]
        samples = expand_case(maps["m0"], rec.case, rec.plan, "c")
        # self channel center is always on, so obs are position-consistent
        for s in samples:
            assert all(s.obs[i, 2, 4, 4] == 1 for i in range(2))
            assert s.gso.shape == (2, 2)


class TestTrainEpoch:
    def test_initial_loss_near_uniform(self):
        maps, records = solved_pool(num_cases=3, robots=3, seed=4)
        ds = dataset_from(records, maps)
        net = PolicyNetwork(TINY, seed=0)
        cfg = TrainConfig(epochs=10, seed=0)
        loss, _ = train_epoch(net, AdamState(net.store), ds, cfg, epoch=0)
        assert abs(loss - math.log(5)) < 0.25

    def test_memorizes_single_sample(self):
        maps, records = solved_pool(num_cases=1, robots=2, seed=5)
        ds = dataset_from(records, maps)
        ds.samples = ds.samples[:1]
        net = PolicyNetwork(TINY, seed=1)
        cfg = TrainConfig(epochs=10000, seed=0)
        adam = AdamState(net.store)
        acc = 0.0
        for epoch in range(60):
            _, acc = train_epoch(net, adam, ds, cfg, epoch=0)
            if acc == 1.0:
                break
        assert acc == 1.0

    def test_single_batch_loss_mostly_decreases(self):
        maps, records = solved_pool(num_cases=2, robots=2, seed=6)
        ds = dataset_from(records, maps)
        net = PolicyNetwork(TINY, seed=2)
        cfg = TrainConfig(epochs=100000, seed=0)
        adam = AdamState(net.store)
        losses = [train_epoch(net, adam, ds, cfg, epoch=0)[0] for _ in range(50)]
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert drops >= 44

    def test_two_runs_identical(self):
        maps, records = solved_pool(num_cases=3, robots=3, seed=7)

        def run():
            ds = dataset_from(records[:2], maps)
            valid = dataset_from(records[2:], maps, split="valid")
            net = PolicyNetwork(TINY, seed=3)
            cfg = TrainConfig(epochs=5, seed=9)
            return fit(net, ds, valid, cfg)

        a = run()
        b = run()
        assert a == b

    def test_empty_train_split_raises(self):
        net = PolicyNetwork(TINY, seed=0)
        with pytest.raises(ValueError):
            train_epoch(net, AdamState(net.store), Dataset("train"), TrainConfig(), 0)


class TestEvaluate:
    def test_eval_matches_shapes_and_range(self):
        maps, records = solved_pool(num_cases=2, robots=2, seed=8)
        ds = dataset_from(records, maps, split="valid")
        net = PolicyNetwork(TINY, seed=4)
        loss, acc = evaluate(net, ds, TrainConfig())
        assert loss > 0
        assert 0.0 <= acc <= 1.0

    def test_empty_split_gives_nan(self):
        net = PolicyNetwork(TINY, seed=0)
        loss, acc = evaluate(net, Dataset("valid"), TrainConfig())
        assert math.isnan(loss) and math.isnan(acc)


class TestOnlineExpert:
    def test_replay_policy_changes_nothing(self):
        maps, records = solved_pool(num_cases=3, robots=3, seed=9)
        ds = dataset_from(records, maps)
        before = len(ds)
        net = PolicyNetwork(TINY, seed=5)
        cfg = TrainConfig(oe_cases=3, seed=0)
        rolled, failed, repaired, added = aggregate_online_expert(
            net, ds, records, maps, cfg, epoch=0,
            policy_factory=lambda rec: PlanReplayPolicy(rec.plan),
        )
        assert (rolled, failed, repaired, added) == (3, 0, 0, 0)
        assert len(ds) == before

    def test_idle_policy_fails_everywhere_and_repairs(self):
        maps, records = solved_pool(num_cases=3, robots=3, seed=10)
        ds = dataset_from(records, maps)
        before = len(ds)
        net = PolicyNetwork(TINY, seed=6)
        cfg = TrainConfig(oe_cases=3, comm_radius=2.0, seed=0)
        rolled, failed, repaired, added = aggregate_online_expert(
            net, ds, records, maps, cfg, epoch=0,
            policy_factory=lambda rec: IdlePolicy(),
        )
        assert rolled == 3 and failed == 3 and repaired == 3
        # idle never moves, so each repair replans the original case
        assert added == sum(r.plan.makespan for r in records)
        assert len(ds) == before + added
        # repair samples use the configured radius, not the 5.0 default
        repairs = ds.samples[before:]
        for s in repairs:
            assert np.array_equal(s.gso, build_gso(s.positions, 2.0).matrix)
        assert any(
            not np.array_equal(s.gso, build_gso(s.positions, 5.0).matrix) for s in repairs
        )

    def test_aggregation_never_removes_samples(self):
        maps, records = solved_pool(num_cases=2, robots=2, seed=11)
        ds = dataset_from(records, maps)
        before = len(ds)
        net = PolicyNetwork(TINY, seed=7)
        cfg = TrainConfig(oe_cases=2, seed=0)
        aggregate_online_expert(net, ds, records, maps, cfg, epoch=0)
        assert len(ds) >= before


class TestFit:
    def test_oe_schedule_every_c_epochs(self):
        maps, records = solved_pool(num_cases=2, robots=2, seed=12)
        ds = dataset_from(records, maps)
        net = PolicyNetwork(TINY, seed=8)
        cfg = TrainConfig(epochs=8, oe_interval=4, oe_cases=2, seed=0)
        history = fit(net, ds, Dataset("valid"), cfg, train_records=records, maps=maps)
        with_oe = [row["epoch"] for row in history if "oe_rolled" in row]
        assert with_oe == [3, 7]

    def test_history_columns(self):
        maps, records = solved_pool(num_cases=1, robots=2, seed=13)
        ds = dataset_from(records, maps)
        net = PolicyNetwork(TINY, seed=9)
        history = fit(net, ds, Dataset("valid"), TrainConfig(epochs=2, seed=0))
        assert len(history) == 2
        for key in ("epoch", "lr", "train_loss", "train_acc", "train_size"):
            assert key in history[0]
