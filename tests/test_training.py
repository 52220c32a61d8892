import base64
import copy
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from mapfgnn import datastore
from mapfgnn.errors import ConfigError, NonFiniteGradient, SolverTimeout
from mapfgnn.executor import IdlePolicy, PlanReplayPolicy
from mapfgnn.expert import cbs_solve
from mapfgnn.gridworld import build_gso, generate_case, generate_map
from mapfgnn.jsonio import encode_float64s
from mapfgnn.nn_core import log_softmax, one_hot
from mapfgnn.policy import PolicyArch, PolicyNetwork
from mapfgnn.training import (
    AdamState,
    Dataset,
    Sample,
    TrainConfig,
    _batch_pass,
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

    def test_in_place_moments_match_the_expression_bit_for_bit(self):
        store = self.make_store()
        adam = AdamState(store)
        cfg = TrainConfig()
        rng = np.random.default_rng(5)
        params = {k: p.copy() for k, p in store.params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t in range(1, 4):
            for g in store.grads.values():
                g[...] = rng.normal(size=g.shape)
            adam_step(store, adam, 1e-3, cfg)
            bc1, bc2 = 1 - 0.9**t, 1 - 0.999**t
            for k, p in params.items():
                g = store.grads[k] + cfg.l2 * p
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                p -= 1e-3 * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)
        for k, p in store.params.items():
            assert np.array_equal(p, params[k]), k
            assert np.array_equal(adam.m[k], m[k]), k
            assert np.array_equal(adam.v[k], v[k]), k


def _stepped_adam_doc(store):
    adam = AdamState(store)
    store.zero_grads()
    for g in store.grads.values():
        g[...] = 0.5
    adam_step(store, adam, 1e-3, TrainConfig())
    return adam.to_jsonable()


def _drop(doc, *path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def _set(value):
    def edit(doc, *path):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


# what a loader of JSON values raises, as jsonio's readers do
REFUSED = (KeyError, TypeError, ValueError)


def _set_first_value(value):
    """Put a float's bytes first in a stored buffer, or anything else in
    place of the buffer's text."""

    def edit(doc, moment, name):
        entry = doc[moment][name]
        if type(value) is not float:
            entry["float64le"] = value
            return
        raw = bytearray(base64.b64decode(entry["float64le"]))
        raw[:8] = struct.pack("<d", value)
        entry["float64le"] = base64.b64encode(raw).decode("ascii")

    return edit


class TestAdamStateLoad:
    """A broken optimizer state raises KeyError, TypeError or ValueError and
    changes nothing. Each moment maps a parameter's name to the weights'
    entry, {"shape": [...], "float64le": text}."""

    @pytest.mark.parametrize(
        "edit,path",
        [
            (_drop, ("t",)),
            (_drop, ("m",)),
            (_drop, ("v",)),
            (_drop, ("m", "mlp.head.bias")),
            (_drop, ("v", "cnn.conv0.weight")),
            (_set({"shape": [5], "float64le": encode_float64s(np.zeros(5))}), ("m", "extra.bias")),
        ],
        ids=["t", "m", "v", "m-name", "v-name", "extra-name"],
    )
    def test_missing_or_extra_key(self, edit, path):
        self.assert_rejected(edit, path)

    @pytest.mark.parametrize("count", [0, 4, 6])
    def test_wrong_value_count(self, count):
        # the head bias has one value per action, 5: 4 and 6 are 8 bytes short and long
        text = encode_float64s(np.full(count, 0.1))
        self.assert_rejected(_set(text), ("m", "mlp.head.bias", "float64le"))

    def test_wrong_shape(self):
        # the right count, but a nested list rather than the text to_jsonable writes
        store = PolicyNetwork(TINY, seed=0).store
        weight = store.params["mlp.head.weight"]
        nested = np.zeros(weight.shape).tolist()
        self.assert_rejected(_set(nested), ("v", "mlp.head.weight", "float64le"))

    @pytest.mark.parametrize(
        "shape", [[16, 5], [80], [5, 16, 1], [5.0, 16], None],
        ids=["transposed", "flat", "extra-axis", "real", "null"],
    )
    def test_stored_shape_differs(self, shape):
        # TINY's mlp.head.weight is (5, 16): the first three shapes hold its 80 values
        self.assert_rejected(_set(shape), ("m", "mlp.head.weight", "shape"))

    @pytest.mark.parametrize("entry", ["text", [1.0], None], ids=["string", "list", "null"])
    def test_entry_not_an_object(self, entry):
        self.assert_rejected(_set(entry), ("v", "cnn.conv0.bias"))

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf, "0.1"])
    def test_non_finite_or_non_numeric_value(self, bad):
        self.assert_rejected(_set_first_value(bad), ("v", "cnn.bn0.gamma"))

    @pytest.mark.parametrize("spelling", ["flat-list", "non-canonical", "whitespace"])
    def test_non_string_or_non_canonical_value(self, spelling):
        # cnn.bn0.gamma has 4 values: 32 bytes, 44 characters ending in "="
        text = encode_float64s(np.full(4, 0.1))
        value = {
            "flat-list": [0.1] * 4,
            "non-canonical": text[:-2] + chr(ord(text[-2]) ^ 1) + "=",
            "whitespace": text[:20] + " " + text[20:],
        }[spelling]
        self.assert_rejected(_set(value), ("m", "cnn.bn0.gamma", "float64le"))

    @pytest.mark.parametrize("t", [1.0, "1", True, None, -1])
    def test_step_count_not_a_non_negative_int(self, t):
        self.assert_rejected(_set(t), ("t",))

    def test_not_a_mapping(self):
        store = PolicyNetwork(TINY, seed=0).store
        with pytest.raises(REFUSED):
            AdamState(store).load_jsonable([1, 2, 3])

    def assert_rejected(self, edit, path):
        import copy

        store = PolicyNetwork(TINY, seed=0).store
        good = _stepped_adam_doc(store)
        adam = AdamState(store)
        adam.load_jsonable(good)
        doc = copy.deepcopy(good)
        edit(doc, *path)
        with pytest.raises(REFUSED):
            adam.load_jsonable(doc)
        assert adam.t == good["t"]
        assert adam.to_jsonable() == good


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


def mixed_team_batch():
    """Interleaved samples of 2- and 3-robot teams on one map."""
    maps, two = solved_pool(num_cases=2, robots=2, seed=10)
    _, three = solved_pool(num_cases=2, robots=3, seed=10)
    small = dataset_from(two, maps).samples
    large = dataset_from(three, maps).samples
    batch = [s for pair in zip(small, large) for s in pair]
    return batch + small[len(large) :] + large[len(small) :]


def count_head_calls(net):
    calls = []
    head_forward = net.head_forward

    def counted(features, gso, train=False):
        calls.append(features.shape)
        return head_forward(features, gso, train)

    net.head_forward = counted
    return calls


class TestMixedTeamSizes:
    def test_evaluate_matches_per_team_forward(self):
        batch = mixed_team_batch()
        net = PolicyNetwork(TINY, seed=5)
        loss_sum, correct, rows = 0.0, 0, 0
        for s in batch:
            logits = net.forward(s.obs, s.gso)
            loss_sum -= log_softmax(logits)[np.arange(s.num_robots), s.labels].sum()
            correct += int((logits.argmax(axis=1) == s.labels).sum())
            rows += s.num_robots
        calls = count_head_calls(net)
        loss, acc = evaluate(net, Dataset("valid", batch), TrainConfig(batch_size=len(batch)))
        assert sorted(shape[1] for shape in calls) == [2, 3]
        assert loss == pytest.approx(loss_sum / rows, rel=0, abs=1e-12)
        assert acc == correct / rows

    def test_train_gradients_match_per_team_backward(self):
        batch = mixed_team_batch()
        rows = sum(s.num_robots for s in batch)
        ref = PolicyNetwork(TINY, seed=6)
        ref.store.zero_grads()
        feats = ref.encode(np.concatenate([s.obs for s in batch]), True)
        gfeat = np.empty_like(feats)
        loss_sum, offset = 0.0, 0
        for s in batch:
            sl = slice(offset, offset + s.num_robots)
            logp = log_softmax(ref.head_forward(feats[sl], s.gso, train=True))
            onehot = one_hot(s.labels, logp.shape[1])
            loss_sum -= (onehot * logp).sum()
            gfeat[sl] = ref.head_backward((np.exp(logp) - onehot) / rows)
            offset += s.num_robots
        ref.encode_backward(gfeat)

        net = PolicyNetwork(TINY, seed=6)
        net.store.zero_grads()
        calls = count_head_calls(net)
        got_loss, _, got_rows = _batch_pass(net, batch, train=True)
        assert len(calls) == 2 and got_rows == rows
        assert got_loss == pytest.approx(loss_sum, rel=1e-12)
        for name, grad in ref.store.grads.items():
            assert np.allclose(net.store.grads[name], grad, rtol=1e-12, atol=1e-12), name


def widened(batch):
    """The samples of batch with float64 copies of their uint8 observations."""
    return [replace(s, obs=s.obs.astype(np.float64)) for s in batch]


def relative_gap(got, want):
    """Largest |got - want| over the largest |want|."""
    return float(np.abs(got - want).max() / np.abs(want).max())


def random_team_batch(rng, teams=160, n=4):
    """640 rows of random 4-robot teams: uint8 windows, spread positions."""
    return [
        Sample(
            "c", 0,
            obs=(rng.random((n, 3, 9, 9)) < 0.3).astype(np.uint8),
            gso=build_gso([tuple(p) for p in rng.integers(0, 20, size=(n, 2))], 5.0).matrix,
            labels=rng.integers(0, 5, size=n),
        )
        for _ in range(teams)
    ]


class TestMixedPrecision:
    """uint8 observations run the CNN in float32 against float64 master
    weights; a float64 copy of them runs float64 arithmetic throughout.

    The bounds are set from the largest gaps measured on paper-arch weights
    trained 30 epochs on criterion 07's split (training accuracy 1.0), over
    three random and three split batches of 640 rows: logits 7.5e-7 and
    features 7.9e-7 of their largest float64 entry, BatchNorm running
    statistics 1.9e-8 of their largest entry after one train pass (1.3e-5 on
    this test's split batch when they accumulate in float32). The parameter
    gradients, as one vector, agreed to 1.2e-5 of its norm in five batches
    and to 4.2e-3 in the sixth, where one of 327,680 ReLU inputs of the
    second conv block fell on the other side of zero in float32 and the
    gradient took the other route; forward outputs are continuous there,
    gradients are not.
    """

    LOGIT_BOUND = 1e-5
    STATE_BOUND = 1e-6
    GRAD_BOUND = 2e-2

    @pytest.fixture(scope="class")
    def trained(self):
        """A paper-arch network after three epochs on a built 4-robot split,
        and two 640-row batches: random teams and that split's samples."""
        maps, records = solved_pool(num_cases=30, robots=4, seed=25, size=10)
        ds = dataset_from(records, maps)
        net = PolicyNetwork(PolicyArch(), seed=25)
        config = TrainConfig(seed=25)
        adam = AdamState(net.store)
        for epoch in range(3):
            train_epoch(net, adam, ds, config, epoch)
        rng = np.random.default_rng(25)
        split = [ds.samples[i] for i in rng.permutation(len(ds.samples))[:160]]
        return net, {"random": random_team_batch(rng), "split": split}

    @pytest.mark.parametrize("source", ["random", "split"])
    def test_logits_agree(self, trained, source):
        net, batches = trained
        batch = batches[source]
        gso = np.stack([s.gso for s in batch])
        feats, logits = {}, {}
        for side, samples in (("uint8", batch), ("float64", widened(batch))):
            feats[side] = net.encode(np.concatenate([s.obs for s in samples]))
            logits[side] = net.head_forward(feats[side].reshape(len(batch), 4, -1), gso)
        assert feats["uint8"].dtype == np.float32 and feats["float64"].dtype == np.float64
        assert relative_gap(feats["uint8"], feats["float64"]) <= self.LOGIT_BOUND
        assert relative_gap(logits["uint8"], logits["float64"]) <= self.LOGIT_BOUND

    @pytest.mark.parametrize("source", ["random", "split"])
    def test_a_train_pass_agrees(self, trained, source):
        net, batches = trained
        batch = batches[source]
        nets = {}
        for side, samples in (("uint8", batch), ("float64", widened(batch))):
            model = copy.deepcopy(net)
            model.store.zero_grads()
            _batch_pass(model, samples, train=True)
            nets[side] = model.store
        got, want = nets["uint8"], nets["float64"]
        gap = np.sqrt(sum(((got.grads[k] - g) ** 2).sum() for k, g in want.grads.items()))
        norm = np.sqrt(sum((g**2).sum() for g in want.grads.values()))
        assert gap <= self.GRAD_BOUND * norm
        for name, value in want.state.items():
            assert relative_gap(got.state[name], value) <= self.STATE_BOUND, name

    def test_float32_values_float64_storage(self, trained):
        """Every CNN activation and input gradient of a uint8 pass is float32;
        every parameter, gradient, running statistic and Adam moment stays
        float64. Train mode at 640 rows, eval mode at 1 and 10."""
        net, batches = trained
        net = copy.deepcopy(net)
        seen = []
        for layer in net.cnn:
            for method in ("forward", "backward"):
                call = getattr(layer, method)

                def spy(x, *args, _call=call, _where=(type(layer).__name__, method)):
                    out = _call(x, *args)
                    seen.append((_where, x.dtype, None if out is None else out.dtype))
                    return out

                setattr(layer, method, spy)
        adam = AdamState(net.store)
        net.store.zero_grads()
        _batch_pass(net, batches["split"], train=True)
        adam_step(net.store, adam, 1e-3, TrainConfig())
        for rows in (1, 10):
            net.encode(np.concatenate([s.obs for s in batches["random"]])[:rows])
        assert len(seen) == len(net.cnn) * 4
        for (layer, method), dtype_in, dtype_out in seen:
            first_conv_input = layer == "Conv2d" and method == "forward" and dtype_in == np.uint8
            assert first_conv_input or dtype_in == np.float32, (layer, method)
            assert dtype_out in (np.float32, None), (layer, method)
        assert sum(dtype_in == np.uint8 for _, dtype_in, _ in seen) == 3
        arrays = [*net.store.params.values(), *net.store.grads.values(),
                  *net.store.state.values(), *adam.m.values(), *adam.v.values()]
        assert all(a.dtype == np.float64 for a in arrays)

    def test_a_float64_pass_after_a_float32_one_gives_float64_bits(self, trained):
        # the eval memo of the 2x2 convs holds the matrix a float32 pass built
        weights = trained[0].to_jsonable()
        net, fresh = (PolicyNetwork.from_jsonable(weights) for _ in range(2))
        obs = np.concatenate([s.obs for s in trained[1]["random"]])[:10]
        net.encode(obs)
        wide = obs.astype(np.float64)
        assert net.encode(wide).tobytes() == fresh.encode(wide).tobytes()
        assert net.encode(obs).tobytes() == fresh.encode(obs).tobytes()


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
        net = PolicyNetwork(replace(TINY, comm_radius=2.0), seed=6)
        cfg = TrainConfig(oe_cases=3, seed=0)
        rolled, failed, repaired, added = aggregate_online_expert(
            net, ds, records, maps, cfg, epoch=0,
            policy_factory=lambda rec: IdlePolicy(),
        )
        assert rolled == 3 and failed == 3 and repaired == 3
        # idle never moves, so each repair replans the original case
        assert added == sum(r.plan.makespan for r in records)
        assert len(ds) == before + added
        # repair samples use the weights' radius, not the 5.0 default
        repairs = ds.samples[before:]
        for s in repairs:
            assert np.array_equal(s.gso, build_gso(s.positions, 2.0).matrix)
        assert any(
            not np.array_equal(s.gso, build_gso(s.positions, 5.0).matrix) for s in repairs
        )

    def test_a_repair_the_expert_drops_counts_as_failed_only(self, monkeypatch):
        maps, records = solved_pool(num_cases=3, robots=3, seed=10)
        ds = dataset_from(records, maps)
        before = len(ds)
        dropped = records[1]
        real_cbs_solve = datastore.cbs_solve

        def cbs_solve(grid, case, timeout_s):
            if case.goals == dropped.case.goals:
                raise SolverTimeout("stub")
            return real_cbs_solve(grid, case, timeout_s)

        monkeypatch.setattr(datastore, "cbs_solve", cbs_solve)
        logged = []
        rolled, failed, repaired, added = aggregate_online_expert(
            PolicyNetwork(TINY, seed=6), ds, records, maps, TrainConfig(oe_cases=3, seed=0),
            epoch=0, log=logged.append, policy_factory=lambda rec: IdlePolicy(),
        )
        assert (rolled, failed, repaired) == (3, 3, 2)
        kept = [r for r in records if r is not dropped]
        assert added == sum(r.plan.makespan for r in kept) == len(ds) - before
        assert {s.case_id for s in ds.samples[before:]} == {f"{r.case_id}/oe0" for r in kept}
        assert logged == [f"expert timeout on {dropped.case_id}/oe0"]

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

    @pytest.mark.parametrize("off", ["train", "valid"])
    def test_rejects_a_split_at_other_radii(self, off):
        maps, records = solved_pool(num_cases=2, robots=3, seed=12)
        splits = {"train": dataset_from(records, maps), "valid": Dataset("valid")}
        splits[off] = replace(splits[off], comm_radius=2.0)
        net = PolicyNetwork(TINY, seed=8)
        before = {k: p.copy() for k, p in net.store.params.items()}
        epochs = []
        with pytest.raises(ConfigError, match=f"{off} split"):
            fit(net, splits["train"], splits["valid"], TrainConfig(epochs=4, oe_interval=1),
                train_records=records, maps=maps, on_epoch=lambda *a: epochs.append(a))
        assert not epochs
        assert all(np.array_equal(p, before[k]) for k, p in net.store.params.items())

    def test_history_columns(self):
        maps, records = solved_pool(num_cases=1, robots=2, seed=13)
        ds = dataset_from(records, maps)
        net = PolicyNetwork(TINY, seed=9)
        history = fit(net, ds, Dataset("valid"), TrainConfig(epochs=2, seed=0))
        assert len(history) == 2
        for key in ("epoch", "lr", "train_loss", "train_acc", "train_size"):
            assert key in history[0]
