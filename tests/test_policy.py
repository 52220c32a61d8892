import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfgnn.errors import ShapeMismatch, VersionMismatch
from mapfgnn.executor import NetworkPolicy
from mapfgnn.gridworld import build_gso
from mapfgnn.nn_core import Conv2d, cross_entropy, gradient_check, one_hot
from mapfgnn.policy import (
    PolicyArch,
    PolicyNetwork,
    policy_forward,
    select_actions,
)

TINY = PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16, taps=2)


def random_obs(rng, n):
    return (rng.uniform(size=(n, 3, 9, 9)) < 0.3).astype(np.float64)


def path_gso(n, spacing=5.0):
    return build_gso([(i * spacing, 0) for i in range(n)]).matrix


class TestArchitecture:
    def test_feature_length_128(self):
        net = PolicyNetwork(seed=0)
        rng = np.random.default_rng(0)
        feats = net.encode(random_obs(rng, 2))
        assert feats.shape == (2, 128)

    def test_logits_shape(self):
        net = PolicyNetwork(seed=0)
        rng = np.random.default_rng(1)
        out = net.forward(random_obs(rng, 3), path_gso(3))
        assert out.shape == (3, 5)

    def test_identical_observations_share_features(self):
        net = PolicyNetwork(seed=0)
        rng = np.random.default_rng(2)
        obs = random_obs(rng, 1)
        both = np.concatenate([obs, obs])
        feats = net.encode(both)
        assert np.array_equal(feats[0], feats[1])

    def test_eval_rows_encode_independently(self):
        # a robot's features must not depend on the batch it is encoded in,
        # bit for bit, one-row batches (which BLAS may treat apart) included,
        # in float64 and in the float32 arithmetic uint8 observations take
        rng = np.random.default_rng(3)
        obs = random_obs(rng, 640)
        for dtype in (np.float64, np.uint8):
            for arch in (TINY, PolicyArch()):
                net = PolicyNetwork(arch, seed=0)
                x = obs.astype(dtype)
                full = net.encode(x)
                for b in range(1, 17):
                    assert np.array_equal(net.encode(x[:b]), full[:b]), (dtype, arch, b)
                assert np.array_equal(net.encode(x[-16:]), full[-16:]), (dtype, arch)

    @pytest.mark.parametrize("rows", [1, 10, 640])
    def test_uint8_observations_give_the_bits_of_their_float32_copy(self, rows):
        # team_observations builds uint8 windows, no caller widens them, and
        # the first conv takes them as float32
        obs = random_obs(np.random.default_rng(rows), rows).astype(np.uint8)
        wide = obs.astype(np.float32)
        for train in (True, False):
            nets = PolicyNetwork(seed=0), PolicyNetwork(seed=0)
            feats = [net.encode(x, train) for net, x in zip(nets, (obs, wide))]
            assert feats[0].tobytes() == feats[1].tobytes(), train
            if train:
                gfeat = np.random.default_rng(0).standard_normal(feats[0].shape)
                for net in nets:
                    net.encode_backward(gfeat)
                for name, grad in nets[0].store.grads.items():
                    assert grad.tobytes() == nets[1].store.grads[name].tobytes(), name
        net, gso = PolicyNetwork(seed=0), path_gso(rows)
        probs = [policy_forward(net, x, gso) for x in (obs, wide)]
        assert probs[0].tobytes() == probs[1].tobytes()

    def test_rejects_wrong_window(self):
        net = PolicyNetwork(seed=0)
        with pytest.raises(ShapeMismatch):
            net.encode(np.zeros((1, 3, 7, 7)))
        with pytest.raises(ShapeMismatch):
            net.forward(np.zeros((2, 3, 9, 9)), np.zeros((3, 3)))

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            PolicyArch(channels=(4, 8), features=16)
        for channels in [(4, 4, 8, 8, 16, 16, 16), (0, 4, 8, 8, 16, 16), (4, -1, 8, 8, 16, 16)]:
            with pytest.raises(ValueError, match="six positive"):
                PolicyArch(channels=channels, features=16)

    @pytest.mark.parametrize("radius", range(1, 10))
    def test_every_fov_radius_runs_or_is_refused_up_front(self, radius):
        # three 2x2 pools bring a 9x9 to 15x15 window to 1x1, and no other
        try:
            arch = PolicyArch(fov_radius=radius, channels=TINY.channels, features=TINY.features)
        except ValueError as exc:
            assert not 4 <= radius <= 7 and "fov_radius" in str(exc)
            return
        assert 4 <= radius <= 7
        net = PolicyNetwork(arch, seed=0)
        obs = np.random.default_rng(radius).random((3, 3, arch.window, arch.window))
        assert net.forward(obs, path_gso(3)).shape == (3, 5)
        assert net.encode(obs, train=True).shape == (3, TINY.features)

    def test_distributions_normalize(self):
        net = PolicyNetwork(TINY, seed=1)
        rng = np.random.default_rng(4)
        probs = policy_forward(net, random_obs(rng, 4), path_gso(4))
        assert probs.shape == (4, 5)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_forward_deterministic(self):
        net = PolicyNetwork(TINY, seed=2)
        rng = np.random.default_rng(5)
        obs = random_obs(rng, 3)
        s = path_gso(3)
        a = net.forward(obs, s)
        b = net.forward(obs, s)
        assert np.array_equal(a, b)


class TestEquivarianceLocality:
    def test_permutation_equivariance(self):
        net = PolicyNetwork(TINY, seed=3)
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            obs = random_obs(rng, n)
            pts = [tuple(int(v) for v in p) for p in rng.integers(0, 10, (n, 2))]
            s = build_gso(pts).matrix
            perm = rng.permutation(n)
            base = policy_forward(net, obs, s)
            permuted = policy_forward(net, obs[perm], s[np.ix_(perm, perm)])
            assert np.abs(permuted - base[perm]).max() < 1e-9

    def test_locality_beyond_k_minus_1_hops(self):
        # path graph 0-1-2-3; K=3 reaches 2 hops, so robot 3 cannot touch robot 0
        net = PolicyNetwork(PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16, taps=3), seed=4)
        rng = np.random.default_rng(7)
        obs = random_obs(rng, 4)
        s = path_gso(4)
        base = net.forward(obs, s)
        far = obs.copy()
        far[3] = random_obs(rng, 1)[0]
        out = net.forward(far, s)
        assert np.array_equal(out[0], base[0])
        assert not np.array_equal(out[1], base[1])

    def test_k1_ignores_the_graph(self):
        net = PolicyNetwork(PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16, taps=1), seed=5)
        rng = np.random.default_rng(8)
        obs = random_obs(rng, 3)
        dense = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(
            net.forward(obs, path_gso(3)), net.forward(obs, dense)
        )

    def test_k1_per_robot_independence(self):
        net = PolicyNetwork(PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16, taps=1), seed=6)
        rng = np.random.default_rng(9)
        obs = random_obs(rng, 3)
        s = path_gso(3)
        base = net.forward(obs, s)
        changed = obs.copy()
        changed[2] = random_obs(rng, 1)[0]
        out = net.forward(changed, s)
        assert np.array_equal(out[:2], base[:2])


def select_action(probs, mode="greedy", rng=None):
    """Scalar reference for one row: argmax, or one Generator.choice draw."""
    if mode == "greedy":
        return int(np.argmax(probs))
    p = np.asarray(probs, dtype=np.float64)
    p = p / p.sum()
    return int(rng.choice(p.size, p=p))


class ScriptedUniforms(np.random.Generator):
    """Generator whose random() hands out a fixed list of uniforms, so a
    draw can land exactly on a cdf step; Generator.choice takes its uniform
    from random() too."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = list(uniforms)

    def random(self, size=None, dtype=np.float64, out=None):
        shape = () if size is None else size
        values = [self.uniforms.pop(0) for _ in range(int(np.prod(shape)))]
        return np.array(values).reshape(shape)


# probability rows as the policy emits them, plus rows with exact zeros and ties
prob_rows = st.lists(
    st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5).filter(lambda r: sum(r) > 0),
        st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=5, max_size=5).filter(
            lambda r: sum(r) > 0
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestSelectAction:
    def test_point_mass(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        assert select_actions(probs, "greedy") == [0]
        assert select_actions(probs, "sample", np.random.default_rng(0)) == [0]

    def test_greedy_tie_breaks_low(self):
        probs = np.array([np.full(5, 0.2), [0.0, 0.4, 0.1, 0.4, 0.1]])
        assert select_actions(probs, "greedy") == [0, 1]

    def test_sampling_reproducible(self):
        probs = np.tile([0.1, 0.2, 0.3, 0.2, 0.2], (10, 1))
        a = select_actions(probs, "sample", np.random.default_rng(7))
        b = select_actions(probs, "sample", np.random.default_rng(7))
        assert a == b

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            select_actions(np.full((1, 5), 0.2), "other")

    @settings(max_examples=300, deadline=None)
    @given(rows=prob_rows, seed=st.integers(0, 2**32 - 1))
    def test_batched_draw_equals_one_choice_per_row(self, rows, seed):
        probs = np.array(rows)
        rng_batched, rng_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        batched = select_actions(probs, "sample", rng_batched)
        scalar = [select_action(row, "sample", rng_scalar) for row in probs]
        assert batched == scalar
        # the generator is left exactly where the per-row draws leave it
        assert rng_batched.random() == rng_scalar.random()
        assert select_actions(probs, "greedy") == [select_action(row) for row in probs]

    @settings(max_examples=300, deadline=None)
    @given(rows=prob_rows, data=st.data())
    def test_batched_draw_equals_choice_at_cdf_boundaries(self, rows, data):
        probs = np.array(rows)
        uniforms = []
        for row in probs:
            cdf = np.cumsum(row / row.sum())
            cdf /= cdf[-1]
            uniforms.append(
                data.draw(
                    st.one_of(
                        st.sampled_from([0.0, np.nextafter(1.0, 0.0), *cdf[cdf < 1.0]]),
                        st.floats(0.0, 1.0, exclude_max=True),
                    )
                )
            )
        batched = select_actions(probs, "sample", ScriptedUniforms(uniforms))
        scripted = ScriptedUniforms(uniforms)
        assert batched == [select_action(row, "sample", scripted) for row in probs]

    @pytest.mark.parametrize(
        "bad",
        [[0.2, 0.2, np.nan, 0.2, 0.2], [0.2, 0.2, -0.1, 0.2, 0.2], [0.0] * 5],
        ids=["nan", "negative", "zero_sum"],
    )
    def test_nan_or_negative_row_raises(self, bad):
        probs = np.full((3, 5), 0.2)
        probs[1] = bad
        with pytest.raises(ValueError), np.errstate(all="ignore"):
            select_action(probs[1], "sample", np.random.default_rng(0))
        with pytest.raises(ValueError):
            select_actions(probs, "sample", np.random.default_rng(0))

    def test_unknown_mode_fails_when_the_policy_is_built(self):
        with pytest.raises(ValueError, match="other"):
            NetworkPolicy(PolicyNetwork(TINY, seed=0), mode="other")

    def test_a_radius_other_than_the_weights_is_refused(self):
        net = PolicyNetwork(TINY, seed=0)
        assert NetworkPolicy(net, comm_radius=net.arch.comm_radius).net is net
        for radius in (net.arch.comm_radius + 1.0, net.arch.comm_radius / 2):
            with pytest.raises(ValueError, match="comm_radius"):
                NetworkPolicy(net, comm_radius=radius)


class TestSerialization:
    def test_round_trip_preserves_outputs(self):
        net = PolicyNetwork(TINY, seed=7)
        rng = np.random.default_rng(10)
        obs = random_obs(rng, 3)
        s = path_gso(3)
        net.forward(obs, s, train=True)  # move running stats off their init
        restored = PolicyNetwork.from_jsonable(net.to_jsonable())
        assert np.array_equal(restored.forward(obs, s), net.forward(obs, s))

    def test_rejects_unknown_format(self):
        with pytest.raises(VersionMismatch):
            PolicyNetwork.from_jsonable({"format": "something-else"})

    def test_arch_round_trip(self):
        arch = PolicyArch(taps=2)
        assert PolicyArch.from_jsonable(arch.to_jsonable()) == arch

    @pytest.mark.parametrize("arch", [PolicyArch(), TINY, PolicyArch(fov_radius=6, taps=1)])
    def test_param_shapes_are_the_built_store_shapes(self, arch):
        shapes = PolicyNetwork(arch, seed=0).store.shapes()
        assert list(arch.param_shapes().items()) == list(shapes.items())

    @pytest.mark.parametrize(
        "edit", [{"taps": 10**12}, {"channels": [4, 4, 8, 8, 16, 10**9], "features": 10**9}],
        ids=["taps", "channels"],
    )
    def test_params_are_read_before_any_layer_is_built(self, edit, monkeypatch):
        doc = PolicyNetwork(TINY, seed=0).to_jsonable()
        doc["arch"].update(edit)

        def build(*args, **kwargs):
            raise AssertionError("a layer was built")

        monkeypatch.setattr(PolicyNetwork, "__init__", build)
        with pytest.raises(ValueError, match="stored shape"):
            PolicyNetwork.from_jsonable(doc)


class TestEndToEndGradients:
    def test_policy_plus_loss_matches_finite_differences(self):
        net = PolicyNetwork(TINY, seed=8)
        rng = np.random.default_rng(11)
        n = 3
        obs = rng.normal(size=(n, 3, 9, 9))
        s = path_gso(n)
        labels = one_hot(rng.integers(0, 5, size=n), 5)

        def run():
            net.store.zero_grads()
            feats = net.encode(obs, train=True)
            logits = net.head_forward(feats, s, train=True)
            loss, glogits = cross_entropy(logits, labels)
            gfeat = net.head_backward(glogits)
            net.encode_backward(gfeat)
            return loss, [g.copy() for g in net.store.grads.values()]

        arrays = list(net.store.params.values())
        err = gradient_check(run, arrays, max_coords=12, rng=rng)
        assert err < 1e-4
        # observations are data: the first conv computes no gradient for them
        convs = [layer for layer in net.cnn if isinstance(layer, Conv2d)]
        assert [conv.needs_input_grad for conv in convs] == [False] + [True] * 5
