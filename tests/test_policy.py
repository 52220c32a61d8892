import numpy as np
import pytest

from mapfgnn.errors import ShapeMismatch, VersionMismatch
from mapfgnn.gridworld import build_gso
from mapfgnn.nn_core import cross_entropy, gradient_check, one_hot
from mapfgnn.policy import (
    PolicyArch,
    PolicyNetwork,
    policy_forward,
    select_action,
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

    def test_single_observation_helper(self):
        net = PolicyNetwork(TINY, seed=0)
        rng = np.random.default_rng(3)
        obs = random_obs(rng, 2)
        assert np.array_equal(net.encode_observation(obs[0]), net.encode(obs)[0])

    def test_rejects_wrong_window(self):
        net = PolicyNetwork(seed=0)
        with pytest.raises(ShapeMismatch):
            net.encode(np.zeros((1, 3, 7, 7)))
        with pytest.raises(ShapeMismatch):
            net.forward(np.zeros((2, 3, 9, 9)), np.zeros((3, 3)))

    def test_arch_validation(self):
        with pytest.raises(ValueError):
            PolicyArch(channels=(4, 8), features=16)

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


class TestSelectAction:
    def test_point_mass(self):
        probs = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert select_action(probs, "greedy") == 0
        assert select_action(probs, "sample", np.random.default_rng(0)) == 0

    def test_greedy_tie_breaks_low(self):
        probs = np.full(5, 0.2)
        assert select_action(probs, "greedy") == 0

    def test_sampling_reproducible(self):
        probs = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        a = [select_action(probs, "sample", np.random.default_rng(7)) for _ in range(10)]
        b = [select_action(probs, "sample", np.random.default_rng(7)) for _ in range(10)]
        assert a == b

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            select_action(np.full(5, 0.2), "other")


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
