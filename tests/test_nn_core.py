import base64
import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from mapfgnn import nn_core, training
from mapfgnn.errors import NonFiniteGradient, ShapeMismatch
from mapfgnn.nn_core import (
    BatchNorm2d,
    Conv2d,
    GraphFilter,
    Linear,
    MaxPool2d,
    ParamStore,
    ReLU,
    cross_entropy,
    gradient_check,
    log_softmax,
    one_hot,
    softmax,
    uniform_init,
)
from mapfgnn.gridworld import build_gso
from mapfgnn.jsonio import encode_arrays
from mapfgnn.policy import PolicyArch, PolicyNetwork


def safe_input(rng, shape, low=0.2, high=1.0):
    """Values bounded away from zero so relu kinks cannot bite."""
    mag = rng.uniform(low, high, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


# spatial sizes on both sides of Conv2d's path choice (h*w < 9 vs >= 9)
CONV_SIZES = ((1, 1), (2, 2), (2, 3), (4, 4), (9, 9))


def reference_conv(conv, x):
    """im2col over every cell's zero-padded 3x3 window, the path for any size."""
    b, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(padded, (3, 3), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, h * w, c * 9)
    out = cols @ conv.weight.reshape(conv.weight.shape[0], c * 9).T + conv.bias
    return out.transpose(0, 2, 1).reshape(b, -1, h, w)


def reference_tap_matrix(h, w):
    """0/1 matrix (9, h*w*h*w): column (yi, xi, yo, xo) holds a single 1 at
    tap (yi-yo+1, xi-xo+1) when input cell (yi, xi) lies in output cell
    (yo, xo)'s window, and is all zeros otherwise."""
    yi, xi, yo, xo = np.indices((h, w, h, w)).reshape(4, -1)
    ky, kx = yi - yo + 1, xi - xo + 1
    pairs = np.flatnonzero((ky >= 0) & (ky < 3) & (kx >= 0) & (kx < 3))
    taps = np.zeros((9, h * w * h * w))
    taps[ky[pairs] * 3 + kx[pairs], pairs] = 1.0
    return taps


def reference_unrolled_weight(conv, h, w):
    """The unrolled weight moved through the 0/1 tap matrix, rows ordered
    (yi, xi, ci) and columns (yo, xo, co)."""
    c_out, c = conv.weight.shape[:2]
    placed = conv.weight.reshape(c_out, c, 9) @ reference_tap_matrix(h, w)
    placed = placed.reshape(c_out, c, h, w, h, w).transpose(2, 3, 1, 4, 5, 0)
    return np.ascontiguousarray(placed.reshape(h * w * c, h * w * c_out))


def channels_last_rows(x):
    b = x.shape[0]
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(b, -1)


def reference_unrolled_forward(conv, x):
    """Small-map forward that rebuilds the unrolled weight from the 3x3 taps
    on every call, through the 0/1 tap matrix, for channels-last input rows;
    bit-for-bit the layer's arithmetic, with no memo and no 1x1 slice."""
    b, c, h, w = x.shape
    c_out = conv.weight.shape[0]
    rows = channels_last_rows(x)
    unrolled = reference_unrolled_weight(conv, h, w)
    out = (np.repeat(rows, 2, axis=0) if b == 1 else rows) @ unrolled
    out = out[:b] + np.tile(conv.bias, h * w)
    return out.reshape(b, h, w, c_out).transpose(0, 3, 1, 2)


def reference_unrolled_backward(conv, x, gout):
    """(weight gradient, input gradient) of the small-map unrolled path: the
    unrolled gradient folded onto the 3x3 taps by one tensordot with the 0/1
    tap matrix, and the output gradient's GEMM with the unrolled weight."""
    b, c, h, w = x.shape
    rows, g2 = channels_last_rows(x), channels_last_rows(gout)
    gplaced = (rows.T @ g2).reshape(h, w, c, h, w, -1)
    taps = reference_tap_matrix(h, w).reshape(9, h, w, h, w)
    gtaps = np.tensordot(taps, gplaced, axes=([1, 2, 3, 4], [0, 1, 3, 4]))
    gin = (g2 @ reference_unrolled_weight(conv, h, w).T).reshape(b, h, w, c)
    return gtaps.transpose(2, 1, 0).reshape(conv.weight.shape), gin.transpose(0, 3, 1, 2)


class ReferenceBatchNorm2d(BatchNorm2d):
    """The layer's earlier arithmetic: every statistic and gradient reduces
    over a (B, C, H*W) reshape of the input, with a fresh array per step."""

    def forward(self, x, train=True):
        x3 = x.reshape(x.shape[0], x.shape[1], -1)
        if train:
            m = x3.shape[0] * x3.shape[2]
            mean = np.einsum("bcs->c", x3) / m
            centred = x3 - mean[None, :, None]
            var = np.einsum("bcs,bcs->c", centred, centred) / m
            unbiased = var * m / (m - 1) if m > 1 else var
            self.running_mean[...] = (
                (1 - nn_core.BN_MOMENTUM) * self.running_mean + nn_core.BN_MOMENTUM * mean
            )
            self.running_var[...] = (
                (1 - nn_core.BN_MOMENTUM) * self.running_var + nn_core.BN_MOMENTUM * unbiased
            )
        else:
            mean = self.running_mean
            var = self.running_var
            centred = x3 - mean[None, :, None]
        inv_std = 1.0 / np.sqrt(var + nn_core.BN_EPS)
        xhat = centred * inv_std[None, :, None]
        self._cache = (xhat, inv_std, train)
        out = self.gamma[None, :, None] * xhat + self.beta[None, :, None]
        return out.reshape(x.shape)

    def backward(self, gout):
        xhat, inv_std, train = self._cache
        g3 = gout.reshape(xhat.shape)
        gsum = g3.sum(axis=(0, 2))
        gxsum = np.einsum("bcs,bcs->c", g3, xhat)
        self.gbeta += gsum
        self.ggamma += gxsum
        scale = (self.gamma * inv_std)[None, :, None]
        if not train:
            return (scale * g3).reshape(gout.shape)
        m = xhat.shape[0] * xhat.shape[2]
        gin = scale * (g3 - (gsum[None, :, None] + xhat * gxsum[None, :, None]) / m)
        return gin.reshape(gout.shape)


class BroadcastBatchNorm2d(BatchNorm2d):
    """The layer before its element-wise passes ran over long rows: each pass
    broadcasts a (c, 1, 1) vector over the input's own shape. Its reductions
    and per-element arithmetic are the layer's, so the two agree bit for bit."""

    def forward(self, x, train=True):
        if train:
            m = x.size // x.shape[1]
            mean = np.einsum("bchw->c", x) / m
        else:
            mean = self.running_mean
        xhat = x - mean[:, None, None]
        if train:
            var = np.einsum("bchw,bchw->c", xhat, xhat) / m
            unbiased = var * m / (m - 1) if m > 1 else var
            self.running_mean[...] = (
                (1 - nn_core.BN_MOMENTUM) * self.running_mean + nn_core.BN_MOMENTUM * mean
            )
            self.running_var[...] = (
                (1 - nn_core.BN_MOMENTUM) * self.running_var + nn_core.BN_MOMENTUM * unbiased
            )
        else:
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + nn_core.BN_EPS)
        xhat *= inv_std[:, None, None]
        self._cache = (xhat, inv_std, train)
        out = xhat * self.gamma[:, None, None]
        out += self.beta[:, None, None]
        return out

    def backward(self, gout):
        xhat, inv_std, train = self._cache
        gsum = np.einsum("bchw->c", gout)
        gxsum = np.einsum("bchw,bchw->c", gout, xhat)
        self.gbeta += gsum
        self.ggamma += gxsum
        scale = (self.gamma * inv_std)[:, None, None]
        if not train:
            return scale * gout
        m = xhat.size // xhat.shape[1]
        gin = xhat * gxsum[:, None, None]
        gin += gsum[:, None, None]
        gin /= m
        np.subtract(gout, gin, out=gin)
        gin *= scale
        return gin


class SelectReLU:
    """ReLU whose backward selects with np.where, as the layer did before it
    multiplied by its mask."""

    def forward(self, x, train=True):
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, gout):
        return np.where(self._mask, gout, 0.0)


class StridedMaxPool2d:
    """Max pooling as the layer did it before it went channels-last: strided
    slices of the input as it lies, an argmax on every forward, and a
    channels-last gradient written by four selects."""

    CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def forward(self, x, train=True):
        ho, wo = x.shape[2] // 2, x.shape[3] // 2
        nw, ne, sw, se = (x[:, :, i : 2 * ho : 2, j : 2 * wo : 2] for i, j in self.CELLS)
        top, bottom = np.maximum(nw, ne), np.maximum(sw, se)
        top_idx = (nw < ne).view(np.int8)
        bottom_idx = (sw < se).view(np.int8) + 2
        self._cache = (np.where(top >= bottom, top_idx, bottom_idx), x.shape)
        return np.maximum(top, bottom)

    def backward(self, gout):
        idx, (b, c, h, w) = self._cache
        ho, wo = gout.shape[2:]
        gin = np.zeros((b, h, w, c)).transpose(0, 3, 1, 2)
        for k, (i, j) in enumerate(self.CELLS):
            gin[:, :, i : 2 * ho : 2, j : 2 * wo : 2] = np.where(idx == k, gout, 0.0)
        return gin


def reference_block_layers(net):
    """net's CNN rebuilt from the reference layers in the conv-bn-relu-pool
    order; the reference BatchNorms share the network's parameter, gradient
    and running-statistic arrays, so its ParamStore and optimizer see them."""
    convs = [layer for layer in net.cnn if isinstance(layer, Conv2d)]
    bns = [layer for layer in net.cnn if isinstance(layer, BatchNorm2d)]
    cnn = []
    for i, (conv, bn) in enumerate(zip(convs, bns)):
        ref = BroadcastBatchNorm2d(bn.gamma.size)
        for name in ("gamma", "beta", "ggamma", "gbeta", "running_mean", "running_var"):
            setattr(ref, name, getattr(bn, name))
        cnn += [conv, ref, SelectReLU()]
        if i % 2 == 0:
            cnn.append(StridedMaxPool2d())
    return cnn


class Relayout:
    """Identity layer that hands its input on stored in one layout."""

    def __init__(self, layout):
        self.layout = layout

    def forward(self, x, train=True):
        return in_layout(x, self.layout)

    def backward(self, gout):
        return gout


def forward_chain(layers, x, train):
    for layer in layers:
        x = layer.forward(x, train)
    return x


def backward_chain(layers, gout):
    for layer in reversed(layers):
        gout = layer.backward(gout)
    return gout


def assert_bytes_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def in_layout(a, layout):
    """The same values as a, stored contiguous NCHW or channels-last."""
    if layout == "nchw":
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(a):
    """a is a (b, c, h, w) view of C-contiguous (b, h, w, c) memory."""
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


def assert_close(got, want, tol=1e-12):
    """Equal to tol, relative to the larger of 1 and want's largest magnitude."""
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(got - want).max(initial=0.0) <= tol * scale


def reference_maxpool(x, gout):
    """Output and input gradient of 2x2/stride-2 max pooling by argmax per window."""
    windows = sliding_window_view(x, (2, 2), axis=(2, 3))[:, :, ::2, ::2]
    b, c, ho, wo, _, _ = windows.shape
    flat = windows.reshape(b, c, ho, wo, 4)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    gin = np.zeros(x.shape)
    bi, ci, ii, ji = np.indices((b, c, ho, wo))
    gin[bi, ci, 2 * ii + idx // 2, 2 * ji + idx % 2] = gout
    return out, gin


class TestConv2d:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(3, 32, rng)
        out = conv.forward(rng.normal(size=(2, 3, 9, 9)))
        assert out.shape == (2, 32, 9, 9)

    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(2, 4, rng)
        conv.weight[...] = 0.0
        conv.bias[...] = 0.0
        out = conv.forward(rng.normal(size=(1, 2, 5, 5)))
        assert not out.any()

    def test_identity_kernel_reproduces_input(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(1, 1, rng)
        conv.weight[...] = 0.0
        conv.weight[0, 0, 1, 1] = 1.0
        conv.bias[...] = 0.0
        x = rng.normal(size=(1, 1, 6, 6))
        assert np.allclose(conv.forward(x), x)

    def test_shape_mismatch_raises(self):
        conv = Conv2d(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((1, 2, 9, 9)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for h, w in CONV_SIZES:
            conv = Conv2d(2, 3, rng)
            x = rng.normal(size=(2, 2, h, w))
            coef = rng.normal(size=(2, 3, h, w))

            def run():
                conv.gweight[...] = 0.0
                conv.gbias[...] = 0.0
                out = conv.forward(x)
                gin = conv.backward(coef)
                return (out * coef).sum(), [
                    gin.copy(),
                    conv.gweight.copy(),
                    conv.gbias.copy(),
                ]

            err = gradient_check(run, [x, conv.weight, conv.bias])
            assert err < 1e-6, (h, w)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        batch=st.integers(1, 3),
        c_in=st.integers(1, 4),
        c_out=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_im2col_reference(self, h, w, batch, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        conv = Conv2d(c_in, c_out, rng)
        x = rng.normal(size=(batch, c_in, h, w))
        out = conv.forward(x)
        assert out.shape == (batch, c_out, h, w)
        assert np.allclose(out, reference_conv(conv, x), rtol=0, atol=1e-12)

    def test_data_input_skips_input_gradient(self):
        rng = np.random.default_rng(23)
        for h, w in ((2, 2), (4, 4)):
            full, data = Conv2d(2, 3, rng), Conv2d(2, 3, rng)
            data.weight[...], data.bias[...] = full.weight, full.bias
            data.needs_input_grad = False
            x = rng.normal(size=(2, 2, h, w))
            coef = rng.normal(size=(2, 3, h, w))
            full.forward(x)
            data.forward(x)
            assert full.backward(coef).shape == x.shape
            assert data.backward(coef) is None
            assert np.array_equal(data.gweight, full.gweight)
            assert np.array_equal(data.gbias, full.gbias)


class TestConv2dTrainUnrolled:
    """A train forward on a map of up to 16 cells runs the unrolled GEMM; an
    eval forward there keeps im2col. Both compute the same convolution."""

    @pytest.mark.parametrize("rows", [2, 64])
    @pytest.mark.parametrize("h,w", [(4, 4), (3, 3)])
    def test_forward_and_backward_match_im2col(self, h, w, rows):
        rng = np.random.default_rng(41)
        unrolled, im2col = Conv2d(3, 4, rng), Conv2d(3, 4, rng)
        im2col.weight[...], im2col.bias[...] = unrolled.weight, unrolled.bias
        x = rng.normal(size=(rows, 3, h, w))
        coef = rng.normal(size=(rows, 4, h, w))
        out = unrolled.forward(x, train=True)
        assert unrolled._cache[2] is not None
        assert_close(out, reference_conv(unrolled, x))
        im2col.forward(x, train=False)
        assert im2col._cache[2] is None
        gin, want = unrolled.backward(coef), im2col.backward(coef)
        assert_close(gin, want)
        assert_close(unrolled.gweight, im2col.gweight)
        assert_close(unrolled.gbias, im2col.gbias)

    @pytest.mark.parametrize("rows", [2, 64])
    @pytest.mark.parametrize("h,w", [(4, 4), (3, 3)])
    def test_gradients_match_finite_differences(self, h, w, rows):
        rng = np.random.default_rng(42)
        conv = Conv2d(3, 4, rng)
        x = rng.normal(size=(rows, 3, h, w))
        coef = rng.normal(size=(rows, 4, h, w))

        def run():
            conv.gweight[...] = 0.0
            conv.gbias[...] = 0.0
            out = conv.forward(x, train=True)
            gin = conv.backward(coef)
            return (out * coef).sum(), [gin.copy(), conv.gweight.copy(), conv.gbias.copy()]

        err = gradient_check(
            run, [x, conv.weight, conv.bias], max_coords=60, rng=np.random.default_rng(0)
        )
        assert err < 1e-4

    @pytest.mark.parametrize("rows", [1, 3, 10])
    def test_eval_forward_is_the_im2col_path_bit_for_bit(self, rows):
        rng = np.random.default_rng(43)
        conv = Conv2d(32, 64, rng)
        x = rng.normal(size=(rows, 32, 4, 4))
        out = conv.forward(x, train=False)
        assert conv._cache[2] is None
        assert np.array_equal(out, reference_conv(conv, x))

    def test_paper_arch_path_per_layer(self):
        net = PolicyNetwork(PolicyArch(), seed=0)
        convs = [layer for layer in net.cnn if isinstance(layer, Conv2d)]
        obs = np.random.default_rng(44).integers(0, 2, size=(4, 3, 9, 9)).astype(np.float64)
        # map size per conv: 9x9, then 4x4, 4x4, 2x2, 2x2, 1x1 after each pool
        expected = {True: [False, True, True, True, True, True],
                    False: [False, False, False, True, True, True]}
        for train, unrolled in expected.items():
            net.encode(obs, train=train)
            assert [conv._cache[2] is not None for conv in convs] == unrolled, train
            sizes = [conv._cache[1][2] for conv in convs]
            assert sizes == [9, 4, 4, 2, 2, 1]
            # the input's (b, c, h, w), which the bench reads to count flops
            assert all(len(conv._cache[1]) == 4 for conv in convs)


# (c_in, c_out) of every unrolled conv in the paper, criterion 08 and tiny archs
UNROLLED_WIDTHS = sorted(
    {(32, 32), (32, 64), (64, 64), (64, 128), (128, 128)}
    | {(16, 16), (16, 32), (32, 32), (32, 64), (64, 64)}
    | {(4, 4), (4, 8), (8, 8), (8, 16), (16, 16)}
)


class TestConv2dLanding:
    """The unrolled path places the weight and folds its gradient through
    the landing table, with the bytes of the 0/1 tap matrix arithmetic."""

    @pytest.mark.parametrize(
        "h,w,count", [(1, 1, 1), (2, 2, 16), (3, 3, 49), (4, 4, 100), (2, 3, 28)]
    )
    def test_landing_table_is_cached_read_only_and_exact(self, h, w, count):
        table = nn_core._landing(h, w)
        assert table is nn_core._landing(h, w)
        with pytest.raises(ValueError):
            table[0, 0] = 1
        # (tap, yi, xi, yo, xo) of every input cell in an output cell's window
        want = sorted(
            ((yi - yo + 1) * 3 + xi - xo + 1, yi, xi, yo, xo)
            for yi, yo in itertools.product(range(h), repeat=2)
            for xi, xo in itertools.product(range(w), repeat=2)
            if abs(yi - yo) <= 1 and abs(xi - xo) <= 1
        )
        assert len(want) == count
        got = [(k, *divmod(i, w), *divmod(o, w)) for i, o, k in table.T.tolist()]
        assert got == want

    def run(self, c_in, c_out, size, rows):
        rng = np.random.default_rng(c_in * 1000 + c_out * 10 + size + rows)
        conv = Conv2d(c_in, c_out, rng)
        x = rng.normal(size=(rows, c_in, size, size))
        gout = rng.normal(size=(rows, c_out, size, size))
        out = conv.forward(x, train=True)
        assert conv._cache[2] is not None
        assert_bytes_equal(out, reference_unrolled_forward(conv, x))
        gin = conv.backward(gout)
        return conv, gin, reference_unrolled_backward(conv, x, gout)

    @pytest.mark.parametrize("rows", [1, 3, 640])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_fold_is_the_tap_matrix_fold_byte_for_byte(self, size, rows):
        for c_in, c_out in UNROLLED_WIDTHS:
            conv, gin, (gweight, want_gin) = self.run(c_in, c_out, size, rows)
            assert_bytes_equal(conv.gweight, gweight)
            assert_bytes_equal(gin, want_gin)

    @pytest.mark.parametrize("rows", [1, 3, 640])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_widths_off_a_multiple_of_4(self, size, rows):
        # the tensordot's own rounding depends on how BLAS takes leftover
        # columns here, so only the weight gradient may move, in the last bits
        conv, gin, (gweight, want_gin) = self.run(5, 7, size, rows)
        assert_close(conv.gweight, gweight, tol=1e-14)
        assert_bytes_equal(gin, want_gin)


class TestConv2dEvalMemo:
    """Eval forwards on small maps reuse the unrolled weight; every output
    must still be bit-identical to a per-call rebuild."""

    def build(self, h, w, rows, seed=31):
        rng = np.random.default_rng(seed)
        conv = Conv2d(5, 7, rng)
        x = rng.normal(size=(rows, 5, h, w))
        return conv, x, rng

    def assert_matches(self, conv, x, train=False):
        out = conv.forward(x, train=train)
        assert np.array_equal(out, reference_unrolled_forward(conv, x))

    @pytest.mark.parametrize("rows", [1, 3, 10])
    @pytest.mark.parametrize("h,w", [(2, 2), (1, 1)])
    def test_after_the_memo_fills(self, h, w, rows):
        conv, x, _ = self.build(h, w, rows)
        for _ in range(3):
            self.assert_matches(conv, x)
        if (h, w) == (2, 2):
            # the second and third calls used the matrix the first one kept
            assert conv._cache[2] is conv._memo[3]

    @pytest.mark.parametrize("rows", [1, 3, 10])
    @pytest.mark.parametrize("h,w", [(2, 2), (1, 1)])
    def test_after_an_in_place_weight_edit(self, h, w, rows):
        conv, x, _ = self.build(h, w, rows)
        self.assert_matches(conv, x)
        for index in [(0, 0, 1, 1), (6, 4, 0, 2), (3, 2, 2, 0)]:
            conv.weight[index] += 0.25
            self.assert_matches(conv, x)

    @pytest.mark.parametrize("rows", [1, 3, 10])
    @pytest.mark.parametrize("h,w", [(2, 2), (1, 1)])
    def test_after_an_adam_step(self, h, w, rows):
        conv, x, rng = self.build(h, w, rows)
        store = ParamStore()
        store.add_layer("conv", conv)
        adam = training.AdamState(store)
        self.assert_matches(conv, x)
        before = conv.weight.copy()
        conv.gweight[...] = rng.normal(size=conv.weight.shape)
        training.adam_step(store, adam, 1e-3, training.TrainConfig())
        assert not np.array_equal(conv.weight, before)
        self.assert_matches(conv, x)

    @pytest.mark.parametrize("rows", [1, 3, 10])
    @pytest.mark.parametrize("h,w", [(2, 2), (1, 1)])
    def test_after_a_weight_load(self, h, w, rows):
        conv, x, _ = self.build(h, w, rows)
        other, _, _ = self.build(h, w, rows, seed=32)
        store, source = ParamStore(), ParamStore()
        store.add_layer("conv", conv)
        source.add_layer("conv", other)
        self.assert_matches(conv, x)
        store.load_jsonable(source.to_jsonable())
        assert np.array_equal(conv.weight, other.weight)
        self.assert_matches(conv, x)

    @pytest.mark.parametrize("rows", [1, 3, 10])
    @pytest.mark.parametrize("h,w", [(2, 2), (1, 1)])
    def test_a_train_forward_never_reads_a_stale_matrix(self, h, w, rows):
        conv, x, _ = self.build(h, w, rows)
        original = conv.weight.copy()
        self.assert_matches(conv, x)
        conv.weight[1, 1, 1, 1] -= 0.5
        self.assert_matches(conv, x, train=True)
        # back to the memoised weight: eval reuses the kept matrix, still exact
        conv.weight[...] = original
        self.assert_matches(conv, x)
        conv.weight[2, 3, 0, 0] += 0.5
        self.assert_matches(conv, x, train=True)
        self.assert_matches(conv, x)


class TestBatchNorm2d:
    def test_constant_channel_maps_to_shift(self):
        bn = BatchNorm2d(2)
        bn.beta[...] = (0.7, -0.3)
        x = np.full((3, 2, 4, 4), 5.0)
        out = bn.forward(x, train=True)
        assert np.allclose(out[:, 0], 0.7)
        assert np.allclose(out[:, 1], -0.3)

    def test_eval_identity_with_unit_stats(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(4).normal(size=(2, 3, 5, 5))
        out = bn.forward(x, train=False)
        assert np.allclose(out, x, atol=1e-4)

    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm2d(4)
        out = bn.forward(rng.normal(2.0, 3.0, size=(8, 4, 6, 6)), train=True)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm2d(1)
        x = rng.normal(10.0, 1.0, size=(4, 1, 3, 3))
        bn.forward(x, train=True)
        assert bn.running_mean[0] == pytest.approx(0.1 * x.mean(), rel=1e-12)
        bn2 = BatchNorm2d(1)
        bn2.forward(x, train=False)
        assert np.array_equal(bn2.running_mean, [0.0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        for train in (True, False):
            bn = BatchNorm2d(3)
            bn.running_mean[...] = rng.normal(size=3)
            bn.running_var[...] = rng.uniform(0.5, 2.0, size=3)
            x = rng.normal(size=(3, 3, 2, 2))
            coef = rng.normal(size=x.shape)

            def run():
                bn.ggamma[...] = 0.0
                bn.gbeta[...] = 0.0
                out = bn.forward(x, train=train)
                gin = bn.backward(coef)
                return (out * coef).sum(), [
                    gin.copy(),
                    bn.ggamma.copy(),
                    bn.gbeta.copy(),
                ]

            err = gradient_check(run, [x, bn.gamma, bn.beta])
            assert err < 1e-5, f"train={train}"


    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 4),
        channels=st.integers(1, 5),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        x_layout=st.sampled_from(["nchw", "channels_last"]),
        g_layout=st.sampled_from(["nchw", "channels_last"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_in_either_layout(
        self, batch, channels, h, w, x_layout, g_layout, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.normal(1.0, 2.0, size=(batch, channels, h, w))
        gout = rng.normal(size=x.shape)
        bn, ref = BatchNorm2d(channels), ReferenceBatchNorm2d(channels)
        for layer in (bn, ref):
            layer.gamma[...] = np.linspace(0.5, 1.5, channels)
            layer.beta[...] = np.linspace(-0.3, 0.3, channels)
            layer.running_var[...] = np.linspace(0.8, 1.2, channels)
        x_in, g_in = in_layout(x, x_layout), in_layout(gout, g_layout)

        assert_close(bn.forward(x_in, train=True), ref.forward(x, train=True))
        assert_close(bn.running_mean, ref.running_mean)
        assert_close(bn.running_var, ref.running_var)
        assert_close(bn.backward(g_in), ref.backward(gout))
        assert_close(bn.ggamma, ref.ggamma)
        assert_close(bn.gbeta, ref.gbeta)

        # eval mode is element-wise with the same arithmetic: identical bits
        # from identical running statistics
        bn.running_mean[...], bn.running_var[...] = ref.running_mean, ref.running_var
        assert np.array_equal(bn.forward(x_in, train=False), ref.forward(x, train=False))
        assert np.array_equal(bn.backward(g_in), ref.backward(gout))
        assert_close(bn.ggamma, ref.ggamma)
        assert_close(bn.gbeta, ref.gbeta)


class TestReluMaxpool:
    def test_relu_values(self):
        r = ReLU()
        assert np.array_equal(
            r.forward(np.array([[-1.0, 2.0]])), np.array([[0.0, 2.0]])
        )

    def test_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(8)
        r = ReLU()
        x = safe_input(rng, (4, 6))
        coef = rng.normal(size=x.shape)

        def run():
            out = r.forward(x)
            return (out * coef).sum(), [r.backward(coef).copy()]

        assert gradient_check(run, [x]) < 1e-6

    def test_maxpool_shape_9_to_4(self):
        mp = MaxPool2d()
        out = mp.forward(np.random.default_rng(9).normal(size=(1, 2, 9, 9)))
        assert out.shape == (1, 2, 4, 4)

    def test_maxpool_values(self):
        mp = MaxPool2d()
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = mp.forward(x)
        assert np.array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_tie_routes_gradient_to_first_cell(self):
        mp = MaxPool2d()
        x = np.ones((1, 1, 2, 2))
        mp.forward(x)
        gin = mp.backward(np.array([[[[1.0]]]]))
        assert gin[0, 0, 0, 0] == 1.0
        assert gin.sum() == 1.0

    def test_maxpool_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        mp = MaxPool2d()
        # well-separated values keep the argmax stable under perturbation
        x = rng.permutation(np.arange(2 * 2 * 6 * 6, dtype=np.float64)).reshape(
            2, 2, 6, 6
        )
        coef = rng.normal(size=(2, 2, 3, 3))

        def run():
            out = mp.forward(x)
            return (out * coef).sum(), [mp.backward(coef).copy()]

        assert gradient_check(run, [x]) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(2, 9),
        w=st.integers(2, 9),
        batch=st.integers(1, 3),
        channels=st.integers(1, 3),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_maxpool_matches_argmax_reference(self, h, w, batch, channels, levels, seed):
        # few integer levels force 2-, 3- and 4-way ties inside windows
        rng = np.random.default_rng(seed)
        x = rng.integers(-levels, levels, size=(batch, channels, h, w), endpoint=True)
        x = x.astype(np.float64)
        mp = MaxPool2d()
        out = mp.forward(x)
        gout = rng.normal(size=out.shape)
        ref_out, ref_gin = reference_maxpool(x, gout)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(mp.backward(gout), ref_gin)

    def test_maxpool_every_tie_pattern(self):
        # all 81 windows over three levels, tiled 9x9, plus an odd row and column
        windows = np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=4)))
        tiled = windows.reshape(9, 9, 2, 2).transpose(0, 2, 1, 3).reshape(18, 18)
        x = np.pad(tiled, ((0, 1), (0, 1)), constant_values=5.0)[None, None]
        mp = MaxPool2d()
        out = mp.forward(x)
        gout = np.random.default_rng(24).normal(size=out.shape)
        ref_out, ref_gin = reference_maxpool(x, gout)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(mp.backward(gout), ref_gin)


class TestPoolBeforeRelu:
    """conv-bn-pool-relu gives the bits of the conv-bn-relu-pool chain built
    from the reference layers: max and ReLU commute, and the gradient takes
    the same route. The masked cells of a gradient may hold -0.0 where the
    select wrote 0.0, which no sum, weight or statistic can tell apart."""

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 4),
        channels=st.integers(1, 4),
        size=st.sampled_from([(9, 9), (4, 4), (2, 2), (3, 3), (5, 4), (7, 6), (2, 3)]),
        layout=st.sampled_from(["nchw", "channels_last"]),
        levels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_reference_chain(self, batch, channels, size, layout, levels, seed):
        rng = np.random.default_rng(seed)
        h, w = size
        # integer inputs and taps make integer conv outputs: ties in windows,
        # and with a negative beta, windows with no positive cell
        x = rng.integers(-levels, levels, size=(batch, 2, h, w), endpoint=True).astype(float)
        front, back = Conv2d(2, channels, rng), Conv2d(channels, 3, rng)
        front.weight[...] = rng.integers(-1, 1, size=front.weight.shape, endpoint=True)
        front.bias[...] = 0.0
        bn, ref_bn = BatchNorm2d(channels), BroadcastBatchNorm2d(channels)
        bn.gamma[...] = ref_bn.gamma[...] = rng.uniform(0.5, 1.5, size=channels)
        bn.beta[...] = ref_bn.beta[...] = rng.uniform(-2.0, 0.5, size=channels)
        # the layers take any layout and work channels-last, the layout the
        # reference layers are fed
        chain = [front, Relayout(layout), bn, MaxPool2d(), ReLU(), back]
        ref = [copy.deepcopy(front), Relayout("channels_last"), ref_bn, SelectReLU(),
               StridedMaxPool2d(), copy.deepcopy(back)]

        out = forward_chain(chain, x, train=True)
        assert_bytes_equal(out, forward_chain(ref, x, train=True))
        gout = rng.normal(size=out.shape)
        assert np.array_equal(backward_chain(chain, gout), backward_chain(ref, gout))
        for i in (0, 2, 5):
            for (_, _, got), (_, _, want) in zip(chain[i].parameters(), ref[i].parameters()):
                assert_bytes_equal(got, want)
            for (_, got), (_, want) in zip(chain[i].state_arrays(), ref[i].state_arrays()):
                assert_bytes_equal(got, want)
        assert_bytes_equal(forward_chain(chain, x, train=False), forward_chain(ref, x, train=False))

    def test_policy_network_adam_steps(self):
        arch = PolicyArch()
        net, ref = PolicyNetwork(arch, seed=6), PolicyNetwork(arch, seed=6)
        ref.cnn = reference_block_layers(ref)
        assert [type(layer).__name__ for layer in net.cnn[:5]] == [
            "Conv2d", "BatchNorm2d", "MaxPool2d", "ReLU", "Conv2d"
        ]
        rng = np.random.default_rng(6)
        batch = []
        for n in (10, 6, 10, 10, 6, 10):
            positions = [tuple(p) for p in rng.integers(0, 20, size=(n, 2))]
            batch.append(training.Sample(
                case_id="c", t=0,
                # float64 on both sides: the reference layers compute in float64
                obs=(rng.random((n, 3, 9, 9)) < 0.3).astype(np.float64),
                gso=build_gso(positions, arch.comm_radius).matrix,
                labels=rng.integers(0, 5, size=n),
            ))
        config = training.TrainConfig()
        for model in (net, ref):
            adam = training.AdamState(model.store)
            for _ in range(3):
                model.store.zero_grads()
                training._batch_pass(model, batch, train=True)
                training.adam_step(model.store, adam, 1e-3, config)
        for group in ("params", "grads", "state"):
            for name, value in getattr(net.store, group).items():
                assert_bytes_equal(value, getattr(ref.store, group)[name])
        obs = np.concatenate([s.obs for s in batch], dtype=np.float64)
        assert_bytes_equal(net.encode(obs), ref.encode(obs))


class TestLayoutAndEvalContracts:
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("size", [(9, 9), (4, 4), (2, 2), (5, 4)], ids=lambda s: "%dx%d" % s)
    def test_maxpool_gradient_takes_the_input_layout(self, size, layout):
        """Whatever layout the input is handed in, the gradient is
        channels-last and equals the argmax reference: the BatchNorm before
        the pool reduces its gradient in the order of its channels-last
        activations."""
        rng = np.random.default_rng(25)
        x = in_layout(rng.normal(size=(3, 5) + size), layout)
        mp = MaxPool2d()
        gout = rng.normal(size=mp.forward(x).shape)
        gin = mp.backward(gout)
        assert is_channels_last(gin)
        _, ref_gin = reference_maxpool(np.ascontiguousarray(x), gout)
        assert np.array_equal(gin, ref_gin)

    def test_maxpool_eval_forward_clears_the_argmax(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(2, 3, 4, 4))
        mp = MaxPool2d()
        train_out = mp.forward(x, train=True)
        assert np.array_equal(mp.forward(x, train=False), train_out)
        with pytest.raises(RuntimeError):
            mp.backward(rng.normal(size=train_out.shape))

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    def test_batchnorm_eval_backward(self, layout):
        rng = np.random.default_rng(27)
        bn, ref = BatchNorm2d(4), BroadcastBatchNorm2d(4)
        bn.gamma[...] = rng.uniform(0.5, 1.5, size=4)
        bn.running_mean[...] = rng.normal(size=4)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=4)
        ref.gamma[...], ref.running_mean[...] = bn.gamma, bn.running_mean
        ref.running_var[...] = bn.running_var
        x = rng.normal(size=(3, 4, 4, 4))
        gout = rng.normal(size=x.shape)
        # the layer takes any layout and works channels-last, the layout the
        # reference is fed
        x_in, g_in = in_layout(x, layout), in_layout(gout, layout)
        x, gout = in_layout(x, "channels_last"), in_layout(gout, "channels_last")
        assert_bytes_equal(bn.forward(x_in, train=False), ref.forward(x, train=False))
        gin = bn.backward(g_in)
        assert_bytes_equal(gin, ref.backward(gout))
        scale = (bn.gamma / np.sqrt(bn.running_var + nn_core.BN_EPS))[:, None, None]
        assert np.allclose(gin, scale * gout, rtol=1e-15, atol=0)
        assert_bytes_equal(bn.ggamma, ref.ggamma)
        assert_bytes_equal(bn.gbeta, ref.gbeta)


class TestOneLayout:
    """Every CNN activation and gradient is a (b, c, h, w) view of
    channels-last memory, and a layer handed another layout computes the
    same bits from its one channels-last copy."""

    @pytest.mark.parametrize("rows,train", [(640, True), (1, False), (10, False)])
    def test_paper_arch_pass_is_channels_last(self, rows, train):
        net = PolicyNetwork(PolicyArch(), seed=0)
        rng = np.random.default_rng(28)
        x = (rng.random((rows, 3, 9, 9)) < 0.3).astype(np.uint8)
        for layer in net.cnn:
            x = layer.forward(x, train)
            assert is_channels_last(x), type(layer).__name__
        if not train:
            return
        g = rng.normal(size=x.shape)
        for layer in reversed(net.cnn[1:]):
            g = layer.backward(g)
            assert is_channels_last(g), type(layer).__name__
        assert net.cnn[0].backward(g) is None

    LAYERS = {
        "conv-9x9-im2col": (lambda rng: Conv2d(3, 4, rng), (9, 9), True),
        "conv-4x4-unrolled": (lambda rng: Conv2d(3, 4, rng), (4, 4), True),
        "conv-4x4-eval": (lambda rng: Conv2d(3, 4, rng), (4, 4), False),
        "conv-2x2-eval": (lambda rng: Conv2d(3, 4, rng), (2, 2), False),
        "conv-1x1": (lambda rng: Conv2d(3, 4, rng), (1, 1), True),
        "bn-train": (lambda rng: BatchNorm2d(3), (4, 4), True),
        "bn-eval": (lambda rng: BatchNorm2d(3), (2, 3), False),
        "pool-5x4": (lambda rng: MaxPool2d(), (5, 4), True),
        "relu": (lambda rng: ReLU(), (4, 4), True),
    }

    @pytest.mark.parametrize("name", list(LAYERS))
    def test_either_input_layout_gives_the_same_bytes(self, name):
        make, size, train = self.LAYERS[name]
        rng = np.random.default_rng(29)
        x = rng.normal(size=(3, 3) + size)
        base = make(rng)
        layers = {layout: copy.deepcopy(base) for layout in ("nchw", "channels_last")}
        outs, gins = {}, {}
        for layout, layer in layers.items():
            outs[layout] = layer.forward(in_layout(x, layout), train)
            gout = np.random.default_rng(30).normal(size=outs[layout].shape)
            gins[layout] = layer.backward(in_layout(gout, layout))
        assert_bytes_equal(outs["nchw"], outs["channels_last"])
        assert_bytes_equal(gins["nchw"], gins["channels_last"])
        if not isinstance(base, ReLU):
            # ReLU is element-wise and keeps its input's layout
            assert is_channels_last(outs["nchw"]) and is_channels_last(gins["nchw"])
        pairs = zip(layers["nchw"].parameters(), layers["channels_last"].parameters())
        for (_, p, g), (_, q, h) in pairs:
            assert_bytes_equal(p, q)
            assert_bytes_equal(g, h)
        pairs = zip(layers["nchw"].state_arrays(), layers["channels_last"].state_arrays())
        for (_, p), (_, q) in pairs:
            assert_bytes_equal(p, q)


class TestFloat32Layers:
    """A CNN layer handed float32 computes in float32 against its float64
    parameters: its output and input gradient are float32 and agree with
    the float64 pass on the same values to float32 rounding, while its
    parameters, gradients and running statistics stay float64."""

    @pytest.mark.parametrize("name", list(TestOneLayout.LAYERS))
    def test_float32_in_float32_out(self, name):
        make, size, train = TestOneLayout.LAYERS[name]
        rng = np.random.default_rng(32)
        x = rng.normal(size=(3, 3) + size).astype(np.float32)
        layer = make(rng)
        wide = copy.deepcopy(layer)
        out = layer.forward(x, train)
        gout = rng.normal(size=out.shape).astype(np.float32)
        gin = layer.backward(gout)
        assert out.dtype == gin.dtype == np.float32
        assert_close(out, wide.forward(x.astype(np.float64), train), tol=1e-5)
        assert_close(gin, wide.backward(gout.astype(np.float64)), tol=1e-5)
        arrays = [a for _, p, g in layer.parameters() for a in (p, g)]
        arrays += [a for _, a in layer.state_arrays()]
        assert all(a.dtype == np.float64 for a in arrays)


class TestLinear:
    def test_affine_map(self):
        lin = Linear(3, 2, np.random.default_rng(11))
        lin.weight[...] = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
        lin.bias[...] = [0.5, -0.5]
        out = lin.forward(np.array([[1.0, 1.0, 1.0]]))
        assert np.allclose(out, [[1.5, 1.5]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        lin = Linear(5, 4, rng)
        # (rows, features) and (teams, rows, features) take the same code path
        for lead in ((3,), (2, 3)):
            x = rng.normal(size=lead + (5,))
            coef = rng.normal(size=lead + (4,))

            def run():
                lin.gweight[...] = 0.0
                lin.gbias[...] = 0.0
                out = lin.forward(x)
                gin = lin.backward(coef)
                return (out * coef).sum(), [
                    gin.copy(),
                    lin.gweight.copy(),
                    lin.gbias.copy(),
                ]

            assert gradient_check(run, [x, lin.weight, lin.bias]) < 1e-6


class TestGraphFilter:
    def test_single_tap_ignores_shift(self):
        rng = np.random.default_rng(13)
        gf = GraphFilter(3, 2, 1, rng)
        x = rng.normal(size=(4, 3))
        s_dense = rng.normal(size=(4, 4))
        assert np.array_equal(
            gf.forward(x, s_dense), gf.forward(x, np.zeros((4, 4)))
        )
        assert np.allclose(gf.forward(x, s_dense), x @ gf.taps[0])

    def test_two_node_exchange_by_hand(self):
        gf = GraphFilter(1, 1, 2, np.random.default_rng(14))
        gf.taps[...] = 1.0
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.array([[1.0], [2.0]])
        assert np.allclose(gf.forward(x, s), [[3.0], [3.0]])

    def test_zero_shift_uses_only_first_tap(self):
        rng = np.random.default_rng(15)
        gf = GraphFilter(4, 4, 3, rng)
        x = rng.normal(size=(5, 4))
        out = gf.forward(x, np.zeros((5, 5)))
        assert np.allclose(out, x @ gf.taps[0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        gf = GraphFilter(3, 2, 3, rng)
        x = rng.normal(size=(5, 3))
        s = (rng.uniform(size=(5, 5)) < 0.4).astype(np.float64)
        s = np.triu(s, 1)
        s = s + s.T
        coef = rng.normal(size=(5, 2))

        def run():
            gf.gtaps[...] = 0.0
            out = gf.forward(x, s)
            gin = gf.backward(coef)
            return (out * coef).sum(), [gin.copy(), gf.gtaps.copy()]

        assert gradient_check(run, [x, gf.taps]) < 1e-6

        # three teams stacked along a batch axis: (B,N,F) features, (B,N,N) shifts
        xb = rng.normal(size=(3, 5, 3))
        sb = np.stack([s, np.zeros((5, 5)), s[::-1, ::-1]])
        coefb = rng.normal(size=(3, 5, 2))
        stacked = gf.forward(xb, sb)
        for b in range(3):
            assert np.allclose(stacked[b], gf.forward(xb[b], sb[b]), rtol=0, atol=1e-12)

        def run_stacked():
            gf.gtaps[...] = 0.0
            out = gf.forward(xb, sb)
            gin = gf.backward(coefb)
            return (out * coefb).sum(), [gin.copy(), gf.gtaps.copy()]

        assert gradient_check(run_stacked, [xb, gf.taps]) < 1e-6

    def test_shape_mismatch_raises(self):
        gf = GraphFilter(3, 2, 2, np.random.default_rng(17))
        with pytest.raises(ShapeMismatch):
            gf.forward(np.zeros((4, 5)), np.zeros((4, 4)))
        with pytest.raises(ShapeMismatch):
            gf.forward(np.zeros((4, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            gf.forward(np.zeros((2, 4, 3)), np.zeros((4, 4)))


class TestSoftmaxLoss:
    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(6, 5)) * 10
        assert np.allclose(np.exp(log_softmax(x)).sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(softmax(x).sum(axis=1), 1.0, atol=1e-12)

    def test_log_softmax_stable_at_large_values(self):
        x = np.array([[1000.0, 0.0, -1000.0]])
        out = log_softmax(x)
        assert np.isfinite(out).all()

    def test_uniform_logits_loss_ln5(self):
        logits = np.zeros((4, 5))
        labels = one_hot(np.array([0, 1, 2, 3]), 5)
        loss, _ = cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(5), abs=1e-12)

    def test_huge_margin_drives_loss_to_zero(self):
        logits = np.full((2, 5), -100.0)
        logits[:, 3] = 100.0
        labels = one_hot(np.array([3, 3]), 5)
        loss, _ = cross_entropy(logits, labels)
        assert loss < 1e-12

    def test_gradient_formula(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(size=(6, 5))
        labels = one_hot(rng.integers(0, 5, size=6), 5)
        _, grad = cross_entropy(logits, labels)
        assert np.allclose(grad, (softmax(logits) - labels) / 6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        logits = rng.normal(size=(4, 5))
        labels = one_hot(rng.integers(0, 5, size=4), 5)

        def run():
            loss, grad = cross_entropy(logits, labels)
            return loss, [grad.copy()]

        assert gradient_check(run, [logits]) < 1e-6

    def test_one_hot_layout(self):
        oh = one_hot(np.array([2, 0]), 5)
        assert oh.shape == (2, 5)
        assert oh[0, 2] == 1.0 and oh[1, 0] == 1.0
        assert oh.sum() == 2.0


class TestParamStore:
    def build(self):
        rng = np.random.default_rng(21)
        store = ParamStore()
        conv = Conv2d(2, 3, rng)
        bn = BatchNorm2d(3)
        store.add_layer("conv1", conv)
        store.add_layer("bn1", bn)
        return store, conv, bn

    def test_names_and_shapes(self):
        store, conv, _ = self.build()
        assert "conv1.weight" in store.params
        assert "bn1.running_mean" in store.state
        assert store.params["conv1.weight"] is conv.weight

    def test_zero_grads(self):
        store, conv, _ = self.build()
        conv.gweight[...] = 3.0
        store.zero_grads()
        assert not conv.gweight.any()

    def test_check_finite_raises(self):
        store, conv, _ = self.build()
        conv.gweight[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteGradient):
            store.check_finite()

    def test_json_round_trip_is_exact(self):
        store, conv, bn = self.build()
        bn.running_var[...] = (0.1, 0.2, 0.3)
        doc = store.to_jsonable()
        import json

        doc = json.loads(json.dumps(doc))
        store2, conv2, bn2 = self.build()
        conv2.weight[...] = 0.0
        store2.load_jsonable(doc)
        assert np.array_equal(conv2.weight, conv.weight)
        assert np.array_equal(bn2.running_var, bn.running_var)

    def test_load_rejects_bad_shape(self):
        store, _, _ = self.build()
        doc = store.to_jsonable()
        doc["conv1.bias"]["shape"] = [7]
        with pytest.raises(ValueError, match="conv1.bias"):
            store.load_jsonable(doc)

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf])
    def test_load_rejects_non_finite_values(self, bad):
        store, conv, _ = self.build()
        doc = store.to_jsonable()
        if bad is None:
            doc["conv1.weight"]["float64le"] = None
        else:
            values = conv.weight.astype("<f8").ravel()
            values[3] = bad
            doc["conv1.weight"]["float64le"] = base64.b64encode(values.tobytes()).decode()
        with pytest.raises((TypeError, ValueError), match="conv1.weight"):
            store.load_jsonable(doc)

    def test_load_rejects_missing_names(self):
        store, _, _ = self.build()
        doc = store.to_jsonable()
        del doc["conv1.bias"]
        with pytest.raises(ValueError, match="conv1.bias"):
            store.load_jsonable(doc)

    @pytest.mark.parametrize("pick", [0, 3, -1], ids=["first", "middle", "last"])
    def test_a_refused_load_changes_nothing(self, pick):
        store, _, _ = self.build()
        arrays = {**store.params, **store.state}
        before = {name: arr.tobytes() for name, arr in arrays.items()}
        # every entry holds other values than the store's; one is cut short
        doc = encode_arrays({name: arr + 1.0 for name, arr in arrays.items()})
        broken = list(doc)[pick]
        text = doc[broken]["float64le"]
        doc[broken]["float64le"] = text[:-12]
        with pytest.raises(ValueError, match=broken):
            store.load_jsonable(doc)
        for name, arr in arrays.items():
            assert arr.tobytes() == before[name], name
        doc[broken]["float64le"] = text
        store.load_jsonable(doc)
        assert all(arr.tobytes() != before[name] for name, arr in arrays.items())


class TestInit:
    def test_uniform_bound(self):
        rng = np.random.default_rng(22)
        arr = uniform_init(rng, (1000,), 16)
        assert np.abs(arr).max() <= 0.25
        assert np.abs(arr).max() > 0.2
