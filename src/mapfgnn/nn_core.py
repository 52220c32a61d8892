"""Minimal differentiable numeric core on numpy.

The network architecture is fixed, so there is no general autodiff tape:
each layer caches what its hand-derived backward pass needs. Backward
passes are exact gradients of forward, which gradient_check verifies
against central finite differences in float64.

Parameters, their gradients and the BatchNorm running statistics are
float64 (the master weights the optimizer updates and the weights file
holds). A CNN layer computes in its input's dtype: it casts its parameters
to that dtype for the pass and adds its parameter gradients into the
float64 gradient arrays. Integer input (the uint8 observations) enters
Conv2d as float32, so the policy's CNN runs in float32 and float64 input
runs float64 arithmetic throughout. Linear and GraphFilter take any float
input and compute in float64 with their float64 parameters. A frozen
ParamStore lets Conv2d keep the band and bias it derives from its weights,
and in eval mode from its BatchNorm's arrays too, between calls (see
ParamStore).
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict

import numpy as np

from .errors import NonFiniteGradient, ShapeMismatch
from .jsonio import encode_arrays, read_arrays

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ParamStore:
    """Flat named view of a pipeline's parameters, gradients, and state.

    Arrays are shared with the owning layers, so in-place optimizer updates
    propagate; nothing here may rebind an array. Its JSON form is the
    parameter and state arrays in jsonio.encode_arrays's entries, which hold
    each array's exact bits.

    freeze makes every parameter and state array read-only; while a layer's
    arrays are read-only it keeps the operands its forward derives from them
    (see _Kept) instead of rebuilding them per call. Any write to a frozen
    array raises numpy's read-only ValueError, so a kept operand cannot go
    stale. thaw makes the arrays writable again and drops every kept
    operand; assign (a weights load) thaws first. Gradients are never
    frozen.
    """

    def __init__(self):
        self.params: OrderedDict[str, np.ndarray] = OrderedDict()
        self.grads: OrderedDict[str, np.ndarray] = OrderedDict()
        self.state: OrderedDict[str, np.ndarray] = OrderedDict()
        # the _Kept of every layer whose forward derives operands from its arrays
        self.kept: list[_Kept] = []

    def add_layer(self, prefix: str, layer) -> None:
        for name, param, grad in layer.parameters():
            key = f"{prefix}.{name}"
            if key in self.params:
                raise ValueError(f"duplicate parameter {key}")
            self.params[key] = param
            self.grads[key] = grad
        for name, arr in layer.state_arrays():
            self.state[f"{prefix}.{name}"] = arr
        if hasattr(layer, "kept"):
            self.kept.append(layer.kept)

    def freeze(self) -> None:
        for arr in (*self.params.values(), *self.state.values()):
            arr.flags.writeable = False

    def thaw(self) -> None:
        for arr in (*self.params.values(), *self.state.values()):
            arr.flags.writeable = True
        for kept in self.kept:
            kept.clear()

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def check_finite(self) -> None:
        for name, g in self.grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteGradient(f"gradient {name} is not finite")

    def shapes(self) -> dict:
        """name -> shape of every parameter and state array, in to_jsonable's order."""
        return {name: arr.shape for name, arr in {**self.params, **self.state}.items()}

    def to_jsonable(self) -> dict:
        return encode_arrays({**self.params, **self.state})

    def load_jsonable(self, doc: dict) -> None:
        """Restore what to_jsonable wrote, all or nothing: a doc
        jsonio.read_arrays refuses raises KeyError, TypeError or ValueError
        before any array changes."""
        self.assign(read_arrays(doc, self.shapes()))

    def assign(self, values: dict) -> None:
        """Thaw, then write each named array of values (as read_arrays
        returns them) in place."""
        self.thaw()
        arrays = {**self.params, **self.state}
        for name, value in values.items():
            arrays[name][...] = value


class _Kept:
    """Operands a layer's forward derives from parameter and state arrays
    (placed band matrices, folded and cast biases), kept per key while
    every one of those arrays is read-only.

    While any source array is writable, get builds the operands afresh and
    keeps nothing. Kept operands are read-only and shared between calls.
    ParamStore.thaw makes the source arrays writable again and clears what
    was kept.
    """

    def __init__(self, *sources: np.ndarray):
        self.sources = sources
        self.operands: dict = {}

    def get(self, key, build):
        """build()'s tuple of arrays, or the tuple kept under key."""
        if any(arr.flags.writeable for arr in self.sources):
            return build()
        operands = self.operands.get(key)
        if operands is None:
            operands = build()
            for arr in operands:
                arr.flags.writeable = False
            self.operands[key] = operands
        return operands

    def clear(self) -> None:
        self.operands.clear()


@functools.cache
def _taps(w: int) -> np.ndarray:
    """Int table (3, n) of the (input column, output column, tap column)
    triples where a 3x3 tap lands on a real column of a w-column map.

    Input column xi lies in output column xo's window at tap column
    xi-xo+1. The triples are ordered by tap column, and within one by
    (xi, xo). Built once per width and shared, so it is read-only.
    """
    xi, xo = np.indices((w, w)).reshape(2, -1)
    kx = xi - xo + 1
    lands = (kx >= 0) & (kx < 3)
    table = np.stack([xi, xo, kx])[:, lands]
    table = table[:, np.argsort(table[2], kind="stable")]
    table.flags.writeable = False
    return table


def _row_windows(h: int, width: int):
    """(y, rows, band rows) per row y of an h-row map: rows is the slice of
    the rows y-1..y+1 that exist, and band rows the slice of a band whose
    blocks are width rows long that meets them (see Conv2d)."""
    for y in range(h):
        lo, hi = max(y - 1, 0), min(y + 2, h)
        yield y, slice(lo, hi), slice((lo - y + 1) * width, (hi - y + 1) * width)


def _channels_last(x: np.ndarray) -> np.ndarray:
    """The C-contiguous (b, h, w, c) memory of a (b, c, h, w) array. Every
    CNN activation and gradient is a view of such memory, which this returns
    without a copy; an array stored in another layout is copied once."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


class Conv2d:
    """3x3 cross-correlation, stride 1, zero padding 1; spatial size preserved.

    One banded GEMM per output row, for every map size, mode and batch
    size. The layer places its weight into a band matrix (3*w*c, w*c_out)
    with rows ordered (ky, xi, ci) and columns (xo, co), from the cached
    tap table of the (xi, xo, kx) triples that land on real columns (see
    _taps). Output row yo is the channels-last input rows yo-1..yo+1, a
    strided slice of the input taken without a copy, times the band; an
    edge row, with one input row missing, meets a row slice of the same
    band. Each product is written into its row of the channels-last
    output, so the output is a (b, c, h, w) view of channels-last memory.
    An input in another layout or dtype is copied once.

    Backward takes the same slices. The band gradient accumulates one
    output row's product at a time, in row order, and folds onto the 3x3
    taps by summing each tap column's landed (c, c_out) blocks in table
    order. The input gradient reads the band transposed and flipped in ky,
    one GEMM per input row. With needs_input_grad False (a layer whose
    input is data rather than an activation), backward accumulates the
    parameter gradients only and returns None.

    A forward computes in the input's dtype, float32 for integer input: the
    band is placed in it, so each float32 entry is one weight rounded once,
    and the bias is cast to it. Backward computes in the gradient's dtype
    and adds into the float64 parameter gradients.

    A conv built with the BatchNorm2d that follows it (bn) computes both
    layers in an eval forward: its band holds W*a and its bias is
    (b - running_mean)*a + beta, where a = gamma/sqrt(running_var + eps),
    computed in float64 and cast once (Ioffe and Szegedy, 2015). Such a
    forward keeps nothing for backward, which then raises. A train forward
    computes the conv alone.

    While the weight and bias, and the linked BatchNorm's four arrays, are
    read-only (ParamStore.freeze), a forward keeps the band and bias it
    derives per map width, dtype and fold, and reuses them; while any is
    writable it derives them on every call.
    """

    def __init__(
        self, c_in: int, c_out: int, rng: np.random.Generator, bn: BatchNorm2d | None = None
    ):
        fan_in = c_in * 9
        self.weight = uniform_init(rng, (c_out, c_in, 3, 3), fan_in)
        self.bias = uniform_init(rng, (c_out,), fan_in)
        self.gweight = np.zeros_like(self.weight)
        self.gbias = np.zeros_like(self.bias)
        self.needs_input_grad = True
        self.bn = bn
        norm = () if bn is None else (bn.gamma, bn.beta, bn.running_mean, bn.running_var)
        self.kept = _Kept(self.weight, self.bias, *norm)
        self._cache = None

    def parameters(self):
        return [("weight", self.weight, self.gweight), ("bias", self.bias, self.gbias)]

    def state_arrays(self):
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.weight.shape[1]:
            raise ShapeMismatch(
                f"conv2d expects (B,{self.weight.shape[1]},H,W), got {x.shape}"
            )
        b, c, h, w = x.shape
        c_out = self.weight.shape[0]
        # a float input's own dtype; integer input (observation windows) is float32
        dtype = x.dtype if x.dtype.kind == "f" else np.dtype(np.float32)
        fold = self.bn is not None and not train
        band, bias = self.kept.get((fold, w, dtype), lambda: self._operands(fold, w, dtype))
        # numpy sends a one-row product to gemv, which rounds differently
        # from gemm; two copies of the row keep it on gemm, so a robot's
        # features do not depend on the batch it is encoded in
        n = max(b, 2)
        cells = x.transpose(0, 2, 3, 1)
        if n != b or cells.dtype != dtype or not cells.flags.c_contiguous:
            cells = np.broadcast_to(cells, (n, h, w, c)).astype(dtype, order="C")
        rows = cells.reshape(n, h, w * c)
        out = np.empty((n, h, w * c_out), dtype)
        for y, window, band_rows in _row_windows(h, w * c):
            np.matmul(rows[:, window].reshape(n, -1), band[band_rows], out=out[:, y])
        out = out[:b].reshape(b, h, w, c_out)
        out += bias
        # (input rows, input shape, band)
        self._cache = None if fold else (rows[:b], x.shape, band)
        return out.transpose(0, 3, 1, 2)

    def _operands(self, fold: bool, w: int, dtype) -> tuple:
        """(band, bias) of a forward on a w-column map in dtype; with fold,
        those of this conv and its BatchNorm's eval transform."""
        weight, bias = self.weight, self.bias
        if fold:
            bn = self.bn
            scale = bn.gamma / np.sqrt(bn.running_var + BN_EPS)
            weight = weight * scale[:, None, None, None]
            bias = (bias - bn.running_mean) * scale + bn.beta
        c_out, c = weight.shape[:2]
        xi, xo, kx = _taps(w)
        band = np.zeros((3, w, c, w, c_out), dtype)
        # (kx, ky, ci, co) taps: one (ky, ci, co) stack per landing triple
        band[:, xi, :, xo, :] = weight.transpose(3, 2, 1, 0)[kx]
        return band.reshape(3 * w * c, w * c_out), bias.astype(dtype, copy=False)

    def backward(self, gout: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("conv2d backward needs a forward of the conv alone first")
        rows, (b, c, h, w), band = self._cache
        c_out = self.weight.shape[0]
        g = _channels_last(gout).reshape(b, h, w * c_out)
        self.gbias += np.einsum("bsc->c", g.reshape(b, h * w, c_out))
        gband = np.zeros(band.shape, g.dtype)
        for y, window, band_rows in _row_windows(h, w * c):
            gband[band_rows] += rows[:, window].reshape(b, -1).T @ g[:, y]
        xi, xo, kx = _taps(w)
        landed = gband.reshape(3, w, c, w, c_out)[:, xi, :, xo, :]
        # each tap column's blocks summed one by one in table order: the
        # rounding then depends on no BLAS blocking of the reduction
        gtaps = np.stack([landed[kx == k].sum(axis=0) for k in range(3)])
        self.gweight += gtaps.transpose(3, 2, 1, 0)
        if not self.needs_input_grad:
            return None
        # block ky of the band, transposed, meets output row yi - ky + 1
        flipped = band.astype(g.dtype, copy=False).reshape(3, w * c, w * c_out)[::-1]
        flipped = np.ascontiguousarray(flipped.transpose(0, 2, 1)).reshape(3 * w * c_out, w * c)
        gin = np.empty((b, h, w * c), g.dtype)
        for y, window, band_rows in _row_windows(h, w * c_out):
            np.matmul(g[:, window].reshape(b, -1), flipped[band_rows], out=gin[:, y])
        return gin.reshape(b, h, w, c).transpose(0, 3, 1, 2)


def _per_channel(x: np.ndarray):
    """BatchNorm2d's element-wise view of a channels-last x: (rows, spread, shaped).

    rows is x as (b, h*w*c) rows in memory order, spread(v) lays a
    per-channel vector out along such a row in x's dtype (the whole vector
    h*w times over, so float64 parameters and statistics meet float32
    activations as float32), and shaped(r) turns rows of that layout back
    into a (b, c, h, w) view. A pass then runs one long inner loop instead
    of broadcasting a (c,) vector over short rows of c.
    """
    b, c, h, w = x.shape
    return (
        x.transpose(0, 2, 3, 1).reshape(b, -1),
        lambda v: np.repeat(v[None].astype(x.dtype, copy=False), h * w, axis=0).ravel(),
        lambda r: r.reshape(b, h, w, c).transpose(0, 3, 1, 2),
    )


class BatchNorm2d:
    """Per-channel normalization over (batch, height, width).

    Input and gradient are taken channels-last (see _channels_last), and
    statistics and gradients reduce with einsum over them as they lie in
    memory. Forward centres the input into one buffer, normalises it there
    in place (it is the xhat backward needs) and writes the output once;
    backward builds the input gradient in one buffer. The element-wise
    passes run over long rows (see _per_channel). Eval mode is element-wise:
    ((x - running_mean) * inv_std) * gamma + beta. The policy's CNN never
    runs it: each of its convs folds its BatchNorm's eval transform into its
    own eval operands (see Conv2d).

    The element-wise passes run in the input's dtype. The batch mean and
    variance accumulate in float64, the running statistics' dtype: a
    float32 sum over a 640-row batch's 51,840 cells of a 9x9 map can lose
    1e-4 of a channel mean that is small beside its values.
    """

    def __init__(self, channels: int):
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def parameters(self):
        return [("gamma", self.gamma, self.ggamma), ("beta", self.beta, self.gbeta)]

    def state_arrays(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.gamma.shape[0]:
            raise ShapeMismatch(
                f"batchnorm2d expects (B,{self.gamma.shape[0]},H,W), got {x.shape}"
            )
        x = _channels_last(x).transpose(0, 3, 1, 2)
        rows, spread, shaped = _per_channel(x)
        if train:
            m = x.size // x.shape[1]
            mean = np.einsum("bchw->c", x, dtype=np.float64) / m
            xhat = rows - spread(mean)
            centred = shaped(xhat)
            var = np.einsum("bchw,bchw->c", centred, centred, dtype=np.float64) / m
            unbiased = var * m / (m - 1) if m > 1 else var
            self.running_mean[...] = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var[...] = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * unbiased
        else:
            mean, var = self.running_mean, self.running_var
            xhat = rows - spread(mean)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= spread(inv_std)
        self._cache = (shaped(xhat), inv_std, train)
        out = xhat * spread(self.gamma)
        out += spread(self.beta)
        return shaped(out)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        xhat, inv_std, train = self._cache
        gout = _channels_last(gout).transpose(0, 3, 1, 2)
        gsum = np.einsum("bchw->c", gout)
        gxsum = np.einsum("bchw,bchw->c", gout, xhat)
        self.gbeta += gsum
        self.ggamma += gxsum
        grows, spread, shaped = _per_channel(gout)
        scale = spread(self.gamma * inv_std)
        if not train:
            return shaped(grows * scale)
        m = xhat.size // xhat.shape[1]
        # scale * (gout - (gsum + xhat * gxsum) / m), built in one buffer
        gin = _per_channel(xhat)[0] * spread(gxsum)
        gin += spread(gsum)
        gin /= m
        np.subtract(grows, gin, out=gin)
        gin *= scale
        return shaped(gin)


class ReLU:
    """max(x, 0); backward passes the gradient where the input was positive.

    Only a train forward keeps the mask backward reads; after an eval
    forward, backward raises.

    The gradient is gout * mask rather than a select: a multiply has no
    branch on a random mask. It equals the select except that a masked
    cell holds -0.0 where gout was negative, and NaN where gout was not
    finite.
    """

    def __init__(self):
        self._mask = None

    def parameters(self):
        return []

    def state_arrays(self):
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._mask = x > 0 if train else None
        return np.maximum(x, 0.0)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("relu backward needs a train-mode forward first")
        return gout * self._mask


# window cell of each (row, column) offset in a 2x2 window, in row-major
# order, shaped to broadcast over a (b, ho, 2, wo, 2, c) view; int8 like
# the pool's argmax index, so the comparison needs no cast
_WINDOW_CELL = np.arange(4, dtype=np.int8).reshape(2, 1, 2, 1)


class MaxPool2d:
    """2x2 window, stride 2, floor boundary (odd trailing row/col dropped).

    Ties inside a window resolve to the first cell in row-major order.

    The window slices run on channels-last memory (see _channels_last), where
    numpy's inner loop runs over the channels instead of over a few cells of
    a row. The output and the input gradient are channels-last.

    Only a train forward finds each window's argmax, and it caches that
    index, not the activation; an eval forward clears the cache, so a
    backward after it raises.
    """

    def __init__(self):
        self._cache = None

    def parameters(self):
        return []

    def state_arrays(self):
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[2] < 2 or x.shape[3] < 2:
            raise ShapeMismatch(f"maxpool2d expects (B,C,H>=2,W>=2), got {x.shape}")
        ho, wo = x.shape[2] // 2, x.shape[3] // 2
        cells = _channels_last(x)
        nw, ne, sw, se = (cells[:, i : 2 * ho : 2, j : 2 * wo : 2] for i in (0, 1) for j in (0, 1))
        top, bottom = np.maximum(nw, ne), np.maximum(sw, se)
        self._cache = None
        if train:
            # index of the first cell, in row-major order, holding the maximum:
            # top_idx where top >= bottom, else bottom_idx, picked by
            # arithmetic, since a select on a random condition branches
            top_idx = (nw < ne).view(np.int8)
            bottom_idx = (sw < se).view(np.int8) + 2
            idx = bottom_idx - (top >= bottom) * (bottom_idx - top_idx)
            self._cache = (idx, x.shape)
        return np.maximum(top, bottom, out=top).transpose(0, 3, 1, 2)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("maxpool2d backward needs a train-mode forward first")
        idx, (b, c, h, w) = self._cache
        ho, wo = idx.shape[1:3]
        gin = np.zeros((b, h, w, c), gout.dtype)
        # splitting the row and column axes of the windowed part is a view;
        # an odd trailing row or column keeps its zeros
        windows = gin[:, : 2 * ho, : 2 * wo].reshape(b, ho, 2, wo, 2, c)
        g = gout.transpose(0, 2, 3, 1)[:, :, None, :, None]
        np.multiply(g, idx[:, :, None, :, None] == _WINDOW_CELL, out=windows)
        return gin.transpose(0, 3, 1, 2)


class Linear:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.weight = uniform_init(rng, (n_out, n_in), n_in)
        self.bias = uniform_init(rng, (n_out,), n_in)
        self.gweight = np.zeros_like(self.weight)
        self.gbias = np.zeros_like(self.bias)
        self._x = None

    def parameters(self):
        return [("weight", self.weight, self.gweight), ("bias", self.bias, self.gbias)]

    def state_arrays(self):
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Affine map over the last axis of (..., n_in) input."""
        if x.ndim < 2 or x.shape[-1] != self.weight.shape[1]:
            raise ShapeMismatch(
                f"linear expects (...,{self.weight.shape[1]}), got {x.shape}"
            )
        self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, gout: np.ndarray) -> np.ndarray:
        rows = gout.reshape(-1, gout.shape[-1])
        self.gweight += rows.T @ self._x.reshape(-1, self._x.shape[-1])
        self.gbias += rows.sum(axis=0)
        return gout @ self.weight


class GraphFilter:
    """Polynomial graph convolution sum_k S^k X A_k with learnable taps A_k.

    Forward applies S once per tap to the previous shifted signal (one
    neighborhood exchange each), so tap k only mixes information from within
    k hops; backward runs the same exchanges with S^T, nested Horner-style.
    S itself is constant data, not a parameter. One code path takes a single
    team, (N,F) features with an (N,N) shift operator, and stacked teams,
    (B,N,F) with (B,N,N); tap gradients sum over every row of every team.
    """

    def __init__(self, f_in: int, g_out: int, taps: int, rng: np.random.Generator):
        if taps < 1:
            raise ValueError("need at least one tap")
        self.taps = uniform_init(rng, (taps, f_in, g_out), f_in * taps)
        self.gtaps = np.zeros_like(self.taps)
        self._cache = None

    def parameters(self):
        return [("taps", self.taps, self.gtaps)]

    def state_arrays(self):
        return []

    def forward(self, x: np.ndarray, s: np.ndarray, train: bool = True) -> np.ndarray:
        k, f_in, _ = self.taps.shape
        if x.ndim < 2 or x.shape[-1] != f_in:
            raise ShapeMismatch(f"graph_filter expects (...,N,{f_in}), got {x.shape}")
        if s.shape != x.shape[:-1] + x.shape[-2:-1]:
            raise ShapeMismatch(
                f"shift operator {s.shape} does not match features {x.shape}"
            )
        shifted = [x]
        for _ in range(1, k):
            shifted.append(s @ shifted[-1])
        out = shifted[0] @ self.taps[0]
        for i in range(1, k):
            out += shifted[i] @ self.taps[i]
        self._cache = (shifted, s)
        return out

    def backward(self, gout: np.ndarray) -> np.ndarray:
        shifted, s = self._cache
        k, f_in, g_out = self.taps.shape
        grows = gout.reshape(-1, g_out)
        for i in range(k):
            self.gtaps[i] += shifted[i].reshape(-1, f_in).T @ grows
        s_t = np.swapaxes(s, -1, -2)
        gx = gout @ self.taps[k - 1].T
        for i in range(k - 2, -1, -1):
            gx = s_t @ gx + gout @ self.taps[i].T
        return gx


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, stabilized by subtracting the row max."""
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(x: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(x))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels.ravel()] = 1.0
    return out.reshape(*labels.shape, num_classes)


def softmax_nll(logits: np.ndarray, labels_onehot: np.ndarray):
    """Summed negative log-likelihood over every row of (..., A) logits, and
    its gradient w.r.t. the logits, softmax - label."""
    if logits.shape != labels_onehot.shape:
        raise ShapeMismatch(f"logits {logits.shape} vs labels {labels_onehot.shape}")
    logp = log_softmax(logits)
    return -(labels_onehot * logp).sum(), np.exp(logp) - labels_onehot


def cross_entropy(logits: np.ndarray, labels_onehot: np.ndarray):
    """Mean negative log-likelihood over rows.

    Returns (loss, gradient w.r.t. logits); gradient = (softmax - label) / N.
    """
    n = logits.shape[0]
    loss, grad = softmax_nll(logits, labels_onehot)
    return loss / n, grad / n


def gradient_check(
    func,
    arrays,
    h: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
    guard: float = 1e-3,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    func() -> (scalar loss, [gradient per array]); it must read the arrays
    in place so coordinate perturbations take effect. The relative error is
    |a - n| / max(|a| + |n|, guard); the guard keeps near-zero coordinates
    from amplifying finite-difference noise.
    """
    _, grads = func()
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        coords = np.arange(arr.size)
        if max_coords is not None and arr.size > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(arr.size, size=max_coords, replace=False)
        flat = arr.ravel()
        gflat = np.asarray(grad).ravel()
        for j in coords:
            orig = flat[j]
            flat[j] = orig + h
            up, _ = func()
            flat[j] = orig - h
            down, _ = func()
            flat[j] = orig
            numeric = (up - down) / (2 * h)
            analytic = gflat[j]
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), guard)
            worst = max(worst, rel)
    return worst
