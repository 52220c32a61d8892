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
ParamStore lets Conv2d and BatchNorm2d keep those casts and the operands
derived from them between calls (see ParamStore).
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
    """Operands a layer's forward derives from its parameter and state
    arrays (casts, placed matrices, spread vectors), kept per key while
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
def _landing(h: int, w: int) -> np.ndarray:
    """Int table (3, n) of the (input cell, output cell, tap) triples where a
    3x3 tap lands on a real cell of an h x w map.

    Input cell (yi, xi) lies in output cell (yo, xo)'s window at tap
    (yi-yo+1, xi-xo+1); cells are numbered y*w + x and taps ky*3 + kx. The
    triples are ordered by tap, and within a tap by (yi, xi, yo, xo). Built
    once per shape and shared, so it is read-only.
    """
    yi, xi, yo, xo = np.indices((h, w, h, w)).reshape(4, -1)
    ky, kx = yi - yo + 1, xi - xo + 1
    lands = (ky >= 0) & (ky < 3) & (kx >= 0) & (kx < 3)
    table = np.stack([yi * w + xi, yo * w + xo, ky * 3 + kx])[:, lands]
    table = table[:, np.argsort(table[2], kind="stable")]
    table.flags.writeable = False
    return table


@functools.cache
def _windows(h: int, w: int, c: int) -> np.ndarray:
    """Int index (h*w, c*9) into a flattened zero-padded channels-last
    (h+2, w+2, c) map: row y*w + x lists cell (y, x)'s 3x3 window in the
    weight's (ci, ky, kx) order. Built on first use per shape and shared,
    so it is read-only."""
    y, x, ci, ky, kx = np.indices((h, w, c, 3, 3))
    index = (((y + ky) * (w + 2) + x + kx) * c + ci).reshape(h * w, c * 9)
    index.flags.writeable = False
    return index


def _channels_last(x: np.ndarray) -> np.ndarray:
    """The C-contiguous (b, h, w, c) memory of a (b, c, h, w) array. Every
    CNN activation and gradient is a view of such memory, which this returns
    without a copy; an array stored in another layout is copied once."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


class Conv2d:
    """3x3 cross-correlation, stride 1, zero padding 1; spatial size preserved.

    Two paths, chosen by the map's cell count and the train flag alone, never
    by the batch size. Unrolled: the taps that land on real cells (the
    _landing table) are placed into a zeroed (h*w*c, h*w*c_out) matrix with
    rows ordered (yi, xi, ci) and columns (yo, xo, co), the channels-last
    input rows take one dense GEMM with it, and backward sums each tap's
    landed (c, c_out) blocks of the unrolled gradient in table order. On a
    1x1 map only the centre tap lands, so the unrolled weight is that slice
    of the weight, transposed. im2col: every cell's zero-padded 3x3
    neighbourhood, gathered from a padded buffer by one cached index (see
    _windows), becomes one row of a batched GEMM with the weight.

    A map with fewer cells than the kernel has taps (h*w < 9) always
    unrolls, since most im2col taps would multiply padding. A train forward
    also unrolls a map of up to 16 cells (the 4x4 maps after the first
    pool): at training batch sizes the one wide GEMM beats im2col's window
    copy and narrow per-row GEMMs despite its extra zero taps. An eval
    forward keeps im2col there, because a few-row step would read a large
    matrix for little work. Larger maps always run im2col.

    Both paths read channels-last input rows and write channels-last output
    rows, so the output and the input gradient are (b, c, h, w) views of
    channels-last memory; an input or gradient in another layout is copied
    once (im2col's padding copy takes any input as it is).

    Both paths compute in the input's dtype, float32 for integer input: the
    weight and bias are cast to it for the pass, and the unrolled matrix is
    placed in it. Backward computes in the gradient's dtype and adds into the
    float64 parameter gradients.

    While the weight and bias are read-only (ParamStore.freeze), a forward
    keeps the weight operand and the cast bias it derives, per path, map
    shape and dtype, and reuses them; while they are writable it derives
    them on every call.

    With needs_input_grad False (a layer whose input is data rather than an
    activation), backward accumulates the parameter gradients only and
    returns None.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        fan_in = c_in * 9
        self.weight = uniform_init(rng, (c_out, c_in, 3, 3), fan_in)
        self.bias = uniform_init(rng, (c_out,), fan_in)
        self.gweight = np.zeros_like(self.weight)
        self.gbias = np.zeros_like(self.bias)
        self.needs_input_grad = True
        self.kept = _Kept(self.weight, self.bias)
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
        unroll = h * w < 9 or (train and h * w <= 16)
        weight, bias = self.kept.get(
            (unroll, h, w, dtype), lambda: self._operands(unroll, h, w, dtype)
        )
        if unroll:
            rows = _channels_last(x).reshape(b, h * w * c).astype(dtype, copy=False)
            # numpy sends a one-row product to gemv, which rounds differently
            # from gemm; two copies of the row keep it on gemm, so a robot's
            # features do not depend on the batch it is encoded in
            out = ((np.repeat(rows, 2, axis=0) if b == 1 else rows) @ weight)[:b]
            # (flattened input rows or im2col columns, input shape, unrolled weight)
            self._cache = (rows, x.shape, weight)
        else:
            # channels-last padding: each cell's window is already (c, 3, 3) in order
            padded = np.zeros((b, h + 2, w + 2, c), dtype)
            padded[:, 1:-1, 1:-1] = x.transpose(0, 2, 3, 1)
            cols = padded.reshape(b, -1).take(_windows(h, w, c), axis=1)
            out = cols @ weight
            self._cache = (cols, x.shape, None)
        out = out.reshape(b, h, w, c_out)
        out += bias
        return out.transpose(0, 3, 1, 2)

    def _operands(self, unroll: bool, h: int, w: int, dtype) -> tuple:
        """(weight operand, bias) of a forward on an h x w map in dtype."""
        bias = self.bias.astype(dtype, copy=False)
        c_out, c = self.weight.shape[:2]
        if not unroll:
            return self.weight.reshape(c_out, c * 9).T.astype(dtype, copy=False), bias
        return self._unrolled_weight(h, w, dtype), bias

    def _unrolled_weight(self, h: int, w: int, dtype) -> np.ndarray:
        # every result is contiguous, so that every batch size takes the same
        # gemm kernel; placing and slicing copy the weight's values, so a
        # float32 matrix is the float64 one rounded entry by entry
        if h * w == 1:
            return np.ascontiguousarray(self.weight[:, :, 1, 1].T, dtype=dtype)
        c_out, c = self.weight.shape[:2]
        cell_in, cell_out, tap = _landing(h, w)
        # (yi, xi), ci, (yo, xo), co: already rows (yi, xi, ci), columns (yo, xo, co)
        unrolled = np.zeros((h * w, c, h * w, c_out), dtype)
        unrolled[cell_in, :, cell_out, :] = self.weight.reshape(c_out, c, 9).T[tap]
        return unrolled.reshape(h * w * c, h * w * c_out)

    def backward(self, gout: np.ndarray) -> np.ndarray | None:
        inputs, (b, c, h, w), unrolled = self._cache
        c_out = self.weight.shape[0]
        g = _channels_last(gout).reshape(b, h * w, c_out)
        self.gbias += np.einsum("bsc->c", g)
        if unrolled is not None:
            g2 = g.reshape(b, h * w * c_out)
            cell_in, cell_out, tap = _landing(h, w)
            landed = (inputs.T @ g2).reshape(h * w, c, h * w, c_out)[cell_in, :, cell_out, :]
            # each tap's blocks summed one by one in table order: the rounding
            # then depends on no BLAS blocking of the reduction
            gtaps = np.stack([landed[tap == k].sum(axis=0) for k in range(9)])
            self.gweight += gtaps.T.reshape(self.weight.shape)
            if not self.needs_input_grad:
                return None
            return (g2 @ unrolled.T).reshape(b, h, w, c).transpose(0, 3, 1, 2)
        self.gweight += np.tensordot(g, inputs, axes=([0, 1], [0, 1])).reshape(
            self.weight.shape
        )
        if not self.needs_input_grad:
            return None
        weight = self.weight.reshape(c_out, c * 9).astype(g.dtype, copy=False)
        gcols = (g @ weight).reshape(b, h, w, c, 3, 3)
        gpad = np.zeros((b, h + 2, w + 2, c), g.dtype)
        for di in range(3):
            for dj in range(3):
                gpad[:, di : di + h, dj : dj + w] += gcols[..., di, dj]
        return np.ascontiguousarray(gpad[:, 1:-1, 1:-1]).transpose(0, 3, 1, 2)


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
    ((x - running_mean) * inv_std) * gamma + beta; while gamma, beta and the
    running statistics are read-only (ParamStore.freeze) it keeps those four
    spread vectors per map shape and dtype.

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
        self.kept = _Kept(self.gamma, self.beta, self.running_mean, self.running_var)
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
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            scale, gamma, beta = spread(inv_std), spread(self.gamma), spread(self.beta)
        else:
            mean, scale, gamma, beta, inv_std = self.kept.get(
                (*x.shape[2:], x.dtype), lambda: self._eval_operands(spread)
            )
            xhat = rows - mean
        xhat *= scale
        self._cache = (shaped(xhat), inv_std, train)
        out = xhat * gamma
        out += beta
        return shaped(out)

    def _eval_operands(self, spread) -> tuple:
        """An eval forward's spread running mean, inverse std, gamma and
        beta, and the (c,) inverse std its backward reads."""
        inv_std = 1.0 / np.sqrt(self.running_var + BN_EPS)
        return (
            spread(self.running_mean),
            spread(inv_std),
            spread(self.gamma),
            spread(self.beta),
            inv_std,
        )

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
