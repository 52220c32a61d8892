"""Minimal differentiable numeric core on float64 numpy.

The network architecture is fixed, so there is no general autodiff tape:
each layer caches what its hand-derived backward pass needs. All layers
operate on 64-bit reals; backward passes are exact gradients of forward,
which gradient_check verifies against central finite differences.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteGradient, ShapeMismatch

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ParamStore:
    """Flat named view of a pipeline's parameters, gradients, and state.

    Arrays are shared with the owning layers, so in-place optimizer updates
    propagate; nothing here may rebind an array.
    """

    def __init__(self):
        self.params: OrderedDict[str, np.ndarray] = OrderedDict()
        self.grads: OrderedDict[str, np.ndarray] = OrderedDict()
        self.state: OrderedDict[str, np.ndarray] = OrderedDict()

    def add_layer(self, prefix: str, layer) -> None:
        for name, param, grad in layer.parameters():
            key = f"{prefix}.{name}"
            if key in self.params:
                raise ValueError(f"duplicate parameter {key}")
            self.params[key] = param
            self.grads[key] = grad
        for name, arr in layer.state_arrays():
            self.state[f"{prefix}.{name}"] = arr

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def check_finite(self) -> None:
        for name, g in self.grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteGradient(f"gradient {name} is not finite")

    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def to_jsonable(self) -> dict:
        doc = {}
        for name, arr in list(self.params.items()) + list(self.state.items()):
            doc[name] = {"shape": list(arr.shape), "values": arr.ravel().tolist()}
        return doc

    def load_jsonable(self, doc: dict) -> None:
        targets = dict(self.params)
        targets.update(self.state)
        missing = set(targets) - set(doc)
        extra = set(doc) - set(targets)
        if missing or extra:
            raise ShapeMismatch(
                f"weight names differ: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for name, arr in targets.items():
            entry = doc[name]
            if tuple(entry["shape"]) != arr.shape:
                raise ShapeMismatch(
                    f"{name}: stored shape {entry['shape']} vs expected {arr.shape}"
                )
            arr[...] = np.asarray(entry["values"], dtype=np.float64).reshape(arr.shape)


class Conv2d:
    """3x3 cross-correlation, stride 1, zero padding 1; spatial size preserved."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        fan_in = c_in * 9
        self.weight = uniform_init(rng, (c_out, c_in, 3, 3), fan_in)
        self.bias = uniform_init(rng, (c_out,), fan_in)
        self.gweight = np.zeros_like(self.weight)
        self.gbias = np.zeros_like(self.bias)
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
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        windows = sliding_window_view(padded, (3, 3), axis=(2, 3))
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, h * w, c * 9)
        wmat = self.weight.reshape(self.weight.shape[0], c * 9)
        out = cols @ wmat.T + self.bias
        self._cache = (cols, x.shape)
        return out.transpose(0, 2, 1).reshape(b, -1, h, w)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        cols, (b, c, h, w) = self._cache
        c_out = self.weight.shape[0]
        g2 = gout.reshape(b, c_out, h * w).transpose(0, 2, 1)
        self.gbias += g2.sum(axis=(0, 1))
        self.gweight += np.tensordot(g2, cols, axes=([0, 1], [0, 1])).reshape(
            self.weight.shape
        )
        gcols = (g2 @ self.weight.reshape(c_out, c * 9)).reshape(b, h, w, c, 3, 3)
        gcols = gcols.transpose(0, 3, 1, 2, 4, 5)
        gpad = np.zeros((b, c, h + 2, w + 2))
        for di in range(3):
            for dj in range(3):
                gpad[:, :, di : di + h, dj : dj + w] += gcols[:, :, :, :, di, dj]
        return gpad[:, :, 1 : h + 1, 1 : w + 1]


class BatchNorm2d:
    """Per-channel normalization over (batch, height, width)."""

    def __init__(self, channels: int, eps: float = BN_EPS, momentum: float = BN_MOMENTUM):
        self.eps = eps
        self.momentum = momentum
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
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = x.shape[0] * x.shape[2] * x.shape[3]
            unbiased = var * m / (m - 1) if m > 1 else var
            self.running_mean[...] = (
                1 - self.momentum
            ) * self.running_mean + self.momentum * mean
            self.running_var[...] = (
                1 - self.momentum
            ) * self.running_var + self.momentum * unbiased
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (xhat, inv_std, train)
        return self.gamma[None, :, None, None] * xhat + self.beta[None, :, None, None]

    def backward(self, gout: np.ndarray) -> np.ndarray:
        xhat, inv_std, train = self._cache
        self.gbeta += gout.sum(axis=(0, 2, 3))
        self.ggamma += (gout * xhat).sum(axis=(0, 2, 3))
        gxhat = gout * self.gamma[None, :, None, None]
        if not train:
            return gxhat * inv_std[None, :, None, None]
        mean_g = gxhat.mean(axis=(0, 2, 3), keepdims=True)
        mean_gx = (gxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
        return inv_std[None, :, None, None] * (gxhat - mean_g - xhat * mean_gx)


class ReLU:
    def __init__(self):
        self._mask = None

    def parameters(self):
        return []

    def state_arrays(self):
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, gout: np.ndarray) -> np.ndarray:
        return np.where(self._mask, gout, 0.0)


class MaxPool2d:
    """2x2 window, stride 2, floor boundary (odd trailing row/col dropped).

    Ties inside a window resolve to the first cell in row-major order.
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
        windows = sliding_window_view(x, (2, 2), axis=(2, 3))[:, :, ::2, ::2]
        b, c, ho, wo, _, _ = windows.shape
        flat = windows.reshape(b, c, ho, wo, 4)
        idx = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        self._cache = (idx, x.shape)
        return out

    def backward(self, gout: np.ndarray) -> np.ndarray:
        idx, in_shape = self._cache
        b, c, ho, wo = gout.shape
        gin = np.zeros(in_shape)
        bi, ci, ii, ji = np.indices((b, c, ho, wo))
        rows = 2 * ii + idx // 2
        cols = 2 * ji + idx % 2
        # stride equals window, so scatter targets are disjoint
        gin[bi, ci, rows, cols] = gout
        return gin


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

    Powers of S are applied iteratively (one neighborhood exchange per tap),
    so tap k only mixes information from within k hops. S itself is constant
    data, not a parameter. Leading batch axes are allowed: (B,N,F) features
    pair with (B,N,N) shift operators, one team per batch entry.
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


def cross_entropy(logits: np.ndarray, labels_onehot: np.ndarray):
    """Mean negative log-likelihood over rows.

    Returns (loss, gradient w.r.t. logits); gradient = (softmax - label) / N.
    """
    if logits.shape != labels_onehot.shape:
        raise ShapeMismatch(
            f"logits {logits.shape} vs labels {labels_onehot.shape}"
        )
    n = logits.shape[0]
    logp = log_softmax(logits)
    loss = -(labels_onehot * logp).sum() / n
    grad = (np.exp(logp) - labels_onehot) / n
    return loss, grad


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
