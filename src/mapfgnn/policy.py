"""Decentralized policy: shared CNN encoder, one graph-convolution layer, MLP head.

Every robot runs the same weights. The only cross-robot coupling is the
graph filter, so each output row depends on observations at most K-1 hops
away in the communication graph, and K=1 makes robots fully independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, VersionMismatch
from .gridworld import DEFAULT_COMM_RADIUS, DEFAULT_FOV_RADIUS, NUM_ACTIONS
from .jsonio import read_arrays, read_int, read_ints, read_real
from .nn_core import (
    BatchNorm2d,
    Conv2d,
    GraphFilter,
    Linear,
    MaxPool2d,
    ParamStore,
    ReLU,
    softmax,
)

WEIGHTS_FORMAT = "mapfgnn-weights-v3"


@dataclass(frozen=True)
class PolicyArch:
    """Shape of the pipeline; defaults follow the reference setup.

    Both radii belong to the policy: the CNN reads a (2*fov_radius+1)^2
    window, and the graph filter's taps are learned for the shift operator
    of one communication radius. The CNN has six conv layers and three 2x2
    max-pools, which bring the window to exactly 1x1 only for a radius of
    4 to 7.
    """

    fov_radius: int = DEFAULT_FOV_RADIUS
    comm_radius: float = DEFAULT_COMM_RADIUS
    taps: int = 3
    features: int = 128
    channels: tuple[int, ...] = (32, 32, 64, 64, 128, 128)

    def __post_init__(self):
        if not 4 <= self.fov_radius <= 7:
            raise ValueError(
                f"fov_radius must be 4 to 7, the radii whose window three 2x2 pools "
                f"bring to 1x1; got {self.fov_radius}"
            )
        if not self.comm_radius > 0:
            raise ValueError("comm_radius must be positive")
        if len(self.channels) != 6 or min(self.channels) < 1:
            raise ValueError(f"channels must list six positive CNN widths, got {self.channels}")
        if self.channels[-1] != self.features:
            raise ValueError("last CNN channel count must equal feature width")
        if self.taps < 1:
            raise ValueError("need at least one filter tap")

    @property
    def window(self) -> int:
        return 2 * self.fov_radius + 1

    def to_jsonable(self) -> dict:
        return {
            "fov_radius": self.fov_radius,
            "comm_radius": float(self.comm_radius),
            "taps": self.taps,
            "features": self.features,
            "channels": list(self.channels),
        }

    def param_shapes(self) -> dict:
        """name -> shape of every array PolicyNetwork(self).store holds, in
        its to_jsonable order, computed without building a layer."""
        params, state, c_prev = {}, {}, 3
        for i, c in enumerate(self.channels):
            params[f"cnn.conv{i}.weight"], params[f"cnn.conv{i}.bias"] = (c, c_prev, 3, 3), (c,)
            params[f"cnn.bn{i}.gamma"] = params[f"cnn.bn{i}.beta"] = (c,)
            state[f"cnn.bn{i}.running_mean"] = state[f"cnn.bn{i}.running_var"] = (c,)
            c_prev = c
        params["gnn.filter.taps"] = (self.taps, self.features, self.features)
        params["mlp.head.weight"] = (NUM_ACTIONS, self.features)
        params["mlp.head.bias"] = (NUM_ACTIONS,)
        return {**params, **state}

    @classmethod
    def from_jsonable(cls, doc: dict) -> "PolicyArch":
        """The arch a weights file records; a missing key (KeyError), a value
        of the wrong JSON type (TypeError) or a broken rule (ValueError)
        raises as jsonio's readers do."""
        return cls(
            fov_radius=read_int(doc["fov_radius"]),
            comm_radius=read_real(doc["comm_radius"]),
            taps=read_int(doc["taps"]),
            features=read_int(doc["features"]),
            channels=read_ints(doc["channels"]),
        )


class PolicyNetwork:
    """CNN per robot, graph filter across robots, shared linear action head.

    The CNN is three repetitions of [conv-bn-maxpool-relu, conv-bn-relu],
    shrinking the 9x9 window to 1x1 and flattening to the feature width.
    Max-pooling before the ReLU computes exactly what pooling after it
    would, since max and ReLU commute and the gradient takes the same route,
    but the ReLU then runs on a quarter of the cells.
    """

    def __init__(self, arch: PolicyArch = PolicyArch(), seed: int = 0):
        self.arch = arch
        rng = np.random.default_rng(seed)
        self.store = ParamStore()
        self.cnn = []
        c_prev = 3
        for i, c in enumerate(arch.channels):
            conv = Conv2d(c_prev, c, rng)
            # observations are data: no gradient flows back into them
            conv.needs_input_grad = i > 0
            bn = BatchNorm2d(c)
            self.store.add_layer(f"cnn.conv{i}", conv)
            self.store.add_layer(f"cnn.bn{i}", bn)
            self.cnn.extend([conv, bn])
            if i % 2 == 0:
                self.cnn.append(MaxPool2d())
            self.cnn.append(ReLU())
            c_prev = c
        self.gnn = GraphFilter(arch.features, arch.features, arch.taps, rng)
        self.gnn_relu = ReLU()
        self.head = Linear(arch.features, NUM_ACTIONS, rng)
        self.store.add_layer("gnn.filter", self.gnn)
        self.store.add_layer("mlp.head", self.head)

    def encode(self, obs: np.ndarray, train: bool = False) -> np.ndarray:
        """CNN features, shape (batch, features), from (batch, 3, W, W) input;
        uint8 windows give their float64 copy's bits, as the first conv's
        im2col (W x W is 81 cells or more) copies them into float64."""
        if obs.ndim != 4 or obs.shape[1:] != (3, self.arch.window, self.arch.window):
            raise ShapeMismatch(
                f"expected (B,3,{self.arch.window},{self.arch.window}), got {obs.shape}"
            )
        x = obs
        for layer in self.cnn:
            x = layer.forward(x, train)
        return x.reshape(x.shape[0], self.arch.features)

    def encode_backward(self, gfeat: np.ndarray) -> None:
        g = gfeat.reshape(gfeat.shape[0], self.arch.features, 1, 1)
        for layer in reversed(self.cnn):
            g = layer.backward(g)

    def head_forward(
        self, features: np.ndarray, gso: np.ndarray, train: bool = False
    ) -> np.ndarray:
        """Graph filter + relu + linear; (..., N, F) features and (..., N, N)
        shift operators give (..., N, 5) logits, one team per leading index."""
        x = self.gnn.forward(features, gso, train)
        x = self.gnn_relu.forward(x, train)
        return self.head.forward(x, train)

    def head_backward(self, glogits: np.ndarray) -> np.ndarray:
        g = self.head.backward(glogits)
        g = self.gnn_relu.backward(g)
        return self.gnn.backward(g)

    def forward(
        self, obs: np.ndarray, gso: np.ndarray, train: bool = False
    ) -> np.ndarray:
        """Team logits (N, 5) for stacked observations (N, 3, W, W)."""
        return self.head_forward(self.encode(obs, train), gso, train)

    def to_jsonable(self) -> dict:
        return {
            "format": WEIGHTS_FORMAT,
            "arch": self.arch.to_jsonable(),
            "params": self.store.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "PolicyNetwork":
        """The network a weights file records. Another format tag raises
        VersionMismatch; a broken arch or params block raises KeyError,
        TypeError or ValueError (PolicyArch.from_jsonable,
        jsonio.read_arrays). Every params entry is read against the arch's
        shapes before any layer is built, so an arch its params do not hold
        allocates nothing."""
        if type(doc) is not dict:
            raise TypeError("weights model is not a JSON object")
        if doc.get("format") != WEIGHTS_FORMAT:
            raise VersionMismatch(
                f"weights format {doc.get('format')!r}, expected {WEIGHTS_FORMAT!r}"
            )
        arch = PolicyArch.from_jsonable(doc["arch"])
        values = read_arrays(doc["params"], arch.param_shapes())
        net = cls(arch, seed=0)
        net.store.assign(values)
        return net


def policy_forward(
    net: PolicyNetwork, obs: np.ndarray, gso: np.ndarray
) -> np.ndarray:
    """Per-robot action distributions (N, 5); rows sum to 1."""
    return softmax(net.forward(obs, gso, train=False))


ACTION_MODES = ("greedy", "sample")


def select_actions(
    probs: np.ndarray, mode: str = "greedy", rng: np.random.Generator | None = None
) -> list[int]:
    """One action per row of (N, A) probs.

    Greedy takes each row's argmax (lowest index on ties). Sample normalises
    each row and draws from it the way Generator.choice(A, p=row) does (cdf,
    one uniform, right-side search), with the N uniforms taken in one call:
    the picks and the generator's next state equal N such choice calls in
    row order, and a row that choice would reject (a NaN or negative entry,
    or a zero sum) raises ValueError.
    """
    if mode == "greedy":
        return np.argmax(probs, axis=1).tolist()
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("sample mode needs a generator")
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(all="ignore"):
        p = p / p.sum(axis=1, keepdims=True)
    # NaN (from a NaN or infinite entry, or a zero sum) fails the comparison too
    if not (p >= 0).all():
        raise ValueError("probabilities must be non-negative with a positive finite sum")
    cdf = p.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(p.shape[0])
    # right-side searchsorted of each row's uniform in its non-decreasing cdf
    return (cdf <= u[:, None]).sum(axis=1).tolist()
