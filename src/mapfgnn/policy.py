"""Decentralized policy: shared CNN encoder, one graph-convolution layer, MLP head.

Every robot runs the same weights. The only cross-robot coupling is the
graph filter, so each output row depends on observations at most K-1 hops
away in the communication graph, and K=1 makes robots fully independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, VersionMismatch
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

WEIGHTS_FORMAT = "mapfgnn-weights-v1"


@dataclass(frozen=True)
class PolicyArch:
    """Shape of the pipeline; defaults follow the reference setup."""

    fov_radius: int = 4
    taps: int = 3
    features: int = 128
    channels: tuple[int, ...] = (32, 32, 64, 64, 128, 128)
    num_actions: int = 5

    def __post_init__(self):
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
            "taps": self.taps,
            "features": self.features,
            "channels": list(self.channels),
            "num_actions": self.num_actions,
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "PolicyArch":
        return cls(
            fov_radius=doc["fov_radius"],
            taps=doc["taps"],
            features=doc["features"],
            channels=tuple(doc["channels"]),
            num_actions=doc["num_actions"],
        )


class PolicyNetwork:
    """CNN per robot, graph filter across robots, shared linear action head.

    The CNN is three repetitions of [conv-bn-relu-maxpool, conv-bn-relu],
    shrinking the 9x9 window to 1x1 and flattening to the feature width.
    """

    def __init__(self, arch: PolicyArch = PolicyArch(), seed: int = 0):
        self.arch = arch
        rng = np.random.default_rng(seed)
        self.store = ParamStore()
        self.cnn = []
        c_prev = 3
        for i, c in enumerate(arch.channels):
            conv = Conv2d(c_prev, c, rng)
            bn = BatchNorm2d(c)
            self.store.add_layer(f"cnn.conv{i}", conv)
            self.store.add_layer(f"cnn.bn{i}", bn)
            self.cnn.extend([conv, bn, ReLU()])
            if i % 2 == 0:
                self.cnn.append(MaxPool2d())
            c_prev = c
        self.gnn = GraphFilter(arch.features, arch.features, arch.taps, rng)
        self.gnn_relu = ReLU()
        self.head = Linear(arch.features, arch.num_actions, rng)
        self.store.add_layer("gnn.filter", self.gnn)
        self.store.add_layer("mlp.head", self.head)

    def encode(self, obs: np.ndarray, train: bool = False) -> np.ndarray:
        """CNN features, shape (batch, features), from (batch, 3, W, W) input."""
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
        """Graph filter + relu + linear over one team; returns logits (N, 5)."""
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
        if obs.shape[0] != gso.shape[0]:
            raise ShapeMismatch(
                f"{obs.shape[0]} observations vs {gso.shape[0]}-node shift operator"
            )
        return self.head_forward(self.encode(obs, train), gso, train)

    def encode_observation(self, channels: np.ndarray) -> np.ndarray:
        """Feature vector for a single robot's observation tensor."""
        return self.encode(channels[None], train=False)[0]

    def to_jsonable(self) -> dict:
        return {
            "format": WEIGHTS_FORMAT,
            "arch": self.arch.to_jsonable(),
            "params": self.store.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "PolicyNetwork":
        if doc.get("format") != WEIGHTS_FORMAT:
            raise VersionMismatch(
                f"weights format {doc.get('format')!r}, expected {WEIGHTS_FORMAT!r}"
            )
        net = cls(PolicyArch.from_jsonable(doc["arch"]), seed=0)
        net.store.load_jsonable(doc["params"])
        return net


def policy_forward(
    net: PolicyNetwork, obs: np.ndarray, gso: np.ndarray
) -> np.ndarray:
    """Per-robot action distributions (N, 5); rows sum to 1."""
    return softmax(net.forward(obs, gso, train=False))


def select_action(
    probs: np.ndarray, mode: str = "greedy", rng: np.random.Generator | None = None
) -> int:
    """Greedy takes the argmax (lowest index on ties); sample draws from probs."""
    if mode == "greedy":
        return int(np.argmax(probs))
    if mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs a generator")
        p = np.asarray(probs, dtype=np.float64)
        p = p / p.sum()
        return int(rng.choice(p.size, p=p))
    raise ValueError(f"unknown mode {mode!r}")
