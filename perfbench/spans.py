"""Span tracing from outside the package, and the per-layer metrics built on it.

A traced run replaces public functions and methods of mapfgnn with thin
wrappers, installed on the names their callers look up at call time: module
globals such as ``executor.team_observations`` and class attributes such as
``Conv2d.forward``. Each call becomes one span (id, parent, name, start, end)
plus the counts read at that boundary. Spans stay in memory and are written
out as JSON lines when the run ends, in the shape a sidecar event stream
inside the program could later emit.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder that can patch and restore attributes."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.layer_names: dict[int, str] = {}

    def wrap(self, fn, name, attrs=None):
        """Callable that records a span around fn.

        name is a string or a function of the call's positional arguments;
        attrs(args, result) returns counts to attach to a completed span.
        """

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            extra = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                extra = {"error": type(exc).__name__}
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, span_name, t0, t1, extra)
            if attrs is not None:
                self.spans[sid] = (sid, parent, span_name, t0, t1, attrs(args, result))
            return result

        return traced

    def patch(self, owner, attr: str, name, attrs=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, attrs))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def name_net(self, net) -> None:
        """Register per-index layer names (conv0, bn0, pool0, ...) for a network."""
        counts: dict[str, int] = defaultdict(int)
        for layer in net.cnn:
            kind = {"Conv2d": "conv", "BatchNorm2d": "bn", "MaxPool2d": "pool"}.get(
                type(layer).__name__
            )
            if kind is None:
                self.layer_names[id(layer)] = "relu"
                continue
            self.layer_names[id(layer)] = f"{kind}{counts[kind]}"
            counts[kind] += 1
        self.layer_names[id(net.gnn_relu)] = "relu"
        self.layer_names[id(net.gnn)] = "graph_filter"
        self.layer_names[id(net.head)] = "linear"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, extra in self.spans:
                doc = {"span": sid, "parent": parent, "name": name, "start": t0, "end": t1}
                if extra:
                    doc.update(extra)
                fh.write(json.dumps(doc) + "\n")


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _conv_fwd_flops(args, result):
    layer, x = args[0], args[1]
    b, c, h, w = x.shape
    return {"flops": 2 * b * h * w * layer.weight.shape[0] * c * 9}


def _conv_bwd_flops(args, result):
    # weight gradient and input gradient are each one forward-sized GEMM
    layer = args[0]
    b, c, h, w = layer._cache[1]
    return {"flops": 4 * b * h * w * layer.weight.shape[0] * c * 9}


def install(tracer: Tracer) -> None:
    """Patch every traced boundary; tracer.unpatch_all() undoes it."""
    from mapfgnn import datastore, executor, expert, nn_core, policy, training

    p = tracer.patch
    robots = lambda args, result: {"robots": len(args[1])}
    for mod in (training, executor, datastore):
        p(mod, "team_observations", "gridworld.team_observations", robots)
        p(mod, "build_gso", "gridworld.build_gso")
    p(datastore, "generate_case", "gridworld.generate_case")

    for mod in (expert, datastore):
        p(mod, "cbs_solve", "expert.cbs_solve")
    p(expert, "low_level_search", "expert.low_level_search")
    p(expert, "detect_first_conflict", "expert.detect_first_conflict")
    p(expert, "bfs_distances", "expert.bfs_distances")
    p(datastore, "validate_plan", "expert.validate_plan")

    def layer(suffix):
        return lambda args: f"nn_core.{tracer.layer_names.get(id(args[0]), '?')}.{suffix}"

    p(nn_core.Conv2d, "forward", layer("fwd"), _conv_fwd_flops)
    p(nn_core.Conv2d, "backward", layer("bwd"), _conv_bwd_flops)
    for cls in (nn_core.BatchNorm2d, nn_core.ReLU, nn_core.MaxPool2d, nn_core.Linear,
                nn_core.GraphFilter):
        p(cls, "forward", layer("fwd"))
        p(cls, "backward", layer("bwd"))

    net_cls = policy.PolicyNetwork
    p(net_cls, "encode", "policy.encode")
    p(net_cls, "encode_backward", "policy.encode_backward")
    p(net_cls, "head_forward", "policy.head_forward")
    p(net_cls, "head_backward", "policy.head_backward")
    p(executor, "policy_forward", "policy.policy_forward")

    p(training, "train_epoch", "training.train_epoch")
    p(training, "adam_step", "training.adam_step")
    p(training, "evaluate", "training.evaluate")
    p(training, "expand_case", "training.expand_case",
      lambda args, result: {"samples": len(result)})

    p(executor, "rollout", "executor.rollout",
      lambda args, result: {"steps": result.steps,
                            "idled": sum(sum(row) for row in result.shielded)})
    p(executor.NetworkPolicy, "act", "executor.NetworkPolicy.act")
    p(executor, "collision_shield", "executor.collision_shield")
    p(executor, "shield_with_stats", "executor.shield_with_stats",
      lambda args, result: {"rounds": result[1]})

    p(datastore, "generate_map_pool", "datastore.generate_map_pool")
    p(datastore, "generate_case_pool", "datastore.generate_case_pool")
    p(datastore, "save_cases", "datastore.save_cases")
    p(datastore, "load_cases", "datastore.load_cases")
    p(datastore, "save_dataset", "datastore.save_dataset", _file_bytes)
    p(datastore, "load_dataset", "datastore.load_dataset")
    p(datastore, "save_weights", "datastore.save_weights", _file_bytes)
    p(datastore, "load_weights", "datastore.load_weights")


# (metric name, unit) in output order; every traced run reports all of them
CONV_LAYERS = 6
POOL_LAYERS = 3
PER_LAYER = (
    [
        ("gridworld.generate_case.ms", "ms"),
        ("gridworld.team_observations.calls", "count"),
        ("gridworld.team_observations.us_per_robot", "us"),
        ("gridworld.build_gso.calls", "count"),
        ("gridworld.build_gso.us", "us"),
        ("expert.cbs_solve.calls", "count"),
        ("expert.cbs_solve.self_s", "s"),
        ("expert.hl_nodes", "count"),
        ("expert.low_level_search.calls", "count"),
        ("expert.low_level_search.unreachable", "count"),
        ("expert.low_level_search.self_s", "s"),
        ("expert.detect_first_conflict.self_s", "s"),
        ("expert.bfs_distances.calls", "count"),
        ("expert.bfs_distances.self_s", "s"),
        ("expert.validate_plan.self_s", "s"),
    ]
    + [(f"nn_core.conv{i}.{d}_ms", "ms") for d in ("fwd", "bwd") for i in range(CONV_LAYERS)]
    + [(f"nn_core.bn{i}.{d}_ms", "ms") for d in ("fwd", "bwd") for i in range(CONV_LAYERS)]
    + [(f"nn_core.pool{i}.{d}_ms", "ms") for d in ("fwd", "bwd") for i in range(POOL_LAYERS)]
    + [
        ("nn_core.relu.fwd_ms", "ms"),
        ("nn_core.relu.bwd_ms", "ms"),
        ("nn_core.graph_filter.calls", "count"),
        ("nn_core.graph_filter.fwd_ms", "ms"),
        ("nn_core.graph_filter.bwd_ms", "ms"),
        ("nn_core.linear.fwd_ms", "ms"),
        ("nn_core.linear.bwd_ms", "ms"),
        ("nn_core.cnn.gflop_per_s", "GFLOP/s-computed"),
        ("policy.encode.ms", "ms"),
        ("policy.encode_backward.ms", "ms"),
        ("policy.head_forward.calls", "count"),
        ("policy.head_forward.ms", "ms"),
        ("policy.head_backward.ms", "ms"),
        ("policy.policy_forward.ms", "ms"),
        ("training.train_epoch.self_s", "s"),
        ("training.adam_step.ms", "ms"),
        ("training.evaluate.self_s", "s"),
        ("training.expand_case.ms_per_sample", "ms"),
        ("executor.rollout.calls", "count"),
        ("executor.rollout.self_ms_per_step", "ms"),
        ("executor.NetworkPolicy.act.ms", "ms"),
        ("executor.collision_shield.us", "us"),
        ("executor.shield.rounds", "count"),
        ("executor.shield.idled", "count"),
        ("datastore.generate_map_pool.s", "s"),
        ("datastore.generate_case_pool.s", "s"),
        ("datastore.save_cases.s", "s"),
        ("datastore.load_cases.s", "s"),
        ("datastore.save_dataset.s", "s"),
        ("datastore.load_dataset.s", "s"),
        ("datastore.dataset_bytes", "bytes"),
        ("datastore.save_weights.s", "s"),
        ("datastore.weights_bytes", "bytes"),
        ("datastore.load_weights.s", "s"),
        ("trace.overhead_pct", "%"),
    ]
)


def layer_metrics(spans, overhead_pct: float) -> dict[str, float]:
    """Per-layer values from recorded spans.

    Times are per call (mean) unless the name says otherwise; a layer that
    was never called reads 0. Self time is a span's duration minus the time
    covered by its direct children.
    """
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, name, t0, t1, extra in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    names = {sid: name for sid, _, name, _, _, _ in spans}
    groups: dict[str, list] = defaultdict(list)
    for sid, parent, name, t0, t1, extra in spans:
        groups[name].append((t1 - t0, t1 - t0 - child_time[sid], extra or {}, names.get(parent)))

    def calls(name):
        return len(groups[name])

    def total(name, field=0):
        return sum(rec[field] for rec in groups[name])

    def per_call(name, scale, field=0):
        n = calls(name)
        return total(name, field) * scale / n if n else 0.0

    def attr_sum(name, key):
        return sum(rec[2].get(key, 0) for rec in groups[name])

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {
        "gridworld.generate_case.ms": per_call("gridworld.generate_case", 1e3),
        "gridworld.team_observations.calls": calls("gridworld.team_observations"),
        "gridworld.team_observations.us_per_robot": ratio(
            total("gridworld.team_observations"),
            attr_sum("gridworld.team_observations", "robots"),
            1e6,
        ),
        "gridworld.build_gso.calls": calls("gridworld.build_gso"),
        "gridworld.build_gso.us": per_call("gridworld.build_gso", 1e6),
        "expert.cbs_solve.calls": calls("expert.cbs_solve"),
        "expert.cbs_solve.self_s": per_call("expert.cbs_solve", 1.0, 1),
        "expert.hl_nodes": sum(
            1 for rec in groups["expert.detect_first_conflict"] if rec[3] == "expert.cbs_solve"
        ),
        "expert.low_level_search.calls": calls("expert.low_level_search"),
        "expert.low_level_search.unreachable": sum(
            1
            for rec in groups["expert.low_level_search"]
            if rec[2].get("error") == "Unreachable"
        ),
        "expert.low_level_search.self_s": per_call("expert.low_level_search", 1.0, 1),
        "expert.detect_first_conflict.self_s": per_call("expert.detect_first_conflict", 1.0, 1),
        "expert.bfs_distances.calls": calls("expert.bfs_distances"),
        "expert.bfs_distances.self_s": per_call("expert.bfs_distances", 1.0, 1),
        "expert.validate_plan.self_s": per_call("expert.validate_plan", 1.0, 1),
    }
    for d in ("fwd", "bwd"):
        for i in range(CONV_LAYERS):
            out[f"nn_core.conv{i}.{d}_ms"] = per_call(f"nn_core.conv{i}.{d}", 1e3)
        for i in range(CONV_LAYERS):
            out[f"nn_core.bn{i}.{d}_ms"] = per_call(f"nn_core.bn{i}.{d}", 1e3)
        for i in range(POOL_LAYERS):
            out[f"nn_core.pool{i}.{d}_ms"] = per_call(f"nn_core.pool{i}.{d}", 1e3)
    conv = [f"nn_core.conv{i}.{d}" for i in range(CONV_LAYERS) for d in ("fwd", "bwd")]
    out.update(
        {
            # all ReLUs of one network pass: the CNN's plus the graph filter's
            "nn_core.relu.fwd_ms": ratio(total("nn_core.relu.fwd"), calls("policy.encode"), 1e3),
            "nn_core.relu.bwd_ms": ratio(
                total("nn_core.relu.bwd"), calls("policy.encode_backward"), 1e3
            ),
            "nn_core.graph_filter.calls": calls("nn_core.graph_filter.fwd"),
            "nn_core.graph_filter.fwd_ms": per_call("nn_core.graph_filter.fwd", 1e3),
            "nn_core.graph_filter.bwd_ms": per_call("nn_core.graph_filter.bwd", 1e3),
            "nn_core.linear.fwd_ms": per_call("nn_core.linear.fwd", 1e3),
            "nn_core.linear.bwd_ms": per_call("nn_core.linear.bwd", 1e3),
            "nn_core.cnn.gflop_per_s": ratio(
                sum(attr_sum(n, "flops") for n in conv), sum(total(n) for n in conv), 1e-9
            ),
            "policy.encode.ms": per_call("policy.encode", 1e3),
            "policy.encode_backward.ms": per_call("policy.encode_backward", 1e3),
            "policy.head_forward.calls": calls("policy.head_forward"),
            "policy.head_forward.ms": per_call("policy.head_forward", 1e3),
            "policy.head_backward.ms": per_call("policy.head_backward", 1e3),
            "policy.policy_forward.ms": per_call("policy.policy_forward", 1e3),
            "training.train_epoch.self_s": per_call("training.train_epoch", 1.0, 1),
            "training.adam_step.ms": per_call("training.adam_step", 1e3),
            "training.evaluate.self_s": per_call("training.evaluate", 1.0, 1),
            "training.expand_case.ms_per_sample": ratio(
                total("training.expand_case"), attr_sum("training.expand_case", "samples"), 1e3
            ),
            "executor.rollout.calls": calls("executor.rollout"),
            "executor.rollout.self_ms_per_step": ratio(
                total("executor.rollout", 1), attr_sum("executor.rollout", "steps"), 1e3
            ),
            "executor.NetworkPolicy.act.ms": per_call("executor.NetworkPolicy.act", 1e3),
            "executor.collision_shield.us": per_call("executor.collision_shield", 1e6),
            "executor.shield.rounds": attr_sum("executor.shield_with_stats", "rounds"),
            "executor.shield.idled": attr_sum("executor.rollout", "idled"),
            "datastore.generate_map_pool.s": per_call("datastore.generate_map_pool", 1.0),
            "datastore.generate_case_pool.s": per_call("datastore.generate_case_pool", 1.0),
            "datastore.save_cases.s": per_call("datastore.save_cases", 1.0),
            "datastore.load_cases.s": per_call("datastore.load_cases", 1.0),
            "datastore.save_dataset.s": per_call("datastore.save_dataset", 1.0),
            "datastore.load_dataset.s": per_call("datastore.load_dataset", 1.0),
            "datastore.dataset_bytes": ratio(
                attr_sum("datastore.save_dataset", "bytes"), calls("datastore.save_dataset")
            ),
            "datastore.save_weights.s": per_call("datastore.save_weights", 1.0),
            "datastore.weights_bytes": ratio(
                attr_sum("datastore.save_weights", "bytes"), calls("datastore.save_weights")
            ),
            "datastore.load_weights.s": per_call("datastore.load_weights", 1.0),
            "trace.overhead_pct": overhead_pct,
        }
    )
    return out
