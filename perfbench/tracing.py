"""Span tracer installed around the public functions of each ncgn module.

Nothing under ``src/`` knows about it: ``Tracer.install`` rebinds each traced
name where its callers look it up (every loaded ``ncgn`` module that binds
the function, or the class that owns the method) and ``uninstall`` puts the
originals back. A span records (id, name, start, end, parent id); spans are
kept in memory and written out once, when the run ends. Wrappers never touch
array data or random state, so a traced run computes the same bytes as an
untraced one (``selftest.py`` checks this).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); functions are rebound in every ncgn module
# that imported them by name, e.g. engine's ``voxel_coarsen``.
FUNCTIONS = (
    ("ncgn.reaction_diffusion", "simulate_rd", "reaction_diffusion.simulate_rd"),
    ("ncgn.dataset", "generate_rd_dataset", "dataset.generate_rd_dataset"),
    ("ncgn.interpolant", "interpolate", "interpolant.interpolate"),
    ("ncgn.interpolant", "regression_target", "interpolant.regression_target"),
    ("ncgn.interpolant", "generate", "interpolant.generate"),
    ("ncgn.engine", "train", "engine.train"),
    ("ncgn.engine", "sample", "engine.sample"),
    ("ncgn.engine", "merged_forward", "engine.merged_forward"),
    ("ncgn.engine", "evaluate_w2", "engine.evaluate_w2"),
    ("ncgn.engine", "gw_study", "engine.gw_study"),
    ("ncgn.graphs", "voxel_coarsen", "graphs.voxel_coarsen"),
    ("ncgn.graphs", "build_knn_edges", "graphs.build_knn_edges"),
    ("ncgn.transport", "w2_exact", "transport.w2_exact"),
)

# (module, class, method, span name)
METHODS = (
    ("ncgn.engine", "StructureCache", "dmp", "engine.structure_cache"),
    ("ncgn.engine", "StructureCache", "baseline", "engine.structure_cache"),
    ("ncgn.dmp", "DmpLayer", "coarsen", "dmp.coarsen"),
    ("ncgn.dmp", "DmpLayer", "uncoarsen", "dmp.uncoarsen"),
    ("ncgn.dmp", "GcnConv", "__call__", "dmp.mp"),
    ("ncgn.dmp", "GatConv", "__call__", "dmp.mp"),
    ("ncgn.tensor", "Tensor", "backward", "tensor.backward"),
    ("ncgn.nn", "Adam", "step", "nn.adam.step"),
    ("ncgn.nn", "EMA", "update", "nn.ema.update"),
)

# Tensor ops whose backward closure is timed too, as span "<name>.bwd".
OP_FUNCTIONS = (
    ("ncgn.tensor", "segment_sum", "tensor.segment_sum"),
    ("ncgn.tensor", "segment_softmax", "tensor.segment_softmax"),
)
OP_METHODS = (
    ("gather_rows", "tensor.gather_rows"),
    ("__matmul__", "tensor.matmul"),
    ("gelu", "tensor.gelu"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []
        self._mlp_labels = {}

    # ------------------------------------------------------------------
    # span recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs)

        return functools.wraps(fn)(traced)

    def wrap_op(self, name, fn):
        """Time the op and, on its output Tensor, the backward closure."""
        bwd_name = name + ".bwd"

        def traced(*args, **kwargs):
            out = self.run(name, fn, args, kwargs)
            closure = getattr(out, "_backward", None)
            if closure is not None:
                out._backward = lambda g: self.run(bwd_name, closure, (g,), {})
            return out

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------------
    # installation

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_function(self, module_name, attr, wrapper_for):
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_for(original)
        for name, module in list(sys.modules.items()):
            if (name == "ncgn" or name.startswith("ncgn.")) and \
                    module.__dict__.get(attr) is original:
                self._set(module, attr, wrapper)

    def install(self):
        import ncgn.engine  # noqa: F401  loads every traced module

        for module_name, attr, name in FUNCTIONS:
            self._rebind_function(module_name, attr,
                                  functools.partial(self.wrap, name))
        for module_name, attr, name in OP_FUNCTIONS:
            self._rebind_function(module_name, attr,
                                  functools.partial(self.wrap_op, name))
        self._rebind_function("ncgn.transport", "gw_entropic", self._wrap_gw)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))
        tensor_cls = sys.modules["ncgn.tensor"].Tensor
        for attr, name in OP_METHODS:
            self._set(tensor_cls, attr, self.wrap_op(name, tensor_cls.__dict__[attr]))
        dmp_model = sys.modules["ncgn.dmp"].DmpModel
        self._set(dmp_model, "forward_core",
                  self._wrap_forward_core(dmp_model.__dict__["forward_core"]))
        mlp = sys.modules["ncgn.nn"].MLP
        self._set(mlp, "__call__", self._wrap_mlp(mlp.__dict__["__call__"]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # wrappers that also count

    def _wrap_forward_core(self, fn):
        def traced(model, inputs, positions, structure):
            # label the top-level MLPs so their calls get their own spans
            self._mlp_labels[id(model.lift)] = "dmp.lift"
            self._mlp_labels[id(model.lift_coarse)] = "dmp.lift"
            self._mlp_labels[id(model.project)] = "dmp.project"
            self.counts["dmp.nodes"] += inputs.shape[0]
            self.counts["dmp.clusters"] += structure.coarse_positions.shape[0]
            self.counts["dmp.messages"] += structure.edges.shape[0]
            return self.run("dmp.forward_core", fn,
                             (model, inputs, positions, structure), {})

        return functools.wraps(fn)(traced)

    def _wrap_mlp(self, fn):
        def traced(mlp, x):
            label = self._mlp_labels.get(id(mlp))
            if label is None:
                return fn(mlp, x)
            return self.run(label, fn, (mlp, x), {})

        return functools.wraps(fn)(traced)

    def _wrap_gw(self, fn):
        def traced(a, b, *args, return_details=False, **kwargs):
            result = self.run("transport.gw_entropic", fn, (a, b) + args,
                               dict(kwargs, return_details=True))
            self.counts["transport.gw_entropic.converged"] += int(result.converged)
            return result if return_details else result.value

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------------
    # output

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(spans, counts):
    """Per-layer figures from recorded spans and counts.

    Busy time sums a name's span durations; self time subtracts the time
    its direct child spans cover (children run on the parent's thread, so
    they never overlap each other).
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    child_time = defaultdict(float)
    children = defaultdict(list)
    names = {}
    for sid, name, start, end, parent in spans:
        calls[name] += 1
        busy[name] += end - start
        names[sid] = name
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(name)
    self_time = defaultdict(float)
    for sid, name, start, end, parent in spans:
        self_time[name] += (end - start) - child_time.get(sid, 0.0)

    builders = {"graphs.voxel_coarsen", "graphs.build_knn_edges"}
    misses = sum(
        1 for sid, name in names.items()
        if name == "engine.structure_cache" and builders & set(children.get(sid, ()))
    )
    cache_calls = calls["engine.structure_cache"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "reaction_diffusion.simulate_rd.calls": calls["reaction_diffusion.simulate_rd"],
        "reaction_diffusion.simulate_rd.busy_s": busy["reaction_diffusion.simulate_rd"],
        "dataset.generate_rd_dataset.self_s": self_time["dataset.generate_rd_dataset"],
        "interpolant.interpolate.busy_s": busy["interpolant.interpolate"],
        "interpolant.regression_target.busy_s": busy["interpolant.regression_target"],
        "interpolant.generate.self_s": self_time["interpolant.generate"],
        "engine.train.self_s": self_time["engine.train"],
        "engine.merged_forward.self_s": self_time["engine.merged_forward"],
        "engine.structure_cache.calls": cache_calls,
        "engine.structure_cache.misses": misses,
        "engine.structure_cache.hit_ratio": ratio(cache_calls - misses, cache_calls),
        "graphs.voxel_coarsen.calls": calls["graphs.voxel_coarsen"],
        "graphs.voxel_coarsen.busy_s": busy["graphs.voxel_coarsen"],
        "graphs.build_knn_edges.calls": calls["graphs.build_knn_edges"],
        "graphs.build_knn_edges.busy_s": busy["graphs.build_knn_edges"],
    }
    for part in ("lift", "coarsen", "mp", "uncoarsen", "project"):
        out[f"dmp.{part}.fwd_s"] = busy[f"dmp.{part}"]
    out["dmp.forward_core.self_s"] = self_time["dmp.forward_core"]
    out["dmp.messages_per_node"] = ratio(counts["dmp.messages"], counts["dmp.nodes"])
    out["dmp.clusters_per_node"] = ratio(counts["dmp.clusters"], counts["dmp.nodes"])
    out["tensor.backward.busy_s"] = busy["tensor.backward"]
    for op in ("segment_sum", "gather_rows", "segment_softmax"):
        out[f"tensor.{op}.calls"] = calls[f"tensor.{op}"]
    for op in ("segment_sum", "gather_rows", "segment_softmax", "matmul", "gelu"):
        out[f"tensor.{op}.fwd_s"] = busy[f"tensor.{op}"]
        out[f"tensor.{op}.bwd_s"] = busy[f"tensor.{op}.bwd"]
    out["nn.adam.step_s"] = busy["nn.adam.step"]
    out["nn.ema.update_s"] = busy["nn.ema.update"]
    out["transport.w2_exact.calls"] = calls["transport.w2_exact"]
    out["transport.w2_exact.busy_s"] = busy["transport.w2_exact"]
    out["engine.evaluate_w2.parallel_ratio"] = ratio(busy["transport.w2_exact"],
                                                     busy["engine.evaluate_w2"])
    gw_calls = calls["transport.gw_entropic"]
    out["transport.gw_entropic.calls"] = gw_calls
    out["transport.gw_entropic.busy_s"] = busy["transport.gw_entropic"]
    out["transport.gw_entropic.converged_ratio"] = ratio(
        counts["transport.gw_entropic.converged"], gw_calls)
    return out
