"""Graphs, structures, a batch-of-one forward, ``StructureCache``
subclasses, the id-based gathers and segment sums of the reference chains
and the finite-difference gradient check, shared by the DMP, engine, graph,
nn, tensor and acceptance tests."""

import numpy as np

from ncgn.dmp import Structure, node_input
from ncgn.engine import StructureCache, TrainConfig, merged_forward
from ncgn.graphs import GeometricGraph
from ncgn.tensor import SparsePlan, no_grad, segment_sum


def random_graph(n, d=2, f=3, seed=0):
    rng = np.random.default_rng(seed)
    return GeometricGraph(rng.standard_normal((n, f)),
                          rng.standard_normal((n, d)))


def finite_diff(fn, x, eps=1e-6):
    """Central finite differences of a scalar fn at array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def finite_difference_misses(loss, tensors, h, tol):
    """``(tensor index, entry)`` of each entry of ``tensors`` whose ``grad``
    (set by a backward of ``loss()`` first) misses the central difference
    ``fd`` with step ``h`` by more than ``tol * max(1, |fd|)``. Each entry
    is perturbed in place, and ``loss``, a function of no arguments that
    returns a scalar Tensor, is evaluated under ``no_grad()``."""
    misses = []
    for k, t in enumerate(tensors):
        with no_grad():
            fd = finite_diff(lambda _: float(loss().data), t.data, h)
        miss = np.abs(t.grad - fd) > tol * np.maximum(1.0, np.abs(fd))
        misses += [(k, int(i)) for i in np.flatnonzero(miss)]
    return misses


def segments(ids, n):
    """The plan that puts entry j in row ``ids[j]`` of ``n`` rows, column j:
    ``segment_sum`` over it sums values by id, ``segment_softmax``
    normalizes logits by id, and ``x.gather_rows`` over it is ``x[ids]``."""
    ids = np.asarray(ids)
    return SparsePlan(ids, np.arange(ids.size), (n, ids.size))


def segment_sum_by_ids(values, ids, n):
    """Sum the rows of ``values`` into ``n`` segments by ``ids``."""
    return segment_sum(segments(ids, n), values)


def one_to_one(edges, n):
    """The ``Structure`` of ``n`` one-to-one clusters at the origin, joined
    by ``edges``: the plans a conv reads."""
    return Structure(np.arange(n), np.zeros((n, 1)), edges)


def forward(model, g, t, method="dmp", k=8, seed=0, cache=None):
    """Batch-of-one merged_forward, the pass training and sampling run."""
    if cache is None:
        cache = StructureCache(TrainConfig(method=method, knn_k=k, seed=seed))
    part = (g.positions, node_input(g.features, g.positions, t), t)
    return merged_forward(model, [part], cache)


class RecordingCache(StructureCache):
    """Records each schedule point the DMP lookup asks for and the number of
    coarse edges (messages per layer) it gets back."""

    def __init__(self, config=None):
        super().__init__(TrainConfig() if config is None else config)
        self.stats = []

    def dmp(self, positions, s_t, r_t):
        structure = super().dmp(positions, s_t, r_t)
        self.stats.append({"s_t": s_t, "r_t": r_t,
                           "edges": int(structure.edges.shape[0])})
        return structure


class SingletonCache(StructureCache):
    """Hands the DMP path one-to-one clusters and a fixed edge list."""

    def __init__(self, edges):
        super().__init__(TrainConfig())
        self.edges = edges

    def dmp(self, positions, s_t, r_t):
        return Structure(np.arange(positions.shape[0], dtype=np.intp),
                         positions, self.edges)
