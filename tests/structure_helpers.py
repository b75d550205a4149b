"""Graphs, structures, a batch-of-one forward, ``StructureCache``
subclasses and the id-based gathers and segment sums of the reference
chains, shared by the DMP, engine, tensor and acceptance tests."""

import numpy as np

from ncgn.dmp import Structure, node_input
from ncgn.engine import StructureCache, TrainConfig, merged_forward
from ncgn.graphs import GeometricGraph
from ncgn.tensor import SparsePlan, segment_sum


def random_graph(n, d=2, f=3, seed=0):
    rng = np.random.default_rng(seed)
    return GeometricGraph(rng.standard_normal((n, f)),
                          rng.standard_normal((n, d)))


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
