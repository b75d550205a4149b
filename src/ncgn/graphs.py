"""Geometric graphs, proximity edge builders and voxel coarsening.

Edges are directed (source, target) pairs with target-side aggregation.
All builders are brute force O(N^2); node counts stay in the thousands.
``voxel_coarsen`` returns plain arrays (cluster ids, cluster mean
positions); ``engine.StructureCache`` pairs them with coarse edges into a
``dmp.Structure``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _scatter_add


@dataclass
class GeometricGraph:
    """Node features (N x f, f may be 0) and positions (N x d)."""

    features: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2:
            raise ValueError("positions must be N x d")
        n = self.positions.shape[0]
        if self.features is None:
            self.features = np.zeros((n, 0))
        self.features = np.asarray(self.features, dtype=np.float64).reshape(n, -1)
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    @property
    def n_nodes(self):
        return self.positions.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def dim(self):
        return self.positions.shape[1]


def _pairwise_sq_dists(positions):
    diff = positions[:, None, :] - positions[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def build_knn_edges(positions, k):
    """Directed edges from each node's min(k, N-1) nearest neighbors to it.

    Ties broken by lower source index (argsort is stable on the index axis).
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    k = min(k, n - 1)
    if n < 1:
        raise ValueError("need at least one node")
    if k <= 0:
        return np.zeros((0, 2), dtype=np.intp)
    d2 = _pairwise_sq_dists(positions)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    targets = np.repeat(np.arange(n), k)
    return np.stack([order.ravel(), targets], axis=1).astype(np.intp)


def build_fully_connected_edges(n):
    src, tgt = np.nonzero(~np.eye(n, dtype=bool))
    return np.stack([src, tgt], axis=1).astype(np.intp)


def build_long_short_edges(positions, k, seed):
    """Each node draws min(k, N-1) distinct incoming edges uniformly at random."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    edges = []
    for tgt in range(n):
        others = np.delete(np.arange(n), tgt)
        src = rng.choice(others, size=k, replace=False)
        edges.append(np.stack([src, np.full(k, tgt)], axis=1))
    return np.concatenate(edges, axis=0).astype(np.intp)


def voxel_coarsen(positions: np.ndarray, s: int):
    """Axis-aligned voxel clustering of N x d ``positions`` into at most ``s``
    clusters; returns (cluster_of, coarse_positions), the node -> cluster
    map and the s' x d cluster member means.

    Each dimension's [min, max] range is split into ceil(s^(1/d)) equal
    half-open bins (last bin closed); empty voxels are dropped, so the
    realized cluster count s' can be below ``s``.
    """
    if s < 1:
        raise ValueError("s must be positive")
    pos = np.asarray(positions, dtype=np.float64)
    n, d = pos.shape
    p = int(np.ceil(s ** (1.0 / d) - 1e-9))
    p = max(p, 1)
    bins = np.zeros((n, d), dtype=np.intp)
    for j in range(d):
        lo, hi = pos[:, j].min(), pos[:, j].max()
        if hi <= lo:
            continue  # degenerate dimension: one bin
        idx = np.floor((pos[:, j] - lo) / (hi - lo) * p).astype(np.intp)
        bins[:, j] = np.clip(idx, 0, p - 1)  # closes the last bin
    flat = np.ravel_multi_index(bins.T, (p,) * d)
    uniq, cluster_of = np.unique(flat, return_inverse=True)
    sprime = uniq.size
    counts = np.bincount(cluster_of, minlength=sprime).astype(np.float64)
    return cluster_of, _scatter_add(cluster_of, sprime, pos) / counts[:, None]


# ----------------------------------------------------------------------
# text format: header "N d f", then exactly N lines of d positions + f
# features.


def save_graph(path, graph: GeometricGraph):
    with open(path, "w") as fh:
        n, d, f = graph.n_nodes, graph.dim, graph.n_features
        fh.write(f"{n} {d} {f}\n")
        for i in range(n):
            vals = list(graph.positions[i]) + list(graph.features[i])
            fh.write(" ".join(repr(float(v)) for v in vals) + "\n")


def load_graph(path) -> GeometricGraph:
    """Read a ``save_graph`` file; every error names ``path``."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, expected header 'N d f'")
    header = lines[0].split()
    if len(header) != 3 or not all(x.isdigit() for x in header):
        raise ValueError(f"{path} line 1: expected header 'N d f' of three "
                         f"counts, got {lines[0]!r}")
    n, d, f = (int(x) for x in header)
    if len(lines) - 1 < n:
        raise ValueError(f"{path}: header declares {n} node rows, found "
                         f"{len(lines) - 1}")
    if len(lines) - 1 > n:
        raise ValueError(f"{path} line {n + 2}: expected end of file after {n} "
                         f"node rows, got {lines[n + 1]!r}")
    pos = np.zeros((n, d))
    feat = np.zeros((n, f))
    for i in range(n):
        try:
            vals = [float(x) for x in lines[1 + i].split()]
        except ValueError:
            raise ValueError(f"{path} line {i + 2}: expected numbers, got "
                             f"{lines[1 + i]!r}") from None
        if len(vals) != d + f:
            raise ValueError(f"{path} line {i + 2}: expected {d + f} values, "
                             f"got {len(vals)}")
        pos[i] = vals[:d]
        feat[i] = vals[d:]
    return GeometricGraph(feat, pos)
