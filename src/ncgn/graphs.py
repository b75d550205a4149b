"""Geometric graphs, proximity edge builders and voxel coarsening.

Edges are directed (source, target) pairs with target-side aggregation.
All builders are brute force O(N^2); node counts stay in the thousands.
``voxel_coarsen`` returns plain arrays (cluster ids, cluster mean
positions); ``engine.StructureCache`` pairs them with coarse edges into a
``dmp.Structure``. Every file ncgn writes goes through ``replacing``, and
a graph directory is replaced whole by ``save_graphs``.
"""

from __future__ import annotations

import contextlib
import os
import shutil
from dataclasses import dataclass

import numpy as np


@dataclass
class GeometricGraph:
    """Node features (N x f, f may be 0) and positions (N x d, d >= 1),
    both finite."""

    features: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] < 1:
            raise ValueError(f"positions must be N x d with d >= 1, got "
                             f"shape {self.positions.shape}")
        n = self.positions.shape[0]
        if self.features is None:
            self.features = np.zeros((n, 0))
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(f"features must be N x f with the N rows of "
                             f"positions {self.positions.shape}, got "
                             f"{self.features.shape}")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")

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
    """Axis-aligned voxel clustering of N x d ``positions`` for a target of
    ``s`` clusters; returns (cluster_of, coarse_positions), the node ->
    cluster map and the s' x d cluster member means.

    Each dimension's [min, max] range is split into p = ceil(s^(1/d)) equal
    half-open bins (last bin closed); empty voxels are dropped. So s' is at
    most min(N, p^d), which can exceed ``s`` when s is not a d-th power: for
    s = 32 in 3-D, p = 4 and s' can reach 64.

    Each coordinate's cluster sums are one ``np.bincount`` that adds the
    members in index order from 0.0, the additions of ``numpy.add.at`` and
    of ``tensor.segment_sum`` over the cluster incidence, so the means are
    their bytes without scipy.
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
    sums = np.stack([np.bincount(cluster_of, weights=pos[:, j], minlength=sprime)
                     for j in range(d)], axis=1)
    return cluster_of, sums / counts[:, None]


# ----------------------------------------------------------------------
# text format: header "N d f", then exactly N lines of d positions + f
# features; a directory of graphs holds them as 00000.graph onwards.


@contextlib.contextmanager
def replacing(path, mode="w"):
    """The file object of ``open(temporary, mode)``, a temporary name beside
    ``path``, which replaces ``path`` (``os.replace``) once the body
    returns: a reader sees the old file or the new one, never a part. If
    the body raises, the temporary is removed and ``path`` stays as it
    was. The temporary, ``<stem>.partial<ext>``, keeps ``path``'s
    extension, so a graph one a killed run leaves in a ``save_graphs``
    directory passes ``check_replaceable``."""
    stem, ext = os.path.splitext(path)
    partial = f"{stem}.partial{ext}"
    try:
        with open(partial, mode) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def save_graph(path, graph: GeometricGraph):
    """Write a header ``N d f``, then one row per node: its positions, then
    its features, each value as ``repr`` of a Python float."""
    rows = np.hstack([graph.positions, graph.features]).tolist()
    lines = [f"{graph.n_nodes} {graph.dim} {graph.n_features}"]
    lines += [" ".join(map(repr, row)) for row in rows]
    with replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> GeometricGraph:
    """Read a ``save_graph`` file; every error names ``path`` and the line's
    number in the file, blank lines included."""
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1)
                 if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file, expected header 'N d f'")
    header_no, header_line = lines[0]
    header = header_line.split()
    if len(header) != 3 or not all(x.isdigit() for x in header):
        raise ValueError(f"{path} line {header_no}: expected header 'N d f' of "
                         f"three counts, got {header_line!r}")
    n, d, f = (int(x) for x in header)
    if d == 0:
        raise ValueError(f"{path} line {header_no}: header {header_line!r} "
                         f"declares 0-dimensional positions, expected d >= 1")
    if len(lines) - 1 < n:
        raise ValueError(f"{path}: header declares {n} node rows, found "
                         f"{len(lines) - 1}")
    if len(lines) - 1 > n:
        no, line = lines[n + 1]
        raise ValueError(f"{path} line {no}: expected end of file after {n} "
                         f"node rows, got {line!r}")
    pos = np.zeros((n, d))
    feat = np.zeros((n, f))
    for i, (no, line) in enumerate(lines[1:]):
        try:
            vals = [float(x) for x in line.split()]
        except ValueError:
            raise ValueError(f"{path} line {no}: expected numbers, got "
                             f"{line!r}") from None
        if len(vals) != d + f:
            raise ValueError(f"{path} line {no}: expected {d + f} values, "
                             f"got {len(vals)}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{path} line {no}: expected finite values, got "
                             f"{line!r}")
        pos[i] = vals[:d]
        feat[i] = vals[d:]
    return GeometricGraph(feat, pos)


def check_replaceable(directory):
    """Refuse ``directory``, or a ``.partial`` or ``.old`` left beside it by a
    killed run, if it holds more than ``.graph`` files."""
    for path in (directory, f"{directory}.partial", f"{directory}.old"):
        if os.path.lexists(path) and not all(
                n.endswith(".graph") for n in os.listdir(path)):
            raise FileExistsError(f"{path} holds more than .graph files")


def save_graphs(directory, graphs):
    """Replace ``directory`` whole with ``graphs`` as ``00000.graph`` onwards,
    via ``<directory>.partial``; the old one goes to ``.old``, then away."""
    check_replaceable(directory)
    partial, old = f"{directory}.partial", f"{directory}.old"
    for path in (partial, old):  # left by a killed run
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(partial)
    try:
        for i, g in enumerate(graphs):
            save_graph(os.path.join(partial, f"{i:05d}.graph"), g)
        if os.path.lexists(directory):
            os.rename(directory, old)
        os.rename(partial, directory)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    if os.path.lexists(old):
        shutil.rmtree(old)


def load_graphs(directory):
    """The graphs of a ``save_graphs`` directory, in file-name order."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".graph"))
    return [load_graph(os.path.join(directory, n)) for n in names]
