"""Dataset generation and on-disk layout.

A dataset directory holds `train/` and `test/` (`graphs.save_graphs` and
`load_graphs`) and a plain-text `manifest` of `key: value` lines recording
counts and the seed. Only reaction-diffusion data records feature bounds: the
raw per-gene min and max its features were scaled with, next to the grid
shapes and the sign convention. Shape features are unscaled centroid offsets
and record none.
"""

from __future__ import annotations

import os

import numpy as np

from .graphs import load_graphs, save_graphs
from .reaction_diffusion import (
    RdParams,
    build_spatiotemporal_graph,
    simulate_rd,
)
from .shapes import SHAPE_KINDS, make_shape

# Trajectories per simulate_rd call in generate_rd_dataset. The simulator
# steps a chunk as (chunk, l) arrays, so numpy's per-call overhead is paid
# once per step for the whole chunk. 128 rows hold 37 MB of trajectory at
# the default schedule; 256 rows were no faster per trajectory.
RD_CHUNK = 128

# (n_space, n_time) grids of the train and test graphs: the two
# discretizations of the transcriptomics benchmark
TRAIN_SHAPE = (10, 10)
TEST_SHAPE = (8, 12)


class Dataset:
    def __init__(self, train, test, manifest):
        self.train = train
        self.test = test
        self.manifest = manifest


def _write_manifest(path, manifest):
    with open(path, "w") as fh:
        for key, val in manifest.items():
            fh.write(f"{key}: {val}\n")


def _read_manifest(path):
    manifest = {}
    with open(path) as fh:
        for ln_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if ": " not in line:
                raise ValueError(f"{path} line {ln_no}: expected 'key: value'")
            key, val = line.split(": ", 1)
            manifest[key] = val
    return manifest


def save_dataset(path, dataset: Dataset):
    save_graphs(os.path.join(path, "train"), dataset.train)
    save_graphs(os.path.join(path, "test"), dataset.test)
    _write_manifest(os.path.join(path, "manifest"), dataset.manifest)


def load_dataset(path) -> Dataset:
    manifest = _read_manifest(os.path.join(path, "manifest"))
    return Dataset(load_graphs(os.path.join(path, "train")),
                   load_graphs(os.path.join(path, "test")), manifest)


def check_counts(n_train, n_test):
    if min(n_train, n_test) < 0 or n_train + n_test == 0:
        raise ValueError(f"need n_train >= 0 and n_test >= 0 with at least one "
                         f"graph, got n_train={n_train}, n_test={n_test}")


def generate_rd_dataset(n_train=10000, n_test=2000, seed=0,
                        sign_convention="damped",
                        params: RdParams | None = None) -> Dataset:
    """Simulate reaction-diffusion trajectories and cut them into graphs.

    Trajectory i uses seed ``seed + i`` and the first n_train form the
    train split; ``simulate_rd`` runs ``RD_CHUNK`` of them per call. Train
    graphs use ``TRAIN_SHAPE`` = (n_space, n_time) nodes, test graphs
    ``TEST_SHAPE``, per the two discretizations. This is the one place RD
    features are scaled: each gene's raw value x becomes
    ``(x - lo) / (hi - lo) - 0.5`` in one pass, with lo and hi the gene's
    min and max over every subsampled node of both splits (a constant gene
    divides by 1 instead). The manifest records lo and hi.
    """
    check_counts(n_train, n_test)
    if params is None:
        params = RdParams(sign_convention=sign_convention)
    total = n_train + n_test
    graphs = []
    for start in range(0, total, RD_CHUNK):
        stop = min(start + RD_CHUNK, total)
        trajectories = simulate_rd(params, seed=range(seed + start, seed + stop))
        for i, traj in enumerate(trajectories, start):
            n_space, n_time = TRAIN_SHAPE if i < n_train else TEST_SHAPE
            graphs.append(build_spatiotemporal_graph(traj, n_space, n_time))
    all_feats = np.concatenate([g.features for g in graphs])
    lo, hi = all_feats.min(axis=0), all_feats.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    for g in graphs:
        g.features = (g.features - lo) / span - 0.5
    manifest = {
        "kind": "reaction-diffusion",
        "n_train": str(n_train),
        "n_test": str(n_test),
        "train_shape": f"{TRAIN_SHAPE[0]} {TRAIN_SHAPE[1]}",
        "test_shape": f"{TEST_SHAPE[0]} {TEST_SHAPE[1]}",
        "seed": str(seed),
        "convention": params.sign_convention,
        "feature_min": " ".join(repr(float(v)) for v in lo),
        "feature_max": " ".join(repr(float(v)) for v in hi),
    }
    return Dataset(graphs[:n_train], graphs[n_train:], manifest)


def generate_shape_dataset(n_train=500, n_test=100, n_points=64,
                           seed=0) -> Dataset:
    """Surface point clouds cycling through the five shape kinds."""
    check_counts(n_train, n_test)

    def build(count, offset):
        graphs = []
        for i in range(count):
            kind = SHAPE_KINDS[i % len(SHAPE_KINDS)]
            graphs.append(make_shape(kind, n_points, seed + offset + i))
        return graphs

    manifest = {
        "kind": "shapes",
        "n_train": str(n_train),
        "n_test": str(n_test),
        "n_points": str(n_points),
        "seed": str(seed),
    }
    return Dataset(build(n_train, 0), build(n_test, n_train), manifest)
