"""Training, sampling, evaluation, and the empirical studies.

Batches are merged disjoint unions: node inputs of every graph in the batch
are concatenated, and so are the per-graph ``Structure``s (cluster ids,
coarse positions, edge lists) with offset ids, so one forward pass covers
the whole batch. The engine builds only this geometry; the model's
``forward_core`` pools its own coarse inputs. Each graph keeps its own noise
level t during training; sampling shares t across the batch, which makes
the per-graph structures reusable across integration steps when positions
are fixed.

Training and sampling carry the generated component (features or positions)
as a plain array; ``_fields`` joins it to a template, both for the
``merged_forward`` inputs and for the output ``GeometricGraph``s. Masks
reach ``generate``, which owns the cfm clamp, as ``(known, values)`` arrays.

``train`` is the one training loop. It builds a ``DmpModel`` unless given
a model; the attention study passes a ``FlatGat``, which ``merged_forward``
runs on the ``fully_connected`` structure (one-to-one clusters, all-pairs
edges).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import nn
from .config import BASELINES, MASK_TASKS, TrainConfig  # noqa: F401
from .dmp import DmpModel, FlatGat, Structure, node_input
from .graphs import (
    GeometricGraph,
    build_fully_connected_edges,
    build_knn_edges,
    build_long_short_edges,
    voxel_coarsen,
)
from .interpolant import generate, interpolate, regression_target
from .schedule import eval_schedule
from .tensor import Tensor, freed_pages_kept, no_grad
from .transport import gw_entropic, w2_exact

SAMPLE_BATCH = 64  # templates integrated together as one merged state
MASK_GENE = 1  # the gene gene_imputation withholds and gene_knockout clamps
KNOCKOUT_VALUE = -0.5  # gene_knockout's clamped expression
ATTENTION_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)  # noise t
ATTENTION_GRAPHS = 20  # test graphs the attention study reads


def n_workers():
    """Worker cap from the NCGN_THREADS environment variable (default 1)."""
    raw = os.environ.get("NCGN_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"NCGN_THREADS must be a positive integer, got {raw!r}")
    return value


def model_dims(graph: GeometricGraph, task):
    """(d_in, odim): the ``node_input`` width of ``graph``'s ``_fields``,
    and the width of its generated component."""
    z = _component(graph, task)
    features, positions = _fields(graph, z, task)
    return features.shape[1] + positions.shape[1] + 1, z.shape[1]


def build_model(graph: GeometricGraph, config: TrainConfig) -> DmpModel:
    if config.method == "random_pred":
        raise ValueError("method 'random_pred' is model-free: draw its samples "
                         "with random_generations instead of training")
    d_in, odim = model_dims(graph, config.task)
    return DmpModel(d_in, graph.dim, odim,
                    hdim=config.hdim, layers=config.layers,
                    mp_kind=config.mp_kind, seed=config.seed)


class StructureCache:
    """The one place a graph's ``Structure`` is decided: the run's
    ``TrainConfig``, the positions and t fix it. ``cache(positions, t)``
    asks ``dmp`` for voxel clusters and coarse kNN edges at
    ``eval_schedule(schedule_kind, t, N)``, or ``baseline`` for the
    one-to-one clusters and fixed edges of the BASELINES methods. Entries
    are keyed by position bytes and stored only in the features task, whose
    fixed positions (the transcriptomics grids) are clustered once; the
    positions task's noised positions never recur."""

    def __init__(self, config: TrainConfig):
        self.config = config
        self._store = {}

    def __call__(self, positions, t):
        config = self.config
        if config.method != "dmp":
            return self.baseline(positions)
        r_t, s_t = eval_schedule(config.schedule_kind, t, positions.shape[0])
        return self.dmp(positions, s_t, r_t)

    def _put(self, key, value):
        if self.config.task == "features":
            self._store[key] = value
        return value

    def dmp(self, positions, s_t, r_t):
        key = (positions.tobytes(), s_t, r_t)
        if key in self._store:
            return self._store[key]
        cluster_of, coarse_positions = voxel_coarsen(positions, s_t)
        edges = build_knn_edges(coarse_positions, r_t)
        return self._put(key, Structure(cluster_of, coarse_positions, edges))

    def baseline(self, positions):
        config = self.config
        if config.method not in BASELINES:
            raise ValueError(f"no fixed structure for method {config.method!r}; "
                             f"expected one of {BASELINES}")
        key = positions.tobytes()
        if key in self._store:
            return self._store[key]
        n = positions.shape[0]
        if config.method == "knn_fixed":
            edges = build_knn_edges(positions, config.knn_k)
        elif config.method == "fully_connected":
            edges = build_fully_connected_edges(n)
        else:
            edges = build_long_short_edges(positions, config.knn_k, config.seed)
        return self._put(key, Structure(np.arange(n, dtype=np.intp), positions,
                                        edges))


def merged_forward(model, parts, cache: StructureCache) -> Tensor:
    """One forward pass over a disjoint union; the package's only forward
    path (a single graph is a batch of one).

    ``model``: a ``DmpModel`` or ``FlatGat``, run through its
    ``forward_core``. ``parts``: list of (positions, inputs, t) per graph;
    ``cache`` gives each graph's ``Structure``. Cluster ids and coarse
    edges are offset so graphs never exchange messages.
    """
    cluster_of, coarse_pos, edges = [], [], []
    offset = 0
    for positions, _, t in parts:
        part = cache(positions, t)
        cluster_of.append(part.cluster_of + offset)
        coarse_pos.append(part.coarse_positions)
        edges.append(part.edges + offset)
        offset += part.coarse_positions.shape[0]
    structure = Structure(np.concatenate(cluster_of), np.concatenate(coarse_pos),
                          np.concatenate(edges))
    pos_all, in_all, _ = zip(*parts)
    return model.forward_core(np.concatenate(in_all), np.concatenate(pos_all),
                              structure)


def _component(graph, task):
    return graph.positions if task == "positions" else graph.features


def _fields(template, z, task):
    """(features, positions) of ``template`` with its generated component
    replaced by the N x odim array ``z``. Generated positions come with no
    features: a position model that saw them would see the target."""
    if task == "positions":
        return np.zeros((z.shape[0], 0)), z
    return z, template.positions


def _part(template, z, t, task):
    """``merged_forward`` part for ``template`` with its generated component
    replaced by ``z``."""
    features, positions = _fields(template, z, task)
    return positions, node_input(features, positions, t), t


def train(graphs, config: TrainConfig, model=None):
    """Flow-matching regression over a graph dataset.

    Trains ``model`` (any module with a ``forward_core``) in place, or a
    fresh ``build_model`` when it is None. Returns (model, ema, loss_rows)
    with loss_rows of (epoch, step, loss, lr). It is the one caller of
    ``tensor.freed_pages_kept``: its steps reuse each other's freed pages,
    and once the loop ends, also by an exception, the free heap goes back
    to the kernel, so what runs next starts below the loop's peak.
    """
    if not graphs:
        raise ValueError("empty dataset")
    if model is None:
        model = build_model(graphs[0], config)
    opt = nn.Adam(model.parameters(), lr=config.lr)
    ema = nn.EMA(model)
    cache = StructureCache(config)
    rng = np.random.default_rng(config.seed)
    rows = []
    step = 0
    with freed_pages_kept():
        for epoch in range(config.epochs):
            lr = config.lr * min(1.0, (epoch + 1) / max(config.warmup_epochs, 1))
            opt.lr = lr
            order = rng.permutation(len(graphs))
            for start in range(0, len(order), config.batch):
                batch = [graphs[i] for i in order[start:start + config.batch]]
                parts, targets = [], []
                for g in batch:
                    t = float(rng.uniform())
                    noise_seed = int(rng.integers(2**32))
                    z1 = _component(g, config.task)
                    z0 = rng.standard_normal(z1.shape)
                    z_t = interpolate(z0, z1, t, noise_seed)
                    targets.append(regression_target(z0, z1))
                    parts.append(_part(g, z_t, t, config.task))
                pred = merged_forward(model, parts, cache)
                diff = pred - Tensor(np.concatenate(targets))
                loss = (diff * diff).mean()
                value = float(loss.data)
                if not np.isfinite(value):
                    raise RuntimeError(f"non-finite loss at step {step}")
                opt.zero_grad()
                loss.backward()
                opt.step()
                ema.update(model)
                rows.append((epoch, step, value, lr))
                step += 1
    return model, ema, rows


def check_mask_task(task, mask_task):
    """Raise ValueError, naming both, when ``mask_task`` is given with a
    task other than ``features``: masks clamp feature channels."""
    if mask_task and task != "features":
        raise ValueError(f"mask_task={mask_task!r} conditions features; it "
                         f"cannot be used with task={task}")


def sample(model: DmpModel, templates, config: TrainConfig, mask_task="",
           seed=0):
    """Generate one graph per template with ``config.nfes`` integration steps.

    Templates provide node counts and the fixed component (positions for the
    feature task). Up to SAMPLE_BATCH templates are integrated together as
    one merged N x odim state. ``mask_task`` names one of MASK_TASKS (or is
    empty for none): each template's ``task_mask`` pairs are merged with the
    state and go to ``generate``, which clamps the known channels onto the
    cfm path. Masks condition the features task only: ``check_mask_task``
    raises for another task. ``seed`` seeds each chunk's prior draw ``z0``.
    The model is in eval mode while sampling and back in train mode
    afterwards, also when sampling raises.
    """
    check_mask_task(config.task, mask_task)
    cache = StructureCache(config)
    rng = np.random.default_rng(seed)
    odim = model.odim
    out = []
    model.eval()
    try:
        for start in range(0, len(templates), SAMPLE_BATCH):
            chunk = templates[start:start + SAMPLE_BATCH]
            bounds = np.cumsum([0] + [g.n_nodes for g in chunk])
            spans = list(zip(bounds[:-1], bounds[1:]))
            z0 = rng.standard_normal((bounds[-1], odim))
            clamp = (tuple(map(np.concatenate,
                               zip(*(task_mask(g, mask_task) for g in chunk))))
                     if mask_task else None)

            def field(z, t):
                parts = [_part(g, z[lo:hi], t, config.task)
                         for g, (lo, hi) in zip(chunk, spans)]
                with no_grad():
                    return merged_forward(model, parts, cache).data

            # nothing reads this draw; dropping it would change every later
            # chunk's z0, and so the samples of any run over several chunks
            rng.integers(2**32)
            z = generate(field, z0, config.nfes, mask=clamp)
            out.extend(GeometricGraph(*(a.copy() for a in
                                        _fields(g, z[lo:hi], config.task)))
                       for g, (lo, hi) in zip(chunk, spans))
    finally:
        model.train()
    return out


def random_generations(templates, task, seed=0, mask_task=""):
    """Standard-normal predictions in place of the generated component.

    ``mask_task`` names one of MASK_TASKS (or is empty for none), as for
    ``sample``; the known channels of each template's ``task_mask`` take
    their conditioning values. A mask with a task other than ``features``
    raises ValueError (``check_mask_task``).
    """
    check_mask_task(task, mask_task)
    rng = np.random.default_rng(seed)
    out = []
    for g in templates:
        z = rng.standard_normal(_component(g, task).shape)
        if mask_task:
            z = np.where(*task_mask(g, mask_task), z)
        out.append(GeometricGraph(*(a.copy() for a in _fields(g, z, task))))
    return out


# ----------------------------------------------------------------------
# evaluation


def _pool(graphs, task, name):
    """Each node's positions, then its generated features, as one row;
    graphs whose rows differ in width raise ValueError naming ``name``."""
    rows = [np.concatenate([p, f], axis=1)
            for f, p in (_fields(g, _component(g, task), task) for g in graphs)]
    widths = sorted({r.shape[1] for r in rows})
    if len(widths) > 1:
        raise ValueError(f"{name} graphs have rows of widths "
                         f"{' and '.join(map(str, widths))}; every row of a "
                         f"pool must have one width")
    return np.concatenate(rows)


def evaluate_w2(generated, reference, task, replicates=5, subsample=1024,
                seed=0):
    """Pooled-subsample 2-Wasserstein protocol.

    Pools every node of every graph on each side, draws ``replicates``
    independent subsamples of ``subsample`` points per side, and reports the
    mean and standard deviation of w2_exact. Pools smaller than the
    subsample are used whole, flagged via ``warned``. Replicates run on
    ``min(n_workers(), replicates)`` threads; the values do not depend on it.
    Rows of different widths, on one side or between the two, raise
    ValueError naming the side(s) and the widths.
    """
    for name, value in (("replicates", replicates), ("subsample", subsample)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    for name, graphs in (("generated", generated), ("reference", reference)):
        if not len(graphs):
            raise ValueError(f"{name} holds no graphs")
    gen = _pool(generated, task, "generated")
    ref = _pool(reference, task, "reference")
    if gen.shape[1] != ref.shape[1]:
        raise ValueError(f"generated rows have width {gen.shape[1]}, reference "
                         f"rows width {ref.shape[1]}")
    m = min(subsample, len(gen), len(ref))
    warned = m < subsample

    def one(i):
        rng = np.random.default_rng(seed + i)
        a = gen[rng.choice(len(gen), size=m, replace=False)]
        b = ref[rng.choice(len(ref), size=m, replace=False)]
        return w2_exact(a, b)

    with ThreadPoolExecutor(max_workers=min(n_workers(), replicates)) as pool:
        vals = list(pool.map(one, range(replicates)))
    return {"mean": float(np.mean(vals)), "std": float(np.std(vals)),
            "warned": warned, "values": vals}


# ----------------------------------------------------------------------
# conditional task masks (features task; positions are always observed)


def task_mask(graph: GeometricGraph, name):
    """Conditioning pattern for ``graph`` under ``name``, one of MASK_TASKS:
    a ``(known, values)`` pair of N x F arrays, ``known`` boolean.

    Positions are (time, space); the first coordinate orders timepoints.
    gene_knockout clamps gene MASK_GENE to KNOCKOUT_VALUE everywhere and
    generates the rest; gene_imputation observes all but gene MASK_GENE.
    """
    n, f = graph.n_nodes, graph.n_features
    known = np.zeros((n, f), dtype=bool)
    values = graph.features.copy()
    times = graph.positions[:, 0]
    if name == "temporal_trajectory":
        known[times == times.min()] = True
    elif name == "temporal_interpolation":
        known[(times == times.min()) | (times == times.max())] = True
    elif name == "gene_imputation":
        known[:, :] = True
        known[:, MASK_GENE] = False
    elif name == "spatial_imputation":
        space = graph.positions[:, 1]
        lo, hi = np.quantile(space, [1.0 / 3.0, 2.0 / 3.0])
        known[(space < lo) | (space > hi)] = True
    elif name == "gene_knockout":
        known[:, MASK_GENE] = True
        values[:, MASK_GENE] = KNOCKOUT_VALUE
    else:
        raise ValueError(f"unknown task name {name!r}")
    return known, values


# ----------------------------------------------------------------------
# studies


def attention_study(model: FlatGat, graphs, bins=10, seed=0):
    """Attention mass vs pair distance per noise bucket of
    ATTENTION_BUCKETS, over the first ATTENTION_GRAPHS graphs.

    Rows (t_bucket, bin_lo, bin_hi, weight) with each bucket's weights
    normalized to sum 1; bin edges are global across buckets.
    """
    graphs = graphs[:ATTENTION_GRAPHS]
    rng = np.random.default_rng(seed)
    collected = {t: ([], []) for t in ATTENTION_BUCKETS}
    for t in ATTENTION_BUCKETS:
        for g in graphs:
            z0 = rng.standard_normal(g.positions.shape)
            z_t = interpolate(z0, g.positions, t, int(rng.integers(2**32)))
            edges = build_fully_connected_edges(g.n_nodes)
            _, inputs, _ = _part(g, z_t, t, "positions")
            alpha = model.attention(inputs, Structure(np.arange(g.n_nodes), z_t, edges))
            rel = z_t[edges[:, 0]] - z_t[edges[:, 1]]
            dists = np.sqrt(np.einsum("ij,ij->i", rel, rel))
            collected[t][0].append(dists)
            collected[t][1].append(alpha)
    max_dist = max(d.max() for pair in collected.values() for d in pair[0])
    edges_out = np.linspace(0.0, max_dist, bins + 1)
    rows = []
    for t in ATTENTION_BUCKETS:
        dists = np.concatenate(collected[t][0])
        alpha = np.concatenate(collected[t][1])
        idx = np.clip(np.digitize(dists, edges_out) - 1, 0, bins - 1)
        weights = np.bincount(idx, weights=alpha, minlength=bins)
        weights = weights / weights.sum()
        for b in range(bins):
            rows.append((float(t), float(edges_out[b]), float(edges_out[b + 1]),
                         float(weights[b])))
    return rows


def gw_study(graphs, noise_grid=(0.9, 0.7, 0.5, 0.3, 0.1),
             cluster_grid=(4, 8, 16, 32, 64), n_shapes=20,
             n_seeds=3, iters=50, seed=0):
    """Gromov-Wasserstein between coarse-grained noised shapes and originals.

    For every noise level t (Gaussian noise of scale 1 - t on the
    positions) and cluster count, voxel-coarsens the noised cloud to its
    cluster means and averages gw_entropic (at its default eps) against the
    clean cloud over shapes and noise seeds. Returns (rows, argmin_rows) with
    rows (t, clusters, gw_mean) and argmin_rows (t, argmin_clusters).
    """
    graphs = graphs[:max(n_shapes, 0)]
    if not graphs or n_seeds < 1:
        raise ValueError(f"gw_study needs a (shape, seed) pair, got {len(graphs)} "
                         f"shapes (n_shapes={n_shapes}) and n_seeds={n_seeds}")
    rows = []
    argmin_rows = []
    for t in noise_grid:
        means = []
        for c in cluster_grid:
            vals = []
            for gi, g in enumerate(graphs):
                for s in range(n_seeds):
                    noise_seed = seed + 1000 * gi + s
                    noised = g.positions + (1.0 - t) * np.random.default_rng(
                        noise_seed).standard_normal(g.positions.shape)
                    _, coarse = voxel_coarsen(noised, c)
                    vals.append(gw_entropic(coarse, g.positions, iters=iters))
            mean = float(np.mean(vals))
            means.append(mean)
            rows.append((float(t), int(c), mean))
        argmin_rows.append((float(t), int(cluster_grid[int(np.argmin(means))])))
    return rows, argmin_rows

