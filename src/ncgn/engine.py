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
as a plain array; ``_part`` pairs it with the template's fixed component to
make a ``merged_forward`` input, and ``sample`` wraps the result back into
``GeometricGraph``s only at the end.

``train`` is the one training loop. It builds a ``DmpModel`` unless given
a model; the attention study passes a ``FlatGat``, which ``merged_forward``
runs on the ``fully_connected`` structure (one-to-one clusters, all-pairs
edges).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .dmp import DmpModel, FlatGat, Structure, node_input
from .graphs import (
    GeometricGraph,
    build_fully_connected_edges,
    build_knn_edges,
    build_long_short_edges,
    voxel_coarsen,
)
from .interpolant import InterpolantSpec, generate, interpolate, regression_target
from .schedule import default_bounds, eval_schedule
from .tensor import Tensor, no_grad
from .transport import PointCloud, gw_entropic, w2_exact

BASELINES = ("knn_fixed", "fully_connected", "long_short")
METHODS = ("dmp",) + BASELINES + ("random_pred",)
SAMPLE_BATCH = 64  # templates integrated together as one merged state


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


@dataclass
class TrainConfig:
    task: str = "features"
    method: str = "dmp"
    mp_kind: str = "gcn"
    interpolant: str = "cfm"
    schedule_kind: str = "exponential"
    epochs: int = 300
    batch: int = 128
    lr: float = 1e-3
    warmup_epochs: int = 10
    hdim: int = 32
    layers: int = 3
    knn_k: int = 8
    nfes: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.task not in ("features", "positions"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        self.interpolant_spec()
        if min(self.epochs, self.batch, self.hdim, self.layers, self.nfes) < 1:
            raise ValueError("epochs, batch, hdim, layers, nfes must be positive")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("need 0 <= warmup_epochs <= epochs")

    def interpolant_spec(self):
        return InterpolantSpec(kind=self.interpolant)


@dataclass
class ConditionMask:
    """Per-node, per-channel known indicator with the known values."""

    known: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.known = np.asarray(self.known, dtype=bool)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.known.shape != self.values.shape:
            raise ValueError("known and values must have the same shape")
        if not np.isfinite(self.values[self.known]).all():
            raise ValueError("known values must be finite where masked")


def model_dims(graph: GeometricGraph, task):
    """(d_in, odim); position-generation models see no features (they
    would leak the target)."""
    if task == "positions":
        return graph.dim + 1, graph.dim
    return graph.n_features + graph.dim + 1, graph.n_features


def build_model(graph: GeometricGraph, config: TrainConfig) -> DmpModel:
    d_in, odim = model_dims(graph, config.task)
    return DmpModel(d_in, graph.dim, odim,
                    hdim=config.hdim, layers=config.layers,
                    mp_kind=config.mp_kind, seed=config.seed)


class StructureCache:
    """Per-graph ``Structure``s keyed by position bytes, so fixed positions
    (the transcriptomics grids) are only clustered once. ``dmp`` builds the
    noise-scheduled coarse structure, ``baseline`` the one-to-one clusters
    and fixed edges of the BASELINES methods.

    With ``keep=False`` nothing is stored and every lookup builds afresh;
    ``train`` and ``sample`` use it for the positions task, whose noised
    positions never recur."""

    def __init__(self, keep=True):
        self.keep = keep
        self._store = {}

    def __len__(self):
        return len(self._store)

    def _put(self, key, value):
        if self.keep:
            self._store[key] = value
        return value

    def dmp(self, positions, s_t, r_t):
        key = (positions.tobytes(), s_t, r_t)
        if key in self._store:
            return self._store[key]
        cluster_of, coarse_positions = voxel_coarsen(positions, s_t)
        edges = build_knn_edges(coarse_positions, r_t)
        return self._put(key, Structure(cluster_of, coarse_positions, edges))

    def baseline(self, positions, method, k, seed):
        if method not in BASELINES:
            raise ValueError(f"no fixed structure for method {method!r}; "
                             f"expected one of {BASELINES}")
        key = (positions.tobytes(), method, k)
        if key in self._store:
            return self._store[key]
        n = positions.shape[0]
        if method == "knn_fixed":
            edges = build_knn_edges(positions, k)
        elif method == "fully_connected":
            edges = build_fully_connected_edges(n)
        else:
            edges = build_long_short_edges(positions, k, seed)
        return self._put(key, Structure(np.arange(n, dtype=np.intp), positions,
                                        edges))


def _slice_structure(positions, t, config: TrainConfig, cache: StructureCache):
    n = positions.shape[0]
    if config.method == "dmp":
        r_t, s_t = eval_schedule(default_bounds(n, config.schedule_kind), t, n)
        return cache.dmp(positions, s_t, r_t)
    return cache.baseline(positions, config.method, config.knn_k, config.seed)


def merged_forward(model, parts, config: TrainConfig,
                   cache: StructureCache) -> Tensor:
    """One forward pass over a disjoint union; the package's only forward
    path (a single graph is a batch of one).

    ``model``: a ``DmpModel`` or ``FlatGat``, run through its
    ``forward_core``. ``parts``: list of (positions, inputs, t) per graph.
    Cluster ids and coarse edges are offset so graphs never exchange
    messages.
    """
    cluster_of, coarse_pos, edges = [], [], []
    offset = 0
    for positions, _, t in parts:
        part = _slice_structure(positions, t, config, cache)
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


def _with_component(template, z, task):
    """Copy of ``template`` with its generated component set to ``z``;
    generated positions come with no features."""
    if task == "positions":
        return GeometricGraph(None, z)
    return GeometricGraph(z, template.positions.copy())


def _part(template, z, t, task):
    """``merged_forward`` part for a template whose generated component is
    replaced by the N x odim array ``z``; position parts carry no features."""
    if task == "positions":
        return z, node_input(np.zeros((z.shape[0], 0)), z, t), t
    return template.positions, node_input(z, template.positions, t), t


def train(graphs, config: TrainConfig, loss_path=None, model=None):
    """Flow-matching / diffusion regression over a graph dataset.

    Trains ``model`` (any module with a ``forward_core``) in place, or a
    fresh ``build_model`` when it is None. Returns (model, ema, loss_rows)
    with loss_rows of (epoch, step, loss, lr); ``loss_path`` additionally
    writes them as CSV.
    """
    if not graphs:
        raise ValueError("empty dataset")
    if config.method == "random_pred":
        raise ValueError("method 'random_pred' is model-free: draw its samples "
                         "with random_generations instead of training")
    spec = config.interpolant_spec()
    if model is None:
        model = build_model(graphs[0], config)
    opt = nn.Adam(model.parameters(), lr=config.lr)
    ema = nn.EMA(model)
    cache = StructureCache(keep=config.task == "features")
    rng = np.random.default_rng(config.seed)
    rows = []
    step = 0
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
                z_t = interpolate(z0, z1, t, spec, noise_seed)
                targets.append(regression_target(z0, z1, spec, seed=noise_seed))
                parts.append(_part(g, z_t, t, config.task))
            pred = merged_forward(model, parts, config, cache)
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
    if loss_path is not None:
        write_csv(loss_path, ("epoch", "step", "loss", "lr"), rows)
    return model, ema, rows


def sample(model: DmpModel, templates, config: TrainConfig, mask=None,
           nfes=None, seed=0):
    """Generate one graph per template.

    Templates provide node counts and the fixed component (positions for the
    feature task). Up to SAMPLE_BATCH templates are integrated together as
    one merged N x odim state. ``mask`` is a per-template list of
    ConditionMask (or None entries); known channels are re-clamped after
    every integration step onto the straight path (1 - t) * z0 + t * value,
    which lands exactly on the conditioning values at t = 1. The model is in
    eval mode while sampling and back in train mode afterwards, also when
    sampling raises.
    """
    nfes = config.nfes if nfes is None else nfes
    if mask is not None and len(mask) != len(templates):
        raise ValueError("need one mask entry per template")
    spec = config.interpolant_spec()
    cache = StructureCache(keep=config.task == "features")
    rng = np.random.default_rng(seed)
    odim = model.odim
    out = []
    model.eval()
    try:
        for start in range(0, len(templates), SAMPLE_BATCH):
            chunk = templates[start:start + SAMPLE_BATCH]
            masks = (mask[start:start + SAMPLE_BATCH] if mask is not None
                     else [None] * len(chunk))
            bounds = np.cumsum([0] + [g.n_nodes for g in chunk])
            spans = list(zip(bounds[:-1], bounds[1:]))
            z0 = rng.standard_normal((bounds[-1], odim))
            known = np.zeros(z0.shape, dtype=bool)
            values = np.zeros(z0.shape)
            for m, (lo, hi) in zip(masks, spans):
                if m is None:
                    continue
                if m.known.shape != (hi - lo, odim):
                    raise ValueError("mask shape mismatch")
                known[lo:hi] = m.known
                values[lo:hi] = m.values

            def field(z, t):
                parts = [_part(g, z[lo:hi], t, config.task)
                         for g, (lo, hi) in zip(chunk, spans)]
                with no_grad():
                    return merged_forward(model, parts, config, cache).data

            def clamp(z, t):
                if known.any():
                    z[known] = (1.0 - t) * z0[known] + t * values[known]

            prior = z0.copy()
            clamp(prior, 0.0)
            z = generate(field, prior, spec, nfes,
                         seed=int(rng.integers(2**32)), callback=clamp)
            out.extend(_with_component(g, z[lo:hi].copy(), config.task)
                       for g, (lo, hi) in zip(chunk, spans))
    finally:
        model.train()
    return out


def random_generations(templates, task, seed=0, mask=None):
    """Standard-normal predictions in place of the generated component.

    ``mask`` is a per-template list of ConditionMask (or None entries), as
    for ``sample``; known channels take their conditioning values.
    """
    if mask is not None and len(mask) != len(templates):
        raise ValueError("need one mask entry per template")
    rng = np.random.default_rng(seed)
    out = []
    for g, m in zip(templates, mask or [None] * len(templates)):
        z = rng.standard_normal(_component(g, task).shape)
        if m is not None:
            if m.known.shape != z.shape:
                raise ValueError("mask shape mismatch")
            z[m.known] = m.values[m.known]
        out.append(_with_component(g, z, task))
    return out


# ----------------------------------------------------------------------
# evaluation


def _pool(graphs, task):
    if task == "positions":
        return np.concatenate([g.positions for g in graphs])
    return np.concatenate(
        [np.concatenate([g.positions, g.features], axis=1) for g in graphs]
    )


def evaluate_w2(generated, reference, task, replicates=5, subsample=1024,
                seed=0):
    """Pooled-subsample 2-Wasserstein protocol.

    Pools every node of every graph on each side, draws ``replicates``
    independent subsamples of ``subsample`` points per side, and reports the
    mean and standard deviation of w2_exact. Pools smaller than the
    subsample are used whole, flagged via ``warned``.
    """
    gen, ref = _pool(generated, task), _pool(reference, task)
    m = min(subsample, len(gen), len(ref))
    warned = m < subsample

    def one(i):
        rng = np.random.default_rng(seed + i)
        a = gen[rng.choice(len(gen), size=m, replace=False)]
        b = ref[rng.choice(len(ref), size=m, replace=False)]
        return w2_exact(PointCloud(a), PointCloud(b))

    workers = min(n_workers(), replicates)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            vals = list(pool.map(one, range(replicates)))
    else:
        vals = [one(i) for i in range(replicates)]
    return {"mean": float(np.mean(vals)), "std": float(np.std(vals)),
            "warned": warned, "values": vals}


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


# ----------------------------------------------------------------------
# conditional task masks (features task; positions are always observed)


def task_mask(graph: GeometricGraph, name, gene=1,
              knockout_value=-0.5) -> ConditionMask:
    """Conditioning pattern for the named transcriptomics task.

    Positions are (time, space); the first coordinate orders timepoints.
    gene_knockout clamps one gene to ``knockout_value`` everywhere and
    generates the rest; gene_imputation observes all but one gene.
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
        known[:, gene] = False
    elif name == "spatial_imputation":
        space = graph.positions[:, 1]
        lo, hi = np.quantile(space, [1.0 / 3.0, 2.0 / 3.0])
        known[(space < lo) | (space > hi)] = True
    elif name == "gene_knockout":
        known[:, gene] = True
        values[:, gene] = knockout_value
    else:
        raise ValueError(f"unknown task name {name!r}")
    return ConditionMask(known, values)


# ----------------------------------------------------------------------
# studies


def attention_study(model: FlatGat, graphs, bins=10,
                    t_buckets=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                    seed=0, max_graphs=20):
    """Attention mass vs pair distance per noise bucket.

    Rows (t_bucket, bin_lo, bin_hi, weight) with each bucket's weights
    normalized to sum 1; bin edges are global across buckets.
    """
    graphs = graphs[:max_graphs]
    spec = InterpolantSpec(kind="cfm")
    rng = np.random.default_rng(seed)
    collected = {t: ([], []) for t in t_buckets}
    for t in t_buckets:
        for g in graphs:
            z0 = rng.standard_normal(g.positions.shape)
            z_t = interpolate(z0, g.positions, t, spec, int(rng.integers(2**32)))
            edges = build_fully_connected_edges(g.n_nodes)
            _, inputs, _ = _part(g, z_t, t, "positions")
            alpha = model.attention(inputs, edges)
            rel = z_t[edges[:, 0]] - z_t[edges[:, 1]]
            dists = np.sqrt(np.einsum("ij,ij->i", rel, rel))
            collected[t][0].append(dists)
            collected[t][1].append(alpha)
    max_dist = max(d.max() for pair in collected.values() for d in pair[0])
    edges_out = np.linspace(0.0, max_dist, bins + 1)
    rows = []
    for t in t_buckets:
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
             n_seeds=3, eps=0.05, iters=50, seed=0):
    """Gromov-Wasserstein between coarse-grained noised shapes and originals.

    For every noise level t (Gaussian noise of scale 1 - t on the
    positions) and cluster count, voxel-coarsens the noised cloud to its
    cluster means and averages gw_entropic against the clean cloud over
    shapes and noise seeds. Returns (rows, argmin_rows) with rows
    (t, clusters, gw_mean) and argmin_rows (t, argmin_clusters).
    """
    graphs = graphs[:n_shapes]
    rows = []
    argmin_rows = []
    for t in noise_grid:
        means = []
        for c in cluster_grid:
            vals = []
            for gi, g in enumerate(graphs):
                clean = PointCloud(g.positions)
                for s in range(n_seeds):
                    noise_seed = seed + 1000 * gi + s
                    noised = g.positions + (1.0 - t) * np.random.default_rng(
                        noise_seed).standard_normal(g.positions.shape)
                    _, coarse = voxel_coarsen(noised, c)
                    vals.append(gw_entropic(PointCloud(coarse), clean,
                                            eps=eps, iters=iters))
            mean = float(np.mean(vals))
            means.append(mean)
            rows.append((float(t), int(c), mean))
        argmin_rows.append((float(t), int(cluster_grid[int(np.argmin(means))])))
    return rows, argmin_rows


def ablate_depth(train_graphs, test_graphs, config: TrainConfig,
                 depths=(2, 4, 8, 16), seed=0):
    """Config sweep over layer counts; rows (layers, w2_mean, w2_std)."""
    rows = []
    for k in depths:
        cfg = replace(config, layers=k)
        model, ema, _ = train(train_graphs, cfg)
        ema.copy_to(model)
        generated = sample(model, test_graphs, cfg, seed=seed)
        result = evaluate_w2(generated, test_graphs, cfg.task, seed=seed)
        rows.append((int(k), result["mean"], result["std"]))
    return rows
