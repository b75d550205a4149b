"""Dynamic message passing (DMP) network layers.

``DmpModel.forward_core`` runs one pass over a prebuilt coarse
``Structure``: lift node inputs and their cluster member means, then for
each layer coarsen node vectors onto their clusters, message pass over the
coarse edges, and gate the result back onto the nodes; a final projection
gives the per-node output. The ``Structure`` builds each
``tensor.SparsePlan`` of the pass once: the cluster incidence ``members``
(one row per cluster, its members in node order), which sums, averages
and gathers over clusters, and each conv's edge plan. Every layer, the
backward and any later pass over it share them; no op builds a plan.

``Structure`` is the one coarse-structure type: ``engine.StructureCache``
builds one per graph and ``engine.merged_forward``, the package's one
forward path, concatenates them with offset ids. DMP takes s_t voxel
clusters and a kNN graph with k = r_t, where (r_t, s_t) is the schedule
point ``schedule.eval_schedule(kind, t, N)``; the fixed-structure baselines
take one-to-one clusters and a fixed edge builder, so DMP with singleton
clusters reproduces them exactly.
``FlatGat``, the attention study's single GAT layer, has a
``forward_core`` of the same signature, so it also runs through
``merged_forward`` (with the ``fully_connected`` structure) and trains
through ``engine.train``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import nn
from .tensor import (SparsePlan, Tensor, _check_ids, concat, gated_blend,
                     no_grad, segment_softmax, segment_sum)

MP_KINDS = ("gcn", "gat")


def node_input(features: np.ndarray, positions: np.ndarray,
               t: float) -> np.ndarray:
    """Rows of [features || positions || t] for N x f ``features`` (f may
    be 0) and N x d ``positions``; d_in = f + d + 1."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    tcol = np.full((positions.shape[0], 1), float(t))
    return np.concatenate([features, positions, tcol], axis=1)


@dataclass
class Structure:
    """Coarse structure of one graph, or of a merged batch of disjoint
    graphs with offset cluster ids, and its plans, each built on first use
    and kept. ``edges`` must be E x 2 with ids in ``[0, s')``: the
    ValueError names its shape or the first bad id."""

    cluster_of: np.ndarray        # node -> coarse node
    coarse_positions: np.ndarray  # s' x d
    edges: np.ndarray             # coarse (source, target) pairs

    def __post_init__(self):
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError(f"edges must be an E x 2 array of (source, target) "
                             f"ids, got shape {self.edges.shape}")
        _check_ids(self.edges, self.coarse_positions.shape[0])

    @cached_property
    def members(self) -> SparsePlan:
        """One row per coarse node: its members, in node order."""
        n = self.cluster_of.size
        return SparsePlan(self.cluster_of, np.arange(n),
                          (self.coarse_positions.shape[0], n))

    @cached_property
    def gcn_plan(self) -> SparsePlan:
        """One row per coarse node: its in-edges' sources, in edge order."""
        n = self.coarse_positions.shape[0]
        return SparsePlan(self.edges[:, 1], self.edges[:, 0], (n, n))

    @cached_property
    def gat_plan(self) -> SparsePlan:
        """``gcn_plan``'s rows, each ending with its node's own entry, column
        ``s' + node``: the columns stack the sources' rows and the nodes'."""
        n = self.coarse_positions.shape[0]
        own = np.arange(n, dtype=np.intp)
        return SparsePlan(np.concatenate([self.edges[:, 1], own]),
                          np.concatenate([self.edges[:, 0], n + own]), (n, 2 * n))


class GcnConv(nn.Module):
    """Mean aggregation over in-neighbors followed by a shared bias-free
    linear map (its output reaches a batch norm only through linear maps);
    a node with no in-neighbors gets zeros.

    The aggregation is one ``tensor.segment_sum`` with unit weights over
    the structure's ``gcn_plan``: each target's row adds its in-neighbors'
    vectors in edge order, the float additions of summing ``h[src]`` by
    target, and the degree is the row's entry count. The node keeps no
    per-edge array."""

    def __init__(self, hdim, rng):
        self.lin = nn.Linear(hdim, hdim, rng, bias=False)

    def __call__(self, h: Tensor, structure: Structure) -> Tensor:
        plan = structure.gcn_plan
        deg = np.diff(plan.indptr).astype(np.float64)
        inv = 1.0 / np.maximum(deg, 1.0)
        return self.lin(segment_sum(plan, h) * inv[:, None])


class GatConv(nn.Module):
    """Attention over each target's {self} + in-neighbors.

    The per-entry logits of the structure's ``gat_plan`` gather by the
    plan and its transpose; their softmax α over each row is
    ``tensor.segment_softmax``. The aggregation is one ``tensor.segment_sum``
    with weights α over the stack ``[lin_t(h); lin_s(h)]``: each target's
    row adds its in-neighbors' ``lin_t`` rows in edge order, then its own
    ``lin_s`` row, the float operations of summing ``concat([vals_t[src],
    vals_s]) * α`` by target. The node keeps N x h arrays and α, no (E + N)
    x h array."""

    def __init__(self, hdim, rng):
        self.lin_s = nn.Linear(hdim, hdim, rng)
        self.lin_t = nn.Linear(hdim, hdim, rng)
        self.att_s = Tensor(rng.normal(0.0, 1.0 / np.sqrt(hdim), size=(hdim, 1)),
                            requires_grad=True)
        self.att_t = Tensor(rng.normal(0.0, 1.0 / np.sqrt(hdim), size=(hdim, 1)),
                            requires_grad=True)

    def _alpha(self, h: Tensor, plan: SparsePlan):
        """``(alpha, vals_s, vals_t)``: the attention weights in plan entry
        order (the edges, then each node's self entry) and the two maps."""
        vals_s = self.lin_s(h)
        vals_t = self.lin_t(h)
        # row-wise sums rather than an N x 1 matmul, whose BLAS rounding
        # depends on the row's offset in a merged batch
        score_s = (vals_s * self.att_s.reshape(1, -1)).sum(axis=1)
        score_t = (vals_t * self.att_t.reshape(1, -1)).sum(axis=1)
        # a self entry's column s' + i reads score_t[i] from the stack
        logits = (score_s.gather_rows(plan)
                  + concat([score_t, score_t], axis=0).gather_rows(plan.T))
        return segment_softmax(logits.leaky_relu(), plan), vals_s, vals_t

    def __call__(self, h: Tensor, structure: Structure) -> Tensor:
        plan = structure.gat_plan
        alpha, vals_s, vals_t = self._alpha(h, plan)
        return segment_sum(plan, concat([vals_t, vals_s], axis=0), alpha)

    def attention(self, h: Tensor, structure: Structure) -> np.ndarray:
        """Edge attention weights (in edge order), no grad."""
        alpha, _, _ = self._alpha(h, structure.gat_plan)
        return alpha.data[: structure.edges.shape[0]].copy()


class _PointMessage(nn.Module):
    """Shared form of the coarsen/uncoarsen message: three bias-free linear
    encodings (node/cluster vector pair, position offset, distance) fed to
    an MLP. Their sum feeds the MLP's first batch norm, which would cancel
    any bias.

    ``lin_pair`` maps the 2h-wide pair [coarse || node] (``coarse_first``)
    or [node || coarse]. Its coarse half runs on the coarse rows and is
    gathered by ``members`` afterwards, which equals gathering first and
    multiplying the concatenated pair up to summation order. Its weight's
    halves are gathers by the plans ``halves``.

    The encodings are the MLP's input blocks, so the MLP runs as one graph
    node (``tensor.mlp``): the pair encoding is a tensor block, and the
    position and distance encodings are ``(rel, lin_rel.weight)`` and
    ``(dist, lin_dist.weight)`` pairs. The MLP's first weight W multiplies
    them block by block, ``pair @ W[:h] + rel @ (lin_rel.weight @ W[h:2h])
    + dist @ (lin_dist.weight @ W[2h:])``, whose bytes the results are: no
    position encoding or N x 3h concatenation is formed, forward or
    backward. ``lin_rel`` and ``lin_dist`` only hold their weights. The
    MLP node does not keep the pair sum either: its backward rebuilds it,
    ``h @ W_node + (h_coarse @ W_coarse)[members.rows]`` with the forward's
    float operations, from ``h``, ``h_coarse`` and the two halves of
    ``lin_pair``'s weight, which the products' nodes keep anyway.
    """

    def __init__(self, hdim, d, rng):
        self.lin_pair = nn.Linear(2 * hdim, hdim, rng, bias=False)
        self.lin_rel = nn.Linear(d, hdim, rng, bias=False)
        self.lin_dist = nn.Linear(1, hdim, rng, bias=False)
        self.mlp = nn.MLP([3 * hdim, hdim, hdim], rng)
        half = np.arange(hdim)
        self.halves = tuple(SparsePlan(rows, half, (2 * hdim, hdim))
                            for rows in (half, hdim + half))

    def __call__(self, h: Tensor, h_coarse: Tensor, members: SparsePlan,
                 coarse_first: bool, rel: np.ndarray, dist: np.ndarray) -> Tensor:
        first, second = self.halves
        coarse_half, node_half = (first, second) if coarse_first else (second, first)
        weight = self.lin_pair.weight
        w_node, w_coarse = (weight.gather_rows(half) for half in (node_half, coarse_half))
        pair = h @ w_node + (h_coarse @ w_coarse).gather_rows(members)
        # the products' nodes keep these arrays for the weight's gradient
        x, x_coarse, u, u_coarse = h.data, h_coarse.data, w_node.data, w_coarse.data

        def rebuild():
            return x @ u + (x_coarse @ u_coarse)[members.rows]

        return self.mlp([(pair, rebuild), (rel, self.lin_rel.weight),
                         (dist, self.lin_dist.weight)])


class DmpLayer(nn.Module):
    """One coarsen / message pass / uncoarsen block. ``out_bias=False``
    drops the bias of ``combine``'s last layer, for the final block, whose
    output feeds the projection's batch norm through a linear map.

    The uncoarsen step gates the spread coarse message into the node state,
    ``lam * h + (1 - lam) * spread`` with ``lam`` the sigmoid of
    ``gate([h, spread])``, as one ``tensor.gated_blend`` node. It takes the
    gate's output as a rebuilt block, ``h @ W_h + spread @ W_spread + b``
    with the gate Linear's float operations, so no node keeps the logits
    or ``lam``. ``combine`` takes the blend as a rebuilt block, so its
    node keeps no blend output: its backward blends again from the rebuilt
    logits, ``h`` and ``spread``, which the gate's node keeps. An MLP node
    keeps no N-row array per hidden layer: its backward rebuilds each
    layer's Gaussian CDF."""

    def __init__(self, hdim, d, mp_kind, rng, out_bias):
        self.coarsen_msg = _PointMessage(hdim, d, rng)
        if mp_kind not in MP_KINDS:
            raise ValueError(f"unknown mp_kind {mp_kind!r}")
        self.mp = (GcnConv if mp_kind == "gcn" else GatConv)(hdim, rng)
        self.uncoarsen_msg = _PointMessage(hdim, d, rng)
        self.gate = nn.Linear(2 * hdim, hdim, rng)
        self.combine = nn.MLP([hdim, hdim, hdim], rng, bias=out_bias)

    def coarsen(self, h: Tensor, h_coarse: Tensor, rel, dist,
                members: SparsePlan) -> Tensor:
        msg = self.coarsen_msg(h, h_coarse, members, True, rel, dist)
        return segment_sum(members, msg)

    def uncoarsen(self, h: Tensor, h_coarse: Tensor, rel, dist,
                  members: SparsePlan) -> Tensor:
        spread = self.uncoarsen_msg(h, h_coarse, members, False, -rel, dist)
        # the gate's and the blend's nodes keep these arrays anyway
        x, y = h.data, spread.data
        w, bias, c = self.gate.weight.data, self.gate.bias.data, x.shape[1]

        def logits():
            z = x @ w[:c]
            z += y @ w[c:]
            z += bias
            return z

        blend = gated_blend((self.gate([h, spread]), logits), h, spread)
        return self.combine([blend])


class DmpModel(nn.Module):
    """K-layer dynamic message passing network.

    ``d_in`` = f + d + 1 node input width, ``d`` the position dimension,
    ``odim`` the predicted component's width.
    """

    def __init__(self, d_in, d, odim, hdim=64, layers=3, mp_kind="gcn",
                 seed=0):
        if layers < 1:
            raise ValueError("need at least one layer")
        rng = np.random.default_rng(seed)
        self.odim = odim
        self.lift = nn.MLP([d_in, hdim, hdim, hdim], rng)
        # lift_coarse feeds only the coarsen message's lin_pair
        self.lift_coarse = nn.MLP([d_in, hdim, hdim, hdim], rng, bias=False)
        self.blocks = [DmpLayer(hdim, d, mp_kind, rng, out_bias=k < layers - 1)
                       for k in range(layers)]
        self.project = nn.MLP([hdim, hdim, hdim, odim], rng)

    def forward_core(self, inputs: np.ndarray, positions: np.ndarray,
                     structure: Structure) -> Tensor:
        """Shared forward over a prebuilt coarse structure, whose plans
        every layer and the backward share."""
        members = structure.members
        counts = np.maximum(np.diff(members.indptr), 1.0)[:, None]
        rel = structure.coarse_positions[structure.cluster_of] - positions
        dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))[:, None]
        h = self.lift(Tensor(inputs))
        # layer 0 lifts the member means of the inputs; later layers re-seed
        # coarse vectors from the current node state
        h_coarse = self.lift_coarse(Tensor(segment_sum(members, inputs).data / counts))
        for k, block in enumerate(self.blocks):
            if k > 0:
                h_coarse = segment_sum(members, h) * (1.0 / counts)
            h_coarse = block.coarsen(h, h_coarse, rel, dist, members)
            h_coarse = block.mp(h_coarse, structure)
            h = block.uncoarsen(h, h_coarse, rel, dist, members)
        return self.project(h)


class FlatGat(nn.Module):
    """Single attention layer used for the noise-vs-range study; trained
    with the ``fully_connected`` method, whose one-to-one clusters make its
    structure edges all node pairs."""

    def __init__(self, d_in, odim, hdim=32, seed=0):
        rng = np.random.default_rng(seed)
        self.lift = nn.Linear(d_in, hdim, rng)
        self.conv = GatConv(hdim, rng)
        self.project = nn.Linear(hdim, odim, rng)

    def forward_core(self, inputs: np.ndarray, positions: np.ndarray,
                     structure: Structure) -> Tensor:
        """Lift, attend over ``structure.edges`` (node ids under one-to-one
        clusters), project; ``positions`` is unused."""
        return self.project(self.conv(self.lift(Tensor(inputs)), structure))

    def attention(self, inputs: np.ndarray, structure: Structure) -> np.ndarray:
        with no_grad():
            return self.conv.attention(self.lift(Tensor(inputs)), structure)
