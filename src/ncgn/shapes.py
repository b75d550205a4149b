"""Synthetic 3-D shape sampler.

Each shape is a closed surface centered at the origin and scaled to fit the
cube [-0.5, 0.5]^3; points are drawn uniformly with respect to surface area.
Node features are the displacement from the empirical centroid, so they sum
to zero exactly.

Draw order. A seed fixes the bytes of every shape, so each sampler reads its
generator in a fixed order, as whole arrays, with a fixed number of doubles
per point in point order:

- sphere: 3 standard normals per point;
- cube: n face ids, then a (u, v) pair per point;
- prism: n face ids (``choice``), then 2 doubles per point: a cap point's
  (u, v), or a side point's place along its edge and its height;
- cylinder: n face ids, n angles, then 1 double per point: a side point's
  height or a cap point's squared radius;
- torus: n ring angles, then (tube angle, accept) pairs until n are
  accepted; point i takes the i-th accepted tube angle.

The torus draws its pairs in batches, so its generator may end past the
last pair a point uses. That is safe only because ``make_shape`` makes the
generator itself and draws nothing from it after the positions.
"""

from __future__ import annotations

import numpy as np

from .graphs import GeometricGraph

SHAPE_KINDS = ("sphere", "cube", "prism", "cylinder", "torus")
MIN_POINTS = 4

TORUS_MAJOR = 0.35
TORUS_MINOR = 0.15

# the two axes spanning each cube face, by its normal axis
_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])


def _sphere(n, rng):
    z = rng.standard_normal((n, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return 0.5 * z


def _cube(n, rng):
    # pick one of six faces uniformly, then uniform in the face
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    rows, axis = np.arange(n), face // 2
    pts = np.empty((n, 3))
    pts[rows, axis] = np.where(face % 2 == 0, -0.5, 0.5)
    pts[rows[:, None], _OTHER_AXES[axis]] = uv
    return pts


def _triangle_vertices():
    # equilateral cross-section, circumradius 0.5, centroid at the origin
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return 0.5 * np.column_stack([np.cos(angles), np.sin(angles)])


def _prism(n, rng):
    verts = _triangle_vertices()
    side = np.linalg.norm(verts[0] - verts[1])
    tri_area = np.sqrt(3.0) / 4.0 * side**2
    height = 1.0
    areas = np.array([tri_area, tri_area, side * height, side * height, side * height])
    probs = areas / areas.sum()
    which = rng.choice(5, size=n, p=probs)
    u, v = rng.uniform(size=(n, 2)).T
    # triangular caps (faces 0, 1): (u, v) folded into the triangle
    fold = u + v > 1.0
    cu, cv = np.where(fold, 1.0 - u, u), np.where(fold, 1.0 - v, v)
    cap_xy = (verts[0] + cu[:, None] * (verts[1] - verts[0])
              + cv[:, None] * (verts[2] - verts[0]))
    # rectangular sides (faces 2-4) between consecutive vertices: u runs
    # along the edge, v - 0.5 is the height
    a, b = verts[(which - 2) % 3], verts[(which - 1) % 3]
    side_xy = a + u[:, None] * (b - a)
    xy = np.where((which < 2)[:, None], cap_xy, side_xy)
    z = np.select([which == 0, which == 1], [-0.5, 0.5], v - 0.5)
    return np.column_stack([xy, z])


def _cylinder(n, rng):
    r, h = 0.5, 1.0
    lateral = 2.0 * np.pi * r * h
    cap = np.pi * r**2
    probs = np.array([lateral, cap, cap]) / (lateral + 2 * cap)
    which = rng.choice(3, size=n, p=probs)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    s = rng.uniform(size=n)
    # side (0): s - 0.5 is the height; caps (1, 2): s is the squared radius
    # as a fraction of r**2
    rad = np.where(which == 0, r, r * np.sqrt(s))
    z = np.select([which == 1, which == 2], [-0.5, 0.5], s - 0.5)
    return np.column_stack([rad * np.cos(theta), rad * np.sin(theta), z])


def _torus(n, rng):
    # area element ~ R + r cos(phi): rejection-sample the tube angle
    big, small = TORUS_MAJOR, TORUS_MINOR
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phi = np.empty(0)
    while phi.size < n:
        # (phi, accept) pairs; about 70% are accepted, so twice the
        # shortfall seldom needs a second batch
        pairs = rng.uniform((0.0, 0.0), (2.0 * np.pi, 1.0),
                            size=(2 * (n - phi.size), 2))
        cand, accept = pairs.T
        kept = accept <= (big + small * np.cos(cand)) / (big + small)
        phi = np.concatenate([phi, cand[kept]])
    phi = phi[:n]
    rad = big + small * np.cos(phi)
    return np.column_stack([rad * np.cos(theta), rad * np.sin(theta),
                            small * np.sin(phi)])


_SAMPLERS = {
    "sphere": _sphere,
    "cube": _cube,
    "prism": _prism,
    "cylinder": _cylinder,
    "torus": _torus,
}


def make_shape(kind, n_points, seed=0) -> GeometricGraph:
    """Sample ``n_points`` >= MIN_POINTS points of the surface ``kind`` (one of
    SHAPE_KINDS); features are displacements from the empirical centroid of
    the sample. The generator is local and the positions are its last use,
    so a sampler may draw past what it needs (see the module docstring)."""
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}")
    if n_points < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} points")
    rng = np.random.default_rng(seed)
    positions = _SAMPLERS[kind](n_points, rng)
    features = positions - positions.mean(axis=0)
    return GeometricGraph(features, positions)
