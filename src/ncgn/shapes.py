"""Synthetic 3-D shape sampler.

Each shape is a closed surface centered at the origin and scaled to fit the
cube [-0.5, 0.5]^3; points are drawn uniformly with respect to surface area.
Node features are the displacement from the empirical centroid, so they sum
to zero exactly.
"""

from __future__ import annotations

import numpy as np

from .graphs import GeometricGraph

SHAPE_KINDS = ("sphere", "cube", "prism", "cylinder", "torus")

TORUS_MAJOR = 0.35
TORUS_MINOR = 0.15


def _sphere(n, rng):
    z = rng.standard_normal((n, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return 0.5 * z


def _cube(n, rng):
    # pick one of six faces uniformly, then uniform in the face
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, -0.5, 0.5)
    for i in range(n):
        others = [a for a in range(3) if a != axis[i]]
        pts[i, axis[i]] = sign[i]
        pts[i, others] = uv[i]
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
    pts = np.empty((n, 3))
    for i, w in enumerate(which):
        if w < 2:  # triangular cap
            u, v = rng.uniform(size=2)
            if u + v > 1.0:
                u, v = 1.0 - u, 1.0 - v
            xy = verts[0] + u * (verts[1] - verts[0]) + v * (verts[2] - verts[0])
            pts[i] = [xy[0], xy[1], -0.5 if w == 0 else 0.5]
        else:  # rectangular side between consecutive vertices
            a, b = verts[w - 2], verts[(w - 1) % 3]
            u = rng.uniform()
            xy = a + u * (b - a)
            pts[i] = [xy[0], xy[1], rng.uniform(-0.5, 0.5)]
    return pts


def _cylinder(n, rng):
    r, h = 0.5, 1.0
    lateral = 2.0 * np.pi * r * h
    cap = np.pi * r**2
    probs = np.array([lateral, cap, cap]) / (lateral + 2 * cap)
    which = rng.choice(3, size=n, p=probs)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    for i, w in enumerate(which):
        if w == 0:
            pts[i] = [r * np.cos(theta[i]), r * np.sin(theta[i]),
                      rng.uniform(-0.5, 0.5)]
        else:
            rad = r * np.sqrt(rng.uniform())
            pts[i] = [rad * np.cos(theta[i]), rad * np.sin(theta[i]),
                      -0.5 if w == 1 else 0.5]
    return pts


def _torus(n, rng):
    # area element ~ R + r cos(phi): rejection-sample the tube angle
    big, small = TORUS_MAJOR, TORUS_MINOR
    pts = np.empty((n, 3))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    for i in range(n):
        while True:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            if rng.uniform() <= (big + small * np.cos(phi)) / (big + small):
                break
        rad = big + small * np.cos(phi)
        pts[i] = [rad * np.cos(theta[i]), rad * np.sin(theta[i]),
                  small * np.sin(phi)]
    return pts


_SAMPLERS = {
    "sphere": _sphere,
    "cube": _cube,
    "prism": _prism,
    "cylinder": _cylinder,
    "torus": _torus,
}


def make_shape(kind, n_points, seed=0) -> GeometricGraph:
    """Sample ``n_points`` >= 4 points of the surface ``kind`` (one of
    SHAPE_KINDS); features are displacements from the empirical centroid of
    the sample."""
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}")
    if n_points < 4:
        raise ValueError("need at least 4 points")
    rng = np.random.default_rng(seed)
    positions = _SAMPLERS[kind](n_points, rng)
    features = positions - positions.mean(axis=0)
    return GeometricGraph(features, positions)
