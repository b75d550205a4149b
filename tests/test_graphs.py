import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgn.graphs import (
    GeometricGraph,
    build_fully_connected_edges,
    build_knn_edges,
    build_long_short_edges,
    load_graph,
    save_graph,
    voxel_coarsen,
)


def random_graph(n, d=3, f=2, seed=0):
    rng = np.random.default_rng(seed)
    return GeometricGraph(rng.standard_normal((n, f)),
                          rng.standard_normal((n, d)))


def edge_set(edges):
    return {(int(s), int(t)) for s, t in edges}


def test_knn_line_example():
    edges = build_knn_edges(np.array([[0.0], [1.0], [3.0]]), 1)
    assert edge_set(edges) == {(1, 0), (0, 1), (1, 2)}


def test_knn_saturates_to_complete():
    pos = np.random.default_rng(0).standard_normal((6, 2))
    edges = build_knn_edges(pos, 10)
    assert edge_set(edges) == {(s, t) for s in range(6) for t in range(6) if s != t}


def test_knn_single_node_empty():
    assert build_knn_edges(np.zeros((1, 3)), 4).size == 0


def test_knn_matches_bruteforce():
    rng = np.random.default_rng(1)
    pos = rng.standard_normal((15, 3))
    k = 4
    edges = edge_set(build_knn_edges(pos, k))
    for tgt in range(15):
        dists = np.linalg.norm(pos - pos[tgt], axis=1)
        dists[tgt] = np.inf
        nearest = set(np.argsort(dists, kind="stable")[:k])
        assert {s for s, t in edges if t == tgt} == nearest


def test_knn_permutation_consistent():
    rng = np.random.default_rng(2)
    pos = rng.standard_normal((20, 2))
    perm = rng.permutation(20)
    base = edge_set(build_knn_edges(pos, 3))
    permuted = edge_set(build_knn_edges(pos[perm], 3))
    inv = np.empty(20, dtype=int)
    inv[perm] = np.arange(20)
    assert permuted == {(inv[s], inv[t]) for s, t in base}


def test_long_short_degree_and_determinism():
    rng = np.random.default_rng(3)
    pos = rng.standard_normal((50, 3))
    edges = build_long_short_edges(pos, 5, seed=7)
    for tgt in range(50):
        sources = [s for s, t in edges if t == tgt]
        assert len(sources) == 5 and len(set(sources)) == 5
        assert tgt not in sources
    again = build_long_short_edges(pos, 5, seed=7)
    np.testing.assert_array_equal(edges, again)


def test_long_short_saturates():
    pos = np.random.default_rng(4).standard_normal((5, 2))
    edges = build_long_short_edges(pos, 4, seed=0)
    assert edge_set(edges) == {(s, t) for s in range(5) for t in range(5) if s != t}


def test_fully_connected_edges():
    assert len(build_fully_connected_edges(4)) == 12


def test_voxel_unit_square_identity():
    pos = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    cluster_of, coarse = voxel_coarsen(pos, 4)
    assert len(coarse) == 4
    order = np.argsort([tuple(p) for p in coarse])
    np.testing.assert_allclose(coarse[order],
                               pos[np.argsort([tuple(p) for p in pos])])


def test_voxel_single_cluster_is_centroid():
    g = random_graph(17, seed=5)
    cluster_of, coarse = voxel_coarsen(g.positions, 1)
    assert len(coarse) == 1
    np.testing.assert_allclose(coarse[0],
                               g.positions.mean(axis=0), atol=1e-12)


def test_voxel_1d_two_bins():
    pos = np.array([[0.0], [0.1], [0.9], [1.0]])
    cluster_of, coarse = voxel_coarsen(pos, 2)
    assert len(coarse) == 2
    np.testing.assert_allclose(sorted(coarse.ravel()), [0.05, 0.95])


def test_voxel_member_means_and_counts():
    g = random_graph(40, seed=6)
    cluster_of, coarse = voxel_coarsen(g.positions, 9)
    counts = np.bincount(cluster_of, minlength=len(coarse))
    assert counts.sum() == 40 and (counts > 0).all()
    for c in range(len(coarse)):
        members = g.positions[cluster_of == c]
        np.testing.assert_allclose(coarse[c],
                                   members.mean(axis=0), atol=1e-12)


def test_voxel_large_s_gives_singletons():
    g = random_graph(12, seed=7)
    cluster_of, coarse = voxel_coarsen(g.positions, 12**3)
    assert len(coarse) == 12


def test_voxel_degenerate_dimension():
    pos = np.column_stack([np.linspace(0, 1, 6), np.zeros(6)])
    cluster_of, coarse = voxel_coarsen(pos, 4)  # flat dim contributes a single bin
    assert 1 <= len(coarse) <= 4


def test_graph_validation():
    with pytest.raises(ValueError):
        GeometricGraph(np.zeros((3, 1)), np.zeros((2, 2)))
    # 12 values would fill 4 x 3, moving them onto other nodes
    with pytest.raises(ValueError, match=r"positions \(4, 2\), got \(2, 6\)"):
        GeometricGraph(np.zeros((2, 6)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="positions must be finite"):
        GeometricGraph(np.zeros((2, 1)), np.array([[0.0, np.nan], [0.0, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="features must be finite"):
            GeometricGraph(np.array([[0.0], [bad]]), np.zeros((2, 2)))


def test_zero_dimensional_positions_rejected(tmp_path):
    # voxel coarsening bins each of d axes into s**(1/d) parts: d must be >= 1
    with pytest.raises(ValueError, match=r"d >= 1, got shape \(3, 0\)"):
        GeometricGraph(np.zeros((3, 2)), np.zeros((3, 0)))
    path = tmp_path / "flat.graph"
    path.write_text("3 0 2\n1.0 2.0\n3.0 4.0\n5.0 6.0\n")
    with raises_naming(path, " line 1: header '3 0 2' declares 0-dimensional "
                             "positions"):
        load_graph(path)


def test_save_load_roundtrip(tmp_path):
    g = random_graph(7, seed=9)
    path = tmp_path / "g.graph"
    save_graph(path, g)
    back = load_graph(path)
    np.testing.assert_array_equal(back.positions, g.positions)
    np.testing.assert_array_equal(back.features, g.features)


def raises_naming(path, message):
    """pytest.raises for a ValueError that starts with ``path``, then
    matches the regex ``message``."""
    return pytest.raises(ValueError, match=re.escape(str(path)) + message)


def test_load_bad_header_names_expectation(tmp_path):
    path = tmp_path / "bad.graph"
    for header in ("3 2", "3 2 x", "3 -2 0"):
        path.write_text(header + "\n")
        with raises_naming(path, " line 1: .*N d f"):
            load_graph(path)


def test_load_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("1 2 0\n1.0\n")
    with raises_naming(path, " line 2: expected 2 values"):
        load_graph(path)
    path.write_text("2 2 0\n1.0 2.0\n1.0 nope\n")
    with raises_naming(path, " line 3: expected numbers, got '1.0 nope'"):
        load_graph(path)
    # blank lines are skipped but still counted
    path.write_text("1 2 0\n\n1.0\n")
    with raises_naming(path, " line 3: expected 2 values"):
        load_graph(path)
    path.write_text("\n1 2 0\n1.0 2.0\n\nE\n")
    with raises_naming(path, " line 5: .*'E'"):
        load_graph(path)
    # non-finite positions and features are named by line too
    for row in ("nan 2.0 0.5", "1.0 2.0 inf", "1.0 2.0 -Infinity"):
        path.write_text(f"2 2 1\n1.0 2.0 0.5\n{row}\n")
        with raises_naming(path, f" line 3: expected finite values, got '{row}'"):
            load_graph(path)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 25), s=st.integers(1, 30), seed=st.integers(0, 10))
def test_voxel_properties(n, s, seed):
    g = random_graph(n, seed=seed)
    cluster_of, coarse = voxel_coarsen(g.positions, s)
    assert 1 <= len(coarse) <= max(1, min(s, n) * 4)  # p^d can overshoot s
    assert cluster_of.shape == (n,)
    assert set(cluster_of) == set(range(len(coarse)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 3), s=st.integers(1, 70),
       scale_exp=st.integers(-3, 3), seed=st.integers(0, 2**16))
def test_voxel_means_are_scatter_add_bytes(n, d, s, scale_exp, seed):
    pos = np.random.default_rng(seed).standard_normal((n, d)) * 10.0**scale_exp
    cluster_of, coarse = voxel_coarsen(pos, s)
    # the composed reference: the members added in index order from 0.0,
    # over their counts
    sprime = coarse.shape[0]
    counts = np.bincount(cluster_of, minlength=sprime).astype(np.float64)
    sums = np.zeros((sprime, d))
    np.add.at(sums, cluster_of, pos)
    reference = sums / counts[:, None]
    assert coarse.tobytes() == reference.tobytes()


def test_load_row_count_checked_both_ways(tmp_path):
    path = tmp_path / "short.graph"
    path.write_text("3 2 0\n1.0 2.0\n")
    with raises_naming(path, ": header declares 3 node rows, found 1"):
        load_graph(path)
    # an edge section after the rows is no longer part of the format
    path = tmp_path / "long.graph"
    path.write_text("1 2 0\n1.0 2.0\nE\n0 0\n")
    with raises_naming(path, " line 3: .*'E'"):
        load_graph(path)


def test_load_empty_file_names_path(tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("")
    with raises_naming(path, ": empty file"):
        load_graph(path)
