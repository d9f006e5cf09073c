import numpy as np
import pytest

from coarselab import (
    FiniteMetricSpace,
    PointMap,
    graph_metric,
    lp_product,
    separated_union,
    net_extract,
    bounded_geometry_stats,
    compression_profile,
    cycle_space,
    path_space,
    complete_space,
    hypercube_space_graph,
)


def test_graph_metric_examples():
    path = path_space(3)
    assert path.dist[0, 2] == 2
    c4 = cycle_space(4)
    assert c4.dist[0, 2] == 2
    k3 = complete_space(3)
    off = k3.dist[~np.eye(3, dtype=bool)]
    assert np.all(off == 1)


def test_graph_metric_rejects_disconnected():
    adj = np.zeros((4, 4), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    with pytest.raises(ValueError, match="no path from point 0 to point 2"):
        graph_metric(adj)


def test_graph_metric_invariants_exact_integers(corpus):
    for _name, sp in corpus:
        assert np.all(sp.dist == np.round(sp.dist))
        assert sp.is_integer
        # revalidation must pass
        FiniteMetricSpace(sp.points, sp.dist)


def test_space_validation_rejects_bad_matrices():
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetricSpace([0, 1], [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace([0, 1, 2], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(ValueError, match="non-positive"):
        FiniteMetricSpace([0, 1], [[0, 0], [0, 0]])


def test_lp_product_examples():
    square1 = lp_product(path_space(2), path_space(2), 1)
    assert square1.dist[square1.index((0, 0)), square1.index((1, 1))] == 2
    squareinf = lp_product(path_space(2), path_space(2), np.inf)
    assert squareinf.dist[squareinf.index((0, 0)), squareinf.index((1, 1))] == 1
    grid = lp_product(path_space(3), path_space(3), 1)
    assert grid.dist[grid.index((0, 0)), grid.index((2, 1))] == 3
    with pytest.raises(ValueError, match="exponent"):
        lp_product(path_space(2), path_space(2), 0.5)


def test_lp_product_dominates_factors():
    x, y = cycle_space(5), path_space(4)
    for p in (1, 2, np.inf):
        prod = lp_product(x, y, p)
        for i, (a, b) in enumerate(prod.points):
            for j, (c, d) in enumerate(prod.points):
                lower = max(x.dist[x.index(a), x.index(c)], y.dist[y.index(b), y.index(d)])
                assert prod.dist[i, j] >= lower - 1e-12
        # restriction to fibres recovers the factors
        fibre = [prod.index((a, y.points[0])) for a in x.points]
        assert np.allclose(prod.dist[np.ix_(fibre, fibre)], x.dist)


def test_separated_union_policies():
    one = separated_union([complete_space(3)])
    assert np.allclose(one.dist, complete_space(3).dist)
    two = separated_union([complete_space(2), complete_space(2)])
    assert two.dist[0, 2] == 2  # max diam 1, plus one
    three = separated_union([complete_space(2)] * 3, rule="nowak")
    # gaps 2 then 3, additive
    assert three.dist[0, 2] == 2
    assert three.dist[2, 4] == 3
    assert three.dist[0, 4] == 5
    assert three.blocks == [0, 0, 1, 1, 2, 2]


def test_separated_union_rejects_a_block_wider_than_twice_its_gap():
    # C12 has diameter 6; its antipodes are 6 apart but 2 + 2 through the point
    point = FiniteMetricSpace([0], np.zeros((1, 1)))
    with pytest.raises(ValueError, match=r"triangle inequality fails for \(\(0, 0\), \(1, 0\), \(0, 6\)\)"):
        separated_union([cycle_space(12), point], rule="nowak")
    assert separated_union([cycle_space(8), point], rule="nowak").dist[4, 8] == 2


def test_net_extract():
    seg = path_space(5)
    assert net_extract(seg, 1.0).points == [0, 1, 2, 3, 4]
    net = net_extract(seg, 2.0)
    assert net.points == [0, 2, 4]
    # separated and dense
    for i in range(net.n):
        for j in range(i + 1, net.n):
            assert net.dist[i, j] >= 2.0
    for x in range(seg.n):
        assert min(seg.dist[x, seg.index(p)] for p in net.points) <= 2.0
    # idempotent
    assert net_extract(net, 2.0).points == net.points
    tiny = FiniteMetricSpace(["a", "b"], [[0, 0.5], [0.5, 0]])
    assert net_extract(tiny, 1.0).points == ["a"]


def test_bounded_geometry_stats():
    two = FiniteMetricSpace([0, 1], [[0, 1], [1, 0]])
    assert bounded_geometry_stats(two, [0.5])[0.5] == 1
    assert bounded_geometry_stats(two, [1])[1] == 2
    assert bounded_geometry_stats(cycle_space(4), [1])[1] == 3


def test_compression_profile_identity_and_constant():
    seg = path_space(5)
    ident = compression_profile(PointMap(seg, seg, list(range(5))))
    assert np.allclose(ident.rho1, ident.rho2)
    assert ident.proper
    const = compression_profile(PointMap(seg, seg, [0] * 5))
    assert np.all(const.rho2 == 0)
    assert not const.proper


def test_compression_profile_hypercube():
    cube = hypercube_space_graph(3)
    coords = np.array([[float(v >> b & 1) for b in range(3)] for v in range(8)])
    prof = compression_profile(PointMap(cube, None, coords))
    for (lo, _hi), r1, r2 in zip(prof.bins, prof.rho1, prof.rho2):
        assert r1 == pytest.approx(np.sqrt(lo), abs=1e-12)
        assert r2 == pytest.approx(np.sqrt(lo), abs=1e-12)


def test_profile_composition_bound(rng):
    # rho2 of a composition is bounded by the composition of the envelopes
    seg = path_space(9)
    mid = cycle_space(9)
    tgt = path_space(9)
    for _ in range(20):
        f = rng.integers(0, 9, size=9)
        g = rng.integers(0, 9, size=9)
        pf = compression_profile(PointMap(seg, mid, list(f)))
        pg = compression_profile(PointMap(mid, tgt, list(g)))
        comp = compression_profile(PointMap(seg, tgt, list(g[f])))
        env = comp.rho2_envelope()
        for (lo, hi), val in zip(comp.bins, env):
            bound = pg.rho2_at(pf.rho2_at(hi - 1e-9))
            assert val <= bound + 1e-9
