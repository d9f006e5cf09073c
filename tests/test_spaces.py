from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from coarselab import serialize as io
from coarselab import spaces as SP
from coarselab.cli import main
from coarselab.spectral import random_regular_graph
import loop_oracles as oracle
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


@pytest.mark.parametrize("d", [1e8, 2e9, 1e12])
def test_space_validation_accepts_large_distances(d):
    # the tolerance scales with the largest distance and reaches 1 at 1e9,
    # so the diagonal may not be masked by a finite value
    assert FiniteMetricSpace([0, 1], [[0.0, d], [d, 0.0]]).diameter() == d
    with pytest.raises(ValueError, match="non-positive distance between distinct points 0 and 2"):
        FiniteMetricSpace([0, 1, 2], [[0.0, d, d * 1e-10], [d, 0.0, d], [d * 1e-10, d, 0.0]])


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


def test_graph_metrics_and_box_unions_are_proved_without_the_triangle_loop(tmp_path):
    # the O(n^3) loop was the largest cost of reading and writing these:
    # graph metrics are proved by their unit graph, box spaces by blocks
    def no_loop(dist, tol):
        raise AssertionError(f"the triangle loop ran on {len(dist)} points")

    with mock.patch.object(SP, "_triangle_failure", no_loop):
        for name, space in [("rr", random_regular_graph(300, 3, seed=1).metric_space()), ("cyc", cycle_space(300))]:
            io.dump(io.write(space), tmp_path / f"{name}.json")
        res = CliRunner().invoke(main, ["space", "gen", "--kind", "box", "--base", "2", "--k", "7",
                                        "--out", str(tmp_path / "box.json")], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        sizes = {name: io.read(io.load(tmp_path / f"{name}.json")).n for name in ("rr", "cyc", "box")}
    assert sizes == {"rr": 300, "cyc": 300, "box": 254}


def test_a_metric_that_is_not_geodesic_goes_to_the_loop():
    # C8 with d(0, 4) = 3 is still a metric, but not the path metric of its
    # unit graph, the cycle, so the loop and not the unit-graph proof accepts it
    dist = cycle_space(8).dist.copy()
    dist[0, 4] = dist[4, 0] = 3
    assert not SP._is_unit_graph_metric(dist.astype(np.int16))
    with mock.patch.object(SP, "_triangle_failure", wraps=SP._triangle_failure) as loop:
        FiniteMetricSpace(range(8), dist)
    assert loop.call_count == 1
    dist = dist.copy()
    dist[0, 4] = dist[4, 0] = 5
    with pytest.raises(ValueError, match=r"triangle inequality fails for \(0, 1, 4\)"):
        FiniteMetricSpace(range(8), dist)


# not metrics, each passing every check of the structural proofs but one
NEAR_MISSES = {
    # every d(i, j) > 0 drops by one at a neighbour of i, but the unit edge (2, 4) changes d(., 3) by 2
    "unit edge bound": ([[0, 1, 2, 1, 1], [1, 0, 1, 2, 2], [2, 1, 0, 3, 1], [1, 2, 3, 0, 1], [1, 2, 1, 1, 0]], None),
    # d changes by at most one along each unit edge, but d(3, 6) = 2 drops at no neighbour of 3
    "drop by one": ([[0, 1, 2, 3, 3, 4, 1, 2], [1, 0, 1, 2, 2, 3, 2, 1], [2, 1, 0, 1, 1, 2, 3, 2],
                     [3, 2, 1, 0, 2, 2, 2, 3], [3, 2, 1, 2, 0, 1, 4, 3], [4, 3, 2, 2, 1, 0, 5, 4],
                     [1, 2, 3, 2, 4, 5, 0, 3], [2, 1, 2, 3, 3, 4, 3, 0]], None),
    # the nowak union of P2 and two points, with one cross distance 5 -> 6
    "constant cross blocks": ([[0, 1, 2, 5], [1, 0, 2, 6], [2, 2, 0, 3], [5, 6, 3, 0]], [0, 0, 1, 2]),
    # singletons at constant cross distances that are no metric on the blocks
    "metric on the blocks": ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], [0, 1, 2]),
    # the first block is "unit edge bound", 2 from a point: diam 3 <= 2 * 2
    "metric blocks": ([[0, 1, 2, 1, 1, 2], [1, 0, 1, 2, 2, 2], [2, 1, 0, 3, 1, 2], [1, 2, 3, 0, 1, 2],
                       [1, 2, 1, 1, 0, 2], [2, 2, 2, 2, 2, 0]], [0, 0, 0, 0, 0, 1]),
}


@pytest.mark.parametrize("case", sorted(NEAR_MISSES))
def test_each_check_of_the_structural_proofs_is_needed(case):
    dist, blocks = NEAR_MISSES[case]
    dist, points = np.array(dist, dtype=float), list(range(len(dist)))
    assert not SP._proved_by_structure(dist.astype(np.int16), blocks)
    want = oracle.triangle_error(points, dist)
    assert want is not None
    with pytest.raises(ValueError) as exc:
        FiniteMetricSpace(points, dist, blocks=blocks)
    assert str(exc.value) == want


@pytest.mark.parametrize("n", [0, 1])
def test_the_unit_graph_proof_accepts_zero_and_one_point(n):
    assert SP._proved_by_structure(np.zeros((n, n), dtype=np.int16), None)
    assert SP._proved_by_structure(np.zeros((n, n), dtype=np.int16), [0] * n)


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
