import math

import numpy as np
import pytest

from coarselab import (
    RegularGraph,
    concentration_test,
    cyclic_group,
    dihedral_group,
    expansion_constant,
    kazhdan_gap,
    laplacian_gap,
    poincare_check,
    random_regular_graph,
    z2_power_group,
)


def cycle_graph(n):
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return RegularGraph(a)


def complete_graph(n):
    return RegularGraph(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))


def test_regular_graph_validation():
    with pytest.raises(ValueError, match="regular"):
        RegularGraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="disconnected"):
        RegularGraph([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_laplacian_examples():
    rep = laplacian_gap(cycle_graph(4))
    assert rep.lam == pytest.approx(2.0)
    assert np.allclose(np.sort(rep.spectrum), [0, 2, 2, 4], atol=1e-9)
    assert laplacian_gap(complete_graph(4)).lam == pytest.approx(4.0)
    assert laplacian_gap(cycle_graph(6)).lam == pytest.approx(1.0)  # 2 - 2cos(pi/3)


def test_poincare_examples():
    g = cycle_graph(4)
    lhs, rhs, holds = poincare_check(g, [5.0, 5.0, 5.0, 5.0])
    assert lhs == rhs == 0.0 and holds
    lhs, rhs, holds = poincare_check(g, [1.0, 0.0, -1.0, 0.0])
    assert lhs == pytest.approx(2.0) and rhs == pytest.approx(2.0) and holds


def test_poincare_random_and_eigen_equality(rng):
    graphs = [cycle_graph(5), cycle_graph(8), complete_graph(4), complete_graph(6)]
    for g in graphs:
        rep = laplacian_gap(g)
        for _ in range(100):
            f = rng.standard_normal(g.n)
            lhs, rhs, holds = poincare_check(g, f)
            assert holds
        lhs, rhs, _ = poincare_check(g, rep.eigenvector)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_expansion_examples():
    rep = expansion_constant(complete_graph(4))
    assert rep.c == pytest.approx(4 / 3)
    assert len(rep.subset) == 3
    # brute force on the 6-cycle: the complement of one vertex wins
    rep6 = expansion_constant(cycle_graph(6))
    assert rep6.c == pytest.approx(6 / 5)
    assert len(rep6.subset) == 5
    disconnected = np.zeros((4, 4), dtype=int)
    disconnected[0, 1] = disconnected[1, 0] = 1
    disconnected[2, 3] = disconnected[3, 2] = 1
    assert expansion_constant(disconnected).c == 0.0


def test_expansion_positive_iff_connected(rng):
    for seed in range(5):
        g = random_regular_graph(10, 3, seed=seed)
        assert expansion_constant(g).c > 0
    with pytest.raises(ValueError, match="sample count"):
        expansion_constant(complete_graph(4), mode="sampled")
    sampled = expansion_constant(complete_graph(4), mode="sampled", samples=50, seed=1)
    assert sampled.c >= 4 / 3 - 1e-12


def test_concentration_examples():
    g4 = cycle_graph(4)
    const = concentration_test(g4, np.zeros((4, 2)), c_edge=1.0)
    assert const.inside == 4 and const.passes
    spectral = concentration_test(g4, np.array([1.0, 0.0, -1.0, 0.0]))
    assert spectral.inside >= 2 and spectral.passes
    with pytest.raises(ValueError, match="exceeds"):
        concentration_test(g4, np.array([10.0, 0.0, -10.0, 0.0]), c_edge=1.0)


def test_concentration_random_graph():
    g = random_regular_graph(32, 3, seed=3)
    rep = laplacian_gap(g)
    lap = g.degree * np.eye(g.n) - g.adjacency
    _vals, vecs = np.linalg.eigh(lap)
    coords = vecs[:, 1:3]
    out = concentration_test(g, coords)
    assert out.inside >= 16 and out.passes


def test_kazhdan_examples():
    r3 = kazhdan_gap(cyclic_group(3))
    assert r3.eps == pytest.approx(math.sqrt(3), abs=1e-6)
    assert r3.exact
    r2 = kazhdan_gap(cyclic_group(2))
    assert r2.eps == pytest.approx(2.0, abs=1e-9)
    r22 = kazhdan_gap(z2_power_group(2))
    assert r22.eps == pytest.approx(math.sqrt(2), abs=1e-6)
    assert r22.expansion_ok


def test_kazhdan_certificate_is_lower_bound():
    for group in [cyclic_group(4), cyclic_group(5), z2_power_group(3), dihedral_group(3)]:
        rep = kazhdan_gap(group)
        assert rep.eps >= rep.cert_lower - 1e-9
        assert rep.expansion_ok


def test_random_regular_graph():
    k4 = random_regular_graph(4, 3, seed=1)
    assert np.array_equal(k4.adjacency, complete_graph(4).adjacency)
    g = random_regular_graph(16, 3, seed=7)
    assert laplacian_gap(g).lam > 0
    # deterministic in the seed
    g2 = random_regular_graph(16, 3, seed=7)
    assert np.array_equal(g.adjacency, g2.adjacency)
    with pytest.raises(ValueError, match="even"):
        random_regular_graph(5, 3)
