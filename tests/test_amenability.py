import itertools
from fractions import Fraction

import numpy as np
import pytest

from coarselab import amenability as A
from coarselab import (
    FolnerFunction,
    cayley_metric,
    classify_kernel,
    cyclic_group,
    diam_table,
    dihedral_group,
    direct_product,
    folner_to_witness,
    growth_experiment,
    kernel_to_function,
    measure_witness,
    optimal_folner,
    reiter_defect,
    witness_feasibility,
    witness_to_folner,
    z2_power_group,
)


def test_reiter_examples():
    z4 = cyclic_group(4)
    uniform = FolnerFunction(group=z4, values=[Fraction(1, 4)] * 4)
    assert reiter_defect(z4, uniform, 2) == 0
    delta = FolnerFunction(group=z4, values=[Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    assert reiter_defect(z4, delta, 1) == 2
    z22 = z2_power_group(2)
    f = FolnerFunction(group=z22, values=[Fraction(1, 3)] * 3 + [Fraction(0)])
    assert reiter_defect(z22, f, 1) == Fraction(2, 3)


def test_folner_function_validation():
    z2 = cyclic_group(2)
    with pytest.raises(ValueError, match="sum to one"):
        FolnerFunction(group=z2, values=[0.5, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        FolnerFunction(group=z2, values=[1.5, -0.5])


def test_optimal_folner_examples():
    z2 = cyclic_group(2)
    _f, d = optimal_folner(z2, 1, 1)
    assert d == 0
    _f, d0 = optimal_folner(z2, 1, 0)
    assert d0 == 2
    z22 = z2_power_group(2)
    f22, d22 = optimal_folner(z22, 1, 1)
    assert d22 == Fraction(2, 3)
    assert reiter_defect(z22, f22, 1) == Fraction(2, 3)


def test_lp_optimum_vs_simplex_grid():
    """Exhaustive probability-simplex grid (step 1/20): no grid point beats
    the LP, and the LP's own function attains its reported defect."""
    step = Fraction(1, 20)
    for group, R, S in [
        (cyclic_group(2), 1, 0),
        (cyclic_group(4), 1, 1),
        (z2_power_group(2), 1, 1),
        (cyclic_group(8), 1, 2),
    ]:
        f_opt, lp_val = optimal_folner(group, R, S, exact=True)
        assert reiter_defect(group, f_opt, R) == lp_val
        ball = group.ball(S)
        k = len(ball)
        best_grid = None
        for combo in itertools.combinations_with_replacement(range(k), 20):
            weights = [Fraction(0)] * group.n
            for idx in combo:
                weights[ball[idx]] += step
            defect = reiter_defect(group, weights, R)
            if best_grid is None or defect < best_grid:
                best_grid = defect
        assert lp_val <= best_grid


def test_diam_anchor_values():
    t = diam_table(cyclic_group(2), [1], [0.5], form="folner")
    assert t.entries[(1, 0.5)] == 1
    t2 = diam_table(z2_power_group(2), [1], [0.5], form="folner")
    assert t2.entries[(1, 0.5)] == 2
    t3 = diam_table(z2_power_group(2), [1], [0.5], form="witness")
    assert t3.entries[(1, 0.5)] == 2


def test_diam_tables_monotone():
    for group in [cyclic_group(3), z2_power_group(2)]:
        t = diam_table(group, [1, 2], [0.25, 0.5, 1.0], form="folner")
        assert t.monotone()


@pytest.mark.parametrize("form, solver", [("folner", "optimal_folner"), ("witness", "witness_feasibility")])
def test_diam_table_solves_each_radius_pair_once(monkeypatch, form, solver):
    # Z4 at R in {1, 2}, eps in {1, 0.5, 0.25}: eps = 1 stops at S = 1 and
    # the others at S = 2, so the scans visit 16 cells over 6 distinct (R, S)
    calls = []
    solve = getattr(A, solver)

    def counted(problem, R, S, exact):
        calls.append((R, S))
        return solve(problem, R, S, exact=exact)

    monkeypatch.setattr(A, solver, counted)
    t = diam_table(cyclic_group(4), [1, 2], [1, 0.5, 0.25], form=form)
    assert len(t.defects) == 16
    assert sorted(calls) == [(R, S) for R in (1, 2) for S in (0.0, 1.0, 2.0)]


def test_witness_feasibility_matches_folner_on_cayley():
    z22 = z2_power_group(2)
    space = cayley_metric(z22)
    _table, defect = witness_feasibility(space, 1, 1, exact=True)
    assert defect == Fraction(2, 3)


def test_diam_table_on_plain_space():
    # the certificate-side table needs no group structure at all
    from coarselab import path_space

    seg = path_space(4)
    t = diam_table(seg, [1], [0.5, 1.0], form="witness", exact=True)
    assert t.monotone()
    assert t.entries[(1, 1.0)] <= t.entries[(1, 0.5)]
    # whole-space supports always admit the constant family
    assert t.entries[(1, 0.5)] <= seg.diameter()
    table, defect = witness_feasibility(seg, 1, t.entries[(1, 0.5)], exact=True)
    assert float(defect) < 0.5
    assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-9


def test_folner_witness_bridge():
    z22 = z2_power_group(2)
    space = cayley_metric(z22)
    f, d = optimal_folner(z22, 1, 1)
    w = folner_to_witness(z22, f)
    rep = measure_witness(w, space, 1)
    assert rep.eps_measured == pytest.approx(float(d), abs=1e-12)
    assert rep.S_measured == f.S
    back = witness_to_folner(z22, w)
    assert abs(sum(float(v) for v in back.values) - 1.0) < 1e-12
    assert float(reiter_defect(z22, back, 1)) <= float(d) + 1e-12
    # uniform function gives the constant family with variation zero
    uni = FolnerFunction(group=z22, values=[0.25] * 4)
    wu = folner_to_witness(z22, uni)
    assert measure_witness(wu, space, 2).eps_measured == 0.0
    # the delta family averages back to the delta at the identity
    delta_w = folner_to_witness(z22, FolnerFunction(group=z22, values=[1.0, 0, 0, 0]))
    fd = witness_to_folner(z22, delta_w)
    assert np.allclose(fd.as_floats(), [1, 0, 0, 0])


def test_kernel_to_function_examples():
    z4 = cyclic_group(4)
    assert np.allclose(kernel_to_function(z4, np.ones((4, 4))), 1.0)
    assert np.allclose(kernel_to_function(z4, np.eye(4)), [1, 0, 0, 0])
    psi = np.array([1.0, 0.5, 0.2, 0.5])
    invariant = psi[z4.table[z4.inverse, :]]
    assert np.allclose(kernel_to_function(z4, invariant), psi)
    with pytest.raises(ValueError, match="positive type"):
        kernel_to_function(z4, -np.eye(4))


def test_kernel_to_function_random_positive(rng):
    z22 = z2_power_group(2)
    space = cayley_metric(z22)
    for _ in range(20):
        base = rng.standard_normal((4, 3))
        gram = base @ base.T
        norms = np.sqrt(np.diag(gram))
        gram = gram / np.outer(norms, norms)
        phi = kernel_to_function(z22, gram)
        induced = phi[z22.table[z22.inverse, :]]
        assert classify_kernel(induced).positive_type
        # normalization and variation carry over from the kernel
        assert phi[z22.identity] == pytest.approx(1.0)
        for R in (1, 2):
            kern_var = max(
                abs(1.0 - gram[g, h])
                for g in range(4)
                for h in range(4)
                if 0 < space.dist[g, h] <= R
            )
            fun_var = max(abs(1.0 - phi[g]) for g in range(4) if 0 < z22.lengths[g] <= R)
            assert fun_var <= kern_var + 1e-12


def right_regular_phi(group, rng):
    """phi(g) = <v, v(. g)> / |v|^2 for a random v: normalized and of positive
    type, as phi(g^-1 h) = <v(. g), v(. h)> / |v|^2 is a Gram matrix."""
    v = rng.standard_normal(group.n)
    return v @ v[group.table] / (v @ v)


@pytest.mark.parametrize("group", [dihedral_group(3), direct_product(dihedral_group(3), cyclic_group(2))],
                         ids=["D3", "D3xZ2"])
def test_kernel_to_function_inverts_left_translation(group, rng):
    # on a non-abelian group the k(h^-1 g, g) convention gives the average of
    # phi over conjugates instead of phi
    for _ in range(10):
        phi = right_regular_phi(group, rng)
        kernel = phi[group.table[group.inverse, :]]  # k(g, h) = phi(g^-1 h)
        np.testing.assert_allclose(kernel_to_function(group, kernel), phi, rtol=0, atol=1e-12)


def test_kernel_to_function_preserves_propagation():
    z8 = cyclic_group(8)
    space = cayley_metric(z8)
    rows = np.zeros((8, 8))
    for x in range(8):
        ball = np.nonzero(space.dist[x] <= 1)[0]
        rows[x, ball] = 1.0
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    gram = rows @ rows.T  # propagation 2
    phi = kernel_to_function(z8, gram)
    for g in range(8):
        if z8.lengths[g] > 2:
            assert abs(phi[g]) < 1e-12


def test_growth_experiment_budget():
    res = growth_experiment(cyclic_group(2), 0.5, range(1, 6), budget=8)
    assert [n for n, _s, _d in res["rows"]] == [1, 2, 3]
    assert res["truncated_at"] == 4
    assert res["nondecreasing"]
