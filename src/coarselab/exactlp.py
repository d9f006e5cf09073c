"""Linear programs on HiGHS, with exact optima proven by certificate.

Every LP ``min c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0`` is one
``linprog(method="highs")`` call on sparse matrices.  An exact solve then
proves the float optimum in rational arithmetic: the primal point and the
duals are rounded to fractions with denominators at most
``DENOMINATOR_CAP`` and must be primal feasible, dual feasible and of equal
objective, which by weak duality makes the common value the exact optimum
(the approach of Applegate, Cook, Dash & Espinoza 2007).  A failed check
raises LPError; there is no second solver and no float fallback.
"""

from __future__ import annotations

from fractions import Fraction

from scipy.optimize import linprog
from scipy.sparse import coo_array

DENOMINATOR_CAP = 10**6


class LPError(RuntimeError):
    pass


def _matrix(triplets, nrows: int, ncols: int):
    if not nrows:
        return None
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    return coo_array((vals, (rows, cols)), shape=(nrows, ncols), dtype=float).tocsr()


def solve_lp(c, ub, b_ub, eq, b_eq, exact: bool):
    """min c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    ``c``, ``b_ub`` and ``b_eq`` are integer lists; ``ub`` and ``eq`` give
    A_ub and A_eq as integer COO triplets ``(row, col, value)`` (repeated
    positions add up).  Returns ``(x, value)``: floats, or with ``exact``
    Fractions whose optimality has been certified.
    """
    res = linprog(
        c,
        A_ub=_matrix(ub, len(b_ub), len(c)),
        b_ub=b_ub or None,
        A_eq=_matrix(eq, len(b_eq), len(c)),
        b_eq=b_eq or None,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise LPError(f"LP solve failed: {res.message}")
    if not exact:
        return res.x, float(res.fun)
    return _certify(c, ub, b_ub, eq, b_eq, res)


def _rationals(values) -> list:
    return [Fraction(float(v)).limit_denominator(DENOMINATOR_CAP) for v in values]


def _product(triplets, vector, nrows: int) -> list:
    out = [Fraction(0)] * nrows
    for i, j, a in triplets:
        if vector[j]:
            out[i] += a * vector[j]
    return out


def _certify(c, ub, b_ub, eq, b_eq, res):
    """Round HiGHS's primal point and duals and prove them optimal."""
    x = _rationals(res.x)
    y_ub = _rationals(res.ineqlin.marginals)
    y_eq = _rationals(res.eqlin.marginals)
    if any(v < 0 for v in x):
        raise LPError("certificate failed: primal feasibility, x >= 0")
    if any(lhs > b for lhs, b in zip(_product(ub, x, len(b_ub)), b_ub)):
        raise LPError("certificate failed: primal feasibility, A_ub x <= b_ub")
    if any(lhs != b for lhs, b in zip(_product(eq, x, len(b_eq)), b_eq)):
        raise LPError("certificate failed: primal feasibility, A_eq x == b_eq")
    if any(v > 0 for v in y_ub):
        raise LPError("certificate failed: dual feasibility, y_ub <= 0")
    reduced = [Fraction(v) for v in c]
    for triplets, y in ((ub, y_ub), (eq, y_eq)):
        for i, j, a in triplets:
            if y[i]:
                reduced[j] -= a * y[i]
    if any(r < 0 for r in reduced):
        raise LPError("certificate failed: dual feasibility, c - A_ub^T y_ub - A_eq^T y_eq >= 0")
    value = sum(ci * xi for ci, xi in zip(c, x) if ci)
    dual_value = sum(b * y for b, y in zip(b_ub, y_ub)) + sum(b * y for b, y in zip(b_eq, y_eq))
    if value != dual_value:
        raise LPError(f"certificate failed: objectives differ, c.x = {value} but b.y = {dual_value}")
    return x, Fraction(value)
