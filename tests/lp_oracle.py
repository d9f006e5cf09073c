"""Reference LP solver for the tests: a dense two-phase simplex over
``fractions.Fraction`` with Bland's rule.

It computes optima in rational arithmetic from scratch, independently of
HiGHS, so the certified values of ``coarselab.exactlp`` can be compared
against it.  It is slow (dense tableaux) and meant for small LPs only.
"""

from fractions import Fraction


class LPError(RuntimeError):
    pass



def _to_fraction_rows(rows):
    return [[v if isinstance(v, Fraction) else Fraction(v) for v in row] for row in rows]


def _simplex(tableau, basis, ncols):
    """In-place Bland-rule simplex on a tableau whose last column is b and
    last row is the (negated) objective."""
    nrows = len(tableau) - 1
    while True:
        obj = tableau[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave, best = -1, None
        for i in range(nrows):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            raise LPError("LP is unbounded")
        _pivot(tableau, leave, enter)
        basis[leave] = enter


def _pivot(tableau, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            factor = r[col]
            prow = tableau[row]
            tableau[i] = [v - factor * pv for v, pv in zip(r, prow)]


def solve_exact(c, a_ub, b_ub, a_eq, b_eq):
    """min c.x s.t. a_ub x <= b_ub, a_eq x = b_eq, x >= 0, over Fractions."""
    c = [Fraction(v) for v in c]
    a_ub = _to_fraction_rows(a_ub)
    b_ub = [Fraction(v) for v in b_ub]
    a_eq = _to_fraction_rows(a_eq)
    b_eq = [Fraction(v) for v in b_eq]
    nvars = len(c)
    nub, neq = len(a_ub), len(a_eq)
    rows = []
    senses = []
    for row, b in zip(a_ub, b_ub):
        if b < 0:
            rows.append(([-v for v in row], -b))
            senses.append("ge")
        else:
            rows.append((list(row), b))
            senses.append("le")
    for row, b in zip(a_eq, b_eq):
        if b < 0:
            rows.append(([-v for v in row], -b))
        else:
            rows.append((list(row), b))
        senses.append("eq")
    m = len(rows)
    nslack = sum(1 for s in senses if s in ("le", "ge"))
    art_needed = [s in ("eq", "ge") for s in senses]
    nart = sum(art_needed)
    ncols = nvars + nslack + nart
    tableau = []
    basis = []
    si = 0
    ai = 0
    for (row, b), sense, needs_art in zip(rows, senses, art_needed):
        line = row + [Fraction(0)] * (nslack + nart) + [b]
        if sense in ("le", "ge"):
            line[nvars + si] = Fraction(1) if sense == "le" else Fraction(-1)
            if sense == "le":
                basis.append(nvars + si)
            si += 1
        if needs_art:
            line[nvars + nslack + ai] = Fraction(1)
            basis.append(nvars + nslack + ai)
            ai += 1
        tableau.append(line)
    # phase 1: minimize the artificial sum
    obj = [Fraction(0)] * ncols + [Fraction(0)]
    for j in range(nvars + nslack, ncols):
        obj[j] = Fraction(1)
    tableau.append(obj)
    for i, bidx in enumerate(basis):
        if bidx >= nvars + nslack:
            tableau[-1] = [v - rv for v, rv in zip(tableau[-1], tableau[i])]
    _simplex(tableau, basis, ncols)
    if tableau[-1][-1] != 0:  # phase-1 optimum is -last entry
        raise LPError("infeasible")
    # drive leftover artificials out of the basis where possible
    for i, bidx in enumerate(basis):
        if bidx >= nvars + nslack:
            for j in range(nvars + nslack):
                if tableau[i][j] != 0:
                    _pivot(tableau, i, j)
                    basis[i] = j
                    break
    tableau.pop()
    # phase 2 objective
    obj = [Fraction(v) for v in c] + [Fraction(0)] * (nslack + nart) + [Fraction(0)]
    for j in range(nvars + nslack, ncols):
        obj[j] = Fraction(0)
    tableau.append(obj)
    for i, bidx in enumerate(basis):
        if tableau[-1][bidx] != 0:
            factor = tableau[-1][bidx]
            tableau[-1] = [v - factor * rv for v, rv in zip(tableau[-1], tableau[i])]
    _simplex(tableau, basis, nvars + nslack)  # artificials stay out
    x = [Fraction(0)] * nvars
    for i, bidx in enumerate(basis):
        if bidx < nvars:
            x[bidx] = tableau[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return x, value


