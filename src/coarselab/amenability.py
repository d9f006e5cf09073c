"""Reiter functions, LP-optimal averaging functions, and the support-radius
quantification of certificate quality on groups and spaces.

Two quantities are tabulated: the minimal support radius S at which some
probability function on a group keeps all translation defects below eps at
scale R (the averaging side), and the minimal S at which a per-point family
of unit l^1 functions with supports in S-balls varies by less than eps
across R-close pairs (the certificate side).  On finite groups the two
agree; the tables here compute both by independent linear programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactlp import LPError, solve_lp
from .groups import FiniteGroup, cayley_metric, group_power
from .spaces import FiniteMetricSpace, _scaled_tol
from .witnesses import LpWitness
from .kernels import classify_kernel

EXACT_GROUP_CAP = 16


@dataclass
class FolnerFunction:
    """Probability table over a group with its support radius."""

    group: FiniteGroup
    values: object  # list of Fractions (exact) or float ndarray
    S: float = field(init=False)

    def __post_init__(self):
        vals = list(self.values)
        if len(vals) != self.group.n:
            raise ValueError("need one value per group element")
        total = sum(vals)
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError("values must sum to one")
        floats = np.array(vals, dtype=float)
        if (floats < -1e-12).any():
            raise ValueError("values must be nonnegative")
        supp = floats > 1e-12
        self.S = float(self.group.lengths[supp].max()) if supp.any() else 0.0
        self.values = vals

    def as_floats(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


def reiter_defect(group: FiniteGroup, f, R: float):
    """max over nontrivial |g| <= R of the l^1 translation defect |gf - f|,
    with (gf)(h) = f(g^-1 h).  Exact over Fractions when given Fractions."""
    values = np.asarray(f.values if isinstance(f, FolnerFunction) else list(f))
    translates = group.translates(values)
    # the identity's defect is 0, so it may stay among the movers; Python's
    # sum keeps a Fraction table exact, and adds floats in order
    return max([0] + [sum(abs(translates[g] - values)) for g in np.flatnonzero(group.lengths <= R + 1e-9)])


def optimal_folner(group: FiniteGroup, R: float, S: float, exact: bool | None = None):
    """LP-minimal worst translation defect among probability functions
    supported in the closed S-ball; returns (FolnerFunction, defect).

    The l^1 terms are linearized through positive parts (both sides are
    probability vectors, so |gf - f| = 2 * sum of positive parts).
    """
    if exact is None:
        exact = group.n <= EXACT_GROUP_CAP
    ball = group.ball(S)
    if not ball:
        raise ValueError("empty support ball")
    movers = [g for g in range(group.n) if g != group.identity and group.lengths[g] <= R + 1e-9]
    fpos = {h: i for i, h in enumerate(ball)}
    nf = len(ball)
    # columns: f on the ball, then one slab of v-vars per mover, then t
    gballs = [sorted({group.mult(g, h) for h in ball} | set(ball)) for g in movers]
    tcol = nf + sum(len(gball) for gball in gballs)
    ub, b_ub = [], []  # A_ub as (row, col, value) triplets
    col = nf
    for g, gball in zip(movers, gballs):
        gi = group.inverse[g]
        for h in gball:
            # (gf - f)(h) - v_{g,h} <= 0
            row = len(b_ub)
            src = group.mult(gi, h)
            if src in fpos:
                ub.append((row, fpos[src], 1))
            if h in fpos:
                ub.append((row, fpos[h], -1))
            ub.append((row, col, -1))
            b_ub.append(0)
            col += 1
        # 2 * sum_h v_{g,h} - t <= 0
        row = len(b_ub)
        ub += [(row, j, 2) for j in range(col - len(gball), col)]
        ub.append((row, tcol, -1))
        b_ub.append(0)
    eq = [(0, i, 1) for i in range(nf)]
    c = [0] * tcol + [1]
    try:
        x, value = solve_lp(c, ub, b_ub, eq, [1], exact=exact)
    except LPError as exc:
        raise LPError(f"Folner LP failed (signals a solver fault): {exc}") from exc
    if exact:
        values = [Fraction(0)] * group.n
        for h, i in fpos.items():
            values[h] = x[i]
    else:
        values = np.zeros(group.n)
        for h, i in fpos.items():
            values[h] = max(float(x[i]), 0.0)
        values /= values.sum()
    return FolnerFunction(group=group, values=values), value


def witness_feasibility(space: FiniteMetricSpace, R: float, S: float, exact: bool = False):
    """Joint LP over all per-point functions: minimize the worst pair defect
    among unit l^1 families supported in S-balls; returns (table, defect).

    This is the certificate-side optimum, solved without any group
    structure; on Cayley spaces it is deliberately independent of the
    averaging LP.
    """
    n = space.n
    tol = _scaled_tol(space.dist)
    balls = [np.nonzero(space.dist[x] <= S + tol)[0].tolist() for x in range(n)]
    fpos = {}
    col = 0
    for x in range(n):
        for y in balls[x]:
            fpos[(x, y)] = col
            col += 1
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n) if space.dist[x, y] <= R + tol]
    # columns: the f-table, then one slab of v-vars per pair, then t
    unions = [sorted(set(balls[x]) | set(balls[y])) for x, y in pairs]
    tcol = col + sum(len(union) for union in unions)
    ub, b_ub = [], []  # A_ub as (row, col, value) triplets
    for (x, y), union in zip(pairs, unions):
        for z in union:
            # xi_x(z) - xi_y(z) - v_{pair,z} <= 0
            row = len(b_ub)
            if (x, z) in fpos:
                ub.append((row, fpos[(x, z)], 1))
            if (y, z) in fpos:
                ub.append((row, fpos[(y, z)], -1))
            ub.append((row, col, -1))
            b_ub.append(0)
            col += 1
        # 2 * sum_z v_{pair,z} - t <= 0
        row = len(b_ub)
        ub += [(row, j, 2) for j in range(col - len(union), col)]
        ub.append((row, tcol, -1))
        b_ub.append(0)
    eq = [(x, fpos[(x, y)], 1) for x in range(n) for y in balls[x]]
    c = [0] * tcol + [1]
    x_opt, value = solve_lp(c, ub, b_ub, eq, [1] * n, exact=exact)
    table = np.zeros((n, n))
    for (xx, yy), i in fpos.items():
        table[xx, yy] = max(float(x_opt[i]), 0.0)
    table /= table.sum(axis=1, keepdims=True)
    return table, value


@dataclass
class DiamTable:
    """Minimal admissible support radii per (R, eps), with LP certificates.

    ``defects[(R, eps, S)]`` records the optimal defect found while scanning.
    Certificate-side optima range over nonnegative families only (signed
    optima could at most match them in S).
    """

    target: str
    form: str  # "folner" or "witness"
    entries: dict = field(default_factory=dict)
    defects: dict = field(default_factory=dict)

    def monotone(self) -> bool:
        ok = True
        rs = sorted({r for r, _ in self.entries})
        es = sorted({e for _, e in self.entries})
        for e in es:
            vals = [self.entries[(r, e)] for r in rs if (r, e) in self.entries]
            ok &= all(a <= b for a, b in zip(vals, vals[1:]))
        for r in rs:
            vals = [self.entries[(r, e)] for e in sorted(es, reverse=True) if (r, e) in self.entries]
            ok &= all(a <= b for a, b in zip(vals, vals[1:]))
        return ok

    def invariants(self, tol: float) -> list:
        """Every cell's defect below its eps, and S monotone."""
        bad = []
        for i, ((r, eps), s) in enumerate(sorted(self.entries.items())):
            defect = self.defects[(r, eps, s)]
            if not defect < eps + tol:
                bad.append(f"entry {i}: optimal defect {defect!r} is not below eps {eps!r}")
        if not bad and not self.monotone():
            bad.append("S is not monotone in R and eps")
        return bad


def _defect_below(defect, eps) -> bool:
    if isinstance(defect, Fraction):
        # rounding sends 0 < eps < 5e-7 to 0, a threshold no defect is below
        return defect < (Fraction(eps).limit_denominator(10**6) or Fraction(eps))
    # a 1e-9 margin against LP noise, shrunk to eps / 2 below eps = 2e-9 so
    # that a zero defect still passes
    return float(defect) < eps - min(1e-9, eps / 2)


def diam_table(target, R_grid, eps_grid, form: str, exact: bool | None = None) -> DiamTable:
    """Scan S upward until the optimal defect drops below eps, per grid cell.

    ``form='folner'`` needs a FiniteGroup (averaging LP); ``form='witness'``
    accepts a group (its word metric space is used) or a space, and solves
    the joint per-point LP.  Radii are scanned over the attained distance
    values, so entries are exact integers on word metrics.  The LP at (R, S)
    does not depend on eps, so each is solved once and its optimum shared
    across the eps grid; every scan still visits S from the smallest radius.
    """
    if not all(math.isfinite(eps) for eps in eps_grid):
        raise ValueError("eps must be finite")
    if any(eps <= 0 for eps in eps_grid):
        raise ValueError("eps must be positive: no defect is below eps <= 0")
    if not all(math.isfinite(R) and R >= 0 for R in R_grid):
        raise ValueError("R must be finite and nonnegative")
    if form == "folner":
        if not isinstance(target, FiniteGroup):
            raise ValueError("folner form needs a finite group")
        problem, solve, exact_cap, distances = target, optimal_folner, EXACT_GROUP_CAP, target.lengths
    elif form == "witness":
        problem = cayley_metric(target) if isinstance(target, FiniteGroup) else target
        solve, exact_cap, distances = witness_feasibility, 8, problem.dist
    else:
        raise ValueError(f"unknown diam form {form!r}")
    if exact is None:
        exact = problem.n <= exact_cap
    radii = [float(v) for v in np.unique(distances)]
    table = DiamTable(target=repr(problem), form=form)
    optima = {}  # (R, S) -> optimal defect
    for R in R_grid:
        for eps in eps_grid:
            for S in radii:
                if (R, S) not in optima:
                    optima[R, S] = solve(problem, R, S, exact=exact)[1]
                defect = table.defects[(R, eps, S)] = optima[R, S]
                if _defect_below(defect, eps):
                    table.entries[(R, eps)] = S
                    break
            else:
                raise LPError("no admissible S up to the diameter (signals a bug)")
    return table


def folner_to_witness(group: FiniteGroup, f: FolnerFunction) -> LpWitness:
    """Translate family xi_g = gf; its variation at scale R equals the
    Reiter defect at R by left-invariance."""
    return LpWitness(p=1, table=group.translates(f.as_floats()), point_ids=tuple(group.elements), S=f.S)


def witness_to_folner(group: FiniteGroup, w: LpWitness) -> FolnerFunction:
    """Uniform average f(h) = mean_g xi_g(g h); the finite-group invariant
    mean, so the defect is at most the worst witness variation."""
    if abs(w.p - 1.0) > 1e-12:
        raise ValueError("averaging needs an l^1 witness")
    return FolnerFunction(group=group, values=group.average(w.table))


def kernel_to_function(group: FiniteGroup, kernel) -> np.ndarray:
    """Average a positive-type kernel into a positive-type function along
    left translation, phi(h) = mean_g k(g, g h), the convention of
    k(g, h) = phi(g^-1 h) that it inverts (``FiniteGroup.translates``) on
    every group; normalization, variation and propagation carry over."""
    mat = np.asarray(getattr(kernel, "matrix", kernel), dtype=float)
    if mat.shape != (group.n, group.n):
        raise ValueError("kernel must be indexed by the group elements")
    if not classify_kernel(mat).positive_type:
        raise ValueError("kernel is not of positive type")
    return group.average(mat)


def growth_experiment(base: FiniteGroup, eps: float, n_range, budget: int = EXACT_GROUP_CAP) -> dict:
    """diam^F of the direct powers at scale 1: the finite-n shadow of the
    divergence of support radii along powers; asymptotics are not claimed.

    Powers whose order exceeds ``budget`` are skipped and flagged, so the
    table may be explicitly partial.
    """
    out = {"eps": eps, "rows": [], "truncated_at": None}
    for n in n_range:
        power = group_power(base, n)
        if power.n > budget:
            out["truncated_at"] = n
            break
        table = diam_table(power, [1], [eps], form="folner")
        out["rows"].append((n, table.entries[(1, eps)], table.defects))
    values = [s for _n, s, _d in out["rows"]]
    out["nondecreasing"] = all(a <= b for a, b in zip(values, values[1:]))
    return out
