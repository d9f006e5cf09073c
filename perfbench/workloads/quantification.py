"""quantification: support-radius (diam) tables, the growth shadow and
single Folner LPs.  The amenability and exactlp layers do nearly all the
work; the spectral layer does none.

The Z2^4 LPs run with ``exact=True`` and ``exact=False`` on identical
inputs, so the gap between ``amenability.folner_exact_s`` and
``amenability.folner_float_s`` is the rational simplex's own cost.

The LP work is fixed: relabelling the groups would change the simplex's
pivot path and with it the cost.  The seed draws the eps thresholds of the
Z_n table inside bands where the scan solves the same LPs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from coarselab import amenability as A
from coarselab import groups as G

EXPECTED_FAILURES = frozenset()

C08_GROUPS = {
    False: [("Z2", G.cyclic_group, 2), ("Z3", G.cyclic_group, 3), ("Z4", G.cyclic_group, 4),
            ("Z2xZ2", G.z2_power_group, 2)],
    True: [("Z2", G.cyclic_group, 2), ("Z3", G.cyclic_group, 3)],
}
C08_R = [1, 2]
C08_EPS = [0.25, 0.5, 1.0]
GROWTH_EPS = 0.5
GROWTH_RANGE = {False: range(1, 5), True: range(1, 4)}
EXACT_POWER = {False: 4, True: 3}
FLOAT_POWERS = {False: (5, 6), True: (4,)}
SUPPORTS = (1, 2, 3)
ZN_ORDER = {False: 12, True: 6}
# On Z_n at R=1 the optimal defect at radius S is 2/(2S+1); an eps drawn
# inside (2/(2S+1), 2/(2S-1)) stops the scan at S, whatever its value.
ZN_TARGET_S = {False: (2, 3), True: (1, 2)}


def _band(rng, s):
    lo, hi = Fraction(2, 2 * s + 1), Fraction(2, 2 * s - 1)
    width = hi - lo
    return float(lo + width / 10 + width * 8 / 10 * Fraction(float(rng.random())))


def setup(ctx):
    small = ctx.small
    return {
        "small": small,
        "zn_eps": [_band(ctx.rng, s) for s in ZN_TARGET_S[small]],
    }


def _diam_op(label, builder, order, R_grid, eps_grid, form):
    def op(tr, _pass_dir, _results):
        with tr.span("groups.build"):
            group = builder(order)
        with tr.span("amenability.diam_table"):
            table = A.diam_table(group, R_grid, eps_grid, form=form, exact=True)
        tr.count("amenability.lp_solves", len(table.defects))
        return group, table
    return op


def _growth_op(small):
    def op(tr, _pass_dir, _results):
        with tr.span("groups.build"):
            base = G.cyclic_group(2)
        with tr.span("amenability.growth"):
            res = A.growth_experiment(base, GROWTH_EPS, GROWTH_RANGE[small])
        tr.count("amenability.lp_solves", sum(len(d) for _n, _s, d in res["rows"]))
        return res
    return op


def _folner_op(k, S, exact):
    def op(tr, _pass_dir, _results):
        with tr.span("groups.build"):
            group = G.group_power(G.cyclic_group(2), k)
        with tr.span("amenability.folner_exact" if exact else "amenability.folner_float"):
            f, defect = A.optimal_folner(group, 1, S, exact=exact)
        tr.count("amenability.lp_solves", 1)
        return group, f, defect
    return op


def operations(state):
    small = state["small"]
    ops = []
    for label, builder, order in C08_GROUPS[small]:
        for form in ("folner", "witness"):
            ops.append((f"diam {label} {form}", _diam_op(label, builder, order, C08_R, C08_EPS, form)))
    ops.append(("growth Z2", _growth_op(small)))
    k = EXACT_POWER[small]
    for S in SUPPORTS:
        ops.append((f"folner Z2^{k} S={S} exact", _folner_op(k, S, True)))
        ops.append((f"folner Z2^{k} S={S} float", _folner_op(k, S, False)))
    for k in FLOAT_POWERS[small]:
        for S in SUPPORTS:
            ops.append((f"folner Z2^{k} S={S} float", _folner_op(k, S, False)))
    n = ZN_ORDER[small]
    ops.append((f"diam Z{n} folner", _diam_op(f"Z{n}", G.cyclic_group, n, [1], state["zn_eps"], "folner")))
    return ops


def fingerprint(results, _pass_dir):
    out = []
    for name in sorted(results):
        value = results[name]
        if name.startswith("diam"):
            _g, table = value
            out.append((name, sorted(table.entries.items()), sorted(table.defects.items())))
        elif name.startswith("growth"):
            out.append((name, [(n, s, sorted(d.items())) for n, s, d in value["rows"]]))
        else:
            _g, f, defect = value
            out.append((name, defect, [v for v in f.values]))
    return out


# -- checks (independent of the program) -------------------------------------


def _word_lengths(group):
    """Breadth-first word lengths over the generators, from the table alone."""
    n = group.n
    identity = next(e for e in range(n) if np.array_equal(group.table[e], np.arange(n)))
    lengths = np.full(n, -1)
    lengths[identity] = 0
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in group.generators:
                h = int(group.table[g, s])
                if lengths[h] < 0:
                    lengths[h] = lengths[g] + 1
                    nxt.append(h)
        frontier = nxt
    return lengths, identity


def reiter_defect(group, values, R):
    """max over nontrivial g with |g| <= R of sum_h |f(g^-1 h) - f(h)|."""
    lengths, identity = _word_lengths(group)
    inverse = [int(np.nonzero(group.table[g] == identity)[0][0]) for g in range(group.n)]
    worst = 0
    for g in range(group.n):
        if g == identity or lengths[g] > R:
            continue
        gi = inverse[g]
        worst = max(worst, sum(abs(values[int(group.table[gi, h])] - values[h]) for h in range(group.n)))
    return worst


def _zn_defect(n, S):
    return Fraction(2, 2 * S + 1) if 2 * S + 1 < n else Fraction(0)


def _check_zn_table(name, group, table):
    bad = []
    for (R, eps, S), defect in table.defects.items():
        if R == 1 and defect != _zn_defect(group.n, int(S)):
            bad.append(f"{name}: defect at S={S} is {defect}, expected {_zn_defect(group.n, int(S))}")
    for (R, eps), S in table.entries.items():
        if R != 1:
            continue
        want = next(s for s in range(group.n) if _zn_defect(group.n, s) < Fraction(eps))
        if S != want:
            bad.append(f"{name}: eps={eps} gives S={S}, expected {want}")
    return bad


def check(state, results, _pass_dir):
    small = state["small"]
    bad = []
    for label, builder, order in C08_GROUPS[small]:
        g, folner = results[f"diam {label} folner"]
        _g, witness = results[f"diam {label} witness"]
        if folner.entries != witness.entries:
            bad.append(f"{label}: folner and witness diam tables differ")
        if builder is G.cyclic_group:
            bad += _check_zn_table(f"diam {label}", g, folner)
        else:
            for (R, _eps, S), defect in folner.defects.items():
                if R == 1 and S == 1 and defect != Fraction(2 * (order - 1), order + 1):
                    bad.append(f"{label}: R=S=1 defect {defect}")
    growth = results["growth Z2"]
    values = {n: s for n, s, _d in growth["rows"]}
    if sorted(values) != list(GROWTH_RANGE[small]):
        bad.append(f"growth rows {sorted(values)}")
    series = [values[n] for n in sorted(values)]
    if any(a > b for a, b in zip(series, series[1:])) or values.get(1) != 1 or values.get(2) != 2:
        bad.append(f"growth values {series}")
    for n, _s, defects in growth["rows"]:
        if (1, GROWTH_EPS, 1.0) in defects and defects[(1, GROWTH_EPS, 1.0)] != Fraction(2 * (n - 1), n + 1):
            bad.append(f"growth n={n}: R=S=1 defect {defects[(1, GROWTH_EPS, 1.0)]}")
    k = EXACT_POWER[small]
    for S in SUPPORTS:
        group, f_exact, d_exact = results[f"folner Z2^{k} S={S} exact"]
        _g, f_float, d_float = results[f"folner Z2^{k} S={S} float"]
        if not isinstance(d_exact, Fraction) or reiter_defect(group, f_exact.values, 1) != d_exact:
            bad.append(f"Z2^{k} S={S}: exact defect {d_exact} is not the recomputed Reiter defect")
        if abs(float(d_exact) - d_float) > 1e-9:
            bad.append(f"Z2^{k} S={S}: exact {d_exact} and float {d_float} disagree")
    for kk in (k,) + FLOAT_POWERS[small]:
        for S in SUPPORTS:
            group, f, d = results[f"folner Z2^{kk} S={S} float"]
            if abs(reiter_defect(group, f.as_floats(), 1) - d) > 1e-9:
                bad.append(f"Z2^{kk} S={S}: float defect {d} is not the recomputed Reiter defect")
        _g, _f, d1 = results[f"folner Z2^{kk} S=1 float"]
        if abs(d1 - 2 * (kk - 1) / (kk + 1)) > 1e-9:
            bad.append(f"Z2^{kk}: R=S=1 float defect {d1}, expected {2 * (kk - 1) / (kk + 1)}")
    _g, f1, d1 = results[f"folner Z2^{k} S=1 exact"]
    if d1 != Fraction(2 * (k - 1), k + 1):
        bad.append(f"Z2^{k}: R=S=1 exact defect {d1}")
    n = ZN_ORDER[small]
    group, table = results[f"diam Z{n} folner"]
    bad += _check_zn_table(f"diam Z{n}", group, table)
    if sorted(table.entries.values()) != sorted(float(s) for s in ZN_TARGET_S[small]):
        bad.append(f"diam Z{n}: entries {table.entries}")
    return bad
