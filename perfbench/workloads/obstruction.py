"""obstruction: Kazhdan-style gaps, expansion constants and the variance
inequality.  The spectral layer does nearly all the work (SLSQP restarts,
subset enumeration, eigensolves); no LPs and no serialization run here.

Kazhdan groups, all from criterion C07: Z5 (one generator form), D3 (two
forms), Z2^3 (three forms), all at most 12 elements, and Z2^4 (four forms,
16 elements, the largest group whose subset-expansion check is exhaustive).
``kazhdan_gap`` runs with its default restart seed, because its SLSQP cost
varies by about 30% from one restart seed to another; the benchmark's seed
draws the random graphs and the test functions instead.
"""

from __future__ import annotations

import math

import numpy as np

from coarselab import groups as G
from coarselab import spectral as SG

EXPECTED_FAILURES = frozenset()

# (label, builder, order, closed-form eps or None)
KAZHDAN = {
    False: [
        ("Z5", G.cyclic_group, 5, 2 * math.sin(math.pi / 5)),
        ("D3", G.dihedral_group, 3, None),
        ("Z2^3", G.z2_power_group, 3, 2 / math.sqrt(3)),
        ("Z2^4", G.z2_power_group, 4, 2 / math.sqrt(4)),
    ],
    True: [
        ("Z4", G.cyclic_group, 4, 2 * math.sin(math.pi / 4)),
        ("D3", G.dihedral_group, 3, None),
        ("Z2^2", G.z2_power_group, 2, 2 / math.sqrt(2)),
    ],
}
EXACT_SIZES = {False: (16, 18), True: (10, 12)}
SPECTRAL_SIZES = {False: (64, 128, 256), True: (16, 32)}
SAMPLES = 4000


def setup(ctx):
    rng = ctx.rng
    exact_graphs = []
    for n in EXACT_SIZES[ctx.small]:
        with ctx.tracer.span("spectral.random_regular_graph"):
            exact_graphs.append(SG.random_regular_graph(n, 3, seed=int(rng.integers(2**31))))
    spectral_graphs = []
    for n in SPECTRAL_SIZES[ctx.small]:
        with ctx.tracer.span("spectral.random_regular_graph"):
            g = SG.random_regular_graph(n, 3, seed=int(rng.integers(2**31)))
        with ctx.tracer.span("spaces.graph_metric"):
            dist = g.metric_space().dist
        # distance-to-landmark functions are 1-Lipschitz along edges
        landmarks = rng.choice(n, size=3, replace=False)
        f = dist[landmarks[0]].copy()
        coords = np.stack([dist[landmarks[1]], dist[landmarks[2]]], axis=1)
        spectral_graphs.append((g, f, coords))
    return {
        "small": ctx.small,
        "sample_seed": int(rng.integers(2**31)),
        "exact_graphs": exact_graphs,
        "spectral_graphs": spectral_graphs,
    }


def _kazhdan_op(builder, order):
    def op(tr, _pass_dir, _results):
        with tr.span("groups.build"):
            group = builder(order)
        with tr.span("spectral.kazhdan"):
            rep = SG.kazhdan_gap(group)
        return group, rep
    return op


def _exact_op(graph):
    def op(tr, _pass_dir, _results):
        with tr.span("spectral.expansion_exact"):
            rep = SG.expansion_constant(graph, mode="exact")
        tr.count("spectral.subsets", 2**graph.n - 2)
        return rep
    return op


def _sampled_op(graph, seed):
    def op(tr, _pass_dir, _results):
        with tr.span("spectral.expansion_sampled"):
            return SG.expansion_constant(graph, mode="sampled", samples=SAMPLES, seed=seed)
    return op


def _variance_op(graph, f, coords):
    def op(tr, _pass_dir, _results):
        with tr.span("spectral.laplacian_gap"):
            gap = SG.laplacian_gap(graph)
        with tr.span("spectral.poincare"):
            poincare = SG.poincare_check(graph, f)
        with tr.span("spectral.concentration"):
            conc = SG.concentration_test(graph, coords)
        return gap, poincare, conc
    return op


def operations(state):
    ops = []
    for label, builder, order, _eps in KAZHDAN[state["small"]]:
        ops.append((f"kazhdan {label}", _kazhdan_op(builder, order)))
    for graph in state["exact_graphs"]:
        ops.append((f"expansion exact n={graph.n}", _exact_op(graph)))
        ops.append((f"expansion sampled n={graph.n}", _sampled_op(graph, state["sample_seed"])))
    for graph, f, coords in state["spectral_graphs"]:
        ops.append((f"variance n={graph.n}", _variance_op(graph, f, coords)))
    return ops


def fingerprint(results, _pass_dir):
    out = []
    for name in sorted(results):
        value = results[name]
        if name.startswith("kazhdan"):
            _g, rep = value
            out.append((name, rep.eps, rep.cert_lower, rep.expansion_ok))
        elif name.startswith("expansion"):
            out.append((name, value.c, tuple(value.subset)))
        else:
            gap, poincare, conc = value
            out.append((name, gap.lam, poincare, conc.inside))
    return out


# -- checks (independent of the program) -------------------------------------


def _cayley_laplacian(group):
    n = group.n
    adj = np.zeros((n, n))
    for s in group.generators:
        adj[np.arange(n), group.table[:, s]] = 1.0
    return len(group.generators) * np.eye(n) - adj


def _check_kazhdan(name, group, rep, closed_form):
    bad = []
    if closed_form is not None and abs(rep.eps - closed_form) > 1e-6:
        bad.append(f"{name}: eps {rep.eps!r} differs from the closed form {closed_form!r}")
    if rep.cert_lower > rep.eps + 1e-9:
        bad.append(f"{name}: certified lower bound {rep.cert_lower!r} exceeds eps {rep.eps!r}")
    # any unit mean-zero f bounds the min-max from above
    _vals, vecs = np.linalg.eigh(_cayley_laplacian(group))
    f = vecs[:, 1]
    f = f - f.mean()
    f = f / np.linalg.norm(f)
    upper = max(float(np.linalg.norm(f[group.table[:, s]] - f)) for s in group.generators)
    if rep.eps > upper + 1e-9:
        bad.append(f"{name}: eps {rep.eps!r} exceeds the gap-eigenvector bound {upper!r}")
    if rep.expansion_ok is not True:
        bad.append(f"{name}: per-quotient expansion check did not pass ({rep.expansion_ok!r})")
    return bad


def _popcount(a):
    return np.bitwise_count(a).astype(np.int64)


def exhaustive_expansion(adj) -> float:
    """min over nonempty proper A of |outer boundary(A)| / ((1 - |A|/n)|A|),
    by vectorised enumeration of every subset mask."""
    n = adj.shape[0]
    masks = np.arange(1, (1 << n) - 1, dtype=np.uint64)
    nbr = np.zeros_like(masks)
    for v in range(n):
        row = np.uint64(sum(1 << int(w) for w in np.nonzero(adj[v])[0]))
        has_v = (masks >> np.uint64(v)) & np.uint64(1)
        nbr |= has_v * row
    boundary = _popcount(nbr & ~masks & np.uint64((1 << n) - 1))
    size = _popcount(masks)
    ratio = boundary / ((1.0 - size / n) * size)
    return float(ratio.min())


def check(state, results, _pass_dir):
    bad = []
    for label, _builder, _order, closed_form in KAZHDAN[state["small"]]:
        group, rep = results[f"kazhdan {label}"]
        bad += _check_kazhdan(label, group, rep, closed_form)
    for graph in state["exact_graphs"]:
        exact = results[f"expansion exact n={graph.n}"]
        sampled = results[f"expansion sampled n={graph.n}"]
        truth = exhaustive_expansion(graph.adjacency)
        if abs(exact.c - truth) > 1e-12:
            bad.append(f"exact expansion n={graph.n}: {exact.c!r} but enumeration gives {truth!r}")
        if sampled.c < truth - 1e-12:
            bad.append(f"sampled expansion n={graph.n}: {sampled.c!r} is below the exact {truth!r}")
    for graph, _f, _coords in state["spectral_graphs"]:
        gap, poincare, conc = results[f"variance n={graph.n}"]
        if abs(gap.spectrum.sum() - graph.n * graph.degree) > 1e-8 * graph.n or abs(gap.spectrum[0]) > 1e-9:
            bad.append(f"laplacian n={graph.n}: spectrum fails trace or kernel check")
        if not poincare[2]:
            bad.append(f"poincare n={graph.n}: variance inequality fails {poincare!r}")
        if not conc.passes:
            bad.append(f"concentration n={graph.n}: {conc.inside} inside, {conc.required} required")
    return bad
