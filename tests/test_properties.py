"""Property-based invariants on generated inputs: the chunked subset kernel
against a plain enumeration, the Kazhdan primal-dual certificate, and
certified LP optima against a rational simplex."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from coarselab import spectral as SG
from coarselab.exactlp import solve_lp
from coarselab.groups import cyclic_group, dihedral_group, direct_product, z2_power_group
from lp_oracle import solve_exact

# derandomized: the suite gives the same verdict on every run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


# -- reference enumeration: one subset at a time on Python integers ----------


def _neighbor_masks(adj):
    masks = []
    for v in range(adj.shape[0]):
        m = 0
        for w in np.nonzero(adj[v])[0]:
            m |= 1 << int(w)
        masks.append(m)
    return masks


def _subset_ratio(subset_mask, masks, n):
    nbr = 0
    m = subset_mask
    while m:
        v = (m & -m).bit_length() - 1
        nbr |= masks[v]
        m &= m - 1
    boundary = bin(nbr & ~subset_mask & ((1 << n) - 1)).count("1")
    a = bin(subset_mask).count("1")
    return boundary / ((1.0 - a / n) * a)


def _reference(adj, mode, samples=None, seed=0):
    n = adj.shape[0]
    masks = _neighbor_masks(adj)
    if mode == "exact":
        candidates = range(1, (1 << n) - 1)
    else:
        rng = np.random.default_rng(seed)
        candidates = []
        for _ in range(samples):
            size = int(rng.integers(1, n))
            candidates.append(sum(1 << int(v) for v in rng.choice(n, size=size, replace=False)))
    best, best_mask = math.inf, 0
    for m in candidates:
        r = _subset_ratio(m, masks, n)
        if r < best:
            best, best_mask = r, m
    return best, [v for v in range(n) if best_mask >> v & 1]


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    adj = np.zeros((n, n), dtype=int)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return adj


@PROPERTY
@given(adj=graphs(), chunk=st.sampled_from([1, 7, 64, 1 << 13]), seed=st.integers(0, 2**16))
def test_subset_kernel_matches_reference_enumeration(adj, chunk, seed):
    # small chunks put ties on both sides of a chunk boundary
    with mock.patch.object(SG, "_CHUNK", chunk):
        exact = SG.expansion_constant(adj, mode="exact")
        sampled = SG.expansion_constant(adj, mode="sampled", samples=50, seed=seed)
    assert (exact.c, exact.subset) == _reference(adj, "exact")
    assert (sampled.c, sampled.subset) == _reference(adj, "sampled", samples=50, seed=seed)


# -- Kazhdan gaps on direct products of small cyclic and dihedral groups -----

FACTORS = [(cyclic_group, n, n) for n in range(2, 7)] + [(dihedral_group, n, 2 * n) for n in (3, 4)]


@st.composite
def products(draw):
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3)
                   .filter(lambda fs: math.prod(order for _b, _n, order in fs) <= 24))
    group = factors[0][0](factors[0][1])
    for build, n, _order in factors[1:]:
        group = direct_product(group, build(n))
    return group


def _displacement(group, f):
    return max(float(np.linalg.norm(f[group.table[:, s]] - f)) for s in group.generators)


@PROPERTY
@given(group=products(), seed=st.integers(0, 2**16))
def test_kazhdan_certificate_sandwich(group, seed):
    rep = SG.kazhdan_gap(group, check_expansion=False)
    averaged = math.sqrt(2.0 * rep.lam / len(group.generators))
    assert averaged <= rep.cert_lower + 1e-12
    assert rep.cert_lower <= rep.eps + 1e-12
    # any unit mean-zero f bounds the min-max from above
    rng = np.random.default_rng(seed)
    for _ in range(5):
        f = rng.standard_normal(group.n)
        f -= f.mean()
        f /= np.linalg.norm(f)
        assert rep.eps <= _displacement(group, f) + 1e-12


@PROPERTY
@given(n=st.integers(2, 40))
def test_kazhdan_closed_form_cyclic(n):
    rep = SG.kazhdan_gap(cyclic_group(n), check_expansion=False)
    assert abs(rep.eps - 2.0 * math.sin(math.pi / n)) <= 1e-9
    assert rep.exact


@PROPERTY
@given(k=st.integers(1, 5))
def test_kazhdan_closed_form_z2_power(k):
    rep = SG.kazhdan_gap(z2_power_group(k), check_expansion=False)
    assert abs(rep.eps - 2.0 / math.sqrt(k)) <= 1e-9
    assert rep.exact


# -- certified LP optima against the rational simplex oracle -----------------


@st.composite
def boxed_lps(draw):
    """Feasible LPs with small integer data, bounded by a box on every
    variable; feasibility comes from an integer point the rows are built
    around."""
    n = draw(st.integers(1, 4))
    coef = st.integers(-3, 3)
    point = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    c = draw(st.lists(coef, min_size=n, max_size=n))
    a_ub = [[int(j == k) for k in range(n)] for j in range(n)]
    b_ub = [p + draw(st.integers(0, 2)) for p in point]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.lists(coef, min_size=n, max_size=n))
        a_ub.append(row)
        b_ub.append(sum(a * p for a, p in zip(row, point)) + draw(st.integers(0, 2)))
    a_eq = draw(st.lists(st.lists(coef, min_size=n, max_size=n), max_size=2))
    b_eq = [sum(a * p for a, p in zip(row, point)) for row in a_eq]
    return c, a_ub, b_ub, a_eq, b_eq


def _triplets(rows):
    return [(i, j, a) for i, row in enumerate(rows) for j, a in enumerate(row) if a]


@PROPERTY
@given(lp=boxed_lps())
def test_certified_lp_value_matches_rational_simplex(lp):
    c, a_ub, b_ub, a_eq, b_eq = lp
    x, value = solve_lp(c, _triplets(a_ub), b_ub, _triplets(a_eq), b_eq, exact=True)
    assert isinstance(value, Fraction) and all(isinstance(v, Fraction) for v in x)
    assert value == solve_exact(c, a_ub, b_ub, a_eq, b_eq)[1]
