"""Property-based invariants on generated inputs: the chunked subset kernel
against a plain enumeration, the Kazhdan primal-dual certificate, certified
LP optima against a rational simplex, the writer's refusal of non-finite
floats, the graph metric, compression profile, triangle check and Light's
associativity test against their loops, witness measurement within R and
csgraph warping against the routines they replaced, the gathers on a group's
multiplication table against the per-element loops, the block-level triangle
check of separated unions against the full one, the structural proofs of a
metric (unit graphs, blocks) against the triangle loop, diam tables sharing each
(R, S) optimum against the per-eps scan, every document kind through write,
read and write, written documents read back bit for bit, and the orjson
reader against json, float bits included."""

import ast
import json
import math
import struct
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import pdist, squareform

from coarselab import serialize
from coarselab import spectral as SG
from coarselab import witnesses as W
from coarselab.exactlp import solve_lp
from coarselab.amenability import (
    FolnerFunction, diam_table, folner_to_witness, kernel_to_function, reiter_defect, witness_to_folner,
)
from coarselab.groups import (
    NAMED_GROUPS, FiniteGroup, GroupAction, QuotientChain, box_to_function, box_to_kernel, build_box, cayley_metric,
    cyclic_group, dihedral_group, direct_product, quotient_group, quotient_metric, warp_bruteforce, warp_metric,
    z2_power_group,
)
from coarselab.kernels import Kernel, classify_kernel, kernel_operator_bridge
from coarselab import spaces as SP
from coarselab.spaces import (
    FiniteMetricSpace, PointMap, _scaled_tol, complete_space, compression_profile, cycle_space, graph_metric,
    hypercube_space_graph, path_space, separated_union,
)
import loop_oracles as oracle
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
        # every sample in one draw: a size, then the vertices ranked below it
        sizes_rng, ranks_rng = np.random.default_rng(seed).spawn(2)
        sizes = sizes_rng.integers(1, n, size=samples).tolist()
        ranks = ranks_rng.permuted(np.tile(np.arange(n), (samples, 1)), axis=1).tolist()
        candidates = [sum(1 << v for v in range(n) if row[v] < size) for size, row in zip(sizes, ranks)]
    best, best_mask = math.inf, 0
    for m in candidates:
        r = _subset_ratio(m, masks, n)
        if r < best:
            best, best_mask = r, m
    return best, [v for v in range(n) if best_mask >> v & 1]


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(2, max_n))
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


@PROPERTY
@given(adj=graphs(), samples=st.integers(2, 200), seed=st.integers(0, 2**16))
def test_sampled_expansion_bounds_the_exact_constant(adj, samples, seed):
    sampled = SG.expansion_constant(adj, mode="sampled", samples=samples, seed=seed)
    n = adj.shape[0]
    mask = sum(1 << v for v in sampled.subset)
    assert 0 < mask < (1 << n) - 1
    assert sampled.c >= SG.expansion_constant(adj, mode="exact").c
    assert sampled.c == _subset_ratio(mask, _neighbor_masks(adj), n)


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


# -- the writer refuses non-finite floats ------------------------------------

# all-integral arrays of their own: random floats would rarely give one
whole_floats = st.one_of(st.sampled_from([0.0, -0.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15]),
                         st.integers(-2**53, 2**53).map(float))
floats_ = st.one_of(whole_floats, st.sampled_from([5e-324, -2.5e-310, 1e300, -1e300, 0.5]),
                    st.floats(allow_nan=False, allow_infinity=False))
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=whole_floats),
    hnp.arrays(np.float64, shapes, elements=floats_),
    hnp.arrays(np.float32, shapes, elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
    hnp.arrays(st.sampled_from([np.int64, np.int16, np.uint8]), shapes),
    hnp.arrays(np.bool_, shapes),
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats_, st.text(max_size=3))
documents = st.recursive(
    st.one_of(scalars, arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


@PROPERTY
@given(doc=documents, bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_non_finite_array_raises_and_dump_leaves_no_file(doc, bad, data, tmp_path_factory):
    arr = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4),
                               elements=floats_))
    arr.flat[data.draw(st.integers(0, arr.size - 1))] = bad
    # also in the arrays that orjson does not take whole
    mixed = {"before": doc, "array": data.draw(st.sampled_from([arr, arr.T, arr.astype(object)]))}
    with pytest.raises(ValueError, match="non-finite float"):
        serialize.dumps(mixed)
    out = tmp_path_factory.mktemp("dump")
    with pytest.raises(ValueError, match="non-finite float"):
        serialize.dump(mixed, out / "doc.json")
    assert list(out.iterdir()) == []


# -- graph metrics against BFS -----------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@PROPERTY
@given(adj=graphs(max_n=12))
def test_graph_metric_matches_bfs(adj):
    got = _outcome(lambda a: graph_metric(a).dist, adj)
    want = _outcome(oracle.bfs_metric, adj)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


# -- compression profiles against the pair loop ------------------------------


@st.composite
def point_maps(draw):
    adj = draw(graphs(max_n=9).filter(lambda a: SG._is_connected(a)))
    n = adj.shape[0]
    source = graph_metric(adj)
    source = FiniteMetricSpace(source.points, source.dist * draw(st.sampled_from([1.0, 0.7, 2.5])),
                               blocks=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    if draw(st.booleans()):
        target = graph_metric(draw(graphs(max_n=6).filter(lambda a: SG._is_connected(a))))
        return PointMap(source, target, draw(st.lists(st.integers(0, target.n - 1), min_size=n, max_size=n)))
    dim = draw(st.integers(1, 4))
    coords = draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-100, 100)))
    return PointMap(source, None, coords, p=draw(st.sampled_from([2.0, 1.0, np.inf, 3.0, 1.5])))


@PROPERTY
@given(pmap=point_maps(), bin_width=st.sampled_from([1.0, 0.5, 1.5, 3.0]),
       pairs=st.sampled_from(["all", "within", "across"]))
def test_compression_profile_matches_pair_loop(pmap, bin_width, pairs):
    prof = compression_profile(pmap, bin_width=bin_width, pairs=pairs)
    bins, rho1, rho2 = oracle.pair_profile(pmap, bin_width=bin_width, pairs=pairs)
    assert prof.bins == bins
    # a vectorised norm sums in another order than the per-pair norm
    np.testing.assert_array_max_ulp(prof.rho1, rho1, maxulp=4)
    np.testing.assert_array_max_ulp(prof.rho2, rho2, maxulp=4)


# -- the int16 triangle check against the float64 one ------------------------


@PROPERTY
@given(adj=graphs(max_n=12).filter(lambda a: SG._is_connected(a)), scale=st.sampled_from([1, 7, 2000, 8191, 9000]),
       data=st.data())
def test_integer_triangle_check_matches_float64(adj, scale, data):
    dist = graph_metric(adj).dist * scale
    n = dist.shape[0]
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    k = data.draw(st.integers(0, n - 1))
    # plant a distance longer than the path through k, or shorter
    planted = dist[i, k] + dist[k, j] + data.draw(st.integers(0, 3)) if data.draw(st.booleans()) \
        else data.draw(st.integers(1, int(dist[i, j])))
    dist[i, j] = dist[j, i] = planted
    points = list(range(n))
    want = oracle.triangle_error(points, dist)
    got = _outcome(FiniteMetricSpace, points, dist)
    assert (got if isinstance(got, str) else None) == want


# -- associativity: Light's test against every triple -----------------------


@PROPERTY
@given(group=st.one_of(products(), st.builds(z2_power_group, st.integers(1, 4))), data=st.data())
def test_light_associativity_test_matches_every_triple(group, data):
    assert oracle.associative(group.table)
    FiniteGroup(group.elements, group.table, group.generators)
    # moving one entry x y != e to another non-identity value keeps the
    # identity and the inverses, but the row is no longer a permutation, so
    # the table is no group and not associative; with y outside the
    # generators the word lengths, which multiply only by generators, still
    # reach every element, so the rejection is Light's test's own
    e = group.identity
    cells = [(x, y) for x in range(group.n) for y in range(group.n)
             if e not in (x, y) and y not in group.generators and group.table[x, y] != e]
    assume(cells)
    x, y = data.draw(st.sampled_from(cells))
    table = group.table.copy()
    table[x, y] = data.draw(st.sampled_from([z for z in range(group.n) if z not in (e, table[x, y])]))
    assert not oracle.associative(table)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(group.elements, table, group.generators)


# -- witness measurement on the pairs within R against the full matrix ------


def _random_graph_space(n, rng):
    """A connected graph metric: a random tree plus random edges."""
    adj = np.zeros((n, n), dtype=int)
    for v in range(1, n):
        u = int(rng.integers(v))
        adj[u, v] = adj[v, u] = 1
    extra = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.3), 1)
    return graph_metric(adj | extra | extra.T)


def _unit_rows(rng, shape, p):
    table = rng.random(shape) * (rng.random(shape) < 0.6)
    table[:, 0] += 0.5  # no row vanishes
    return table / np.linalg.norm(table, ord=p, axis=1, keepdims=True)


def _random_witnesses(space, p, rng):
    """One witness of each form with random content."""
    n, ids = space.n, tuple(space.points)
    members = [frozenset((int(y), 1) for y in np.flatnonzero(rng.random(n) < 0.4)) | {(i, 1)} for i in range(n)]
    functions = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n)
    coords = _unit_rows(rng, (n, 3), 2.0) * rng.choice([-1.0, 1.0], size=(n, 3))
    return [
        W.AFamily(sets=tuple(members), point_ids=ids, meta={"truncated": frozenset(range(0, n, 3))}),
        W.LpWitness(p=p, table=_unit_rows(rng, (n, n), p), point_ids=ids),
        W.TailWitness(p=p, table=_unit_rows(rng, (n, n), p), S_tail=1.0, delta=0.5, point_ids=ids, R=1.0),
        W.PartitionWitness(cover=tuple(frozenset(np.flatnonzero(f > 0).tolist()) for f in functions),
                           functions=functions / functions.sum(axis=0), point_ids=ids),
        W.VectorWitness(coords=coords, point_ids=ids),
        W.KernelWitness(matrix=coords @ coords.T, point_ids=ids),
    ]


@PROPERTY
@given(n=st.integers(2, 24), seed=st.integers(0, 2**16), p=st.sampled_from([1, 2, 1.5, 3]))
def test_measure_witness_matches_full_matrix(n, seed, p):
    rng = np.random.default_rng(seed)
    space = _random_graph_space(n, rng)
    for w in _random_witnesses(space, p, rng):
        for R in (0.0, 1.0, space.diameter() + 1.0):
            # repr is exact for floats and tells -0.0 from 0.0
            assert repr(W.measure_witness(w, space, R)) == repr(oracle.measure_witness(w, space, R)), (w.form, R)


# -- csgraph warping against the heap Dijkstra -------------------------------


@PROPERTY
@given(n=st.integers(2, 10), seed=st.integers(0, 2**16), weight=st.sampled_from([1.0, 1.25, 2.0, 3.7]), data=st.data())
def test_warp_metric_matches_heap_dijkstra(n, seed, weight, data):
    rng = np.random.default_rng(seed)
    space = FiniteMetricSpace(list(range(n)), squareform(pdist(rng.uniform(0.0, 4.0, size=(n, 2)))))
    # Z_order acting by the powers of a random permutation, its generators weighted
    sigma = np.array(data.draw(st.permutations(range(n))))
    powers = [np.arange(n)]
    while len(powers) == 1 or not np.array_equal(powers[-1], powers[0]):
        powers.append(sigma[powers[-1]])
    order = len(powers) - 1
    assume(order <= 12)
    group = cyclic_group(order)
    if order > 1:
        gens = sorted({1, order - 1})
        group = FiniteGroup(group.elements, group.table, gens, generator_weights={g: weight for g in gens})
    action = GroupAction(group, space, np.array(powers[:order]))
    got = warp_metric(space, action).dist
    assert got.tobytes() == oracle.warp_dijkstra(space, action).tobytes()
    brute = warp_bruteforce(space, action)
    assert brute.tobytes() == oracle.warp_bruteforce(space, action).tobytes()
    np.testing.assert_allclose(got, brute, rtol=0, atol=1e-12)


# -- gathers on the multiplication table against the per-element loops -------


def _factor_normal_subgroups(kind, n):
    """Member lists of some normal subgroups of one factor: the subgroups of
    a cyclic factor, and the trivial group, the whole group and the rotation
    subgroups of a dihedral one (element (r, f) at index f n + r)."""
    steps = [d for d in range(1, n + 1) if n % d == 0]
    rotations = [list(range(0, n, d)) for d in steps]
    return rotations if kind == "zn" else rotations + [list(range(2 * n))]


@st.composite
def normal_subgroups(draw, count=1):
    """A direct product of cyclic and dihedral factors of order at most 64,
    and ``count`` normal subgroups of it, each one normal subgroup per factor
    (so a factor's kernel is among them)."""
    factors = draw(st.lists(st.one_of(st.tuples(st.just("zn"), st.integers(1, 12)),
                                      st.tuples(st.just("dihedral"), st.integers(2, 6))), min_size=1, max_size=3)
                   .filter(lambda fs: math.prod(n * (1 + (kind == "dihedral")) for kind, n in fs) <= 64))
    group = NAMED_GROUPS[factors[0][0]](factors[0][1])
    for kind, n in factors[1:]:
        group = direct_product(group, NAMED_GROUPS[kind](n))
    orders = [n * (1 + (kind == "dihedral")) for kind, n in factors]
    subgroups = []
    for _ in range(count):
        parts = [draw(st.sampled_from(_factor_normal_subgroups(kind, n))) for kind, n in factors]
        index = np.ravel_multi_index(np.meshgrid(*parts, indexing="ij"), orders)
        subgroups.append(sorted(index.ravel().tolist()))
    return group, subgroups


def _quotient_parts(quot, projection):
    return quot.elements, quot.table.tobytes(), quot.generators, quot.lengths.tobytes(), projection.tobytes()


@PROPERTY
@given(case=normal_subgroups(), radius=st.sampled_from([0.0, 1.0, 2.5]))
def test_quotient_gathers_match_coset_loops(case, radius):
    group, (members,) = case
    assert group.identity == oracle.find_identity(group)
    assert group.inverse.tobytes() == oracle.find_inverses(group).tobytes()
    assert group.ball(radius) == oracle.ball(group, radius)
    got = quotient_group(group, members)
    assert _quotient_parts(*got) == _quotient_parts(*oracle.quotient_group(group, members))
    assert quotient_metric(group, members).dist.tobytes() == oracle.quotient_metric(group, members).dist.tobytes()
    # an involution with the identity is a subgroup, normal only when it is central
    flips = [g for g in range(group.n) if group.inverse[g] == g and g != group.identity]
    for g in flips[:2]:
        assert _outcome(lambda k: _quotient_parts(*quotient_group(group, k)), [group.identity, g]) == \
            _outcome(lambda k: _quotient_parts(*oracle.quotient_group(group, k)), [group.identity, g])


def _positive_type_phi(group, radius, rng):
    """phi(g) = <v, v(. g)> / |v|^2 for a random v on the radius ball: normalized,
    of positive type, and supported in the ball's square."""
    v = np.where(group.lengths <= radius, rng.standard_normal(group.n), 0.0)
    return v @ v[group.table] / (v @ v)


@PROPERTY
@given(case=normal_subgroups(count=3), radius=st.sampled_from([0, 1]), R=st.sampled_from([None, 1.0, 2.0]),
       seed=st.integers(0, 2**16))
def test_box_kernel_and_function_match_block_loops(case, radius, R, seed):
    group, subgroups = case
    # a decreasing chain: running intersections, ending in the trivial group
    chain = [frozenset(subgroups[0])]
    for k in subgroups[1:] + [[group.identity]]:
        chain.append(chain[-1] & frozenset(k))
    box = build_box(QuotientChain(group, chain))
    phi = _positive_type_phi(group, radius, np.random.default_rng(seed))
    got, want = _outcome(box_to_kernel, box, phi, R), _outcome(oracle.box_to_kernel, box, phi, R)
    if isinstance(want, str):
        assert got == want
        return
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert (repr(got.eps), repr(got.S), got.meta, got.R) == (repr(want.eps), repr(want.S), want.meta, want.R)
    for block in range(len(box.quotients)):
        fn = _outcome(box_to_function, box, got, block)
        ref = _outcome(oracle.box_to_function, box, want, block)
        assert fn == ref if isinstance(ref, str) else fn.tobytes() == ref.tobytes()


@PROPERTY
@given(case=normal_subgroups(), seed=st.integers(0, 2**16), R=st.sampled_from([1.0, 2.0]))
def test_translates_and_averages_match_element_loops(case, seed, R):
    group, _members = case
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(group.n)) * (rng.random(group.n) < 0.5)
    assume(weights.sum() > 0)
    f = FolnerFunction(group=group, values=weights / weights.sum())
    assert f.S == oracle.folner_support(group, f.values)
    w = folner_to_witness(group, f)
    assert w.table.tobytes() == oracle.folner_to_witness(group, f.as_floats()).tobytes()
    noisy = replace(w, table=w.table + rng.uniform(0.0, 1e-3, w.table.shape))
    noisy = replace(noisy, table=noisy.table / noisy.table.sum(axis=1, keepdims=True))
    assert witness_to_folner(group, noisy).as_floats().tobytes() == \
        oracle.witness_to_folner(group, noisy.table).tobytes()
    assert repr(reiter_defect(group, f, R)) == repr(oracle.reiter_defect(group, f.values, R))
    exact = [Fraction(int(k), 2 * group.n) for k in rng.integers(0, 3, group.n)]
    exact[group.identity] += 1 - sum(exact)
    assert reiter_defect(group, exact, R) == oracle.reiter_defect(group, exact, R)
    # averaging inverts translation: exactly on Fractions, to rounding on floats
    assert list(group.average(group.translates(exact))) == exact
    phi = _positive_type_phi(group, 1, rng)
    np.testing.assert_allclose(group.average(group.translates(phi)), phi, rtol=1e-13, atol=0)
    np.testing.assert_allclose(kernel_to_function(group, group.translates(phi)), phi, rtol=0, atol=1e-12)
    if np.array_equal(group.table, group.table.T):
        # abelian: on any kernel the old loop averaged the same terms in another order
        rows = rng.random((group.n, 3))
        gram = (rows @ rows.T) / np.outer(np.linalg.norm(rows, axis=1), np.linalg.norm(rows, axis=1))
        np.testing.assert_array_max_ulp(kernel_to_function(group, gram), oracle.kernel_to_function(group, gram),
                                        maxulp=4)


def _verdict(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(case=normal_subgroups(), data=st.data())
def test_group_action_matches_pair_loop(case, data):
    group, _members = case
    space = cayley_metric(group)
    perms = group.table.copy()  # left multiplication
    assert _verdict(GroupAction, group, space, perms) is None
    assert _verdict(oracle.check_action, group, space, perms) is None
    # swapping the actions of two non-identity elements keeps every row a
    # permutation, and breaks the homomorphism unless the swap is an automorphism
    movers = [g for g in range(group.n) if g != group.identity]
    assume(len(movers) >= 2)
    a, b = data.draw(st.lists(st.sampled_from(movers), min_size=2, max_size=2, unique=True))
    perms[[a, b]] = perms[[b, a]]
    assert _verdict(GroupAction, group, space, perms) == _verdict(oracle.check_action, group, space, perms)


def test_named_tables_and_products_match_element_loops():
    for n in range(1, 40):
        assert cyclic_group(n).table.tobytes() == np.array(oracle.cyclic_table(n)).tobytes()
    for k in range(0, 7):
        assert z2_power_group(k).table.tobytes() == np.array(oracle.z2_power_table(k)).tobytes()
    for n in range(2, 20):
        group = dihedral_group(n)
        elements, table = oracle.dihedral_table(n)
        assert group.elements == elements and group.table.tobytes() == np.array(table).tobytes()
    for a, b in [(dihedral_group(3), cyclic_group(4)), (cyclic_group(5), dihedral_group(4)),
                 (direct_product(cyclic_group(2), dihedral_group(3)), cyclic_group(3))]:
        assert direct_product(a, b).table.tobytes() == oracle.product_table(a, b).tobytes()


# -- separated unions: the block-level triangle check against the full one --


@st.composite
def union_blocks(draw):
    """Graph metrics, single points, empty blocks and planar point sets,
    scaled so that some diameters outgrow a nowak gap and some distances
    fall below the union's tolerance."""
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["cycle", "path", "complete", "cube", "point", "empty", "plane"]),
                              min_size=1, max_size=5)):
        if kind in ("cycle", "path", "complete"):
            block = {"cycle": cycle_space, "path": path_space, "complete": complete_space}[kind](
                draw(st.integers(1 + (kind == "cycle"), 12)))
        elif kind == "cube":
            block = hypercube_space_graph(draw(st.integers(1, 3)))
        elif kind == "plane":
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            xy = rng.standard_normal((draw(st.integers(2, 8)), 2))
            block = FiniteMetricSpace(range(len(xy)), squareform(pdist(xy)))
        else:
            size = int(kind == "point")
            block = FiniteMetricSpace(range(size), np.zeros((size, size)))
        scale = draw(st.sampled_from([1.0, 1.0, 0.5, 1.1, 3.0, 3e-9]))
        scaled = _outcome(FiniteMetricSpace, block.points, block.dist * scale)
        blocks.append(block if isinstance(scaled, str) else scaled)  # too small to be a metric on its own
    return blocks


@PROPERTY
@given(blocks=union_blocks(), rule=st.sampled_from(["max-diam-plus-1", "nowak"]))
def test_separated_union_matches_full_triangle_check(blocks, rule):
    want = _outcome(oracle.separated_union, blocks, rule)
    got = _outcome(separated_union, blocks, rule)
    if isinstance(want, str):
        assert isinstance(got, str)
        if got.startswith("triangle inequality fails for "):
            # the named triple fails in the union the full check rejected
            with mock.patch.object(FiniteMetricSpace, "_validate", lambda self: None):
                union = oracle.separated_union(blocks, rule)
            x, k, y = (union.index(p) for p in ast.literal_eval(got.removeprefix("triangle inequality fails for ")))
            assert union.dist[x, y] - union.dist[x, k] - union.dist[k, y] > _scaled_tol(union.dist)
        else:
            assert got == want
    else:
        assert got.points == want.points and got.blocks == want.blocks
        assert got.dist.tobytes() == want.dist.tobytes()


# -- metrics proved by their structure against the triangle loop ------------


@st.composite
def structured_metrics(draw):
    """(kind, points, dist, blocks): graph metrics, scaled by an integer or
    not, separated unions of graph metrics or of any blocks under both
    rules, planar point sets rounded to integers and dense unit graphs, with
    one entry moved by +-1 or not, and block labels or not."""
    kind = draw(st.sampled_from(["graph", "union", "plane", "dense"]))
    points, blocks = None, None
    if kind == "graph":
        dist = graph_metric(draw(graphs(max_n=12).filter(SG._is_connected))).dist * draw(st.sampled_from([1, 1, 2, 3]))
    elif kind == "union":
        graph_blocks = st.lists(st.one_of(st.builds(cycle_space, st.integers(3, 14)),
                                          st.builds(path_space, st.integers(1, 8)),
                                          st.builds(hypercube_space_graph, st.integers(1, 3))), min_size=1, max_size=4)
        parts = draw(st.one_of(union_blocks(), graph_blocks))
        with mock.patch.object(FiniteMetricSpace, "_validate", lambda self: None):
            union = oracle.separated_union(parts, draw(st.sampled_from(["max-diam-plus-1", "nowak"])))
        points, dist, blocks = union.points, union.dist, union.blocks
    elif kind == "plane":
        xy = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((draw(st.integers(2, 12)), 2))
        dist = np.round(squareform(pdist(xy)) * draw(st.sampled_from([2, 5, 20])))
    else:  # every point has more unit edges than the proof takes
        n = draw(st.integers(SP._UNIT_DEGREE_CAP + 4, SP._UNIT_DEGREE_CAP + 12))
        adj = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
            if a != b:
                adj[a, b] = adj[b, a] = 0
        dist = graph_metric(adj).dist
    dist = np.array(dist, dtype=float)
    n = len(dist)
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        dist[i, j] = dist[j, i] = dist[i, j] + draw(st.sampled_from([-1, 1]))
    if blocks is None and draw(st.booleans()):
        # runs of labels that need not describe a union: with singletons,
        # the block-level rule alone decides
        cuts = draw(st.one_of(st.just(set(range(1, n))), st.sets(st.integers(1, max(1, n - 1)))))
        blocks = [sum(c <= i for c in cuts) for i in range(n)]
    return kind, list(range(n)) if points is None else points, dist, blocks


@settings(PROPERTY, max_examples=150)
@given(case=structured_metrics())
def test_structural_proofs_match_the_triangle_loop(case):
    kind, points, dist, blocks = case
    entries = _outcome(lambda: FiniteMetricSpace(points, dist, blocks=blocks, _skip_checks=True)._validate_entries())
    want = entries if isinstance(entries, str) else oracle.triangle_error(points, dist)
    with mock.patch.object(SP, "_triangle_failure", wraps=SP._triangle_failure) as loop:
        got = _outcome(FiniteMetricSpace, points, dist, blocks)
    assert (got if isinstance(got, str) else None) == want
    if want is not None and entries is None:
        assert loop.called  # only the loop names a failing triple
    if kind == "dense" and entries is None and blocks is None:
        assert loop.called
    geodesic = _outcome(lambda: np.array_equal(dist, graph_metric((dist == 1).astype(int)).dist)) is True
    if kind == "graph" and entries is None and blocks is None and geodesic:
        assert not loop.called  # the path metric of a sparse unit graph is proved by it


# -- diam tables: one LP per (R, S) against one per (R, eps, S) --------------


def _same_defect(a, b) -> bool:
    if isinstance(a, Fraction):
        return isinstance(b, Fraction) and a == b
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


@PROPERTY
@given(group=st.one_of(st.builds(cyclic_group, st.integers(1, 8)), st.builds(dihedral_group, st.integers(2, 4)),
                       products().filter(lambda g: g.n <= 12)),
       R_grid=st.lists(st.sampled_from([0, 1, 1.0, 2, 2.5, 3]), min_size=1, max_size=3),
       eps_grid=st.lists(st.sampled_from([1e-7, 0.25, 0.5, 0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=4),
       form=st.sampled_from(["folner", "witness"]), exact=st.sampled_from([True, False]))
def test_diam_table_matches_per_eps_scan(group, R_grid, eps_grid, form, exact):
    want = oracle.diam_table(group, R_grid, eps_grid, form, exact=exact)
    got = diam_table(group, R_grid, eps_grid, form, exact=exact)
    assert list(got.entries.items()) == list(want.entries.items())
    assert list(got.defects) == list(want.defects)
    assert all(_same_defect(got.defects[key], want.defects[key]) for key in want.defects)


# -- every document kind: write, read, write --------------------------------

CONVERSIONS = [("af", "w", "a-family", {}), ("lp1", "af", "lp", {}), ("lp2", "lp1", "lp", {"q": 2.0}),
               ("tail", "lp1", "tail", {"delta": 0.5}), ("part", "lp1", "partition", {}),
               ("vec", "lp2", "vector", {}), ("ker", "vec", "kernel", {})]
TOLERANCES = st.sampled_from([1e-9, 1e-6, 0.0])


def _space(draw):
    shape = draw(st.sampled_from(["cycle", "path", "graph"]))
    if shape == "graph":
        return graph_metric(draw(graphs(max_n=8).filter(SG._is_connected)))
    return (cycle_space if shape == "cycle" else path_space)(draw(st.integers(3, 8)))


def _regular_graph(draw):
    if draw(st.booleans()):
        return SG.RegularGraph((cycle_space(draw(st.integers(3, 9))).dist == 1).astype(int))
    return SG.random_regular_graph(draw(st.sampled_from([4, 6, 8, 10])), 3, seed=draw(st.integers(0, 99)))


def _named_group(draw):
    kind = draw(st.sampled_from(sorted(NAMED_GROUPS)))
    n = draw(st.integers(*{"zn": (2, 8), "z2pow": (1, 3), "dihedral": (2, 4)}[kind]))
    return kind, n, NAMED_GROUPS[kind](n)


def _witness(draw, space):
    """A ball witness, or one of its conversions along CONVERSIONS, which
    passes through every form."""
    ws = {"w": W.ball_witness(space, draw(st.sampled_from([1.0, 2.0])), 1.0)}
    for stem, src, form, params in CONVERSIONS:
        if src in ws:
            try:
                ws[stem] = W.convert_witness(ws[src], form, space, **params)
            except ValueError:  # a conversion's precondition, such as a positive measured eps
                pass
    return ws[draw(st.sampled_from(sorted(ws)))]


def _kernel(draw, space):
    matrix = draw(st.sampled_from([space.dist**2, np.exp(-space.dist**2 / 4.0), np.exp(-space.dist)]))
    return Kernel(matrix=matrix, normalized=draw(st.sampled_from([None, True, False])),
                  propagation=draw(st.sampled_from([None, 1.0, 2])))


def _kazhdan(draw):
    kind, n, group = _named_group(draw)
    return replace(SG.kazhdan_gap(group), group=kind, n=n, tol=draw(TOLERANCES))


def _diam(draw):
    kind, n, group = _named_group(draw)
    table = diam_table(group, [1.0, 2.0], draw(st.sampled_from([[0.5], [0.5, 0.25]])), form="folner")
    return replace(table, target=f"{kind}({n})")


def _expansion(draw):
    graph, seed = _regular_graph(draw), draw(st.integers(0, 99))
    mode, samples = draw(st.sampled_from([("exact", None), ("sampled", 30)]))
    return replace(SG.expansion_constant(graph, mode=mode, samples=samples, seed=seed), tol=draw(TOLERANCES))


def _witness_report(draw):
    space = _space(draw)
    return replace(W.measure_witness(_witness(draw, space), space, 1.0), tol=draw(TOLERANCES))


def _operator_report(draw):
    space = _space(draw)
    return kernel_operator_bridge(np.exp(-space.dist**2 / 4.0), space, tol=draw(st.sampled_from([1e-9, 1e-6])))


BUILD = {
    "space": _space,
    "group": lambda draw: draw(st.one_of(products(), st.builds(z2_power_group, st.integers(1, 3)))),
    "graph": _regular_graph,
    "witness": lambda draw: _witness(draw, _space(draw)),
    "kernel": lambda draw: _kernel(draw, _space(draw)),
    "witness-report": _witness_report,
    "kernel-class": lambda draw: classify_kernel(_kernel(draw, _space(draw)), draw(TOLERANCES)),
    "operator-report": _operator_report,
    "spectral-report": lambda draw: replace(SG.laplacian_gap(_regular_graph(draw)), tol=draw(TOLERANCES)),
    "expansion-report": _expansion,
    "kazhdan-report": _kazhdan,
    "diam-table": _diam,
}


def test_every_document_kind_is_generated():
    assert sorted(BUILD) == sorted(serialize._KINDS)


@pytest.mark.parametrize("kind", sorted(BUILD))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_write_read_write_gives_the_same_bytes(kind, data):
    obj = BUILD[kind](data.draw)
    try:
        text = serialize.dumps(serialize.write(obj))
    except ValueError:  # a non-finite measurement has no document
        assume(False)
    back = serialize.read(json.loads(text))
    assert serialize.kind_of(back) == kind
    assert serialize.dumps(serialize.write(back)) == text
    if hasattr(back, "invariants"):  # what the library writes holds them
        assert back.invariants(1e-9) == []


# -- written documents read back bit for bit; the orjson reader against json --

# random finite bit patterns, and the edges they would rarely hit: signed
# zeros, the smallest subnormals and normals, the largest finite values, and
# integral floats from 1e15, which must not come back as ints
bit_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e15, -1e16, 2.0**60]),
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]).filter(math.isfinite),
)
int64s = st.integers(-2**63, 2**63 - 1)
written = st.recursive(
    st.one_of(st.none(), st.booleans(), int64s, bit_floats, st.text(max_size=6),
              hnp.arrays(np.float64, shapes, elements=bit_floats), hnp.arrays(np.int64, shapes, elements=int64s)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10,
)


def _same_bits(a, b) -> bool:
    """Equal objects, with each float equal bit for bit (so -0.0 != 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_bits(a[k], b[k]) for k in a)
    return a == b


def _as_lists(value):
    """A written document as the reader returns it: arrays as lists, keys sorted."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in sorted(value.items())}
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    return value


def _nesting(value) -> int:
    if isinstance(value, (list, dict)):
        return 1 + max(map(_nesting, value.values() if isinstance(value, dict) else value), default=0)
    return 0


# transposed and 0-d: arrays that orjson does not take whole, written as .tolist()
views = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                   elements=bit_floats).map(np.transpose)


@PROPERTY
@given(doc=written, view=views)
def test_reader_matches_json_on_written_documents(doc, view, tmp_path_factory):
    path = tmp_path_factory.mktemp("load") / "doc.json"
    doc = [doc, view]
    serialize.dump(doc, path)
    got = serialize.load(path)
    assert _same_bits(got, _as_lists(doc))  # every float read back bit for bit, keys in sorted order
    assert _same_bits(got, oracle.load(path))
    assert serialize._depth(path.read_bytes()) == _nesting(got)


def test_depth_cuts_out_escapes_and_strings():
    for doc in (["\"[[", {"]\\": [[]]}], ["\\", "[\"{"], {"a\"b": ["}"], "[": {"\\\"": "]]"}}):
        assert serialize._depth(serialize.dumps(doc)) == _nesting(doc)


decimals = st.tuples(st.booleans(), st.text("0123456789", min_size=1, max_size=40), st.integers(0, 40),
                     st.integers(-330, 310))


def _decimal(negative, digits, point, exponent) -> str:
    whole, fraction = digits[:point].lstrip("0") or "0", digits[point:]
    return ("-" if negative else "") + whole + ("." + fraction if fraction else "") + f"e{exponent}"


@PROPERTY
@given(numbers=st.lists(decimals, min_size=1, max_size=30))
def test_reader_matches_json_on_decimal_strings(numbers, tmp_path_factory):
    texts = [_decimal(*n) for n in numbers]
    finite = [t for t in texts if math.isfinite(json.loads(t))]
    out = tmp_path_factory.mktemp("load")
    (out / "finite.json").write_text("[" + ",".join(finite) + "]")
    assert _same_bits(serialize.load(out / "finite.json"), oracle.load(out / "finite.json"))
    for text in sorted(set(texts) - set(finite))[:1]:  # json overflowed to inf, which the reader refuses
        (out / "inf.json").write_text(text)
        with pytest.raises(ValueError, match="infinity"):
            serialize.load(out / "inf.json")
