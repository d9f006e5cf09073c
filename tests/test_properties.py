"""Property-based invariants on generated inputs: the chunked subset kernel
against a plain enumeration, the Kazhdan primal-dual certificate, certified
LP optima against a rational simplex, the vectorised writer, graph metric,
compression profile, triangle check and Light's associativity test against
their loops, the distinct-value writer, witness measurement within R and
csgraph warping against the routines they replaced, and every document kind
through write, read and write."""

import json
import math
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
from coarselab.amenability import diam_table
from coarselab.exactlp import solve_lp
from coarselab.groups import (
    NAMED_GROUPS, FiniteGroup, GroupAction, cyclic_group, dihedral_group, direct_product, warp_bruteforce, warp_metric,
    z2_power_group,
)
from coarselab.kernels import Kernel, classify_kernel, kernel_operator_bridge
from coarselab.spaces import FiniteMetricSpace, PointMap, compression_profile, cycle_space, graph_metric, path_space
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


# -- the array writer against the scalar one on .tolist() --------------------

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


def _as_lists(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    return value


@PROPERTY
@given(doc=documents)
def test_array_writer_matches_scalar_writer(doc):
    assert serialize.dumps(doc) == oracle.canon(_as_lists(doc))


@PROPERTY
@given(doc=documents, bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_non_finite_array_raises_and_dump_leaves_no_file(doc, bad, data, tmp_path_factory):
    arr = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4),
                               elements=floats_))
    arr.flat[data.draw(st.integers(0, arr.size - 1))] = bad
    mixed = {"before": doc, "array": arr}
    with pytest.raises(ValueError, match="non-finite float"):
        oracle.canon(_as_lists(mixed))
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


# -- the distinct-value writer against the row writer ------------------------

POOL = [0.0, -0.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300,
        0.1, 1.5, -3.0, 7.0, 1 / 3]


@PROPERTY
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                    elements=st.sampled_from(POOL)),
       transpose=st.booleans(), block=st.sampled_from([1, 7, serialize._BLOCK]))
def test_distinct_value_writer_matches_row_writer(a, transpose, block):
    if transpose:  # a strided view, which np.ravel copies
        a = a.T
    with mock.patch.object(serialize, "_BLOCK", block):  # small blocks split small arrays
        assert serialize.dumps(a) == oracle.float_text(a)


def _first_difference(got: str, want: str):
    """None, or where two texts first differ: pytest's own diff of megabyte
    strings would take minutes."""
    if got == want:
        return None
    return next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))


def test_distinct_value_writer_matches_row_writer_across_blocks():
    rng = np.random.default_rng(7)
    for shape in [(300, 300), (97, 13, 11), (2, 9000), (9000, 1)]:
        a = np.where(rng.random(shape) < 0.5, rng.choice(POOL, size=shape), rng.standard_normal(shape))
        assert _first_difference(serialize.dumps(a), oracle.float_text(a)) is None, shape


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
    np.testing.assert_allclose(got, warp_bruteforce(space, action), rtol=0, atol=1e-12)


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
