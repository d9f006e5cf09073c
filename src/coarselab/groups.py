"""Finite groups as metric objects: word metrics, quotients, box spaces,
cube spaces, warped metrics, and the averaging bridges between group
structure and certificates."""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import FiniteMetricSpace, lp_product, separated_union
from .witnesses import KernelWitness, LpWitness, measure_witness
from .kernels import Kernel, classify_kernel

# the largest order a named group is built at: its int64 multiplication
# table then takes 1024^2 * 8 bytes = 8 MiB
MAX_NAMED_ORDER = 1024


class FiniteGroup:
    """Multiplication table plus a symmetric generating set and word lengths.

    ``table[i, j]`` is the index of the product of elements i and j.  Lengths
    are shortest-word costs over the generating set (unit cost by default,
    or ``generator_weights`` for the weighted enumeration metric); they give
    the left-invariant word metric d(g, h) = |g^-1 h|.
    """

    def __init__(self, elements, table, generators, generator_weights=None, check=True):
        self.elements = list(elements)
        self.table = np.asarray(table, dtype=int)
        self.generators = [self._as_index(g) for g in generators]
        n = len(self.elements)
        if self.table.shape != (n, n):
            raise ValueError("multiplication table shape mismatch")
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        if generator_weights is None:
            self.generator_weights = {s: 1.0 for s in self.generators}
        else:
            self.generator_weights = {self._as_index(g): float(w) for g, w in generator_weights.items()}
        if check:
            self._validate()
        self.lengths = self._word_lengths()

    def _as_index(self, g) -> int:
        if isinstance(g, (int, np.integer)):
            return int(g)
        return self.elements.index(g)

    @property
    def n(self) -> int:
        return len(self.elements)

    def _find_identity(self) -> int:
        ids = np.arange(self.n)
        hits = np.flatnonzero((self.table == ids).all(axis=1) & (self.table == ids[:, None]).all(axis=0))
        if not hits.size:
            raise ValueError("no identity element in the multiplication table")
        return int(hits[0])

    def _find_inverses(self) -> np.ndarray:
        hits = self.table == self.identity
        inv = hits.argmax(axis=1)
        bad = (hits.sum(axis=1) != 1) | (self.table[inv, np.arange(self.n)] != self.identity)
        if bad.any():
            raise ValueError(f"element {self.elements[int(bad.argmax())]} has no two-sided inverse")
        return inv

    def _validate(self):
        t = self.table
        if t.min() < 0 or t.max() >= self.n:
            raise ValueError("table entries out of range")
        gens = set(self.generators)
        if any(not 0 <= s < self.n for s in gens):
            raise ValueError("generator index out of range")
        if not self._associative():
            raise ValueError("multiplication table is not associative")
        if self.identity in gens:
            raise ValueError("generating set must not contain the identity")
        for s in gens:
            if self.inverse[s] not in gens:
                raise ValueError("generating set must be symmetric (closed under inverses)")
        for s, w in self.generator_weights.items():
            if w < 1:
                raise ValueError("generator lengths must be at least 1")

    def _associative(self) -> bool:
        """Light's test, O(n^2 |S|): (x s) y = x (s y) for every generator s.
        A failure disproves associativity.  The elements that pass form a
        closed set containing the identity, so a pass proves it once the
        generators generate, which ``_word_lengths`` checks next (raising
        otherwise)."""
        t = self.table
        return all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in self.generators)

    def _word_lengths(self) -> np.ndarray:
        dist = np.full(self.n, math.inf)
        dist[self.identity] = 0.0
        heap = [(0.0, self.identity)]
        while heap:
            d, g = heapq.heappop(heap)
            if d > dist[g]:
                continue
            for s in self.generators:
                h = self.table[g, s]
                nd = d + self.generator_weights[s]
                if nd < dist[h]:
                    dist[h] = nd
                    heapq.heappush(heap, (nd, h))
        if np.isinf(dist).any():
            missing = self.elements[int(np.nonzero(np.isinf(dist))[0][0])]
            raise ValueError(f"generating set does not generate: {missing} unreachable")
        return dist

    def mult(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def ball(self, radius: float):
        return np.flatnonzero(self.lengths <= radius + 1e-9).tolist()

    def translates(self, f) -> np.ndarray:
        """The left translates of a function on the group, f(g^-1 h) at
        (g, h): row g is gf, and the matrix is the invariant kernel of f.  A
        table of Fractions stays exact."""
        return np.asarray(f)[self.table[self.inverse, :]]

    def average(self, k) -> np.ndarray:
        """The mean of a kernel along left translation, psi(h) = mean_g
        k(g, g h); it inverts ``translates``."""
        gathered = np.asarray(k)[np.arange(self.n)[:, None], self.table]
        # the mean of each contiguous row sums in the order np.mean gives a list
        return np.ascontiguousarray(gathered.T).mean(axis=1)

    def __repr__(self):
        return f"FiniteGroup(n={self.n}, generators={len(self.generators)})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    if n > MAX_NAMED_ORDER:
        raise ValueError(f"order {n} is above the cap of {MAX_NAMED_ORDER} elements")
    r = np.arange(n)
    gens = [] if n == 1 else ([1] if n == 2 else [1, n - 1])
    return FiniteGroup(list(range(n)), np.add.outer(r, r) % n, gens)


def z2_power_group(k: int) -> FiniteGroup:
    if k > math.log2(MAX_NAMED_ORDER):
        raise ValueError(f"order 2^{k} is above the cap of {MAX_NAMED_ORDER} elements")
    r = np.arange(1 << k)
    return FiniteGroup(r.tolist(), np.bitwise_xor.outer(r, r), [1 << b for b in range(k)])


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, elements (rot, flip), generators r, r^-1, s."""
    if n < 2:
        raise ValueError("the n-gon needs n >= 2")
    if 2 * n > MAX_NAMED_ORDER:
        raise ValueError(f"order {2 * n} is above the cap of {MAX_NAMED_ORDER} elements")
    # element (r, f) sits at index f n + r; (r, f)(r', f') = (r + (-1)^f r', f xor f')
    r, f = np.tile(np.arange(n), 2), np.repeat([0, 1], n)
    table = (f[:, None] ^ f) * n + (r[:, None] + (1 - 2 * f[:, None]) * r) % n
    return FiniteGroup(list(zip(r.tolist(), f.tolist())), table, sorted({1, n - 1, n}))


# the groups the CLI and its documents name: kind -> constructor of the size parameter
NAMED_GROUPS = {"zn": cyclic_group, "z2pow": z2_power_group, "dihedral": dihedral_group}


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with the union generating set (l^1 word metric)."""
    elements = list(itertools.product(a.elements, b.elements))
    nb = b.n
    # (i, j)(i', j') = (i i', j j') with (i, j) at index i nb + j
    table = (a.table[:, None, :, None] * nb + b.table[None, :, None, :]).reshape(a.n * nb, a.n * nb)
    gens = [s * nb + b.identity for s in a.generators] + [a.identity * nb + s for s in b.generators]
    return FiniteGroup(elements, table, gens)


def group_power(g: FiniteGroup, n: int) -> FiniteGroup:
    out = g
    for _ in range(n - 1):
        out = direct_product(out, g)
    return out


def cayley_metric(group: FiniteGroup) -> FiniteMetricSpace:
    """Left-invariant word metric d(g, h) = |g^-1 h|."""
    return FiniteMetricSpace(list(group.elements), group.translates(group.lengths))


@dataclass
class GroupAction:
    """Permutation action of a finite group on a finite metric space."""

    group: FiniteGroup
    space: FiniteMetricSpace
    permutations: np.ndarray  # shape (|G|, n): permutations[g][x] = g.x

    def __post_init__(self):
        perms = self.permutations = np.asarray(self.permutations, dtype=int)
        if perms.shape != (self.group.n, self.space.n):
            raise ValueError("need one permutation per group element")
        if not np.array_equal(perms[self.group.identity], np.arange(self.space.n)):
            raise ValueError("identity must act trivially")
        if (np.sort(perms, axis=1) != np.arange(self.space.n)).any():
            raise ValueError("each element must act by a permutation")
        # g.(h.x) = (g h).x for every pair, as two |G| x |G| x n gathers
        if not np.array_equal(perms[:, perms], perms[self.group.table]):
            raise ValueError("action is not a homomorphism")


@dataclass
class QuotientChain:
    """Decreasing chain of normal subgroups of one ambient finite group."""

    group: FiniteGroup
    subgroups: list  # list of frozensets of element indices
    intersection: frozenset = field(init=False)

    def __post_init__(self):
        self.subgroups = [frozenset(map(int, k)) for k in self.subgroups]
        if not self.subgroups:
            raise ValueError("chain must be nonempty")
        prev = None
        for k in self.subgroups:
            _normal_subgroup(self.group, k)
            if prev is not None and not k <= prev:
                raise ValueError("chain is not decreasing")
            prev = k
        inter = self.subgroups[0]
        for k in self.subgroups[1:]:
            inter &= k
        self.intersection = frozenset(inter)


def _normal_subgroup(group: FiniteGroup, members) -> np.ndarray:
    """The sorted members, once one membership mask shows that they form a
    normal subgroup."""
    members = np.fromiter(members, dtype=int)
    if members.size and not 0 <= members.min() <= members.max() < group.n:
        raise ValueError("subgroup element out of range")
    inside = np.zeros(group.n, dtype=bool)
    inside[members] = True
    k = np.flatnonzero(inside)
    if not inside[group.identity]:
        raise ValueError("subgroup must contain the identity")
    if not inside[group.inverse[k]].all():
        raise ValueError("subgroup not closed under inverses")
    if not inside[group.table[np.ix_(k, k)]].all():
        raise ValueError("subgroup not closed under multiplication")
    # g k g^-1 for every element g (rows) and member k (columns)
    escapes = ~inside[group.table[group.table[:, k], group.inverse[:, None]]]
    if escapes.any():
        member = k[np.argwhere(escapes)[0, 1]]
        raise ValueError(f"subgroup is not normal (conjugate of {group.elements[member]} escapes)")
    return k


def quotient_group(group: FiniteGroup, subgroup) -> tuple:
    """Quotient by a normal subgroup; returns (quotient, projection array).

    Cosets are numbered in the order of their least elements and named
    after them.  Quotient generators are the images of the generators; the
    quotient word length then equals the minimum lift length, attained by
    some lift.
    """
    k = _normal_subgroup(group, subgroup)
    reps, projection = np.unique(group.table[:, k].min(axis=1), return_inverse=True)
    table = projection[group.table[np.ix_(reps, reps)]]
    gens = np.setdiff1d(projection[group.generators], projection[group.identity])
    quot = FiniteGroup(list(map("c{}".format, reps.tolist())), table, gens.tolist())
    # the quotient length must be the minimum lift length, and attained
    lift_min = np.full(quot.n, math.inf)
    np.minimum.at(lift_min, projection, group.lengths)
    if np.abs(lift_min - quot.lengths).max() > 1e-9:
        raise ValueError("quotient word length does not match the minimal lift length")
    return quot, projection


def quotient_metric(group: FiniteGroup, subgroup) -> FiniteMetricSpace:
    """Left-invariant metric on the cosets; the quotient map is contractive."""
    quot, projection = quotient_group(group, subgroup)
    space = cayley_metric(quot)
    if (space.dist[np.ix_(projection, projection)] > cayley_metric(group).dist + 1e-9).any():
        raise ValueError("quotient map failed to be contractive")
    return space


@dataclass
class BoxSpace:
    """Separated union of the quotients along a chain, with bookkeeping."""

    space: FiniteMetricSpace
    quotients: list
    projections: list
    chain: QuotientChain
    block_slices: list


def build_box(chain: QuotientChain, rule: str = "max-diam-plus-1") -> BoxSpace:
    quotients, projections, metrics = [], [], []
    for k in chain.subgroups:
        q, pr = quotient_group(chain.group, k)
        quotients.append(q)
        projections.append(pr)
        metrics.append(cayley_metric(q))
    space = separated_union(metrics, rule=rule)
    slices = []
    start = 0
    for q in quotients:
        slices.append((start, start + q.n))
        start += q.n
    return BoxSpace(space=space, quotients=quotients, projections=projections, chain=chain, block_slices=slices)


def first_isometric_block(box: BoxSpace, radius: float) -> int:
    """First chain index from which every quotient map is isometric on the
    closed ``radius`` ball of the base group."""
    group = box.chain.group
    ball = group.ball(radius)
    base = group.translates(group.lengths)[np.ix_(ball, ball)]
    ok = []
    for (lo, hi), pr in zip(box.block_slices, box.projections):
        lifted = box.space.dist[lo:hi, lo:hi][np.ix_(pr[ball], pr[ball])]
        ok.append(np.abs(lifted - base).max(initial=0.0) <= 1e-9)
    for n in range(len(ok)):
        if all(ok[n:]):
            return n
    raise ValueError(f"no block is isometric on the radius-{radius} ball")


def box_to_kernel(box: BoxSpace, phi, R: float | None = None) -> KernelWitness:
    """Spread a finitely supported positive-type base function over the box.

    Blocks before the first isometric index get the constant-one kernel,
    later blocks get phi through their unique short lifts, and all other
    entries vanish; the result is normalized, positive type, and of finite
    propagation, with variation inherited from phi.
    """
    group = box.chain.group
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (group.n,):
        raise ValueError("phi must be a value table over the base group")
    if abs(phi[group.identity] - 1.0) > 1e-9:
        raise ValueError("phi must be normalized (value 1 at the identity)")
    if not classify_kernel(group.translates(phi)).positive_type:
        raise ValueError("phi is not of positive type on the base group")
    support = np.nonzero(np.abs(phi) > 1e-12)[0]
    S = float(group.lengths[support].max()) if support.size else 0.0
    N = first_isometric_block(box, S)
    ball = group.ball(S)
    k = np.zeros((box.space.n, box.space.n))
    early = box.block_slices[N - 1][1] if N else 0
    k[:early, :early] = 1.0
    for (lo, hi), q, pr in zip(box.block_slices[N:], box.quotients[N:], box.projections[N:]):
        # phi moves to each coset within S of the identity through its one
        # lift in the S-ball; every other coset has no lift there
        if (np.bincount(pr[ball], minlength=q.n)[q.lengths <= S + 1e-9] != 1).any():
            raise ValueError("short lift is not unique; isometric index computation failed")
        on_quotient = np.zeros(q.n)
        on_quotient[pr[ball]] = phi[ball]
        k[lo:hi, lo:hi] = q.translates(on_quotient)
    kw = KernelWitness(matrix=k, point_ids=tuple(box.space.points), R=R,
                       meta={"isometric_from_block": N, "support_radius": S})
    measured = measure_witness(kw, box.space, 0.0 if R is None else R)
    kw.eps = None if R is None else measured.eps_measured
    kw.S = measured.S_measured
    return kw


def box_to_function(box: BoxSpace, kernel, block_index: int) -> np.ndarray:
    """Average a box kernel over one quotient: psi(f) = mean_g k(g, g f).

    The output is a normalized positive-type function on that quotient; if
    the kernel has (R, eps) variation then |1 - psi| < eps on the R-ball.
    """
    mat = np.asarray(getattr(kernel, "matrix", kernel), dtype=float)
    q = box.quotients[block_index]
    lo, hi = box.block_slices[block_index]
    psi = q.average(mat[lo:hi, lo:hi])
    if not classify_kernel(q.translates(psi)).positive_type:
        raise ValueError("averaged function lost positive type; kernel input was invalid")
    return psi


def hypercube_space(base: FiniteGroup, n_max: int) -> FiniteMetricSpace:
    """Blocks base^n (l^1 product word metric) with gaps n+1, additive across.

    For the two-element base, block n is the Hamming n-cube.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    base_metric = cayley_metric(base)
    blocks = []
    current = base_metric
    for n in range(1, n_max + 1):
        blocks.append(current)
        if n < n_max:
            current = lp_product(current, base_metric, 1)
    return separated_union(blocks, rule="nowak")


def hypercube_kernel(n_max: int) -> tuple:
    """The cube space over the two-element group together with its explicit
    l^1-coordinate negative-type kernel (Hamming within blocks).

    Coordinates: one slot for the block offset along the gap chain, then a
    private slot range per block holding the bits; the l^1 distance of these
    coordinates restricts to Hamming distance within each block and exceeds
    the block gap across blocks.
    """
    base = z2_power_group(1)
    space = hypercube_space(base, n_max)
    offsets = np.zeros(n_max)
    for k in range(1, n_max):
        offsets[k] = offsets[k - 1] + (k + 1)
    dim = 1 + sum(range(1, n_max + 1))
    starts = np.cumsum([1] + list(range(1, n_max)))
    coords = np.zeros((space.n, dim))
    for i, (block, pt) in enumerate(space.points):
        coords[i, 0] = offsets[block]
        bits = _flatten_bits(pt)
        coords[i, starts[block] : starts[block] + len(bits)] = bits
    diff = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    return space, Kernel(matrix=diff, normalized=True), coords


def _flatten_bits(pt) -> list:
    if isinstance(pt, tuple):
        out = []
        for part in pt:
            out.extend(_flatten_bits(part))
        return out
    return [float(pt)]


def warp_metric(space: FiniteMetricSpace, action: GroupAction) -> FiniteMetricSpace:
    """Largest metric below d that also bounds d(x, g.x) by |g|.

    Computed by ``scipy.sparse.csgraph`` Dijkstra from every source over the
    one-hop matrix min(d(x, y), |g| for y = g.x); this equals the chain
    infimum over alternating metric/group hops.  Rounding is monotone, so
    fl(t + min(d, |g|)) = min(fl(t + d), fl(t + |g|)) and the distances are
    those of a Dijkstra that relaxes both moves separately, bit for bit.
    """
    if action.space is not space and action.space.points != space.points:
        raise ValueError("action must act on the given space")
    group = action.group
    movers = np.arange(group.n) != group.identity
    if (group.lengths[movers] < 1).any():
        raise ValueError("zero-length non-identity generator")
    from scipy.sparse.csgraph import shortest_path

    hop = space.dist.copy()
    dst = action.permutations[movers]
    src = np.broadcast_to(np.arange(space.n), dst.shape)
    np.minimum.at(hop, (src, dst), np.broadcast_to(group.lengths[movers, None], dst.shape))
    np.fill_diagonal(hop, 0.0)
    out = shortest_path(hop, method="D")
    out = np.minimum(out, out.T)
    return FiniteMetricSpace(list(space.points), out)


def warp_bruteforce(space: FiniteMetricSpace, action: GroupAction, max_steps: int | None = None) -> np.ndarray:
    """Chain-enumeration oracle: min-plus powers of the one-hop matrix.

    One hop from x to y costs min over g of |g| + d(g.x, y) (identity hops
    included); chains of at most k hops are the k-th min-plus power.
    """
    hop = (action.group.lengths[:, None, None] + space.dist[action.permutations, :]).min(axis=0)
    if max_steps is None:
        max_steps = int(math.ceil(space.diameter())) + 1
    best = hop.copy()
    np.fill_diagonal(best, 0.0)
    for _ in range(max_steps):
        nxt = np.min(best[:, :, None] + hop[None, :, :], axis=1)
        nxt = np.minimum(nxt, best)
        if np.allclose(nxt, best, atol=1e-12):
            break
        best = nxt
    return best


def warped_witness(space: FiniteMetricSpace, action: GroupAction, folner_values, base: LpWitness) -> LpWitness:
    """Convex combination nu_x = sum_g f(g) mu_{g.x} over the acting group.

    The result is a unit l^1 family on the warped space with support radius
    at most S_base plus the longest group element carrying folner mass.
    """
    if abs(base.p - 1.0) > 1e-12:
        raise ValueError("base witness must be an l^1 family")
    if tuple(base.point_ids) != tuple(space.points):
        raise ValueError("base witness does not live on the given space")
    group = action.group
    f = np.asarray(folner_values, dtype=float)
    if f.shape != (group.n,) or f.min() < -1e-12 or abs(f.sum() - 1.0) > 1e-9:
        raise ValueError("folner weights must be a probability table over the group")
    n = space.n
    table = np.zeros((n, n))
    for g in range(group.n):
        if f[g] <= 0:
            continue
        perm = action.permutations[g]
        table += f[g] * base.table[perm, :]
    supp = np.nonzero(f > 1e-12)[0]
    s_extra = float(group.lengths[supp].max()) if supp.size else 0.0
    warped = warp_metric(space, action)
    s_base = base.S if base.S is not None else 0.0
    out = LpWitness(
        p=1,
        table=table,
        point_ids=tuple(space.points),
        R=base.R,
        eps=None,
        S=s_base + s_extra,
        meta={"warped_support_bound": s_base + s_extra, "warped_diameter": warped.diameter()},
    )
    if base.R is not None:
        # direct measurement at the warped scale replaces the proof's 1/N bookkeeping
        out.eps = measure_witness(out, warped, base.R).eps_measured
        out.meta["warped_variation"] = out.eps
    return out
