"""Finite groups as metric objects: word metrics, quotients, box spaces,
cube spaces, warped metrics, and the averaging bridges between group
structure and certificates."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import FiniteMetricSpace, lp_product, separated_union, _scaled_tol
from .witnesses import KernelWitness, LpWitness
from .kernels import Kernel, classify_kernel


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
        n = self.n
        for e in range(n):
            if np.array_equal(self.table[e], np.arange(n)) and np.array_equal(self.table[:, e], np.arange(n)):
                return e
        raise ValueError("no identity element in the multiplication table")

    def _find_inverses(self) -> np.ndarray:
        inv = np.full(self.n, -1, dtype=int)
        for g in range(self.n):
            hits = np.nonzero(self.table[g] == self.identity)[0]
            if hits.size != 1 or self.table[hits[0], g] != self.identity:
                raise ValueError(f"element {self.elements[g]} has no two-sided inverse")
            inv[g] = hits[0]
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
        return [g for g in range(self.n) if self.lengths[g] <= radius + 1e-9]

    def __repr__(self):
        return f"FiniteGroup(n={self.n}, generators={len(self.generators)})"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [] if n == 1 else ([1] if n == 2 else [1, n - 1])
    return FiniteGroup(list(range(n)), table, gens)


def z2_power_group(k: int) -> FiniteGroup:
    n = 1 << k
    table = [[i ^ j for j in range(n)] for i in range(n)]
    gens = [1 << b for b in range(k)]
    return FiniteGroup(list(range(n)), table, gens)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, elements (rot, flip), generators r, r^-1, s."""
    if n < 2:
        raise ValueError("the n-gon needs n >= 2")
    elements = [(r, f) for f in (0, 1) for r in range(n)]
    index = {e: i for i, e in enumerate(elements)}

    def mul(a, b):
        r1, f1 = a
        r2, f2 = b
        if f1 == 0:
            return ((r1 + r2) % n, f2)
        return ((r1 - r2) % n, 1 - f2)

    table = [[index[mul(a, b)] for b in elements] for a in elements]
    gens = [index[(1, 0)], index[(n - 1, 0)], index[(0, 1)]]
    gens = sorted(set(gens))
    return FiniteGroup(elements, table, gens)


# the groups the CLI and its documents name: kind -> constructor of the size parameter
NAMED_GROUPS = {"zn": cyclic_group, "z2pow": z2_power_group, "dihedral": dihedral_group}


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with the union generating set (l^1 word metric)."""
    elements = [(x, y) for x in a.elements for y in b.elements]
    nb = b.n
    table = np.empty((a.n * nb, a.n * nb), dtype=int)
    for i in range(a.n):
        for j in range(b.n):
            row = i * nb + j
            table[row] = (a.table[i][:, None] * nb + b.table[j][None, :]).reshape(-1)
    gens = [s * nb + b.identity for s in a.generators] + [a.identity * nb + s for s in b.generators]
    return FiniteGroup(elements, table, gens)


def group_power(g: FiniteGroup, n: int) -> FiniteGroup:
    out = g
    for _ in range(n - 1):
        out = direct_product(out, g)
    return out


def cayley_metric(group: FiniteGroup) -> FiniteMetricSpace:
    """Left-invariant word metric d(g, h) = |g^-1 h|."""
    inv = group.inverse
    dist = group.lengths[group.table[inv, :]]
    return FiniteMetricSpace(list(group.elements), dist)


@dataclass
class GroupAction:
    """Permutation action of a finite group on a finite metric space."""

    group: FiniteGroup
    space: FiniteMetricSpace
    permutations: np.ndarray  # shape (|G|, n): permutations[g][x] = g.x

    def __post_init__(self):
        self.permutations = np.asarray(self.permutations, dtype=int)
        if self.permutations.shape != (self.group.n, self.space.n):
            raise ValueError("need one permutation per group element")
        ident = self.permutations[self.group.identity]
        if not np.array_equal(ident, np.arange(self.space.n)):
            raise ValueError("identity must act trivially")
        for g in range(self.group.n):
            if len(set(self.permutations[g].tolist())) != self.space.n:
                raise ValueError("each element must act by a permutation")
            for h in range(self.group.n):
                gh = self.group.mult(g, h)
                composed = self.permutations[g][self.permutations[h]]
                if not np.array_equal(composed, self.permutations[gh]):
                    raise ValueError("action is not a homomorphism")


@dataclass
class QuotientChain:
    """Decreasing chain of normal subgroups of one ambient finite group."""

    group: FiniteGroup
    subgroups: list  # list of frozensets of element indices
    intersection: frozenset = field(init=False)

    def __post_init__(self):
        self.subgroups = [frozenset(int(x) for x in k) for k in self.subgroups]
        if not self.subgroups:
            raise ValueError("chain must be nonempty")
        prev = None
        for k in self.subgroups:
            _check_subgroup(self.group, k)
            _check_normal(self.group, k)
            if prev is not None and not k <= prev:
                raise ValueError("chain is not decreasing")
            prev = k
        inter = self.subgroups[0]
        for k in self.subgroups[1:]:
            inter &= k
        self.intersection = frozenset(inter)


def _check_subgroup(group: FiniteGroup, members: frozenset):
    if group.identity not in members:
        raise ValueError("subgroup must contain the identity")
    for a in members:
        if group.inverse[a] not in members:
            raise ValueError("subgroup not closed under inverses")
        for b in members:
            if group.mult(a, b) not in members:
                raise ValueError("subgroup not closed under multiplication")


def _check_normal(group: FiniteGroup, members: frozenset):
    for g in range(group.n):
        gi = group.inverse[g]
        for k in members:
            if group.mult(group.mult(g, k), gi) not in members:
                raise ValueError(f"subgroup is not normal (conjugate of {group.elements[k]} escapes)")


def quotient_group(group: FiniteGroup, subgroup) -> tuple:
    """Quotient by a normal subgroup; returns (quotient, projection array).

    Quotient generators are the images of the generators; the quotient word
    length then equals the minimum lift length, attained by some lift.
    """
    members = frozenset(int(x) for x in subgroup)
    _check_subgroup(group, members)
    _check_normal(group, members)
    coset_of = {}
    cosets = []
    for g in range(group.n):
        if g in coset_of:
            continue
        coset = frozenset(group.mult(g, k) for k in members)
        idx = len(cosets)
        cosets.append(coset)
        for h in coset:
            coset_of[h] = idx
    m = len(cosets)
    reps = [min(c) for c in cosets]
    table = [[coset_of[group.mult(reps[i], reps[j])] for j in range(m)] for i in range(m)]
    projection = np.array([coset_of[g] for g in range(group.n)], dtype=int)
    identity_coset = coset_of[group.identity]
    gens = sorted({coset_of[s] for s in group.generators} - {identity_coset})
    labels = [f"c{sorted(c)[0]}" for c in cosets]
    quot = FiniteGroup(labels, table, gens)
    # the quotient length must be the minimum lift length, and attained
    for c in range(m):
        lift_min = min(group.lengths[g] for g in range(group.n) if projection[g] == c)
        if abs(lift_min - quot.lengths[c]) > 1e-9:
            raise ValueError("quotient word length does not match the minimal lift length")
    return quot, projection


def quotient_metric(group: FiniteGroup, subgroup) -> FiniteMetricSpace:
    """Left-invariant metric on the cosets; the quotient map is contractive."""
    quot, projection = quotient_group(group, subgroup)
    space = cayley_metric(quot)
    ambient = cayley_metric(group)
    for g in range(group.n):
        for h in range(group.n):
            if space.dist[projection[g], projection[h]] > ambient.dist[g, h] + 1e-9:
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


def box_space(chain: QuotientChain, rule: str = "max-diam-plus-1") -> FiniteMetricSpace:
    """Disjoint union of the chain's quotients, blocks kept further apart
    than the larger of their diameters."""
    return build_box(chain, rule=rule).space


def first_isometric_block(box: BoxSpace, radius: float) -> int:
    """First chain index from which every quotient map is isometric on the
    closed ``radius`` ball of the base group."""
    group = box.chain.group
    ball = group.ball(radius)
    ok = []
    for q, pr in zip(box.quotients, box.projections):
        qdist = cayley_metric(q).dist
        base = cayley_metric(group).dist
        good = all(
            abs(qdist[pr[g], pr[h]] - base[g, h]) <= 1e-9 for g in ball for h in ball
        )
        ok.append(good)
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
    induced = phi[group.table[group.inverse, :]]
    if not classify_kernel(induced).positive_type:
        raise ValueError("phi is not of positive type on the base group")
    support = np.nonzero(np.abs(phi) > 1e-12)[0]
    S = float(group.lengths[support].max()) if support.size else 0.0
    N = first_isometric_block(box, S)
    ball = group.ball(S)
    n_pts = box.space.n
    k = np.zeros((n_pts, n_pts))
    for bi, ((lo_i, hi_i), qi, pri) in enumerate(zip(box.block_slices, box.quotients, box.projections)):
        for bj, (lo_j, hi_j) in enumerate(box.block_slices):
            if bi < N and bj < N:
                k[lo_i:hi_i, lo_j:hi_j] = 1.0
            elif bi == bj and bi >= N:
                qdist = cayley_metric(qi).dist
                lift_of = {}
                for g in ball:
                    lift_of.setdefault(int(pri[g]), []).append(g)
                for a in range(qi.n):
                    for b in range(qi.n):
                        if qdist[a, b] <= S + 1e-9:
                            target = qi.mult(int(qi.inverse[a]), b)
                            lifts = [g for g in lift_of.get(target, [])]
                            if len(lifts) != 1:
                                raise ValueError("short lift is not unique; isometric index computation failed")
                            k[lo_i + a, lo_j + b] = phi[lifts[0]]
    eps = None
    if R is not None:
        mask = box.space.dist <= R + _scaled_tol(box.space.dist)
        np.fill_diagonal(mask, False)
        eps = float(np.abs(1.0 - k[mask]).max()) if mask.any() else 0.0
    off = np.abs(k) > 1e-12
    np.fill_diagonal(off, False)
    prop = float(box.space.dist[off].max()) if off.any() else 0.0
    return KernelWitness(
        matrix=k,
        point_ids=tuple(box.space.points),
        R=R,
        eps=eps,
        S=prop,
        meta={"isometric_from_block": N, "support_radius": S},
    )


def box_to_function(box: BoxSpace, kernel, block_index: int) -> np.ndarray:
    """Average a box kernel over one quotient: psi(f) = mean_g k(g, g f).

    The output is a normalized positive-type function on that quotient; if
    the kernel has (R, eps) variation then |1 - psi| < eps on the R-ball.
    """
    mat = np.asarray(getattr(kernel, "matrix", kernel), dtype=float)
    q = box.quotients[block_index]
    lo, hi = box.block_slices[block_index]
    block = mat[lo:hi, lo:hi]
    psi = np.empty(q.n)
    for f in range(q.n):
        psi[f] = np.mean([block[g, q.mult(g, f)] for g in range(q.n)])
    induced = psi[q.table[q.inverse, :]]
    if not classify_kernel(induced).positive_type:
        raise ValueError("averaged function lost positive type; kernel input was invalid")
    return psi


def box_kernel_bridge(direction: str, **data):
    """Dispatch between the two box-space averaging passages.

    ``to_kernel`` spreads a base-group positive-type function over the box
    (data: box, phi, optional R); ``to_function`` averages a box kernel over
    one quotient block (data: box, kernel, block_index).
    """
    if direction == "to_kernel":
        return box_to_kernel(data["box"], data["phi"], data.get("R"))
    if direction == "to_function":
        return box_to_function(data["box"], data["kernel"], data["block_index"])
    raise ValueError(f"unknown bridge direction {direction!r}")


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
    for g in range(group.n):
        if g != group.identity and group.lengths[g] < 1:
            raise ValueError("zero-length non-identity generator")
    from scipy.sparse.csgraph import shortest_path

    hop = space.dist.copy()
    src = np.arange(space.n)
    for g in range(group.n):
        if g != group.identity:
            dst = action.permutations[g]
            hop[src, dst] = np.minimum(hop[src, dst], group.lengths[g])
    np.fill_diagonal(hop, 0.0)
    out = shortest_path(hop, method="D")
    out = np.minimum(out, out.T)
    return FiniteMetricSpace(list(space.points), out)


def warp_bruteforce(space: FiniteMetricSpace, action: GroupAction, max_steps: int | None = None) -> np.ndarray:
    """Chain-enumeration oracle: min-plus powers of the one-hop matrix.

    One hop from x to y costs min over g of |g| + d(g.x, y) (identity hops
    included); chains of at most k hops are the k-th min-plus power.
    """
    group = action.group
    n = space.n
    hop = np.full((n, n), math.inf)
    for g in range(group.n):
        cost = group.lengths[g]
        perm = action.permutations[g]
        moved = space.dist[perm, :]
        hop = np.minimum(hop, cost + moved)
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
        from .witnesses import measure_witness

        out.eps = measure_witness(out, warped, base.R).eps_measured
        out.meta["warped_variation"] = out.eps
    return out
