"""Reference loops for the vectorised routines: the all-pairs BFS graph
metric, the per-pair compression profile and the float64 triangle check, one
element at a time in plain Python, and the every-triple associativity check
that Light's test replaced.  Also the routines they replaced in turn: witness
measurement on the full distance matrix and the heap Dijkstra warp.  Then
the per-element group loops that gathers on the multiplication table
replaced: the named tables, products, identities, inverses, actions,
subgroup checks, cosets, box kernels, averages and translates.  Last, the
separated union that re-ran the triangle check over all of its points, the
diam-table scan that solved one LP per (R, eps, S) visited, and the document
reader that ran json on the text of the file.  The property tests compare
the library against them."""

import heapq
import json
import math
from collections import deque

import numpy as np
from scipy.spatial.distance import cdist

from coarselab.amenability import EXACT_GROUP_CAP, DiamTable, LPError, _defect_below, optimal_folner, witness_feasibility
from coarselab.groups import FiniteGroup, cayley_metric
from coarselab.kernels import classify_kernel
from coarselab.spaces import FiniteMetricSpace, _scaled_tol
from coarselab.witnesses import (
    NORM_TOL, SUPPORT_TOL, AFamily, KernelWitness, LpWitness, PartitionWitness, TailWitness, VectorWitness,
    WitnessReport, _afamily_ratio, _cover_diameter, _pair_mask, _support_radius, _tail_masses,
)


def bfs_metric(adj) -> np.ndarray:
    """All-pairs BFS distances of a 0/1 adjacency matrix; a disconnected
    graph raises the library's error for the first unreachable pair."""
    n = adj.shape[0]
    nbrs = [np.nonzero(adj[i])[0] for i in range(n)]
    dist = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
                if dist[src, w] < 0:
                    dist[src, w] = dist[src, v] + 1
                    queue.append(w)
    if np.any(dist < 0):
        src, dst = map(int, np.argwhere(dist < 0)[0])
        raise ValueError(f"graph is disconnected: no path from point {src} to point {dst}")
    return dist.astype(float)


def image_distance(pmap, i: int, j: int) -> float:
    if isinstance(pmap.target, FiniteMetricSpace):
        return float(pmap.target.dist[pmap.assignment[i], pmap.assignment[j]])
    coords = np.asarray(pmap.assignment, dtype=float)
    diff = coords[i] - coords[j]
    return float(np.linalg.norm(diff, ord=pmap.p if pmap.p != 2.0 else None))


def pair_profile(pmap, bin_width: float = 1.0, pairs: str = "all"):
    """(bin list, rho1, rho2) of a point map, one pair at a time."""
    src = pmap.source
    per_bin = {}
    for i in range(src.n):
        for j in range(i + 1, src.n):
            if pairs != "all" and src.blocks is not None:
                same = src.blocks[i] == src.blocks[j]
                if (pairs == "within") != same:
                    continue
            b = int(src.dist[i, j] // bin_width)
            per_bin.setdefault(b, []).append(image_distance(pmap, i, j))
    keys = sorted(per_bin)
    bins = [(k * bin_width, (k + 1) * bin_width) for k in keys]
    return bins, np.array([min(per_bin[k]) for k in keys]), np.array([max(per_bin[k]) for k in keys])


def triangle_error(points, dist):
    """The triangle-inequality check on float64: the error message for the
    first failing triple, or None."""
    dist = np.asarray(dist, dtype=float)
    tol = _scaled_tol(dist)
    for k in range(len(points)):
        slack = dist[:, k][:, None] + dist[k, :][None, :] - dist
        if slack.min() < -tol:
            i, j = np.unravel_index(np.argmin(slack), slack.shape)
            return f"triangle inequality fails for ({points[i]}, {points[k]}, {points[j]})"
    return None


def associative(table) -> bool:
    """(x y) z = x (y z) for every triple, as two n x n x n index arrays."""
    t = np.asarray(table)
    # t[t][i,j,k] = t[t[i,j],k] and take(t,t,axis=1)[i,j,k] = t[i,t[j,k]]
    return bool(np.array_equal(t[t], np.take(t, t, axis=1)))


def measure_witness(w, space: FiniteMetricSpace, R_target: float) -> WitnessReport:
    """Exhaustively measured (eps, S, norm deviation) at scale ``R_target``,
    with every distance of the full ``cdist`` matrix computed."""
    w.check_space(space)
    mask = _pair_mask(space, R_target)
    notes: dict = {}
    if isinstance(w, AFamily):
        eps = 0.0
        for i, j in zip(*np.nonzero(mask)):
            if i < j:
                eps = max(eps, _afamily_ratio(w.sets[i], w.sets[j]))
        S = 0.0
        for i, a in enumerate(w.sets):
            for (y, _n) in a:
                S = max(S, float(space.dist[i, y]))
        norm_dev = 0.0
        truncated = w.meta.get("truncated", ())
        if truncated:
            notes["truncated_pair_count"] = sum(
                1 for i, j in zip(*np.nonzero(mask)) if i < j and (i in truncated or j in truncated))
            notes["truncated_point_count"] = len(truncated)
            clean = [
                _afamily_ratio(w.sets[i], w.sets[j])
                for i, j in zip(*np.nonzero(mask))
                if i < j and i not in truncated and j not in truncated
            ]
            notes["eps_measured_interior"] = max(clean) if clean else 0.0
    elif isinstance(w, (LpWitness, TailWitness)):
        diffs = cdist(w.table, w.table, metric="minkowski", p=w.p)
        eps = float(diffs[mask].max()) if mask.any() else 0.0
        S = _support_radius(space, w.table)
        norms = np.linalg.norm(w.table, ord=w.p, axis=1) if w.p != 1 else w.table.sum(axis=1)
        norm_dev = float(np.abs(norms - 1.0).max())
        if isinstance(w, TailWitness):
            notes.update(_tail_masses(w, space))
    elif isinstance(w, PartitionWitness):
        cols = w.functions.T
        diffs = cdist(cols, cols, metric="cityblock")
        eps = float(diffs[mask].max()) if mask.any() else 0.0
        S = _cover_diameter(space, w.cover)
        norm_dev = float(np.abs(w.functions.sum(axis=0) - 1.0).max())
    elif isinstance(w, VectorWitness):
        diffs = cdist(w.coords, w.coords)
        eps = float(diffs[mask].max()) if mask.any() else 0.0
        gram = w.coords @ w.coords.T
        off = np.abs(gram) > NORM_TOL
        np.fill_diagonal(off, False)
        S = float(space.dist[off].max()) if off.any() else 0.0
        norm_dev = float(np.abs(np.linalg.norm(w.coords, axis=1) - 1.0).max())
    elif isinstance(w, KernelWitness):
        dev = np.abs(1.0 - w.matrix)
        eps = float(dev[mask].max()) if mask.any() else 0.0
        off = np.abs(w.matrix) > SUPPORT_TOL
        np.fill_diagonal(off, False)
        S = float(space.dist[off].max()) if off.any() else 0.0
        norm_dev = float(np.abs(np.diag(w.matrix) - 1.0).max())
    else:
        raise TypeError(f"unknown witness type {type(w).__name__}")
    return WitnessReport(
        form=w.form,
        R_target=R_target,
        eps_measured=eps,
        S_measured=S,
        norm_deviation=norm_dev,
        notes=notes,
    )


def warp_dijkstra(space, action) -> np.ndarray:
    """The warped distances by a heap Dijkstra from each source that relaxes
    the metric hops and the group hops separately."""
    group = action.group
    n = space.n
    moves = [g for g in range(group.n) if g != group.identity]
    out = np.zeros((n, n))
    for src in range(n):
        dist = space.dist[src].copy()
        heap = [(float(dist[v]), v) for v in range(n)]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            candidates = []
            for g in moves:
                candidates.append((action.permutations[g][v], d + group.lengths[g]))
            for w in range(n):
                nd = d + space.dist[v, w]
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (float(nd), w))
            for w, nd in candidates:
                if nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (float(nd), w))
        out[src] = dist
    return np.minimum(out, out.T)


# -- the group loops, one element at a time ---------------------------------


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def z2_power_table(k: int):
    n = 1 << k
    return [[i ^ j for j in range(n)] for i in range(n)]


def dihedral_table(n: int):
    """(elements, table) of the symmetries of the n-gon."""
    elements = [(r, f) for f in (0, 1) for r in range(n)]
    index = {e: i for i, e in enumerate(elements)}

    def mul(a, b):
        r1, f1 = a
        r2, f2 = b
        if f1 == 0:
            return ((r1 + r2) % n, f2)
        return ((r1 - r2) % n, 1 - f2)

    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return elements, table


def product_table(a, b) -> np.ndarray:
    nb = b.n
    table = np.empty((a.n * nb, a.n * nb), dtype=int)
    for i in range(a.n):
        for j in range(b.n):
            row = i * nb + j
            table[row] = (a.table[i][:, None] * nb + b.table[j][None, :]).reshape(-1)
    return table


def find_identity(group) -> int:
    n = group.n
    for e in range(n):
        if np.array_equal(group.table[e], np.arange(n)) and np.array_equal(group.table[:, e], np.arange(n)):
            return e
    raise ValueError("no identity element in the multiplication table")


def find_inverses(group) -> np.ndarray:
    inv = np.full(group.n, -1, dtype=int)
    for g in range(group.n):
        hits = np.nonzero(group.table[g] == group.identity)[0]
        if hits.size != 1 or group.table[hits[0], g] != group.identity:
            raise ValueError(f"element {group.elements[g]} has no two-sided inverse")
        inv[g] = hits[0]
    return inv


def ball(group, radius: float):
    return [g for g in range(group.n) if group.lengths[g] <= radius + 1e-9]


def check_action(group, space, permutations):
    """``GroupAction``'s checks, every pair of elements in turn."""
    permutations = np.asarray(permutations, dtype=int)
    if permutations.shape != (group.n, space.n):
        raise ValueError("need one permutation per group element")
    ident = permutations[group.identity]
    if not np.array_equal(ident, np.arange(space.n)):
        raise ValueError("identity must act trivially")
    for g in range(group.n):
        if len(set(permutations[g].tolist())) != space.n:
            raise ValueError("each element must act by a permutation")
        for h in range(group.n):
            gh = group.mult(g, h)
            composed = permutations[g][permutations[h]]
            if not np.array_equal(composed, permutations[gh]):
                raise ValueError("action is not a homomorphism")


def check_subgroup(group, members: frozenset):
    if group.identity not in members:
        raise ValueError("subgroup must contain the identity")
    for a in members:
        if group.inverse[a] not in members:
            raise ValueError("subgroup not closed under inverses")
        for b in members:
            if group.mult(a, b) not in members:
                raise ValueError("subgroup not closed under multiplication")


def check_normal(group, members: frozenset):
    for g in range(group.n):
        gi = group.inverse[g]
        for k in members:
            if group.mult(group.mult(g, k), gi) not in members:
                raise ValueError(f"subgroup is not normal (conjugate of {group.elements[k]} escapes)")


def quotient_group(group, subgroup) -> tuple:
    members = frozenset(int(x) for x in subgroup)
    check_subgroup(group, members)
    check_normal(group, members)
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
    for c in range(m):
        lift_min = min(group.lengths[g] for g in range(group.n) if projection[g] == c)
        if abs(lift_min - quot.lengths[c]) > 1e-9:
            raise ValueError("quotient word length does not match the minimal lift length")
    return quot, projection


def quotient_metric(group, subgroup) -> FiniteMetricSpace:
    quot, projection = quotient_group(group, subgroup)
    space = cayley_metric(quot)
    ambient = cayley_metric(group)
    for g in range(group.n):
        for h in range(group.n):
            if space.dist[projection[g], projection[h]] > ambient.dist[g, h] + 1e-9:
                raise ValueError("quotient map failed to be contractive")
    return space


def first_isometric_block(box, radius: float) -> int:
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


def box_to_kernel(box, phi, R: float | None = None) -> KernelWitness:
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


def box_to_function(box, kernel, block_index: int) -> np.ndarray:
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


def warp_bruteforce(space, action, max_steps=None) -> np.ndarray:
    """The min-plus chain oracle with its one-hop matrix built one group
    element at a time."""
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


def folner_support(group, vals) -> float:
    """``FolnerFunction``'s sign check and support radius."""
    if any(float(v) < -1e-12 for v in vals):
        raise ValueError("values must be nonnegative")
    supp = [g for g, v in enumerate(vals) if float(v) > 1e-12]
    return float(max(group.lengths[g] for g in supp)) if supp else 0.0


def reiter_defect(group, values, R: float):
    moved = {}
    worst = 0
    for g in range(group.n):
        if g == group.identity or group.lengths[g] > R + 1e-9:
            continue
        gi = group.inverse[g]
        defect = sum(
            abs(values[group.mult(gi, h)] - values[h]) for h in range(group.n)
        )
        moved[g] = defect
        if defect > worst:
            worst = defect
    return worst


def folner_to_witness(group, vals) -> np.ndarray:
    """The translate table of ``folner_to_witness``."""
    table = np.zeros((group.n, group.n))
    for g in range(group.n):
        gi = group.inverse[g]
        for h in range(group.n):
            table[g, h] = vals[group.mult(gi, h)]
    return table


def witness_to_folner(group, table) -> np.ndarray:
    """The averaged values of ``witness_to_folner``."""
    n = group.n
    values = np.zeros(n)
    for h in range(n):
        values[h] = np.mean([table[g, group.mult(g, h)] for g in range(n)])
    return values


def kernel_to_function(group, mat) -> np.ndarray:
    """mean_g k(h^-1 g, g): the conjugation average of phi on a non-abelian
    group, phi itself on an abelian one."""
    phi = np.empty(group.n)
    for h in range(group.n):
        hi = group.inverse[h]
        phi[h] = np.mean([mat[group.mult(hi, g), g] for g in range(group.n)])
    return phi


def separated_union(blocks, rule: str = "max-diam-plus-1") -> FiniteMetricSpace:
    """Disjoint union with constant cross-block distances set by ``rule``.

    ``max-diam-plus-1``: cross distance of blocks i, j is the larger of their
    diameters plus one (keeps blocks further apart than the larger diameter).
    ``nowak``: consecutive gap between blocks n and n+1 is n+1 (1-indexed),
    cross gaps additive along the chain.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("separated_union needs at least one block")
    if len(blocks) == 1:
        b = blocks[0]
        return FiniteMetricSpace(b.points, b.dist, blocks=[0] * b.n)
    diams = [b.diameter() for b in blocks]
    m = len(blocks)
    if rule == "max-diam-plus-1":
        cross = [[max(diams[i], diams[j]) + 1.0 for j in range(m)] for i in range(m)]
    elif rule == "nowak":
        offsets = np.zeros(m)
        for k in range(1, m):
            offsets[k] = offsets[k - 1] + (k + 1)  # gap(k, k+1) = k+1, 1-indexed
        cross = [[abs(offsets[i] - offsets[j]) for j in range(m)] for i in range(m)]
    else:
        raise ValueError(f"unknown separation rule {rule!r}")
    points, labels = [], []
    for bi, b in enumerate(blocks):
        points.extend((bi, pt) for pt in b.points)
        labels.extend([bi] * b.n)
    n = len(points)
    dist = np.zeros((n, n))
    start = np.cumsum([0] + [b.n for b in blocks])
    for i in range(m):
        si, ei = start[i], start[i + 1]
        dist[si:ei, si:ei] = blocks[i].dist
        for j in range(i + 1, m):
            sj, ej = start[j], start[j + 1]
            dist[si:ei, sj:ej] = cross[i][j]
            dist[sj:ej, si:ei] = cross[i][j]
    return FiniteMetricSpace(points, dist, blocks=labels)


def diam_table(target, R_grid, eps_grid, form: str, exact: bool | None = None) -> DiamTable:
    """Scan S upward until the optimal defect drops below eps, per grid cell.

    ``form='folner'`` needs a FiniteGroup (averaging LP); ``form='witness'``
    accepts a group (its word metric space is used) or a space, and solves
    the joint per-point LP.  Radii are scanned over the attained distance
    values, so entries are exact integers on word metrics.
    """
    if any(eps <= 0 for eps in eps_grid):
        raise ValueError("eps must be positive: no defect is below eps <= 0")
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
    for R in R_grid:
        for eps in eps_grid:
            for S in radii:
                _opt, defect = solve(problem, R, S, exact=exact)
                table.defects[(R, eps, S)] = defect
                if _defect_below(defect, eps):
                    table.entries[(R, eps)] = S
                    break
            else:
                raise LPError("no admissible S up to the diameter (signals a bug)")
    return table


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
