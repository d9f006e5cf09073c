"""Finite metric spaces and their basic constructions.

Everything downstream (certificates, kernels, spectra, group metrics) runs
over a ``FiniteMetricSpace``: an ordered list of point ids together with an
explicit symmetric distance matrix.  Spaces are immutable after construction
and every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: relative tolerance for all metric comparisons (scaled by the matrix max)
METRIC_TOL = 1e-9
#: a unit graph with more edges at a point goes to the triangle loop: its
#: proof would gather about as many entries as the loop, each at a higher cost
_UNIT_DEGREE_CAP = 32
#: entries gathered at once by the unit-graph proof
_UNIT_CHUNK = 2**18


def _scaled_tol(dist: np.ndarray) -> float:
    scale = float(dist.max()) if dist.size else 1.0
    return METRIC_TOL * max(scale, 1.0)


def _triangle_failure(dist: np.ndarray, tol: float):
    """The first (i, k, j), in order of the middle point k, with
    d(i, j) > d(i, k) + d(k, j) + tol, or None: the triangle inequality
    vectorized over k, in O(n^3)."""
    for k in range(len(dist)):
        slack = dist[:, k][:, None] + dist[k, :][None, :] - dist
        if slack.min() < -tol:
            i, j = np.unravel_index(np.argmin(slack), slack.shape)
            return int(i), k, int(j)
    return None


def _is_unit_graph_metric(d: np.ndarray) -> bool:
    """Whether the integer matrix ``d`` (zero diagonal, symmetric, positive
    off it) is the path metric of its unit graph {d = 1}, and so a metric.
    It is iff the nearest neighbour k of i to j has d(k, j) = d(i, j) - 1
    for every j != i: no neighbour nearer by two or more, with each unit
    edge in both directions, means |d(k, .) - d(i, .)| <= 1 along every
    edge, so that no d(i, j) exceeds the length of a path from i to j; one
    nearer by one, at each step, walks a path of length d(i, j) to j.
    O(edges * n); False, for the triangle loop to decide, on a dense unit
    graph."""
    n = len(d)
    if n < 2:
        return True
    src, dst = np.nonzero(d == 1)  # the edges of each point i, i ascending
    degree = np.bincount(src, minlength=n)
    if degree.min() == 0 or degree.max() > _UNIT_DEGREE_CAP:
        return False
    first = np.concatenate(([0], np.cumsum(degree)))
    step = max(1, _UNIT_CHUNK // (int(degree.max()) * n))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        nearest = np.minimum.reduceat(d[dst[first[lo]:first[hi]]], first[lo:hi] - first[lo], axis=0)
        # at j = i the nearest neighbour is at 1, not at d(i, i) - 1 = -1
        if np.count_nonzero(nearest == d[lo:hi] - 1) != (hi - lo) * (n - 1):
            return False
    return True


def _proved_by_structure(d: np.ndarray, blocks) -> bool:
    """Whether the integer matrix ``d``, which passed the entry checks, is a
    metric by its structure: the path metric of its unit graph, or a union
    of such metrics over the runs of equal ``blocks`` labels at constant
    cross distances that satisfy the block-level rule.  Only ever accepts;
    False sends ``d`` to the triangle loop."""
    n = len(d)
    cuts = [0] if blocks is None else [0] + [i for i in range(1, n) if blocks[i] != blocks[i - 1]]
    if len(cuts) == 1:
        return _is_unit_graph_metric(d)
    spans = list(zip(cuts, cuts[1:] + [n]))
    run = np.repeat(np.arange(len(spans)), [e - s for s, e in spans])
    c = d[np.ix_(cuts, cuts)]
    if not np.all((run[:, None] == run[None, :]) | (d == c[np.ix_(run, run)])):
        return False
    return all(_is_unit_graph_metric(d[s:e, s:e]) for s, e in spans) and _union_triangles_hold(d, spans, c)


def _union_triangles_hold(d: np.ndarray, spans, c: np.ndarray) -> bool:
    """The triangle inequality on integer metric blocks ``d[s:e, s:e]`` at
    constant cross distances ``c``, in O(m^3) for m blocks rather than
    O(n^3) for n points.  A triple inside one block holds as the block is a
    metric; one with both ends in block a and its middle in block b holds
    iff diam_a <= 2 c_ab; one across three blocks iff c, zero on the
    diagonal, is a metric on the blocks.  Entries below 2**14 keep every
    int16 sum here below 2**15."""
    diam = np.array([d[s:e, s:e].max() for s, e in spans])
    if not np.all((2 * c >= diam[:, None]) | np.eye(len(spans), dtype=bool)):
        return False
    return all((c[:, b][:, None] + c[b, :][None, :] >= c).all() for b in range(len(spans)))


class FiniteMetricSpace:
    """Point ids plus a symmetric distance matrix, validated on construction.

    Distances are stored as float64 with an exact-integer fast path for graph
    metrics (``is_integer`` is set when every entry is integral).  ``blocks``
    optionally records component membership for separated unions.
    """

    def __init__(self, points, dist, blocks=None, _skip_checks=False):
        self.points = list(points)
        self.dist = np.asarray(dist, dtype=float)
        self.blocks = list(blocks) if blocks is not None else None
        self.is_integer = bool(np.all(self.dist == np.round(self.dist)))
        if not _skip_checks:
            self._validate()
        self._index = {p: i for i, p in enumerate(self.points)}
        self.dist.setflags(write=False)

    def _validate_entries(self):
        """Every check but the triangle inequality, in O(n^2)."""
        n = len(self.points)
        if self.dist.shape != (n, n):
            raise ValueError(f"distance matrix shape {self.dist.shape} does not match {n} points")
        if len(set(map(repr, self.points))) != n:
            raise ValueError("point ids must be distinct")
        tol = _scaled_tol(self.dist)
        if np.abs(np.diag(self.dist)).max(initial=0.0) > tol:
            raise ValueError("nonzero diagonal entry")
        if np.abs(self.dist - self.dist.T).max(initial=0.0) > tol:
            raise ValueError("distance matrix is not symmetric")
        off = self.dist + np.diag(np.full(n, np.inf))  # a finite mask would fall below tol >= 1
        if n > 1 and off.min() <= tol:
            i, j = np.unravel_index(np.argmin(off), off.shape)
            raise ValueError(f"non-positive distance between distinct points {self.points[i]} and {self.points[j]}")
        if self.blocks is not None and len(self.blocks) != n:
            raise ValueError("block labels must match the number of points")

    def _validate(self):
        self._validate_entries()
        # in int16 when every entry is an integer below 2**14: sums cannot
        # overflow, and as tol < 1, slack < -tol is the same test as slack <= -1
        small = self.is_integer and self.dist.max(initial=0.0) < 2**14
        dist = self.dist.astype(np.int16) if small else self.dist
        if small and _proved_by_structure(dist, self.blocks):
            return
        failure = _triangle_failure(dist, _scaled_tol(self.dist))
        if failure is not None:
            i, k, j = (self.points[x] for x in failure)
            raise ValueError(f"triangle inequality fails for ({i}, {k}, {j})")

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        return self._index[point]

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def ball(self, i: int, r: float) -> np.ndarray:
        """Indices of the closed ball around point index ``i``."""
        return np.nonzero(self.dist[i] <= r + _scaled_tol(self.dist))[0]

    def subspace(self, indices) -> "FiniteMetricSpace":
        idx = list(indices)
        blocks = [self.blocks[i] for i in idx] if self.blocks is not None else None
        return FiniteMetricSpace(
            [self.points[i] for i in idx],
            self.dist[np.ix_(idx, idx)],
            blocks=blocks,
            _skip_checks=True,
        )

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n}, diam={self.diameter():g})"


@dataclass(frozen=True)
class PointMap:
    """Total assignment from a source space into a target space or coordinate table.

    ``assignment`` maps source index -> target index (metric target) or is a
    coordinate array of shape (n_source, dim) for norm targets; ``p`` selects
    the norm used on coordinate targets.
    """

    source: FiniteMetricSpace
    target: object  # FiniteMetricSpace or None for coordinate targets
    assignment: object
    p: float = 2.0

    def image_distances(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Image distances of the source index pairs (i[k], j[k])."""
        if isinstance(self.target, FiniteMetricSpace):
            idx = np.asarray(self.assignment, dtype=int)
            return self.target.dist[idx[i], idx[j]]
        from scipy.spatial.distance import pdist, squareform

        return squareform(pdist(np.asarray(self.assignment, dtype=float), "minkowski", p=self.p))[i, j]

    def __post_init__(self):
        n = self.source.n
        if isinstance(self.target, FiniteMetricSpace):
            if len(self.assignment) != n:
                raise ValueError("assignment must be total on source points")
        else:
            if np.asarray(self.assignment).shape[0] != n:
                raise ValueError("coordinate table must be total on source points")


@dataclass
class CompressionProfile:
    """Per-bin (rho1, rho2) envelope of a point map, plus threshold counts.

    ``bins`` lists (r_lo, r_hi) for the nonempty bins only.  ``rho1``/``rho2``
    are the raw per-bin min/max image distances; the monotone envelopes are the
    largest non-decreasing minorant (suffix min) and smallest non-decreasing
    majorant (prefix max).
    """

    bins: list
    rho1: np.ndarray
    rho2: np.ndarray
    q_table: list = field(default_factory=list)
    stage_radii: list = field(default_factory=list)

    def rho1_envelope(self) -> np.ndarray:
        return np.minimum.accumulate(self.rho1[::-1])[::-1]

    def rho2_envelope(self) -> np.ndarray:
        return np.maximum.accumulate(self.rho2)

    @property
    def proper(self) -> bool:
        """Effective properness over the available range: envelope strictly
        increasing across the top bins."""
        env = self.rho1_envelope()
        if len(env) < 2:
            return False
        return bool(env[-1] > env[-2])

    def rho2_at(self, t: float) -> float:
        """Evaluate the non-decreasing upper envelope as a step function."""
        env = self.rho2_envelope()
        value = env[0]
        for (lo, _hi), v in zip(self.bins, env):
            if t >= lo:
                value = v
        return float(value)


def graph_metric(adjacency) -> FiniteMetricSpace:
    """Shortest-path metric of an unweighted graph (all-pairs BFS).

    The adjacency matrix must be symmetric 0/1 with zero diagonal and the
    graph connected; the result is exact integer valued.
    """
    from scipy.sparse.csgraph import shortest_path

    adj = np.asarray(adjacency)
    n = adj.shape[0]
    if adj.shape != (n, n) or np.any(adj != adj.T) or np.any(np.diag(adj) != 0):
        raise ValueError("adjacency must be symmetric with zero diagonal")
    if not np.all((adj == 0) | (adj == 1)):
        raise ValueError("adjacency entries must be 0 or 1")
    dist = shortest_path(adj, unweighted=True, directed=False)
    if np.isinf(dist).any():
        src, dst = map(int, np.argwhere(np.isinf(dist))[0])
        raise ValueError(f"graph is disconnected: no path from point {src} to point {dst}")
    return FiniteMetricSpace(list(range(n)), dist, _skip_checks=True)


def lp_product(x: FiniteMetricSpace, y: FiniteMetricSpace, p) -> FiniteMetricSpace:
    """l^p product metric on the cartesian product (p >= 1 or inf).

    Restricts to the factor metrics on fibres and dominates the max of the
    coordinate distances for every p.
    """
    if p != np.inf and p < 1:
        raise ValueError(f"product exponent must be >= 1 or inf, got {p}")
    points = [(a, b) for a in x.points for b in y.points]
    dx = np.kron(x.dist, np.ones((y.n, y.n)))
    dy = np.kron(np.ones((x.n, x.n)), y.dist)
    if p == np.inf:
        dist = np.maximum(dx, dy)
    elif p == 1:
        dist = dx + dy
    else:
        dist = (dx**p + dy**p) ** (1.0 / p)
    return FiniteMetricSpace(points, dist, _skip_checks=True)


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
        return FiniteMetricSpace(b.points, b.dist, blocks=[0] * b.n, _skip_checks=True)
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


def net_extract(space: FiniteMetricSpace, delta: float) -> FiniteMetricSpace:
    """Greedy maximal delta-separated subset, lowest point index first.

    The result is delta-separated (pairwise distances >= delta), delta-dense
    (every point of the space within delta of the net), and idempotent.
    """
    if delta <= 0:
        raise ValueError("separation delta must be positive")
    kept = []
    for i in range(space.n):
        if any(space.dist[i, j] < delta for j in kept):
            continue
        kept.append(i)
    return space.subspace(kept)


def bounded_geometry_stats(space: FiniteMetricSpace, radii) -> dict:
    """N_r table: maximal closed-ball cardinality per radius."""
    out = {}
    tol = _scaled_tol(space.dist)
    for r in radii:
        if r < 0:
            raise ValueError("radii must be nonnegative")
        out[r] = int((space.dist <= r + tol).sum(axis=1).max())
    return out


def compression_profile(pmap: PointMap, bin_width: float = 1.0, pairs: str = "all") -> CompressionProfile:
    """Bin image distances by source distance; per-bin min/max become rho1/rho2.

    ``pairs`` restricts the pair population: "all", "within" (same block) or
    "across" (different blocks).  Empty bins are omitted, never interpolated.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    src = pmap.source
    i, j = np.triu_indices(src.n, 1)
    if pairs != "all" and src.blocks is not None:
        label = np.array([src.blocks.index(b) for b in src.blocks])  # equal labels, equal codes
        keep = (label[i] == label[j]) == (pairs == "within")
        i, j = i[keep], j[keep]
    keys, which = np.unique((src.dist[i, j] // bin_width).astype(int), return_inverse=True)
    image = pmap.image_distances(i, j)
    rho1 = np.full(len(keys), np.inf)
    rho2 = np.full(len(keys), -np.inf)
    np.minimum.at(rho1, which, image)
    np.maximum.at(rho2, which, image)
    bins = [(k * bin_width, (k + 1) * bin_width) for k in keys.tolist()]
    return CompressionProfile(bins=bins, rho1=rho1, rho2=rho2)


# ---------------------------------------------------------------------------
# graph/space generators shared by the tests and the CLI


def cycle_space(n: int) -> FiniteMetricSpace:
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1
    return graph_metric(adj)


def path_space(n: int) -> FiniteMetricSpace:
    adj = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    return graph_metric(adj)


def complete_space(n: int) -> FiniteMetricSpace:
    adj = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    return graph_metric(adj)


def tree_space(branch: int, depth: int) -> FiniteMetricSpace:
    """Rooted tree where every internal vertex has ``branch`` children."""
    edges = []
    nodes = [0]
    next_id = 1
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for v in frontier:
            for _ in range(branch):
                edges.append((v, next_id))
                nodes.append(next_id)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    n = len(nodes)
    adj = np.zeros((n, n), dtype=int)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return graph_metric(adj)


def hypercube_space_graph(k: int) -> FiniteMetricSpace:
    """Hamming cube {0,1}^k with the graph (l^1) metric."""
    n = 1 << k
    adj = np.zeros((n, n), dtype=int)
    for v in range(n):
        for bit in range(k):
            adj[v, v ^ (1 << bit)] = 1
    return graph_metric(adj)
