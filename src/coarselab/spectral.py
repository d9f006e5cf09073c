"""Graph Laplacian spectra, expansion constants, the variance inequality
behind the expander obstruction, and per-quotient Kazhdan-style gaps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .spaces import FiniteMetricSpace, graph_metric
from .groups import FiniteGroup

EXACT_SUBSET_CAP = 20
KAZHDAN_TOL = 1e-9
# subsets per numpy batch: a flat working set of a few hundred kB at n = 20
_CHUNK = 1 << 13
# Kelley stops after _KELLEY_ROUNDS, or once its LP bound is within _DUAL_GAP
# of the best lambda_min found
_DUAL_GAP, _KELLEY_ROUNDS = 1e-10, 100
# HiGHS's tightest feasibility tolerances; its defaults (1e-7) stall Kelley
_LP_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# eigenvalues this close to the smallest span the primal's search space
_EIGEN_BAND = 1e-6


class RegularGraph:
    """Simple connected graph of constant degree, optionally generator-colored."""

    def __init__(self, adjacency, degree: int | None = None, require_connected: bool = True):
        self.adjacency = np.asarray(adjacency, dtype=int)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise ValueError("adjacency must be square")
        if np.any(self.adjacency != self.adjacency.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(self.adjacency) != 0):
            raise ValueError("no loops allowed")
        if not np.all((self.adjacency == 0) | (self.adjacency == 1)):
            raise ValueError("adjacency entries must be 0/1")
        degrees = self.adjacency.sum(axis=1)
        if degree is None:
            degree = int(degrees[0]) if n else 0
        if np.any(degrees != degree):
            raise ValueError("graph is not regular of the declared degree")
        self.degree = degree
        self.connected = _is_connected(self.adjacency)
        if require_connected and not self.connected:
            raise ValueError("graph is disconnected")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def edges(self):
        idx = np.argwhere(np.triu(self.adjacency, 1) == 1)
        return [(int(a), int(b)) for a, b in idx]

    def metric_space(self) -> FiniteMetricSpace:
        return graph_metric(self.adjacency)


def _is_connected(adj: np.ndarray) -> bool:
    seen = np.zeros(adj.shape[0], dtype=bool)
    frontier = seen.copy()
    frontier[:1] = True
    while frontier.any():
        seen |= frontier
        frontier = adj[frontier].any(axis=0) & ~seen
    return bool(seen.all())


@dataclass
class SpectralReport:
    """``tol``: the tolerance recorded in the document; ``eigenvector`` is not
    in the document, None when read from one."""

    spectrum: np.ndarray
    lam: float
    eigenvector: np.ndarray | None = None
    tol: float = 1e-9

    def invariants(self, tol: float) -> list:
        """An ascending Laplacian spectrum from 0, with lam its second value."""
        spec = self.spectrum
        if len(spec) < 2:
            return ["spectrum is not a list of at least two eigenvalues"]
        slack = tol * max(1.0, float(np.abs(spec).max()))
        bad = []
        if np.any(np.diff(spec) < -slack):
            bad.append("spectrum is not ascending")
        if abs(spec[0]) > slack:
            bad.append(f"smallest eigenvalue {float(spec[0])!r} is not 0")
        if self.lam != spec[1]:
            bad.append("lambda is not the second-smallest eigenvalue")
        return bad


def laplacian_gap(g: RegularGraph) -> SpectralReport:
    """Exact symmetric eigensolve of D*I - A; lam is the second-smallest
    eigenvalue, with eigenvalue 0 carried by the constants."""
    if not g.connected:
        raise ValueError("graph is disconnected")
    lap = g.degree * np.eye(g.n) - g.adjacency
    vals, vecs = np.linalg.eigh(lap)
    return SpectralReport(spectrum=vals, lam=float(vals[1]), eigenvector=vecs[:, 1])


def poincare_check(g: RegularGraph, f) -> tuple:
    """Variance against edge-variation: sum (f-M)^2 <= (1/lam) sum_E (df)^2."""
    f = np.asarray(f, dtype=float)
    lam = laplacian_gap(g).lam
    mean = f.mean()
    lhs = float(((f - mean) ** 2).sum())
    edge_sum = sum((f[a] - f[b]) ** 2 for a, b in g.edges())
    rhs = float(edge_sum / lam)
    return lhs, rhs, lhs <= rhs + 1e-9


@dataclass
class ExpansionReport:
    """``seed`` draws the sampled subsets; ``tol`` is recorded in the document."""

    c: float
    subset: list
    mode: str
    samples: int | None = None
    seed: int = 0
    tol: float = 1e-9

    def invariants(self, tol: float) -> list:
        """A sample count exactly when sampled (``tol`` unused)."""
        if self.mode == "exact" and self.samples is not None:
            return ["exact mode records a sample count"]
        if self.mode == "sampled" and not (self.samples and self.samples >= 1):
            return ["sampled mode needs a positive sample count"]
        return []


def _pack(bits: np.ndarray) -> np.ndarray:
    """Boolean rows -> rows of little-endian uint64 mask words."""
    padded = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 64)))
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _first_minimum(adj: np.ndarray, batches, score) -> tuple:
    """Smallest ``score(outer boundary size, size)`` over the subsets of every
    batch (rows of mask words), and the first subset attaining it."""
    nbrs = _pack(np.asarray(adj) != 0)
    best, best_mask = math.inf, None
    for masks in batches:
        reach = np.zeros_like(masks)
        for v, row in enumerate(nbrs):
            reach |= ((masks[:, v // 64] >> np.uint64(v % 64)) & np.uint64(1))[:, None] * row
        boundary = np.bitwise_count(reach & ~masks).sum(axis=1, dtype=np.int64)
        values = score(boundary, np.bitwise_count(masks).sum(axis=1, dtype=np.int64))
        i = int(np.argmin(values))
        if values[i] < best:
            best, best_mask = float(values[i]), masks[i]
    return best, [] if best_mask is None else [v for v in range(len(nbrs)) if int(best_mask[v // 64]) >> (v % 64) & 1]


def _all_subsets(n: int):
    """Every nonempty proper subset of n <= 64 vertices, ascending by mask."""
    full = (1 << n) - 1
    for start in range(1, full, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, full), dtype=np.uint64)[:, None]


def _sampled_subsets(n: int, samples: int, seed: int):
    """``samples`` nonempty proper subsets of n vertices: each a size uniform
    in [1, n), then a uniform subset of that size, the vertices whose rank in
    a uniform permutation is below it.  Sizes and permutations come from two
    streams of the seed, each read in order, so no draw depends on _CHUNK."""
    sizes_rng, ranks_rng = np.random.default_rng(seed).spawn(2)
    ranks = np.arange(n, dtype=np.min_scalar_type(n))
    for start in range(0, samples, _CHUNK):
        c = min(_CHUNK, samples - start)
        sizes = sizes_rng.integers(1, n, size=c)
        yield _pack(ranks_rng.permuted(np.tile(ranks, (c, 1)), axis=1) < sizes[:, None])


def expansion_constant(graph, mode: str = "exact", samples: int | None = None, seed: int = 0) -> ExpansionReport:
    """Worst-case |boundary(A)| / ((1-|A|/|V|)|A|) over nonempty proper A.

    Boundary is the outer vertex boundary.  Exact mode enumerates all subsets
    (|V| <= 20); sampled mode draws random subsets and only upper bounds the
    true constant (the minimizer may be missed), so its report carries the
    sample count rather than an exactness claim.  Ties go to the first subset.
    """
    adj = graph.adjacency if isinstance(graph, RegularGraph) else np.asarray(graph, dtype=int)
    n = adj.shape[0]
    if mode == "exact":
        if n > EXACT_SUBSET_CAP:
            raise ValueError(f"exact enumeration capped at {EXACT_SUBSET_CAP} vertices")
        batches, samples = _all_subsets(n), None
    elif mode == "sampled":
        if samples is None or samples < 1:
            raise ValueError("sampled mode needs a positive sample count")
        batches = _sampled_subsets(n, samples, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    c, subset = _first_minimum(adj, batches, lambda boundary, size: boundary / ((1.0 - size / n) * size))
    return ExpansionReport(c=c, subset=subset, mode=mode, samples=samples, seed=seed)


@dataclass
class ConcentrationReport:
    lam: float
    c_edge: float
    radius_sq: float
    inside: int
    required: int
    passes: bool


def concentration_test(g: RegularGraph, coords, c_edge: float | None = None) -> ConcentrationReport:
    """Count vertices within the variance ball after centering.

    For an embedding whose edges move by at most c, at least half the
    vertices must land within sqrt(2 c^2 / lam) of the centroid.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    disp = max(float(np.linalg.norm(coords[a] - coords[b])) for a, b in g.edges())
    if c_edge is None:
        c_edge = disp
    elif disp > c_edge + 1e-12:
        raise ValueError(f"edge displacement {disp:.6g} exceeds the declared bound {c_edge:.6g}")
    lam = laplacian_gap(g).lam
    centered = coords - coords.mean(axis=0, keepdims=True)
    radius_sq = 2.0 * c_edge**2 / lam
    norms_sq = (centered**2).sum(axis=1)
    inside = int((norms_sq <= radius_sq + 1e-12).sum())
    required = math.ceil(g.n / 2)
    return ConcentrationReport(
        lam=lam,
        c_edge=c_edge,
        radius_sq=radius_sq,
        inside=inside,
        required=required,
        passes=inside >= required,
    )


@dataclass
class KazhdanReport:
    """``weights``: the dual weights t over the ``kazhdan_forms``, so anyone can
    recompute cert_lower**2 = lambda_min(sum_k t_k Q_k).  ``group`` and ``n``
    name the group (a ``NAMED_GROUPS`` kind and its size) when it has a name;
    ``tol`` is recorded in the document.  The worst subset and margin are not
    in the document, None when read from one."""

    eps: float
    cert_lower: float
    exact: bool
    expansion_ok: bool | None
    lam: float
    weights: np.ndarray
    worst_subset: list | None = None
    worst_margin: float | None = None
    group: str | None = None
    n: int | None = None
    tol: float = KAZHDAN_TOL

    def invariants(self, tol: float) -> list:
        """The primal-dual sandwich cert_lower <= eps, closed when exact."""
        bad = []
        if self.expansion_ok is False:
            bad.append("the per-quotient expansion inequality failed")
        if self.eps < self.cert_lower - tol:
            bad.append(f"eps {self.eps!r} is below certified_lower {self.cert_lower!r}")
        if self.exact and self.eps - self.cert_lower > tol:
            bad.append(f"exact, but the primal-dual gap eps - certified_lower is {self.eps - self.cert_lower!r}")
        return bad


def _cayley_adjacency(group: FiniteGroup) -> np.ndarray:
    adj = np.zeros((group.n, group.n), dtype=int)
    adj[np.arange(group.n)[:, None], group.table[:, group.generators]] = 1
    return adj


def kazhdan_forms(group: FiniteGroup) -> tuple:
    """The distinct displacement forms f -> |sf - f|^2 of the generators in
    generator order (Q_s = Q_{s^-1}; equal integer matrices merge), on the
    mean-zero subspace in ``_meanzero_basis`` coordinates, with counts."""
    eye = np.eye(group.n, dtype=np.int64)
    distinct = {}
    for s in group.generators:
        diff = eye[group.table[:, s]] - eye  # f -> f(. s) - f
        q = diff.T @ diff
        distinct.setdefault(q.tobytes(), [q, 0])[1] += 1
    basis = _meanzero_basis(group.n)
    return np.array([basis.T @ q @ basis for q, _ in distinct.values()]), np.array([c for _, c in distinct.values()])


def _minmax_lp(rows: np.ndarray) -> tuple:
    """(p, value): p in the simplex minimising max_i rows_i . p; p is None if HiGHS fails."""
    m, d = rows.shape
    res = linprog(np.r_[np.zeros(d), 1.0], A_ub=np.hstack([rows, -np.ones((m, 1))]), b_ub=np.zeros(m),
                  A_eq=np.r_[np.ones(d), 0.0][None, :], b_eq=[1.0], bounds=[(0, None)] * d + [(None, None)],
                  method="highs", options=_LP_TOLERANCES)
    if res.status != 0:
        return None, math.inf
    p = np.clip(res.x[:d], 0.0, None)
    return p / p.sum(), float(res.fun)


def _kelley_dual(forms: np.ndarray, t: np.ndarray) -> tuple:
    """max over the simplex of lambda_min(sum_k t_k Q_k), by Kelley's
    cutting planes from the weights t.  Any unit v gives the cut
    lambda_min(Q(t)) <= sum_k t_k v'Q_k v, so each eigensolve adds one cut
    per eigenvector.  Returns the best weights evaluated and their value."""
    if len(forms) == 1:
        return np.ones(1), float(np.linalg.eigvalsh(forms[0])[0])
    cuts, best_t, best = [], t, -math.inf
    for _ in range(_KELLEY_ROUNDS):
        vals, vecs = np.linalg.eigh(np.tensordot(t, forms, 1))
        if vals[0] > best:
            best_t, best = t, float(vals[0])
        cuts.append(np.einsum("kia,ia->ak", forms @ vecs, vecs))
        # max_t min_j cut_j . t bounds the dual; an unmoved t means LP tolerance
        t_next, minus_bound = _minmax_lp(-np.vstack(cuts))
        if t_next is None or -minus_bound - best <= _DUAL_GAP or np.array_equal(t_next, t):
            break
        t = t_next
    return best_t, best


def _primal_vector(forms: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A unit vector of the bottom eigenspace V of sum_k t_k Q_k with a small
    worst form: the eigenvector if dim V = 1; an LP over squared coordinates
    if the forms on V are jointly diagonal; else a descent inside V."""
    vals, vecs = np.linalg.eigh(np.tensordot(t, forms, 1))
    space = vecs[:, vals <= vals[0] + _EIGEN_BAND]
    if space.shape[1] == 1:
        return space[:, 0]
    restricted = space.T @ forms @ space
    eye = np.eye(space.shape[1])
    # a generic mix of commuting forms has their joint eigenbasis
    _, joint = np.linalg.eigh(np.tensordot(np.sqrt(np.arange(2.0, len(forms) + 2)), restricted, 1))
    diag = joint.T @ restricted @ joint
    diagonal = np.diagonal(diag, axis1=1, axis2=2)
    if np.abs(diag - diagonal[:, :, None] * eye).max() <= KAZHDAN_TOL * max(1.0, np.abs(diag).max()):
        p, _ = _minmax_lp(diagonal)  # each form is linear in the squared coordinates
        if p is not None:
            return space @ (joint @ np.sqrt(p))
    return space @ _sphere_descent(restricted - vals[0] * eye)


def _sphere_descent(shifted: np.ndarray) -> np.ndarray:
    """Unit c with a small worst form, by projected gradient descent of
    sum_k max(c'A_k c, 0)^2 from each coordinate vector: the dual weights
    average the A_k to zero on V, so it is 0 where no form exceeds the dual."""

    def excess(c):
        return np.clip(np.einsum("i,kij,j->k", c, shifted, c), 0.0, None)

    ends = []
    for c in np.eye(shifted.shape[1]):
        step = 1.0
        for _ in range(200):
            over = excess(c)
            grad = 4.0 * np.einsum("k,kij,j->i", over, shifted, c)
            grad -= (grad @ c) * c
            while over.any() and step > 1e-12:
                trial = (c - step * grad) / np.linalg.norm(c - step * grad)
                if np.sum(excess(trial) ** 2) < over @ over - 1e-4 * step * (grad @ grad):
                    break
                step /= 2.0
            else:
                break
            c, step = trial, 2.0 * step
        ends.append(c)
    return min(ends, key=lambda c: np.einsum("i,kij,j->k", c, shifted, c).max())


def kazhdan_gap(group: FiniteGroup, check_expansion: bool = True) -> KazhdanReport:
    """Smallest worst-generator displacement over unit mean-zero functions.

    eps = min over mean-zero unit f of max over generators s of |sf - f|
    (right translation on the Cayley graph).  The dual, max over weights t
    in the simplex of lambda_min(sum_s t_s Q_s) over the distinct generator
    forms, gives cert_lower = sqrt(dual) >= sqrt(2 lam / |S|) (the uniform
    weights) and the weights; eps is attained by a unit vector of the bottom
    eigenspace at those weights, so cert_lower <= min <= eps; ``exact`` means
    eps - cert_lower <= KAZHDAN_TOL.  |boundary(A)| >= (eps^2/2)(1 - |A|/m)|A|
    is then checked exhaustively, within 1e-9, for |V| <= 16.
    """
    n = group.n
    if n < 2:
        raise ValueError("group must have at least two elements")
    adj = _cayley_adjacency(group)
    lam = laplacian_gap(RegularGraph(adj, degree=len(group.generators))).lam
    forms, counts = kazhdan_forms(group)
    weights, dual = _kelley_dual(forms, counts / counts.sum())
    f = _meanzero_basis(n) @ _primal_vector(forms, weights)
    f /= np.linalg.norm(f)
    eps = max(float(np.linalg.norm(f[group.table[:, s]] - f)) for s in group.generators)
    cert = math.sqrt(max(dual, 0.0))
    expansion_ok = worst_subset = worst_margin = None
    if check_expansion and n <= 16:
        half = eps**2 / 2.0
        worst_margin, worst_subset = _first_minimum(
            adj, _all_subsets(n), lambda boundary, size: boundary - half * (1.0 - size / n) * size)
        expansion_ok = worst_margin >= -1e-9
    return KazhdanReport(
        eps=eps,
        cert_lower=cert,
        exact=eps - cert <= KAZHDAN_TOL,
        expansion_ok=expansion_ok,
        worst_subset=worst_subset,
        worst_margin=worst_margin,
        lam=lam,
        weights=weights,
    )


def _meanzero_basis(n: int) -> np.ndarray:
    """Helmert basis of the mean-zero subspace (n x (n-1)), deterministic."""
    basis = np.zeros((n, n - 1))
    for k in range(1, n):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -float(k)
        basis[:, k - 1] /= math.sqrt(k * (k + 1))
    return basis


def random_regular_graph(n: int, d: int, seed: int = 0, max_tries: int = 10000) -> RegularGraph:
    """Uniform pairing-model d-regular graph, resampled until simple and
    connected; deterministic for a given seed."""
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        adj = np.zeros((n, n), dtype=int)
        simple = True
        for a, b in zip(stubs[0::2], stubs[1::2]):
            if a == b or adj[a, b]:
                simple = False
                break
            adj[a, b] = adj[b, a] = 1
        if simple and _is_connected(adj):
            return RegularGraph(adj, degree=d)
    raise RuntimeError("failed to sample a simple connected regular graph")
