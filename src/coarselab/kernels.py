"""Positive/negative-type kernel calculus and embedding constructions.

A kernel here is a symmetric real matrix over the points of a finite space.
Positive type means PSD as a matrix; negative type means the quadratic form
is nonpositive on mean-zero weight vectors.  The two universal examples are
Gram matrices and squared Euclidean distance matrices, and
``embed_from_kernel`` inverts both: any positive-type kernel is a Gram
matrix, any normalized negative-type kernel is a squared-distance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import FiniteMetricSpace, PointMap, CompressionProfile, compression_profile, _scaled_tol
from .witnesses import LpWitness, measure_witness

PSD_TOL = 1e-9


@dataclass(frozen=True)
class Kernel:
    """Symmetric real kernel matrix with optional declared flags."""

    matrix: np.ndarray
    normalized: bool | None = None
    propagation: float | None = None

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if np.abs(m - m.T).max(initial=0.0) > PSD_TOL * max(np.abs(m).max(initial=0.0), 1.0):
            raise ValueError("kernel is not symmetric")
        object.__setattr__(self, "matrix", m)

    def measured_propagation(self, space: FiniteMetricSpace) -> float:
        off = np.abs(self.matrix) > 1e-12
        np.fill_diagonal(off, False)
        return float(space.dist[off].max()) if off.any() else 0.0


@dataclass(frozen=True)
class Embedding:
    """Per-point Euclidean coordinates (rows), with factorization losses."""

    coords: np.ndarray
    point_ids: tuple | None = None
    clipped_mass: float = 0.0

    @property
    def dimension(self) -> int:
        return self.coords.shape[1]

    def gram(self) -> np.ndarray:
        return self.coords @ self.coords.T

    def squared_distances(self) -> np.ndarray:
        sq = (self.coords**2).sum(axis=1)
        return sq[:, None] + sq[None, :] - 2 * self.gram()


@dataclass(frozen=True)
class KernelClass:
    positive_type: bool
    negative_type: bool
    min_eigenvalue: float
    max_meanzero_value: float
    tol: float

    def invariants(self, tol: float) -> list:
        """Flags that contradict the recorded extreme values (``tol`` unused)."""
        bad = []
        if self.min_eigenvalue >= 0 and not self.positive_type:
            bad.append("min_eigenvalue >= 0 but positive_type is false")
        if self.max_meanzero_value <= 0 and not self.negative_type:
            bad.append("max_meanzero_value <= 0 but negative_type is false")
        return bad


def _as_matrix(k) -> np.ndarray:
    m = np.asarray(getattr(k, "matrix", k), dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("kernel must be a square matrix")
    return m


def classify_kernel(k, tol: float = PSD_TOL) -> KernelClass:
    """Exact eigen-classification of positive/negative type.

    Positive type: smallest eigenvalue >= -tol*scale.  Negative type: the
    quadratic form compressed to the mean-zero subspace has largest
    eigenvalue <= tol*scale.
    """
    m = _as_matrix(k)
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > tol * scale:
        raise ValueError("kernel is not symmetric")
    m = (m + m.T) / 2.0
    n = m.shape[0]
    min_eig = float(np.linalg.eigvalsh(m).min())
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    compressed = proj @ m @ proj
    max_mz = float(np.linalg.eigvalsh((compressed + compressed.T) / 2.0).max())
    return KernelClass(
        positive_type=min_eig >= -tol * scale,
        negative_type=max_mz <= tol * scale,
        min_eigenvalue=min_eig,
        max_meanzero_value=max_mz,
        tol=tol,
    )


def embed_from_kernel(k, mode: str, tol: float = PSD_TOL) -> Embedding:
    """Realize a kernel as a Gram matrix (positive mode) or as squared
    distances from a basepoint Gram factorization (negative mode).

    Negative mode uses the first point as basepoint x0 and factorizes
    G(x,y) = (k(x,x0) + k(x0,y) - k(x,y)) / 2, giving |f(x)-f(y)|^2 = k(x,y).
    Eigenvalues below -tol*scale fail the precondition; small negative ones
    are clipped and the clipped mass reported.
    """
    m = _as_matrix(k)
    cls = classify_kernel(m, tol)
    if mode == "positive":
        if not cls.positive_type:
            raise ValueError(f"kernel is not positive type within tolerance (min eig {cls.min_eigenvalue:.3e})")
        gram = (m + m.T) / 2.0
    elif mode == "negative":
        if not cls.negative_type:
            raise ValueError(f"kernel is not negative type within tolerance (max form {cls.max_meanzero_value:.3e})")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(np.diag(m)).max() > tol * scale:
            raise ValueError("negative mode needs a normalized kernel (zero diagonal)")
        gram = (m[:, :1] + m[:1, :] - m) / 2.0
        gram = (gram + gram.T) / 2.0
    else:
        raise ValueError(f"unknown embedding mode {mode!r}")
    vals, vecs = np.linalg.eigh(gram)
    scale = max(np.abs(gram).max(), 1.0)
    clipped = float(-vals[vals < 0].sum()) if (vals < 0).any() else 0.0
    keep = vals > tol * scale
    coords = vecs[:, keep] * np.sqrt(vals[keep])
    if coords.shape[1] == 0:
        coords = np.zeros((m.shape[0], 1))
    return Embedding(coords=coords, clipped_mass=clipped)


# ---------------------------------------------------------------------------
# transforms


def schur_product(k, l, tol: float = PSD_TOL) -> Kernel:
    """Entrywise product; positive type is preserved."""
    mk, ml = _as_matrix(k), _as_matrix(l)
    for name, m in (("first", mk), ("second", ml)):
        if not classify_kernel(m, tol).positive_type:
            raise ValueError(f"{name} factor is not of positive type")
    return Kernel(matrix=mk * ml)


def exp_transform(k, t: float, tol: float = PSD_TOL) -> Kernel:
    """exp(-t k) of a negative-type kernel is positive type for all t >= 0."""
    m = _as_matrix(k)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not classify_kernel(m, tol).negative_type:
        raise ValueError("kernel is not of negative type")
    return Kernel(matrix=np.exp(-t * m))


def power_transform(k, alpha: float, tol: float = PSD_TOL) -> Kernel:
    """Entrywise power k^alpha of an entrywise-nonnegative negative-type
    kernel, 0 < alpha < 1; negative type is preserved."""
    m = _as_matrix(k)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    cls = classify_kernel(m, tol)
    if not cls.negative_type:
        raise ValueError("kernel is not of negative type")
    if m.min() < -tol * max(np.abs(m).max(), 1.0):
        raise ValueError("entrywise nonnegativity required for the power transform")
    return Kernel(matrix=np.clip(m, 0.0, None) ** alpha)


def gaussian_from_embedding(embedding, t: float) -> Kernel:
    """k(x,y) = exp(-t |f(x)-f(y)|^2): normalized positive type for t > 0.

    This computes the Gram of the tensor-exponential construction directly;
    the infinite-dimensional carrier is never materialized.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    coords = embedding.coords if isinstance(embedding, Embedding) else np.asarray(embedding, dtype=float)
    sq = (coords**2).sum(axis=1)
    d2 = np.clip(sq[:, None] + sq[None, :] - 2 * coords @ coords.T, 0.0, None)
    return Kernel(matrix=np.exp(-t * d2), normalized=True)


def ce_sum(kernel_list, space: FiniteMetricSpace | None = None, tol: float = PSD_TOL) -> tuple:
    """Truncated telescoping sum k = sum_n (1 - k_n) of normalized
    positive-type kernels; negative type, with the growth bound
    |k(x,y)| <= 2 d(x,y) + 1 checked when the list follows the (R_n, 2^-n)
    schedule and a space is supplied.

    Returns (Kernel, report dict); the truncation index is the list length.
    """
    mats = [_as_matrix(k) for k in kernel_list]
    if not mats:
        raise ValueError("need at least one kernel")
    for i, m in enumerate(mats):
        cls = classify_kernel(m, tol)
        if not cls.positive_type:
            raise ValueError(f"kernel {i} is not positive type")
        if np.abs(np.diag(m) - 1.0).max() > tol * max(np.abs(m).max(), 1.0):
            raise ValueError(f"kernel {i} is not normalized")
    out = sum(1.0 - m for m in mats)
    report = {"truncation_index": len(mats)}
    if space is not None:
        bound = 2.0 * space.dist + 1.0
        report["growth_bound_holds"] = bool(np.all(np.abs(out) <= bound + 1e-9))
        report["growth_worst_ratio"] = float((np.abs(out) / bound).max())
    return Kernel(matrix=out), report


def kernel_decay_table(k, space: FiniteMetricSpace) -> list:
    """Per-threshold decay sup{|k(x,y)| : d(x,y) >= s} over distinct distances.

    Finite-truncation diagnostic only; no asymptotic claim is made.
    """
    m = _as_matrix(k)
    out = []
    for s in np.unique(space.dist):
        if s == 0:
            continue
        mask = space.dist >= s
        out.append((float(s), float(np.abs(m[mask]).max())))
    return out


def lp_negtype_kernel(points, p: float) -> Kernel:
    """k(x,y) = |x-y|_p^p over a coordinate table; normalized negative type
    for 0 < p <= 2."""
    if not 0 < p <= 2:
        raise ValueError("exponent must lie in (0, 2]")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = np.abs(pts[:, None, :] - pts[None, :, :]) ** p
    return Kernel(matrix=diff.sum(axis=2), normalized=True)


def mazur_map(x, p: float, q: float):
    """Sphere-to-sphere map |x|^(p/q) sign(x) between l^p and l^q."""
    v = np.asarray(x, dtype=float)
    norm = np.linalg.norm(v, ord=p)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"input must be a unit vector in l^{p} (norm {norm:.12f})")
    return np.sign(v) * np.abs(v) ** (p / q)


# ---------------------------------------------------------------------------
# witness-sequence embeddings


def _disjointness_radius(w: LpWitness, space: FiniteMetricSpace) -> float:
    """Largest distance at which two supports still overlap; beyond it the
    stage's functions are orthogonal."""
    supp = w.table > 1e-12
    overlap = (supp.astype(float) @ supp.astype(float).T) > 0
    np.fill_diagonal(overlap, False)
    return float(space.dist[overlap].max()) if overlap.any() else 0.0


def yu_embedding(witness_seq, space: FiniteMetricSpace) -> tuple:
    """Concatenate centered l^2 stages into a Hilbert-space embedding.

    Stage k (1-based) must have measured variation below 2^-k at scale k.
    With S_k the measured disjointness radius of stage k and
    Q_t = #{k : S_k < t}, every pair obeys

        sqrt(2 * Q_d) <= |f(x)-f(y)| <= 2 d + 1.

    Each fully-disjoint stage contributes exactly 2 to the squared distance
    of a pair (unit vectors with disjoint supports), which is where the
    sqrt(2Q) lower envelope comes from.
    """
    seq = list(witness_seq)
    if not seq:
        raise ValueError("need at least one witness stage")
    s_values = []
    for k, w in enumerate(seq, start=1):
        w.check_space(space)
        if abs(w.p - 2.0) > 1e-12:
            raise ValueError(f"stage {k}: exponent must be 2")
        rep = measure_witness(w, space, float(k))
        if rep.eps_measured >= 2.0**-k:
            raise ValueError(
                f"schedule violation at stage {k}: variation {rep.eps_measured:.6g} >= 2^-{k}"
            )
        if rep.norm_deviation > 1e-9:
            raise ValueError(f"schedule violation at stage {k}: rows are not unit vectors")
        s_values.append(_disjointness_radius(w, space))
    blocks = [w.table - w.table[0] for w in seq]
    coords = np.hstack(blocks)
    emb = Embedding(coords=coords, point_ids=tuple(space.points))
    profile = compression_profile(PointMap(space, None, coords))
    profile.q_table = [(s, sum(1 for sk in s_values if sk < s)) for s in sorted(set(s_values + [space.diameter()]))]
    profile.stage_radii = s_values
    return emb, profile


def yu_profile_bounds(space: FiniteMetricSpace, stage_radii) -> tuple:
    """Guaranteed (lower, upper) bound matrices for a staged l^2 embedding."""
    q = np.zeros_like(space.dist)
    for sk in stage_radii:
        q += (space.dist > sk + _scaled_tol(space.dist)).astype(float)
    lower = np.sqrt(2.0 * q)
    upper = 2.0 * space.dist + 1.0
    return lower, upper


def lp_sequence_embedding(witness_seq, space: FiniteMetricSpace, delta: float) -> tuple:
    """Block concatenation of centered l^p stages.

    Stage n must have measured variation below 2^-n at scale n, and separate
    pairs by at least delta beyond its measured separation radius S_n.  With
    Q_t = #{n : S_n < t} every pair obeys

        delta * Q_d^(1/p) <= |f(x)-f(y)|_p <= 2 (d+1)^(1/p).
    """
    seq = list(witness_seq)
    if not seq:
        raise ValueError("need at least one witness stage")
    if delta <= 0:
        raise ValueError("separation delta must be positive")
    p = seq[0].p
    s_values = []
    from scipy.spatial.distance import cdist

    for n, w in enumerate(seq, start=1):
        w.check_space(space)
        if abs(w.p - p) > 1e-12:
            raise ValueError("all stages must share one exponent")
        rep = measure_witness(w, space, float(n))
        if rep.eps_measured >= 2.0**-n:
            raise ValueError(f"schedule violation at stage {n}: variation {rep.eps_measured:.6g} >= 2^-{n}")
        seps = cdist(w.table, w.table, metric="minkowski", p=p)
        bad = space.dist[(seps < delta - 1e-12) & (space.dist > 0)]
        if bad.size:
            worst = float(bad.max())
            larger = np.unique(space.dist[space.dist > worst])
            s_n = float(larger.min()) if larger.size else math.inf
        else:
            s_n = 0.0
        s_values.append(s_n)
    blocks = [w.table - w.table[0] for w in seq]
    coords = np.hstack(blocks)
    pmap = PointMap(space, None, coords, p=p)
    profile = compression_profile(pmap)
    profile.q_table = [(s, sum(1 for sk in s_values if sk < s)) for s in sorted({v for v in s_values if math.isfinite(v)} | {space.diameter()})]
    profile.stage_radii = s_values
    return Embedding(coords=coords, point_ids=tuple(space.points)), profile


def lp_profile_bounds(space: FiniteMetricSpace, stage_radii, delta: float, p: float) -> tuple:
    q = np.zeros_like(space.dist)
    tol = _scaled_tol(space.dist)
    for sn in stage_radii:
        if math.isfinite(sn):
            q += (space.dist > sn + tol).astype(float)
    lower = delta * q ** (1.0 / p)
    upper = 2.0 * (space.dist + 1.0) ** (1.0 / p)
    return lower, upper


# ---------------------------------------------------------------------------
# operator bridge


@dataclass(frozen=True)
class OperatorReport:
    """``kernel_positive_type`` is not in the document: None when read from one."""

    operator_norm: float
    ball_bound: int
    norm_within_bound: bool
    psd_agreement: bool
    propagation: float
    tol: float
    kernel_positive_type: bool | None = None

    def invariants(self, tol: float) -> list:
        """The two claims of the bridge (``tol`` unused)."""
        bad = []
        if not self.norm_within_bound:
            bad.append("operator norm exceeds the ball bound")
        if not self.psd_agreement:
            bad.append("operator positivity and kernel positive type disagree")
        return bad


def kernel_operator_bridge(k, space: FiniteMetricSpace, n_bound: int | None = None, tol: float = PSD_TOL) -> OperatorReport:
    """Interpret a finite-propagation kernel as a convolution operator.

    The operator is the same matrix acting on functions; its norm is bounded
    by the maximal closed-ball size N at the propagation radius, and it is
    PSD exactly when the kernel is of positive type (same eigenvalues).
    """
    m = _as_matrix(k)
    kern = Kernel(matrix=m)
    prop = kern.measured_propagation(space)
    if n_bound is None:
        tol_d = _scaled_tol(space.dist)
        n_bound = int((space.dist <= prop + tol_d).sum(axis=1).max())
    sym = (m + m.T) / 2.0
    op_norm = float(np.linalg.svd(m, compute_uv=False).max())
    eigs = np.linalg.eigvalsh(sym)
    scale = max(np.abs(m).max(), 1.0)
    psd = bool(eigs.min() >= -tol * scale)
    cls = classify_kernel(sym, tol)
    # the ball bound certifies |T_k| <= N sup|k|; for normalized positive
    # type kernels sup|k| = 1 and this is the plain N bound
    sup = float(np.abs(m).max()) if m.size else 0.0
    return OperatorReport(
        operator_norm=op_norm,
        ball_bound=n_bound,
        norm_within_bound=op_norm <= n_bound * max(sup, 1e-300) + 1e-9,
        kernel_positive_type=cls.positive_type,
        psd_agreement=psd == cls.positive_type,
        propagation=prop,
        tol=tol,
    )
