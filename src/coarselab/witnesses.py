"""Certificates of the property-A kind in six interconvertible forms.

The forms: per-point finite set families with a symmetric-difference ratio,
unit l^p function families, tail-controlled function families, partitions of
unity subordinate to bounded covers, unit-vector families with orthogonality
beyond a threshold, and normalized positive-type kernels of finite
propagation.  ``convert_witness`` implements the constructive passages
between them with explicit parameter degradation; ``measure_witness`` never
trusts declared parameters and recomputes everything exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .spaces import FiniteMetricSpace, graph_metric, _scaled_tol

SUPPORT_TOL = 1e-12
NORM_TOL = 1e-9
FORMS = ("a-family", "lp", "tail", "partition", "vector", "kernel")


@dataclass(kw_only=True)
class WitnessBase:
    point_ids: tuple
    R: float | None = None
    eps: float | None = None
    S: float | None = None
    meta: dict = field(default_factory=dict)

    def check_space(self, space: FiniteMetricSpace):
        if tuple(space.points) != tuple(self.point_ids):
            raise ValueError("witness points do not match the given space")


@dataclass(kw_only=True)
class AFamily(WitnessBase):
    """Per-point finite sets of (point index, tag) pairs; quality is the
    worst symmetric-difference over intersection ratio at scale R."""

    sets: tuple

    form = "a-family"

    def __post_init__(self):
        if any(len(a) == 0 for a in self.sets):
            raise ValueError("every member set must be nonempty")
        self.sets = tuple(frozenset(a) for a in self.sets)


@dataclass(kw_only=True)
class LpWitness(WitnessBase):
    """Rows of ``table`` are the per-point unit l^p functions (nonnegative)."""

    p: float
    table: np.ndarray

    form = "lp"

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("exponent must satisfy p >= 1")
        self.table = np.abs(np.asarray(self.table, dtype=float))


@dataclass(kw_only=True)
class TailWitness(WitnessBase):
    """Unit l^p family with tail data: in-ball mass > 1-delta at radius
    S_tail and annulus mass (S_tail, R+S_tail] below eps."""

    p: float
    table: np.ndarray
    S_tail: float
    delta: float
    delta_requested: float | None = None

    form = "tail"

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        self.p = float(self.p)
        self.table = np.abs(np.asarray(self.table, dtype=float))


@dataclass(kw_only=True)
class PartitionWitness(WitnessBase):
    """Partition of unity: ``functions[i]`` supported in ``cover[i]``,
    columns summing to one; S is the cover-diameter bound."""

    cover: tuple
    functions: np.ndarray
    basepoints: tuple | None = None

    form = "partition"

    def __post_init__(self):
        self.cover = tuple(frozenset(u) for u in self.cover)
        self.functions = np.asarray(self.functions, dtype=float)
        if self.functions.shape[0] != len(self.cover):
            raise ValueError("one function per cover set required")


@dataclass(kw_only=True)
class VectorWitness(WitnessBase):
    """Unit Euclidean vectors per point, orthogonal beyond distance S."""

    coords: np.ndarray

    form = "vector"

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)


@dataclass(kw_only=True)
class KernelWitness(WitnessBase):
    """Normalized symmetric positive-type kernel of finite propagation S."""

    matrix: np.ndarray
    normalized: bool = True

    form = "kernel"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)


@dataclass
class WitnessReport:
    """``tol``: the tolerance in effect, recorded in the document."""

    form: str
    R_target: float
    eps_measured: float
    S_measured: float
    norm_deviation: float
    notes: dict = field(default_factory=dict)
    tol: float = NORM_TOL


def _afamily_ratio(a: frozenset, b: frozenset) -> float:
    inter = len(a & b)
    sym = len(a) + len(b) - 2 * inter
    if inter == 0:
        return math.inf if sym else 0.0
    return sym / inter


def _pair_mask(space: FiniteMetricSpace, R: float) -> np.ndarray:
    tol = _scaled_tol(space.dist)
    mask = space.dist <= R + tol
    np.fill_diagonal(mask, False)
    return mask


def _max_distance_within(rows, mask, **metric) -> float:
    """Max of ``cdist(rows, rows, **metric)`` over ``mask`` (0.0 if empty), by the
    same kernel on four rows at a time against the columns their mask touches."""
    maxima = []
    for start in range(0, mask.shape[0], 4):
        block = mask[start:start + 4]
        cols = np.flatnonzero(block.any(axis=0))
        if cols.size:
            maxima.append(cdist(rows[start:start + 4], rows[cols], **metric)[block[:, cols]].max())
    return float(np.max(maxima, initial=0.0))


def _support_radius(space, table) -> float:
    supp = np.abs(table) > SUPPORT_TOL
    if not supp.any():
        return 0.0
    return float(space.dist[supp].max())


def _cover_diameter(space, cover) -> float:
    """Largest diameter of a cover set (0 when every set is a singleton)."""
    return max(
        (float(space.dist[np.ix_(sorted(u), sorted(u))].max()) for u in cover if len(u) > 1),
        default=0.0,
    )


def measure_witness(w, space: FiniteMetricSpace, R_target: float) -> WitnessReport:
    """Exhaustively measured (eps, S, norm deviation) at scale ``R_target``."""
    if not (math.isfinite(R_target) and R_target >= 0):  # no pair is within R: a vacuous eps
        raise ValueError("R must be finite and nonnegative")
    w.check_space(space)
    mask = _pair_mask(space, R_target)
    notes: dict = {}
    if isinstance(w, AFamily):
        pairs = list(zip(*np.nonzero(np.triu(mask))))
        eps = max((_afamily_ratio(w.sets[i], w.sets[j]) for i, j in pairs), default=0.0)
        S = max((float(space.dist[i, y]) for i, a in enumerate(w.sets) for y, _n in a), default=0.0)
        norm_dev = 0.0
        truncated = w.meta.get("truncated", ())
        if truncated:
            notes["truncated_pair_count"] = sum(1 for i, j in pairs if i in truncated or j in truncated)
            notes["truncated_point_count"] = len(truncated)
            notes["eps_measured_interior"] = max((_afamily_ratio(w.sets[i], w.sets[j]) for i, j in pairs
                                                  if i not in truncated and j not in truncated), default=0.0)
    elif isinstance(w, (LpWitness, TailWitness)):
        eps = _max_distance_within(w.table, mask, metric="minkowski", p=w.p)
        S = _support_radius(space, w.table)
        norms = np.linalg.norm(w.table, ord=w.p, axis=1) if w.p != 1 else w.table.sum(axis=1)
        norm_dev = float(np.abs(norms - 1.0).max())
        if isinstance(w, TailWitness):
            notes.update(_tail_masses(w, space))
    elif isinstance(w, PartitionWitness):
        eps = _max_distance_within(w.functions.T, mask, metric="cityblock")
        S = _cover_diameter(space, w.cover)
        norm_dev = float(np.abs(w.functions.sum(axis=0) - 1.0).max())
    elif isinstance(w, VectorWitness):
        eps = _max_distance_within(w.coords, mask)
        gram = w.coords @ w.coords.T
        off = np.abs(gram) > NORM_TOL
        np.fill_diagonal(off, False)
        S = float(space.dist[off].max()) if off.any() else 0.0
        norm_dev = float(np.abs(np.linalg.norm(w.coords, axis=1) - 1.0).max())
    elif isinstance(w, KernelWitness):
        eps = float(np.abs(1.0 - w.matrix[mask]).max(initial=0.0))
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


def _tail_masses(w: TailWitness, space: FiniteMetricSpace) -> dict:
    tol = _scaled_tol(space.dist)
    R = w.R if w.R is not None else 0.0
    in_ball, annulus = [], []
    for i in range(space.n):
        inside = space.dist[i] <= w.S_tail + tol
        ann = (~inside) & (space.dist[i] <= R + w.S_tail + tol)
        row = w.table[i]
        in_ball.append(np.linalg.norm(row[inside], ord=w.p))
        annulus.append(np.linalg.norm(row[ann], ord=w.p) if ann.any() else 0.0)
    return {
        "in_ball_mass_min": float(min(in_ball)),
        "annulus_mass_max": float(max(annulus)),
        "delta": w.delta,
        "S_tail": w.S_tail,
    }


def validate_witness(w, space: FiniteMetricSpace, tol: float = NORM_TOL) -> list:
    """Check the form's own invariants; returns a list of violation strings."""
    if tuple(space.points) != tuple(w.point_ids):
        return ["witness points do not match the given space"]
    bad = []
    if isinstance(w, AFamily):
        if any(len(a) == 0 for a in w.sets):
            bad.append("empty member set")
        if w.S is not None:
            for i, a in enumerate(w.sets):
                for (y, _n) in a:
                    if space.dist[i, y] > w.S + tol:
                        bad.append(f"member of A_{space.points[i]} outside declared S")
                        break
    elif isinstance(w, (LpWitness, TailWitness)):
        norms = np.array([np.linalg.norm(row, ord=w.p) for row in w.table])
        if np.abs(norms - 1.0).max() > tol:
            bad.append("unit-norm violation")
        if np.any(w.table < -SUPPORT_TOL):
            bad.append("negative function values")
        if isinstance(w, TailWitness):
            masses = _tail_masses(w, space)
            if masses["in_ball_mass_min"] <= 1.0 - w.delta - tol:
                bad.append("in-ball mass at most 1-delta")
            if w.eps is not None and masses["annulus_mass_max"] >= w.eps + tol:
                bad.append("annulus mass not below eps")
        elif w.S is not None and _support_radius(space, w.table) > w.S + tol:
            bad.append("support outside declared radius")
    elif isinstance(w, PartitionWitness):
        sums = w.functions.sum(axis=0)
        if np.abs(sums - 1.0).max() > tol:
            bad.append("does not sum to one")
        for i, u in enumerate(w.cover):
            outside = [x for x in range(space.n) if x not in u]
            if outside and np.abs(w.functions[i, outside]).max() > SUPPORT_TOL:
                bad.append(f"function {i} not subordinate to its cover set")
        if w.S is not None and _cover_diameter(space, w.cover) > w.S + tol:
            bad.append("cover set diameter above declared S")
    elif isinstance(w, VectorWitness):
        if np.abs(np.linalg.norm(w.coords, axis=1) - 1.0).max() > tol:
            bad.append("non-unit vector")
        if w.S is not None:
            gram = w.coords @ w.coords.T
            far = space.dist > w.S + tol
            np.fill_diagonal(far, False)
            if far.any() and np.abs(gram[far]).max() > tol:
                bad.append("inner product nonzero beyond declared S")
    elif isinstance(w, KernelWitness):
        k = w.matrix
        if np.abs(k - k.T).max() > tol:
            bad.append("kernel not symmetric")
        if w.normalized and np.abs(np.diag(k) - 1.0).max() > tol:
            bad.append("kernel not normalized")
        scale = max(np.abs(k).max(), 1.0)
        if np.linalg.eigvalsh((k + k.T) / 2).min() < -NORM_TOL * scale:
            bad.append("kernel not positive type")
        if w.S is not None:
            far = space.dist > w.S + tol
            np.fill_diagonal(far, False)
            if far.any() and np.abs(k[far]).max() > SUPPORT_TOL:
                bad.append("kernel nonzero beyond declared propagation")
        if w.R is not None and w.eps is not None:
            mask = _pair_mask(space, w.R)
            if mask.any() and np.abs(1.0 - k[mask]).max() >= w.eps + tol:
                bad.append("kernel variation at scale R not below eps")
    return bad


# ---------------------------------------------------------------------------
# conversions


def _measured(w, space) -> WitnessReport:
    if w.R is None:
        raise ValueError("witness must declare a scale R for this conversion")
    return measure_witness(w, space, w.R)


def afamily_to_lp(w: AFamily, space) -> LpWitness:
    """Normalized counting functions; variation at most twice the set ratio."""
    w.check_space(space)
    table = np.zeros((space.n, space.n))
    for i, a in enumerate(w.sets):
        for (y, _n) in a:
            table[i, y] += 1.0
        table[i] /= len(a)
    measured = _measured(w, space)
    eps_in, S = measured.eps_measured, measured.S_measured
    return LpWitness(
        p=1,
        table=table,
        point_ids=w.point_ids,
        R=w.R,
        eps=2.0 * eps_in,
        S=S,
        meta={"bound": "2*eps", "eps_in": eps_in},
    )


def lp_change_exponent(w: LpWitness, space, q: float) -> LpWitness:
    """Componentwise power p/q; unit in l^q, variation at most eps^(p/q) of
    the l^1 distance of the p-th powers (equals eps^(1/q) when p = 1)."""
    w.check_space(space)
    if q < 1:
        raise ValueError("target exponent must satisfy q >= 1")
    powers = w.table**w.p
    table = powers ** (1.0 / q)
    bound = _max_distance_within(powers, _pair_mask(space, w.R), metric="cityblock") ** (1.0 / q)
    return LpWitness(
        p=q,
        table=table,
        point_ids=w.point_ids,
        R=w.R,
        eps=bound,
        S=_support_radius(space, table),
        meta={"bound": "eps^(1/q)", "source_p": w.p},
    )


def lp_to_afamily(w: LpWitness, space, M: int | None = None) -> AFamily:
    """Quantize an l^1 family into set families at resolution 1/M.

    The quantization constant must beat N/eps, where N bounds the support
    sizes (the bounded-geometry input of this conversion); when ``M`` is not
    given it is derived from the measured eps, which must be positive.
    """
    w.check_space(space)
    if abs(w.p - 1.0) > 1e-12:
        raise ValueError("set-family quantization needs an l^1 witness")
    N = int((w.table > SUPPORT_TOL).sum(axis=1).max())
    eps_in = _measured(w, space).eps_measured
    if M is None:
        if eps_in <= 0:
            raise ValueError("measured eps is zero; pass an explicit quantization constant M")
        M = math.floor(N / eps_in) + 1
    if M <= 0:
        raise ValueError("quantization constant must be positive")
    sets = []
    for i in range(space.n):
        counts = np.ceil(w.table[i] * M - SUPPORT_TOL).astype(int)
        members = frozenset((y, j) for y in np.nonzero(counts)[0] for j in range(1, counts[y] + 1))
        sets.append(members)
    eff = max(eps_in, N / M)
    bound = 3 * eff / (1 - 1.5 * eff) if eff < 2 / 3 else math.inf
    return AFamily(
        sets=tuple(sets),
        point_ids=w.point_ids,
        R=w.R,
        eps=bound,
        S=_support_radius(space, w.table),
        meta={"bound": "3e/(1-1.5e)", "M": M, "N": N, "eps_effective": eff},
    )


def lp_to_tail(w: LpWitness, space, delta: float = 0.5) -> TailWitness:
    """Reinterpret a bounded-support family in tail form at the given delta."""
    w.check_space(space)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    S_tail = _smallest_mass_radius(w.table, space, w.p, 1.0 - delta)
    return TailWitness(
        p=w.p,
        table=w.table.copy(),
        S_tail=S_tail,
        delta=delta,
        point_ids=w.point_ids,
        R=w.R,
        eps=w.eps if w.eps is not None else _measured(w, space).eps_measured,
        meta={"source": "lp"},
    )


def _smallest_mass_radius(table, space, p, target) -> float:
    tol = _scaled_tol(space.dist)
    radii = np.unique(space.dist)
    for r in radii:
        ok = True
        for i in range(space.n):
            inside = space.dist[i] <= r + tol
            if np.linalg.norm(table[i][inside], ord=p) <= target:
                ok = False
                break
        if ok:
            return float(r)
    return float(space.diameter())


def tail_retune(w: TailWitness, space) -> TailWitness:
    """Pass from the for-all-delta reading to a fixed delta' = min(delta, eps^p),
    recording both delta values."""
    w.check_space(space)
    eps = w.eps if w.eps is not None else _measured(w, space).eps_measured
    delta_new = min(w.delta, eps**w.p)
    if delta_new <= 0:
        raise ValueError("retuned delta is not positive; eps must be positive")
    S_tail = _smallest_mass_radius(w.table, space, w.p, 1.0 - delta_new)
    return TailWitness(
        p=w.p,
        table=w.table.copy(),
        S_tail=S_tail,
        delta=delta_new,
        delta_requested=w.delta,
        point_ids=w.point_ids,
        R=w.R,
        eps=eps,
        meta={"source": "tail-retune"},
    )


def tail_to_lp(w: TailWitness, space) -> LpWitness:
    """Cut at radius R+S_tail and renormalize; variation degrades to
    6*eps/(1-delta)."""
    w.check_space(space)
    if abs(w.p - 1.0) > 1e-12:
        raise ValueError("tail-to-lp normalization needs p = 1")
    tol = _scaled_tol(space.dist)
    R = w.R if w.R is not None else 0.0
    table = np.zeros_like(w.table)
    for i in range(space.n):
        inside = space.dist[i] <= R + w.S_tail + tol
        row = np.where(inside, w.table[i], 0.0)
        table[i] = row / row.sum()
    measured = _measured(w, space)
    eps_eff = max(measured.eps_measured, measured.notes["annulus_mass_max"])
    return LpWitness(
        p=1,
        table=table,
        point_ids=w.point_ids,
        R=w.R,
        eps=6.0 * eps_eff / (1.0 - w.delta),
        S=R + w.S_tail,
        meta={"bound": "6e/(1-delta)", "eps_effective": eps_eff, "delta": w.delta},
    )


def lp_to_partition(w: LpWitness, space) -> PartitionWitness:
    """Transpose the family into a partition of unity over metric balls."""
    w.check_space(space)
    if abs(w.p - 1.0) > 1e-12:
        raise ValueError("partition transposition needs an l^1 witness")
    S = _support_radius(space, w.table)
    tol = _scaled_tol(space.dist)
    cover = tuple(frozenset(np.nonzero(space.dist[i] <= S + tol)[0].tolist()) for i in range(space.n))
    functions = w.table.T.copy()
    eps_in = _measured(w, space).eps_measured
    return PartitionWitness(
        cover=cover,
        functions=functions,
        basepoints=tuple(range(space.n)),
        point_ids=w.point_ids,
        R=w.R,
        eps=eps_in,
        S=_cover_diameter(space, cover),
        meta={"bound": "eps", "support_radius": S},
    )


def partition_to_lp(w: PartitionWitness, space) -> LpWitness:
    """Push the partition onto basepoints of its cover sets (one delta mass
    per set); stays on the same space with support radius at most the cover
    radius from each basepoint."""
    w.check_space(space)
    if w.basepoints is not None:
        bases = list(w.basepoints)
    else:
        bases = [min(u) for u in w.cover]
    table = np.zeros((space.n, space.n))
    for i, b in enumerate(bases):
        table[:, b] += w.functions[i]
    eps_in = _measured(w, space).eps_measured
    return LpWitness(
        p=1,
        table=table,
        point_ids=w.point_ids,
        R=w.R,
        eps=eps_in,
        S=_support_radius(space, table),
        meta={"bound": "eps", "basepoints": tuple(bases)},
    )


def lp_to_vector(w: LpWitness, space) -> VectorWitness:
    """Read a unit l^2 family as unit Euclidean vectors (orthogonal once the
    supports separate, so beyond twice the support radius)."""
    w.check_space(space)
    if abs(w.p - 2.0) > 1e-12:
        raise ValueError("vector form needs an l^2 witness")
    eps_in = _measured(w, space).eps_measured
    gram = w.table @ w.table.T
    off = np.abs(gram) > NORM_TOL
    np.fill_diagonal(off, False)
    S = float(space.dist[off].max()) if off.any() else 0.0
    return VectorWitness(
        coords=w.table.copy(),
        point_ids=w.point_ids,
        R=w.R,
        eps=eps_in,
        S=S,
        meta={"bound": "eps"},
    )


def vector_to_kernel(w: VectorWitness, space) -> KernelWitness:
    """Gram kernel of the unit vectors: 1 - k = |f(x)-f(y)|^2 / 2 < eps^2/2."""
    w.check_space(space)
    eps_in = _measured(w, space).eps_measured
    gram = w.coords @ w.coords.T
    gram = (gram + gram.T) / 2.0
    off = np.abs(gram) > NORM_TOL
    np.fill_diagonal(off, False)
    S = float(space.dist[off].max()) if off.any() else 0.0
    return KernelWitness(
        matrix=gram,
        point_ids=w.point_ids,
        R=w.R,
        eps=eps_in**2 / 2.0,
        S=S,
        meta={"bound": "eps^2/2"},
    )


def kernel_to_lp(w: KernelWitness, space, truncate: float = 0.0) -> LpWitness:
    """Rows of the exact positive square root, renormalized in l^2.

    Spaces here are finite, so the square root is computed exactly by
    eigendecomposition instead of approximating within the convolution
    algebra; support control is enforced by an explicit truncation threshold
    whose removed mass is recorded.
    """
    w.check_space(space)
    k = (w.matrix + w.matrix.T) / 2.0
    scale = max(np.abs(k).max(), 1.0)
    vals, vecs = np.linalg.eigh(k)
    if vals.min() < -NORM_TOL * scale:
        raise ValueError(f"kernel is not positive type (min eigenvalue {vals.min():.3e})")
    clipped = float(-vals[vals < 0].sum()) if (vals < 0).any() else 0.0
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    mass_lost = 0.0
    if truncate > 0.0:
        small = np.abs(root) < truncate
        mass_lost = float((root[small] ** 2).sum())
        root = np.where(small, 0.0, root)
    norms = np.linalg.norm(root, axis=1)
    if norms.min() <= 0:
        raise ValueError("a square-root row vanished; truncation too aggressive")
    table = np.abs(root) / norms[:, None]
    eps_in = _measured(w, space).eps_measured
    bound = 2.0 * math.sqrt(6.0 * eps_in / (1.0 - 2.0 * eps_in)) if eps_in < 0.5 else math.inf
    out = LpWitness(
        p=2,
        table=table,
        point_ids=w.point_ids,
        R=w.R,
        eps=bound,
        S=_support_radius(space, table),
        meta={
            "bound": "2*sqrt(6e/(1-2e))",
            "eps_in": eps_in,
            "clipped_eigen_mass": clipped,
            "truncated_mass": mass_lost,
        },
    )
    return out


_CONVERSIONS = {
    ("a-family", "lp"): afamily_to_lp,
    ("lp", "lp"): lp_change_exponent,
    ("lp", "a-family"): lp_to_afamily,
    ("lp", "tail"): lp_to_tail,
    ("tail", "tail"): tail_retune,
    ("tail", "lp"): tail_to_lp,
    ("lp", "partition"): lp_to_partition,
    ("partition", "lp"): partition_to_lp,
    ("lp", "vector"): lp_to_vector,
    ("vector", "kernel"): vector_to_kernel,
    ("kernel", "lp"): kernel_to_lp,
}


def convert_witness(w, target_form: str, space: FiniteMetricSpace, **params):
    """Convert between certificate forms along the supported table."""
    key = (w.form, target_form)
    fn = _CONVERSIONS.get(key)
    if fn is None:
        raise ValueError(f"unsupported conversion {key[0]} -> {key[1]}")
    return fn(w, space, **params)


# ---------------------------------------------------------------------------
# builders


def _tree_next_hop(space: FiniteMetricSpace, ray_idx: int) -> list:
    """For each vertex, its neighbor one step closer to the ray vertex."""
    d = space.dist
    n = space.n
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if d[i, j] == 1.0]
    if len(edges) != n - 1:
        raise ValueError(f"not a tree: {len(edges)} edges on {n} vertices (cycle detected)")
    adj = np.zeros((n, n), dtype=int)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    if not np.array_equal(graph_metric(adj).dist, d):
        raise ValueError("metric is not the path metric of its unit-distance graph")
    hop = [None] * n
    for v in range(n):
        if v == ray_idx:
            continue
        for u in np.nonzero(adj[v])[0]:
            if d[u, ray_idx] == d[v, ray_idx] - 1:
                hop[v] = int(u)
                break
    return hop


def tree_witness(space: FiniteMetricSpace, ray, R: float, eps: float) -> AFamily:
    """Set family along geodesics toward a boundary vertex of a tree.

    Each A_v collects the first floor(3R/eps)+1 vertices of the geodesic
    from v toward ``ray``; pairs at distance <= R then have symmetric
    difference ratio at most 2*eps/(3-eps).  Near the boundary the geodesic
    runs out early; those vertices are flagged in ``meta['truncated']``.
    """
    if eps <= 0 or eps >= 3:
        raise ValueError("eps must lie in (0, 3)")
    if R <= 0:
        raise ValueError("R must be positive")
    ray_idx = space.index(ray)
    hop = _tree_next_hop(space, ray_idx)
    k = math.floor(3 * R / eps) + 1
    sets, truncated = [], set()
    for v in range(space.n):
        chain, cur = [], v
        while cur is not None and len(chain) < k:
            chain.append(cur)
            cur = hop[cur]
        if len(chain) < k:
            truncated.add(v)
        sets.append(frozenset((w, 1) for w in chain))
    return AFamily(
        sets=tuple(sets),
        point_ids=tuple(space.points),
        R=R,
        eps=2 * eps / (3 - eps),
        S=float(k - 1),
        meta={"truncated": frozenset(truncated), "chain_length": k},
    )


def _complement_distance(space: FiniteMetricSpace, members: frozenset) -> np.ndarray:
    outside = [x for x in range(space.n) if x not in members]
    if not outside:
        return np.full(space.n, space.diameter() + 1.0)
    return space.dist[:, outside].min(axis=1)


def cover_multiplicity(space: FiniteMetricSpace, cover) -> int:
    counts = np.zeros(space.n, dtype=int)
    for u in cover:
        for x in u:
            counts[x] += 1
    if counts.min() == 0:
        missing = int(np.argmin(counts))
        raise ValueError(f"cover misses point {space.points[missing]}")
    return int(counts.max())


def lebesgue_number(space: FiniteMetricSpace, cover) -> float:
    """Largest attained distance L with every closed L-ball inside one set."""
    tol = _scaled_tol(space.dist)
    best_overall = math.inf
    for x in range(space.n):
        dvals = np.sort(np.unique(space.dist[x]))
        best = 0.0
        for u in cover:
            dc = _complement_distance(space, u)[x]
            fitting = dvals[dvals < dc - tol]
            if fitting.size:
                best = max(best, float(fitting[-1]))
        best_overall = min(best_overall, best)
    return best_overall


def lipschitz_partition(space: FiniteMetricSpace, cover, R: float, eps: float) -> PartitionWitness:
    """Distance-quotient partition of unity subordinate to ``cover``.

    With multiplicity k and Lebesgue number L (both measured exhaustively),
    the total variation is Lipschitz with constant (2k+2)(2k+3)/L, so the
    witness variation at scale R is at most that constant times R.
    """
    cover = [frozenset(int(x) for x in u) for u in cover]
    k = cover_multiplicity(space, cover)
    L = lebesgue_number(space, cover)
    if L <= 0:
        raise ValueError("cover has Lebesgue number 0: some ball fits in no single set")
    rows = np.array([_complement_distance(space, u) for u in cover])
    for i, u in enumerate(cover):
        outside = np.array([x not in u for x in range(space.n)])
        rows[i, outside] = 0.0
    functions = rows / rows.sum(axis=0, keepdims=True)
    lip = (2 * k + 2) * (2 * k + 3) / L
    return PartitionWitness(
        cover=tuple(cover),
        functions=functions,
        point_ids=tuple(space.points),
        R=R,
        eps=min(eps, lip * R),
        S=_cover_diameter(space, cover),
        meta={
            "multiplicity": k,
            "lebesgue": L,
            "lipschitz_bound": lip,
            "variation_bound": lip * R,
            "meets_target": lip * R <= eps,
        },
    )


def expand_set(space: FiniteMetricSpace, members, radius: float) -> frozenset:
    tol = _scaled_tol(space.dist)
    idx = sorted(members)
    near = (space.dist[:, idx] <= radius + tol).any(axis=1)
    return frozenset(np.nonzero(near)[0].tolist())


def glue_witness(outer: PartitionWitness, locals_, space: FiniteMetricSpace) -> PartitionWitness:
    """Product partition theta_ij = phi_i * psi_i^j over a two-level cover.

    Each local witness must be a partition of unity on (at least) the
    R-expansion of its cover set, R being the outer witness's scale; the
    glued variation at that scale is bounded by the sum of the outer and
    worst local variations.
    """
    outer.check_space(space)
    if len(locals_) != len(outer.cover):
        raise ValueError("need one local witness per outer cover set")
    R = outer.R if outer.R is not None else 0.0
    cover_out, rows, bases = [], [], []
    for i, (u, local) in enumerate(zip(outer.cover, locals_)):
        if local is None:
            raise ValueError(f"local witness missing for cover set {i}")
        local.check_space(space)
        domain = expand_set(space, u, R)
        sums = local.functions[:, sorted(domain)].sum(axis=0)
        if np.abs(sums - 1.0).max() > NORM_TOL:
            raise ValueError(f"local witness {i} is not a partition of unity on the R-expansion of its set")
        for j, v in enumerate(local.cover):
            theta = outer.functions[i] * local.functions[j]
            if theta.max() <= SUPPORT_TOL:
                continue
            rows.append(theta)
            cover_out.append(frozenset(u & v))
            if local.basepoints is not None:
                bases.append(local.basepoints[j])
            else:
                bases.append(min(v))
    functions = np.array(rows)
    eps_locals = max(
        (loc.eps if loc.eps is not None else 0.0) for loc in locals_
    )
    return PartitionWitness(
        cover=tuple(cover_out),
        functions=functions,
        basepoints=tuple(bases),
        point_ids=tuple(space.points),
        R=outer.R,
        eps=(outer.eps or 0.0) + eps_locals,
        S=_cover_diameter(space, cover_out),
        meta={"bound": "eps_outer+eps_local"},
    )


def product_witness(wx: PartitionWitness, wy: PartitionWitness, product_space: FiniteMetricSpace) -> PartitionWitness:
    """Tensor partition {phi_i(x) psi_j(y)}; variation adds across factors.

    The product metric dominates both coordinate distances, so a pair within
    R in the product is within R in each factor.
    """
    nx = len(wx.point_ids)
    ny = len(wy.point_ids)
    if product_space.n != nx * ny:
        raise ValueError("product space size does not match the factor witnesses")
    cover, rows = [], []
    for i, u in enumerate(wx.cover):
        for j, v in enumerate(wy.cover):
            theta = np.outer(wx.functions[i], wy.functions[j]).reshape(-1)
            if theta.max() <= SUPPORT_TOL:
                continue
            rows.append(theta)
            cover.append(frozenset(a * ny + b for a in u for b in v))
    functions = np.array(rows)
    R = min(w.R for w in (wx, wy) if w.R is not None) if (wx.R or wy.R) else None
    return PartitionWitness(
        cover=tuple(cover),
        functions=functions,
        point_ids=tuple(product_space.points),
        R=R,
        eps=(wx.eps or 0.0) + (wy.eps or 0.0),
        S=_cover_diameter(product_space, cover),
        meta={"bound": "eps_x+eps_y"},
    )


def union_witness(space: FiniteMetricSpace, block_witnesses, L: float, R: float, eps: float, blocks=None) -> PartitionWitness:
    """Expand the pieces of a (possibly overlapping) union by L, build the
    distance-quotient partition of the expanded cover, and glue piece-local
    witnesses pulled back along nearest-point retractions.

    ``blocks`` lists the member indices of each piece; when omitted the
    space's block labels are used (the separated-union case).
    """
    if L <= 0:
        raise ValueError("expansion L must be positive")
    if blocks is None:
        if space.blocks is None:
            raise ValueError("union witness needs block membership lists or a space with block labels")
        labels = sorted(set(space.blocks))
        blocks = [[i for i in range(space.n) if space.blocks[i] == b] for b in labels]
    blocks = [list(b) for b in blocks]
    if len(block_witnesses) != len(blocks):
        raise ValueError("need one witness per block")
    cover = [expand_set(space, b, L) for b in blocks]
    outer = lipschitz_partition(space, cover, R, eps)
    locals_ = []
    for members, cov, wloc in zip(blocks, cover, block_witnesses):
        locals_.append(_retract_partition(space, members, wloc, expand_set(space, cov, R)))
    return glue_witness(outer, locals_, space)


def _retract_partition(space, block_indices, wloc: PartitionWitness, domain) -> PartitionWitness:
    """Pull a block partition back along the nearest-block-point retraction,
    extended over ``domain``."""
    block_indices = list(block_indices)
    if len(wloc.point_ids) != len(block_indices):
        raise ValueError("block witness size does not match the block")
    nearest = {}
    for x in sorted(domain):
        d = space.dist[x, block_indices]
        nearest[x] = int(np.argmin(d))  # lowest index wins ties
    m = len(wloc.cover)
    functions = np.zeros((m, space.n))
    cover = []
    for j in range(m):
        for x, loc in nearest.items():
            functions[j, x] = wloc.functions[j, loc]
        cover.append(frozenset(x for x, loc in nearest.items() if loc in wloc.cover[j]))
    bases = tuple(block_indices[min(u)] for u in wloc.cover)
    return PartitionWitness(
        cover=tuple(cover),
        functions=functions,
        basepoints=bases,
        point_ids=tuple(space.points),
        R=wloc.R,
        eps=wloc.eps,
        S=None,
        meta={"retracted_from_block": True},
    )


def subspace_witness(w: PartitionWitness, space: FiniteMetricSpace, sub_space: FiniteMetricSpace, inclusion) -> PartitionWitness:
    """Pull back cover and partition along an isometric inclusion."""
    w.check_space(space)
    inc = [space.index(p) if not isinstance(p, (int, np.integer)) else int(p) for p in inclusion]
    if len(inc) != sub_space.n:
        raise ValueError("inclusion must be total on the subspace")
    tol = _scaled_tol(space.dist)
    for a in range(sub_space.n):
        for b in range(sub_space.n):
            if abs(sub_space.dist[a, b] - space.dist[inc[a], inc[b]]) > tol:
                raise ValueError("inclusion is not distance-preserving within tolerance")
    cover, rows = [], []
    for i, u in enumerate(w.cover):
        pulled = frozenset(a for a in range(sub_space.n) if inc[a] in u)
        row = w.functions[i, inc]
        if row.max() <= SUPPORT_TOL:
            continue
        cover.append(pulled)
        rows.append(row)
    return PartitionWitness(
        cover=tuple(cover),
        functions=np.array(rows),
        point_ids=tuple(sub_space.points),
        R=w.R,
        eps=w.eps,
        S=_cover_diameter(sub_space, cover),
        meta={"bound": "eps"},
    )


def ball_witness(space: FiniteMetricSpace, S: float, R: float, p: float = 1.0) -> LpWitness:
    """Uniform mass on closed S-balls, the canonical l^p family."""
    tol = _scaled_tol(space.dist)
    table = (space.dist <= S + tol).astype(float)
    if p == 1:
        table = table / table.sum(axis=1, keepdims=True)
    else:
        table = table / np.linalg.norm(table, ord=p, axis=1, keepdims=True)
    w = LpWitness(p=p, table=table, point_ids=tuple(space.points), R=R, S=S)
    w.eps = measure_witness(w, space, R).eps_measured
    return w
