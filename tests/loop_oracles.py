"""Reference loops for the vectorised routines: the scalar canonical writer,
the all-pairs BFS graph metric, the per-pair compression profile and the
float64 triangle check, one element at a time in plain Python, and the
every-triple associativity check that Light's test replaced.  Also the
routines they replaced in turn: the row-by-row array writer, witness
measurement on the full distance matrix and the heap Dijkstra warp.  The
property tests compare the library against them."""

import heapq
import json
import math
from collections import deque

import numpy as np
from scipy.spatial.distance import cdist

from coarselab.spaces import FiniteMetricSpace, _scaled_tol
from coarselab.witnesses import (
    NORM_TOL, SUPPORT_TOL, AFamily, KernelWitness, LpWitness, PartitionWitness, TailWitness, VectorWitness,
    WitnessReport, _afamily_ratio, _cover_diameter, _pair_mask, _support_radius, _tail_masses,
)


def canon(value):
    """The canonical writer on Python scalars, lists and dicts (arrays
    arrive as their ``.tolist()``)."""
    if isinstance(value, dict):
        items = ",".join(f"{canon(str(k))}:{canon(v)}" for k, v in sorted(value.items()))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isinf(f) or math.isnan(f):
            raise ValueError("non-finite float in canonical output")
        if f == int(f) and abs(f) < 1e15:
            return f"{f:.1f}"
        return f"{f:.17g}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


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


def float_text(a: np.ndarray) -> str:
    """The array writer one row at a time, every entry formatted on its own."""
    # integral values below 1e15 as ".1f" (which keeps -0.0), all others as ".17g"
    if a.ndim > 1:
        return "[" + ",".join(map(float_text, a)) + "]"
    row = np.atleast_1d(a)
    whole = (row == np.trunc(row)) & (np.abs(row) < 1e15)
    text = ",".join(["%.1f" if w else "%.17g" for w in whole.tolist()]) % tuple(row.tolist())
    return text if a.ndim == 0 else "[" + text + "]"


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
