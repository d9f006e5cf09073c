"""Reference loops for the vectorised routines: the scalar canonical writer,
the all-pairs BFS graph metric, the per-pair compression profile and the
float64 triangle check, one element at a time in plain Python, and the
every-triple associativity check that Light's test replaced.  The property
tests compare the library against them."""

import json
import math
from collections import deque

import numpy as np

from coarselab.spaces import FiniteMetricSpace, _scaled_tol


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
