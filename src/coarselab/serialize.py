"""Versioned JSON/CSV schemas and a canonical, byte-deterministic writer.

All documents carry ``"schema": "coarselab/1"``.  Floats are emitted with 17
significant digits (round-trip exact), keys are sorted, so identical values
always produce identical bytes.  Arrays are written in bulk, row by row, with
the same bytes as their ``.tolist()``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .spaces import FiniteMetricSpace, CompressionProfile
from .groups import FiniteGroup
from .spectral import RegularGraph
from .amenability import DiamTable
from . import witnesses as W

SCHEMA = "coarselab/1"


def _canon(value):
    if isinstance(value, dict):
        items = ",".join(f"{_canon(str(k))}:{_canon(v)}" for k, v in sorted(value.items()))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.ndarray) and value.dtype.kind in "biu":
        return json.dumps(value.tolist(), separators=(",", ":"))
    if isinstance(value, (float, np.floating)) or isinstance(value, np.ndarray) and value.dtype.kind == "f":
        a = np.asarray(value, dtype=float)
        if not np.isfinite(a).all():
            raise ValueError("non-finite float in canonical output")
        return _float_text(a)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _float_text(a: np.ndarray) -> str:
    # integral values below 1e15 as ".1f" (which keeps -0.0), all others as ".17g"
    if a.ndim > 1:
        return "[" + ",".join(map(_float_text, a)) + "]"
    row = np.atleast_1d(a)
    whole = (row == np.trunc(row)) & (np.abs(row) < 1e15)
    text = ",".join(["%.1f" if w else "%.17g" for w in whole.tolist()]) % tuple(row.tolist())
    return text if a.ndim == 0 else "[" + text + "]"


def dumps(obj) -> str:
    return _canon(obj)


def dump(obj, path):
    """Write atomically: serialise first, then replace ``path`` with a
    complete temporary file from its directory, so a failure leaves no
    partial file behind."""
    text = dumps(obj) + "\n"
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _expect_schema(doc: dict, kind: str):
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"bad or missing schema field (expected {SCHEMA})")
    if doc.get("kind") != kind:
        raise ValueError(f"document kind {doc.get('kind')!r} is not {kind!r}")


def _point_id(p):
    if isinstance(p, tuple):
        return [_point_id(q) for q in p]
    if isinstance(p, (np.integer,)):
        return int(p)
    return p


def _point_from(p):
    if isinstance(p, list):
        return tuple(_point_from(q) for q in p)
    return p


# -- spaces ------------------------------------------------------------------


def space_to_doc(space: FiniteMetricSpace) -> dict:
    doc = {
        "schema": SCHEMA,
        "kind": "space",
        "points": [_point_id(p) for p in space.points],
        "dist": space.dist,
    }
    if space.blocks is not None:
        doc["blocks"] = list(space.blocks)
    return doc


def space_from_doc(doc: dict) -> FiniteMetricSpace:
    _expect_schema(doc, "space")
    return FiniteMetricSpace(
        [_point_from(p) for p in doc["points"]],
        np.asarray(doc["dist"], dtype=float),
        blocks=doc.get("blocks"),
    )


# -- groups / graphs ---------------------------------------------------------


def group_to_doc(group: FiniteGroup) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "group",
        "elements": [_point_id(e) for e in group.elements],
        "table": group.table,
        "generators": list(group.generators),
        "lengths": np.asarray(group.lengths, dtype=float),
    }


def group_from_doc(doc: dict) -> FiniteGroup:
    _expect_schema(doc, "group")
    group = FiniteGroup(
        [_point_from(e) for e in doc["elements"]],
        np.asarray(doc["table"], dtype=int),
        doc["generators"],
    )
    if "lengths" in doc:
        stored = np.asarray(doc["lengths"], dtype=float)
        if not np.allclose(stored, group.lengths):
            raise ValueError("stored lengths disagree with the word lengths of the generators")
    return group


def graph_to_doc(graph: RegularGraph) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "graph",
        "adjacency": graph.adjacency,
        "degree": graph.degree,
    }


def graph_from_doc(doc: dict) -> RegularGraph:
    _expect_schema(doc, "graph")
    return RegularGraph(np.asarray(doc["adjacency"], dtype=int), degree=doc.get("degree"))


# -- witnesses ----------------------------------------------------------------


def _finite_or_none(v):
    if v is None:
        return None
    f = float(v)
    return f if math.isfinite(f) else None


def witness_to_doc(w) -> dict:
    params = {"R": _finite_or_none(w.R), "eps": _finite_or_none(w.eps), "S": _finite_or_none(w.S)}
    if isinstance(w, W.AFamily):
        data = {"sets": [sorted([int(y), int(n)] for (y, n) in a) for a in w.sets]}
    elif isinstance(w, W.TailWitness):
        params.update({"p": w.p, "delta": w.delta})
        data = {
            "table": w.table,
            "S_tail": w.S_tail,
            "delta_requested": w.delta_requested,
        }
    elif isinstance(w, W.LpWitness):
        params["p"] = w.p
        data = {"table": w.table}
    elif isinstance(w, W.PartitionWitness):
        data = {
            "cover": [sorted(int(x) for x in u) for u in w.cover],
            "functions": w.functions,
            "basepoints": list(w.basepoints) if w.basepoints is not None else None,
        }
    elif isinstance(w, W.VectorWitness):
        data = {"coords": w.coords}
    elif isinstance(w, W.KernelWitness):
        data = {"matrix": w.matrix, "normalized": w.normalized}
    else:
        raise TypeError(f"unknown witness type {type(w).__name__}")
    return {
        "schema": SCHEMA,
        "kind": "witness",
        "form": w.form,
        "params": params,
        "points": [_point_id(p) for p in w.point_ids],
        "data": data,
    }


def witness_from_doc(doc: dict):
    _expect_schema(doc, "witness")
    form = doc["form"]
    params = doc.get("params", {})
    ids = tuple(_point_from(p) for p in doc["points"])
    common = {"point_ids": ids, "R": params.get("R"), "eps": params.get("eps"), "S": params.get("S")}
    data = doc["data"]
    if form == "a-family":
        sets = tuple(frozenset((int(y), int(n)) for y, n in a) for a in data["sets"])
        return W.AFamily(sets=sets, **common)
    if form == "lp":
        return W.LpWitness(p=float(params["p"]), table=np.asarray(data["table"], dtype=float), **common)
    if form == "tail":
        return W.TailWitness(
            p=float(params["p"]),
            table=np.asarray(data["table"], dtype=float),
            S_tail=float(data["S_tail"]),
            delta=float(params["delta"]),
            delta_requested=data.get("delta_requested"),
            **common,
        )
    if form == "partition":
        bases = data.get("basepoints")
        return W.PartitionWitness(
            cover=tuple(frozenset(u) for u in data["cover"]),
            functions=np.asarray(data["functions"], dtype=float),
            basepoints=tuple(bases) if bases is not None else None,
            **common,
        )
    if form == "vector":
        return W.VectorWitness(coords=np.asarray(data["coords"], dtype=float), **common)
    if form == "kernel":
        return W.KernelWitness(
            matrix=np.asarray(data["matrix"], dtype=float),
            normalized=bool(data.get("normalized", True)),
            **common,
        )
    raise ValueError(f"unknown witness form {form!r}")


def report_to_doc(rep: W.WitnessReport, tol: float) -> dict:
    notes = {k: v for k, v in rep.notes.items() if k != "truncated_pairs"}
    return {
        "schema": SCHEMA,
        "kind": "witness-report",
        "form": rep.form,
        "R_target": rep.R_target,
        "eps_measured": rep.eps_measured,
        "S_measured": rep.S_measured,
        "norm_deviation": rep.norm_deviation,
        "tolerance": tol,
        "notes": notes,
    }


# -- kernels -----------------------------------------------------------------


def kernel_to_doc(kernel, propagation=None, normalized=None) -> dict:
    mat = np.asarray(getattr(kernel, "matrix", kernel), dtype=float)
    doc = {"schema": SCHEMA, "kind": "kernel", "matrix": mat}
    prop = propagation if propagation is not None else getattr(kernel, "propagation", None)
    norm = normalized if normalized is not None else getattr(kernel, "normalized", None)
    if prop is not None:
        doc["propagation"] = prop
    if norm is not None:
        doc["normalized"] = bool(norm)
    return doc


def kernel_from_doc(doc: dict):
    _expect_schema(doc, "kernel")
    from .kernels import Kernel

    return Kernel(
        matrix=np.asarray(doc["matrix"], dtype=float),
        normalized=doc.get("normalized"),
        propagation=doc.get("propagation"),
    )


# -- CSV exports ---------------------------------------------------------------


def profile_to_csv(profile: CompressionProfile, path):
    env1 = profile.rho1_envelope()
    env2 = profile.rho2_envelope()
    with open(path, "w") as fh:
        fh.write("r_lo,r_hi,rho1,rho2,rho1_envelope,rho2_envelope\n")
        for (lo, hi), r1, r2, e1, e2 in zip(profile.bins, profile.rho1, profile.rho2, env1, env2):
            fh.write(f"{lo:.17g},{hi:.17g},{r1:.17g},{r2:.17g},{e1:.17g},{e2:.17g}\n")


def diam_to_csv(table: DiamTable, path):
    with open(path, "w") as fh:
        fh.write("target,form,R,eps,S,optimal_defect\n")
        for (r, eps), s in sorted(table.entries.items()):
            defect = table.defects.get((r, eps, s))
            fh.write(f"{table.target},{table.form},{r:.17g},{eps:.17g},{s:.17g},{float(defect):.17g}\n")


def embedding_to_csv(coords, point_ids, path):
    coords = np.asarray(coords, dtype=float)
    with open(path, "w") as fh:
        fh.write("point," + ",".join(f"x{i}" for i in range(coords.shape[1])) + "\n")
        for pid, row in zip(point_ids, coords):
            fh.write(json.dumps(_point_id(pid)).replace(",", ";") + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


def spectrum_to_csv(spectrum, path):
    with open(path, "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, v in enumerate(np.asarray(spectrum, dtype=float)):
            fh.write(f"{i},{v:.17g}\n")
