"""Every document kind, written and read in one module, with a canonical,
byte-deterministic writer.

``write`` turns a library object of any of the twelve kinds (``_KINDS``)
into its document.  ``read`` checks ``schema`` and ``kind``, pulls every
field with its type and rebuilds the object; a missing or mistyped field, or
a check of the constructor, raises ValueError.  Report objects also have
``invariants(tol)``, the relations between their fields, which ``coarselab
report`` checks beside a re-measurement for four kinds.

All documents carry ``"schema": "coarselab/1"`` and are written by orjson
with their keys sorted.  Each float is written as the shortest text that
reads back to the same double, so identical values always produce identical
bytes.  Strings are raw UTF-8.  A NaN or an infinity (ValueError), an integer
beyond 64 bits or a dict key that is not a string (TypeError) is refused
before anything is written.  ``dump_files`` writes the files of one command,
documents and CSV exports alike, all or nothing.

Documents are parsed by orjson from their UTF-8 bytes.  The reader rejects,
with ValueError, NaN and Infinity literals, numbers that overflow to inf,
lone surrogates (``"\\ud800"``), input that is not UTF-8 and arrays and
objects nested deeper than ``_MAX_DEPTH``.  Integers beyond 64 bits (below
-2**63 or from 2**64 on) read as floats.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import re

import numpy as np
import orjson

from .spaces import FiniteMetricSpace, CompressionProfile
from .groups import FiniteGroup, NAMED_GROUPS
from .kernels import Kernel, KernelClass, OperatorReport
from .spectral import RegularGraph, SpectralReport, ExpansionReport, KazhdanReport
from .amenability import DiamTable
from . import witnesses as W

SCHEMA = "coarselab/1"
# orjson builds nested arrays and objects by recursion on the C stack, which a
# valid document nested about 10**5 deep overflows; json stopped at Python's
# recursion limit (about 1,000), so no document it read is refused here
_MAX_DEPTH = 10_000


def _finite(value) -> bool:
    """Whether every float in ``value`` is finite: orjson writes NaN and the
    infinities as null."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "O":
            return value.dtype.kind != "f" or bool(np.isfinite(value).all())
        value = value.tolist()
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return not isinstance(value, (float, np.floating)) or math.isfinite(value)


def _as_list(value):
    """An array that orjson does not take whole: a strided view, a 0-d or an
    object array."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> bytes:
    """The canonical bytes of a document."""
    if not _finite(obj):
        raise ValueError("non-finite float in canonical output")
    return orjson.dumps(obj, default=_as_list, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY)


def dump(obj, path):
    """Write one document atomically (see ``dump_files``)."""
    dump_files({path: dumps(obj) + b"\n"})


def dump_files(files: dict):
    """Write ``{path: bytes}`` all or nothing: each to a temporary file in
    its directory, and only when every one is complete, replace each path
    with its file.  A temporary file that cannot be written leaves every
    path as it was; no temporary file is left behind, and an OSError names
    the path, not its temporary file."""
    temps, path = {}, None
    try:
        for k, (path, data) in enumerate(files.items()):
            head, name = os.path.split(os.fspath(path))
            tmp = os.path.join(head, f".{name}.{os.getpid()}.{k}.tmp")
            temps[tmp] = path
            with open(tmp, "wb") as fh:
                fh.write(data)
        for tmp, path in temps.items():
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _depth(data: bytes) -> int:
    """How deep the arrays and objects of JSON text nest; escapes and strings
    are cut out first, so a bracket inside a string does not count."""
    outside = np.frombuffer(re.sub(rb'"[^"]*"', b"", re.sub(rb"\\.", b"", data, flags=re.S)), dtype=np.uint8)
    steps = np.isin(outside, list(b"[{")).astype(int) - np.isin(outside, list(b"]}"))
    return int(np.cumsum(steps).max(initial=0))


def load(path) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    # the depth is at most the number of opening brackets, which is cheap to count
    raw = np.frombuffer(data, dtype=np.uint8)
    opens = np.count_nonzero(raw == ord("[")) + np.count_nonzero(raw == ord("{"))
    if opens > _MAX_DEPTH and _depth(data) > _MAX_DEPTH:
        raise ValueError(f"arrays and objects nest deeper than {_MAX_DEPTH}")
    return orjson.loads(data)


def _point_from(p):
    if isinstance(p, list):
        return tuple(_point_from(q) for q in p)
    if isinstance(p, dict):
        raise ValueError("a point id is an object")
    return p


# -- typed fields: a missing or mistyped field raises ValueError ---------------


def _get(doc: dict, key: str, optional: bool):
    if key not in doc and not optional:
        raise ValueError(f"missing field {key!r}")
    return doc.get(key)


def _typed(doc: dict, key: str, ok, what: str, optional: bool = False):
    """``doc[key]`` if ``ok`` accepts it; None for an optional field that is
    missing or null.  Values come back as the JSON has them (1 stays an int),
    so writing the rebuilt object gives the same bytes."""
    value = _get(doc, key, optional)
    if not (ok(value) or optional and value is None):
        raise ValueError(f"{key} is not {what}")
    return value


def _number(doc, key, low=-math.inf, optional=False, integer=False):
    def ok(v):
        if isinstance(v, bool):
            return False
        return isinstance(v, int) and abs(v) < 2**63 or not integer and isinstance(v, float) and math.isfinite(v)

    value = _typed(doc, key, ok, "an integer" if integer else "a finite number", optional)
    if value is not None and value < low:
        raise ValueError(f"{key} {value!r} is below {low!r}")
    return value


def _flag(doc, key, optional=False):
    return _typed(doc, key, lambda v: isinstance(v, bool), "a boolean", optional)


def _list(doc, key, optional=False, nonempty=False):
    return _typed(doc, key, lambda v: isinstance(v, list) and (v or not nonempty),
                  "a nonempty list" if nonempty else "a list", optional)


def _choice(doc, key, choices, what):
    value = _get(doc, key, False)
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {what} {value!r}")
    return value


def _as_array(value, what: str, shape: tuple, dtype=float) -> np.ndarray:
    """``value`` as an array of ``shape`` (None: any length) of finite
    numbers, or of integers when ``dtype`` is int."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged
        a = None
    if (a is None or a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape))
            or a.size and (a.dtype.kind not in ("iu" if dtype is int else "iuf") or not np.isfinite(a).all())):
        raise ValueError(f"{what} is not a {len(shape)}-d array of {'integers' if dtype is int else 'finite numbers'}")
    return a.astype(dtype)


def _array(doc, key, shape, dtype=float, optional=False):
    value = _list(doc, key, optional)
    return None if value is None else _as_array(value, key, shape, dtype)


def _points(doc, key) -> list:
    return [_point_from(p) for p in _list(doc, key)]


_matrix, _vector = functools.partial(_array, shape=(None, None)), functools.partial(_array, shape=(None,))
_object = functools.partial(_typed, ok=lambda v: isinstance(v, dict), what="an object")
_optional_number = functools.partial(_number, optional=True)
_nonneg = functools.partial(_number, low=0.0)
_count = functools.partial(_number, low=1, integer=True)


# -- the twelve kinds: fields of an object, and the object of a document ------


def _space_fields(space: FiniteMetricSpace) -> dict:
    fields = {"points": list(space.points), "dist": space.dist}
    if space.blocks is not None:
        fields["blocks"] = list(space.blocks)
    return fields


def _read_space(doc) -> FiniteMetricSpace:
    return FiniteMetricSpace(_points(doc, "points"), _matrix(doc, "dist"),
                             blocks=_list(doc, "blocks", optional=True))


def _group_fields(group: FiniteGroup) -> dict:
    return {
        "elements": list(group.elements),
        "table": group.table,
        "generators": list(group.generators),
        "lengths": np.asarray(group.lengths, dtype=float),
    }


def _read_group(doc) -> FiniteGroup:
    group = FiniteGroup(_points(doc, "elements"), _matrix(doc, "table", dtype=int),
                        _vector(doc, "generators", dtype=int).tolist())
    stored = _vector(doc, "lengths", optional=True)
    if stored is not None and not (stored.shape == group.lengths.shape and np.allclose(stored, group.lengths)):
        raise ValueError("stored lengths disagree with the word lengths of the generators")
    return group


def _finite_or_none(v):
    if v is None:
        return None
    f = float(v)
    return f if math.isfinite(f) else None


def _families(doc, key, shape) -> tuple:
    """A list of integer lists (``shape`` per member) as a tuple of frozensets."""
    return tuple(frozenset(map(_point_from, _as_array(a, key, shape, int).tolist())) for a in _list(doc, key))


def _basepoints(doc, key):
    bases = _vector(doc, key, dtype=int, optional=True)
    return None if bases is None else tuple(bases.tolist())


# form -> (class, params, data): each maps a document key, also the
# witness's attribute, to its reader(doc, key); every form has R, eps and S
_WITNESS = {
    "a-family": (W.AFamily, {}, {"sets": functools.partial(_families, shape=(None, 2))}),
    "lp": (W.LpWitness, {"p": _number}, {"table": _matrix}),
    "tail": (W.TailWitness, {"p": _number, "delta": _number},
             {"table": _matrix, "S_tail": _number, "delta_requested": _optional_number}),
    "partition": (W.PartitionWitness, {},
                  {"cover": functools.partial(_families, shape=(None,)), "functions": _matrix,
                   "basepoints": _basepoints}),
    "vector": (W.VectorWitness, {}, {"coords": _matrix}),
    "kernel": (W.KernelWitness, {}, {"matrix": _matrix, "normalized": _flag}),
}


def _witness_fields(w) -> dict:
    _cls, params, data = _WITNESS[w.form]
    # frozensets have no order: sorted, they give the same bytes every time
    data = {k: [sorted(a) for a in getattr(w, k)] if k in ("sets", "cover") else getattr(w, k) for k in data}
    params = {**{k: _finite_or_none(getattr(w, k)) for k in ("R", "eps", "S")}, **{k: getattr(w, k) for k in params}}
    return {"form": w.form, "params": params, "points": list(w.point_ids), "data": data}


def _read_witness(doc):
    cls, params, data = _WITNESS[_choice(doc, "form", W.FORMS, "witness form")]
    fields = {"point_ids": tuple(_points(doc, "points"))}
    for key, readers in (("params", {"R": _optional_number, "eps": _optional_number, "S": _optional_number, **params}),
                         ("data", data)):
        part = _object(doc, key)
        fields.update((k, read(part, k)) for k, read in readers.items())
    return cls(**fields)


def _kernel_fields(kernel: Kernel) -> dict:
    fields = {"matrix": kernel.matrix}
    if kernel.propagation is not None:
        fields["propagation"] = kernel.propagation
    if kernel.normalized is not None:
        fields["normalized"] = bool(kernel.normalized)
    return fields


def _read_kernel(doc) -> Kernel:
    return Kernel(matrix=_matrix(doc, "matrix"), normalized=_flag(doc, "normalized", optional=True),
                  propagation=_optional_number(doc, "propagation"))


def _subset(doc, key) -> list:
    subset = _get(doc, key, False)
    if not (isinstance(subset, list) and subset
            and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in subset)
            and len(set(subset)) == len(subset)):
        raise ValueError(f"{key} is not a nonempty list of distinct vertex indices")
    return subset


# a report's attribute where its name differs from the document key
_ATTR = {"tolerance": "tol", "lambda": "lam", "certified_lower": "cert_lower"}


def _attributes(cls, readers: dict) -> tuple:
    """(class, writer, reader) of a kind whose document is some of its
    attributes: ``readers`` maps each document key to a reader(doc, key)."""
    attrs = {key: _ATTR.get(key, key) for key in readers}
    return (cls, lambda obj: {key: getattr(obj, attr) for key, attr in attrs.items()},
            lambda doc: cls(**{attr: readers[key](doc, key) for key, attr in attrs.items()}))


def _diam_table_fields(table: DiamTable) -> dict:
    return {
        "target": table.target,
        "form": table.form,
        "entries": [
            {"R": r, "eps": e, "S": s, "optimal_defect": float(table.defects[(r, e, s)])}
            for (r, e), s in sorted(table.entries.items())
        ],
    }


def _read_diam_table(doc) -> DiamTable:
    table = DiamTable(target=_typed(doc, "target", lambda v: isinstance(v, str), "a string"),
                      form=_choice(doc, "form", ("folner", "witness"), "form"))
    for i, entry in enumerate(_list(doc, "entries", nonempty=True)):
        if not isinstance(entry, dict):
            raise ValueError(f"entry {i}: not an object")
        try:
            r, eps, s, defect = (_number(entry, key, 0.0) for key in ("R", "eps", "S", "optimal_defect"))
        except ValueError as exc:
            raise ValueError(f"entry {i}: {exc}") from None
        if (r, eps) in table.entries:
            raise ValueError(f"entry {i}: repeats the cell R={r!r} eps={eps!r}")
        table.entries[(r, eps)] = s
        table.defects[(r, eps, s)] = defect
    return table


# kind -> (library type, its fields, the object of a document); ``write``
# takes the first type that matches, ``read`` the kind the document names
_KINDS = {
    "space": (FiniteMetricSpace, _space_fields, _read_space),
    "group": (FiniteGroup, _group_fields, _read_group),
    "graph": _attributes(RegularGraph, {"adjacency": functools.partial(_matrix, dtype=int),
                                        "degree": functools.partial(_number, low=0, optional=True, integer=True)}),
    "witness": (W.WitnessBase, _witness_fields, _read_witness),
    "kernel": (Kernel, _kernel_fields, _read_kernel),
    "witness-report": _attributes(W.WitnessReport, {
        "form": functools.partial(_choice, choices=W.FORMS, what="witness form"), "R_target": _nonneg,
        "eps_measured": _nonneg, "S_measured": _nonneg, "norm_deviation": _nonneg, "tolerance": _nonneg,
        "notes": _object}),
    "kernel-class": _attributes(KernelClass, {
        "positive_type": _flag, "negative_type": _flag, "min_eigenvalue": _number, "max_meanzero_value": _number,
        "tolerance": _nonneg}),
    "operator-report": _attributes(OperatorReport, {
        "operator_norm": _nonneg, "ball_bound": _count, "norm_within_bound": _flag, "psd_agreement": _flag,
        "propagation": _nonneg, "tolerance": _nonneg}),
    "spectral-report": _attributes(SpectralReport, {"lambda": _number, "spectrum": _vector, "tolerance": _nonneg}),
    "expansion-report": _attributes(ExpansionReport, {
        "c": _nonneg, "subset": _subset, "mode": functools.partial(_choice, choices=("exact", "sampled"), what="mode"),
        "samples": functools.partial(_number, optional=True, integer=True),
        "seed": functools.partial(_number, integer=True), "tolerance": _nonneg}),
    "kazhdan-report": _attributes(KazhdanReport, {
        "group": functools.partial(_choice, choices=NAMED_GROUPS, what="group"), "n": _count, "eps": _nonneg,
        "certified_lower": _nonneg, "weights": _vector, "exact": _flag,
        "expansion_ok": functools.partial(_flag, optional=True), "lambda": _nonneg, "tolerance": _nonneg}),
    "diam-table": (DiamTable, _diam_table_fields, _read_diam_table),
}


def kind_of(obj) -> str:
    """The document kind of a library object."""
    for kind, (cls, _fields, _read) in _KINDS.items():
        if isinstance(obj, cls):
            return kind
    raise TypeError(f"no document kind for {type(obj).__name__}")


def write(obj) -> dict:
    """The document of a library object of any of the twelve kinds."""
    kind = kind_of(obj)
    return {"schema": SCHEMA, "kind": kind, **_KINDS[kind][1](obj)}


def read(doc, kind: str | None = None):
    """The library object of a parsed document, of ``kind`` when given:
    checks ``schema`` and ``kind``, pulls every field with its type and
    rebuilds the object, whose constructor checks what it always checks.
    Any problem raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a document is a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"bad or missing schema field (expected {SCHEMA})")
    found = doc.get("kind")
    if not (isinstance(found, str) and found in _KINDS):
        raise ValueError(f"unknown document kind {found!r}")
    if kind is not None and found != kind:
        raise ValueError(f"document kind {found!r} is not {kind!r}")
    try:
        return _KINDS[found][2](doc)
    except ValueError as exc:
        raise ValueError(f"{found}: {exc}") from None


# the per-kind names that callers use
group_to_doc = graph_to_doc = witness_to_doc = write
space_from_doc, group_from_doc, graph_from_doc, witness_from_doc, kernel_from_doc = (
    functools.partial(read, kind=kind) for kind in ("space", "group", "graph", "witness", "kernel"))


def kernel_to_doc(kernel, propagation=None, normalized=None) -> dict:
    """``write`` of a Kernel or a bare matrix; flags given here override its own."""
    k = kernel if isinstance(kernel, Kernel) else Kernel(matrix=kernel)
    return write(Kernel(matrix=k.matrix, normalized=k.normalized if normalized is None else normalized,
                        propagation=k.propagation if propagation is None else propagation))


# -- CSV exports: the text of each file ---------------------------------------


def profile_csv(profile: CompressionProfile) -> str:
    env1 = profile.rho1_envelope()
    env2 = profile.rho2_envelope()
    lines = ["r_lo,r_hi,rho1,rho2,rho1_envelope,rho2_envelope\n"]
    for (lo, hi), r1, r2, e1, e2 in zip(profile.bins, profile.rho1, profile.rho2, env1, env2):
        lines.append(f"{lo:.17g},{hi:.17g},{r1:.17g},{r2:.17g},{e1:.17g},{e2:.17g}\n")
    return "".join(lines)


def diam_csv(table: DiamTable) -> str:
    lines = ["target,form,R,eps,S,optimal_defect\n"]
    for (r, eps), s in sorted(table.entries.items()):
        defect = table.defects.get((r, eps, s))
        lines.append(f"{table.target},{table.form},{r:.17g},{eps:.17g},{s:.17g},{float(defect):.17g}\n")
    return "".join(lines)


def embedding_csv(coords, point_ids) -> str:
    coords = np.asarray(coords, dtype=float)
    lines = ["point," + ",".join(f"x{i}" for i in range(coords.shape[1])) + "\n"]
    for pid, row in zip(point_ids, coords):
        point = json.dumps(pid, default=operator.index).replace(",", ";")  # numpy integers as ints
        lines.append(point + "," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


def spectrum_csv(spectrum) -> str:
    lines = ["index,eigenvalue\n"]
    for i, v in enumerate(np.asarray(spectrum, dtype=float)):
        lines.append(f"{i},{v:.17g}\n")
    return "".join(lines)
