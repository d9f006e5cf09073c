"""Command-line surface: generation, witness pipelines, kernel and spectral
reports, support-radius tables, and plot-ready CSV exports.

Every numeric report records the tolerance in effect and, for randomized
operations, the seed; given identical inputs and seed the JSON outputs are
byte-identical.  Exit status is nonzero whenever a requested invariant check
fails.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np

from . import serialize as io
from . import spaces as SP
from . import witnesses as W
from . import kernels as K
from . import spectral as SG
from . import groups as G
from . import amenability as A


FORMS = ("a-family", "lp", "tail", "partition", "vector", "kernel")


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _dump(doc, path):
    try:
        io.dump(doc, path)
    except (ValueError, TypeError) as exc:
        _fail(f"cannot write {path}: {exc}")


def _load(path) -> dict:
    try:
        return io.load(path)
    except ValueError as exc:
        _fail(f"cannot read {path}: {exc}")


def _write_space(space, out, tol):
    try:
        SP.FiniteMetricSpace(space.points, space.dist, blocks=space.blocks)
    except ValueError as exc:
        _fail(f"output space failed invariant re-check: {exc}")
    _dump(io.space_to_doc(space), out)
    click.echo(f"wrote space ({space.n} points, tol {tol}) to {out}")


@click.group()
def main():
    """coarselab: desk-scale constructions and checks for coarse geometry."""


# -- space ---------------------------------------------------------------------


@main.command()
@click.argument("action", type=click.Choice(["gen"]), default="gen")
@click.option("--kind", required=True, type=click.Choice(
    ["cycle", "path", "complete", "tree", "hypercube", "random-regular", "box", "nowak"]))
@click.option("--n", type=int, default=None, help="size parameter")
@click.option("--branch", type=int, default=2)
@click.option("--depth", type=int, default=3)
@click.option("--d", type=int, default=3, help="degree for random-regular")
@click.option("--n-max", type=int, default=3, help="block count for nowak")
@click.option("--base", type=int, default=2, help="cyclic base order (box/nowak)")
@click.option("--k", type=int, default=3, help="chain length for box")
@click.option("--seed", type=int, default=0)
@click.option("--tol", type=float, default=1e-9)
@click.option("--out", required=True, type=click.Path())
@click.option("--graph-out", type=click.Path(), default=None, help="also write the graph (regular graph kinds)")
@click.option("--kernel-out", type=click.Path(), default=None, help="also write the distances as a normalized kernel")
def space(action, kind, n, branch, depth, d, n_max, base, k, seed, tol, out, graph_out, kernel_out):
    """Generate a finite metric space."""
    if kind == "cycle":
        sp = SP.cycle_space(n)
    elif kind == "path":
        sp = SP.path_space(n)
    elif kind == "complete":
        sp = SP.complete_space(n)
    elif kind == "tree":
        sp = SP.tree_space(branch, depth)
    elif kind == "hypercube":
        sp = SP.hypercube_space_graph(n)
    elif kind == "random-regular":
        sp = SG.random_regular_graph(n, d, seed=seed).metric_space()
    elif kind == "box":
        group = G.cyclic_group(base**k)
        subs = [[g for g in range(group.n) if g % (base**j) == 0] for j in range(1, k + 1)]
        sp = G.box_space(G.QuotientChain(group, subs))
    else:  # nowak
        sp = G.hypercube_space(G.cyclic_group(base), n_max)
    if graph_out and kind in ("box", "nowak"):
        _fail(f"--graph-out needs a graph kind, not {kind}")
    graph = _unit_graph(sp, "the space") if graph_out else None
    _write_space(sp, out, tol)
    if graph_out:
        _dump(io.graph_to_doc(graph), graph_out)
        click.echo(f"wrote graph ({graph.n} vertices, degree {graph.degree}) to {graph_out}")
    if kernel_out:
        _dump(io.kernel_to_doc(sp.dist, normalized=True), kernel_out)
        click.echo(f"wrote distance kernel ({sp.n} points) to {kernel_out}")


# -- group ---------------------------------------------------------------------


@main.command()
@click.argument("action", type=click.Choice(["gen"]), default="gen")
@click.option("--kind", required=True, type=click.Choice(["zn", "z2pow", "dihedral"]))
@click.option("--n", required=True, type=int)
@click.option("--out", required=True, type=click.Path())
def group(action, kind, n, out):
    """Generate a finite group with its word-length data."""
    if kind == "zn":
        g = G.cyclic_group(n)
    elif kind == "z2pow":
        g = G.z2_power_group(n)
    else:
        g = G.dihedral_group(n)
    _dump(io.group_to_doc(g), out)
    click.echo(f"wrote group ({g.n} elements) to {out}")


def _named_group(kind: str, n: int) -> G.FiniteGroup:
    if kind == "zn":
        return G.cyclic_group(n)
    if kind == "z2pow":
        return G.z2_power_group(n)
    if kind == "dihedral":
        return G.dihedral_group(n)
    raise click.BadParameter(f"unknown group kind {kind!r}")


# -- witness -------------------------------------------------------------------


@main.command()
@click.argument("action", type=click.Choice(["build", "convert", "measure"]))
@click.option("--in", "inp", type=click.Path(exists=True), default=None)
@click.option("--space", "space_path", required=True, type=click.Path(exists=True))
@click.option("--kind", type=click.Choice(["ball", "tree"]), default="ball")
@click.option("--to", "target", default=None,
              type=click.Choice(FORMS))
@click.option("--r", type=float, default=1.0)
@click.option("--eps", type=float, default=0.5)
@click.option("--s", type=float, default=1.0)
@click.option("--ray", type=int, default=None)
@click.option("--p", type=float, default=None, help="target exponent for lp conversions")
@click.option("--m", "m_quant", type=int, default=None, help="quantization constant")
@click.option("--delta", type=float, default=0.5)
@click.option("--truncate", type=float, default=0.0)
@click.option("--tol", type=float, default=1e-9)
@click.option("--out", type=click.Path(), default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def witness(action, inp, space_path, kind, target, r, eps, s, ray, p, m_quant, delta, truncate, tol, out, report_path):
    """Build, convert, or measure certificates."""
    sp = io.space_from_doc(_load(space_path))
    if action == "build":
        if kind == "ball":
            w = W.ball_witness(sp, s, r)
        else:
            if ray is None:
                _fail("tree witnesses need --ray (boundary vertex index)")
            w = W.tree_witness(sp, sp.points[ray], r, eps)
    else:
        if inp is None:
            _fail("--in is required")
        w = io.witness_from_doc(_load(inp))
        if action == "convert":
            if target is None:
                _fail("--to is required for convert")
            params = {}
            if target == "lp" and w.form == "lp":
                params["q"] = p if p is not None else 2.0
            if target == "a-family" and m_quant is not None:
                params["M"] = m_quant
            if target == "tail" and w.form == "lp":
                params["delta"] = delta
            if target == "lp" and w.form == "kernel" and truncate:
                params["truncate"] = truncate
            try:
                w = W.convert_witness(w, target, sp, **params)
            except ValueError as exc:
                _fail(str(exc))
    # re-verify before writing anything
    bad = W.validate_witness(w, sp, tol)
    if bad:
        _fail("invariant violations: " + "; ".join(bad))
    rep = W.measure_witness(w, sp, r)
    if report_path:
        _dump(io.report_to_doc(rep, tol), report_path)
    if out:
        _dump(io.witness_to_doc(w), out)
        click.echo(f"wrote {w.form} witness to {out}")
    click.echo(
        f"form={w.form} eps_measured={rep.eps_measured:.6g} S_measured={rep.S_measured:.6g} "
        f"norm_dev={rep.norm_deviation:.3g} tol={tol}"
    )


# -- kernel --------------------------------------------------------------------


@main.command()
@click.argument("action", type=click.Choice(["classify", "transform", "bridge"]))
@click.option("--in", "inp", required=True, type=click.Path(exists=True))
@click.option("--space", "space_path", type=click.Path(exists=True), default=None)
@click.option("--op", type=click.Choice(["schur", "exp", "power", "gaussian"]), default=None)
@click.option("--other", type=click.Path(exists=True), default=None)
@click.option("--t", type=float, default=1.0)
@click.option("--alpha", type=float, default=0.5)
@click.option("--tol", type=float, default=1e-9)
@click.option("--out", type=click.Path(), default=None)
def kernel(action, inp, space_path, op, other, t, alpha, tol, out):
    """Classify, transform, or operator-bridge a kernel."""
    kern = io.kernel_from_doc(_load(inp))
    if action == "classify":
        cls = K.classify_kernel(kern, tol)
        io_doc = {
            "schema": io.SCHEMA,
            "kind": "kernel-class",
            "positive_type": cls.positive_type,
            "negative_type": cls.negative_type,
            "min_eigenvalue": cls.min_eigenvalue,
            "max_meanzero_value": cls.max_meanzero_value,
            "tolerance": tol,
        }
        if out:
            _dump(io_doc, out)
        click.echo(f"positive_type={cls.positive_type} negative_type={cls.negative_type} tol={tol}")
        return
    if action == "transform":
        if op is None:
            _fail("--op is required for transform")
        try:
            if op == "schur":
                if other is None:
                    _fail("--other kernel required for schur")
                result = K.schur_product(kern, io.kernel_from_doc(_load(other)), tol)
            elif op == "exp":
                result = K.exp_transform(kern, t, tol)
            elif op == "power":
                result = K.power_transform(kern, alpha, tol)
            else:
                _fail("gaussian transform needs an embedding; use 'embed' first")
        except ValueError as exc:
            _fail(str(exc))
        # re-verify the advertised type before writing
        cls = K.classify_kernel(result, tol)
        expected_ok = cls.positive_type if op in ("schur", "exp") else cls.negative_type
        if not expected_ok:
            _fail(f"transform output failed its type re-check (op {op})")
        if out:
            _dump(io.kernel_to_doc(result), out)
        click.echo(f"transform {op} done (tol {tol})")
        return
    if space_path is None:
        _fail("--space is required for bridge")
    sp = io.space_from_doc(_load(space_path))
    rep = K.kernel_operator_bridge(kern, sp, tol=tol)
    doc = {
        "schema": io.SCHEMA,
        "kind": "operator-report",
        "operator_norm": rep.operator_norm,
        "ball_bound": rep.ball_bound,
        "norm_within_bound": rep.norm_within_bound,
        "psd_agreement": rep.psd_agreement,
        "propagation": rep.propagation,
        "tolerance": tol,
    }
    if out:
        _dump(doc, out)
    click.echo(
        f"norm={rep.operator_norm:.6g} N={rep.ball_bound} within={rep.norm_within_bound} "
        f"psd_agreement={rep.psd_agreement}"
    )
    if not (rep.norm_within_bound and rep.psd_agreement):
        _fail("operator bridge invariants failed")


# -- spectral ------------------------------------------------------------------


@main.command()
@click.argument("action", type=click.Choice(["report", "expansion", "kazhdan"]))
@click.option("--in", "inp", type=click.Path(exists=True), default=None)
@click.option("--group", "group_kind", type=click.Choice(["zn", "z2pow", "dihedral"]), default=None)
@click.option("--n", type=int, default=None)
@click.option("--mode", type=click.Choice(["exact", "sampled"]), default="exact")
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--tol", type=float, default=1e-9)
@click.option("--out", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def spectral(action, inp, group_kind, n, mode, samples, seed, tol, out, csv_path):
    """Spectral gap reports, expansion constants, Kazhdan-style gaps."""
    if action == "kazhdan":
        if group_kind is None or n is None:
            _fail("kazhdan needs --group and --n")
        g = _named_group(group_kind, n)
        rep = SG.kazhdan_gap(g)
        doc = {
            "schema": io.SCHEMA,
            "kind": "kazhdan-report",
            "group": group_kind,
            "n": n,
            "eps": rep.eps,
            "certified_lower": rep.cert_lower,
            "weights": rep.weights,
            "exact": rep.exact,
            "expansion_ok": rep.expansion_ok,
            "lambda": rep.lam,
            "tolerance": tol,
        }
        if out:
            _dump(doc, out)
        click.echo(f"eps={rep.eps:.9g} cert={rep.cert_lower:.9g} expansion_ok={rep.expansion_ok}")
        if rep.expansion_ok is False:
            _fail("per-quotient expansion inequality failed")
        return
    if inp is None:
        _fail("--in graph document required")
    graph = io.graph_from_doc(_load(inp))
    if action == "report":
        rep = SG.laplacian_gap(graph)
        doc = {
            "schema": io.SCHEMA,
            "kind": "spectral-report",
            "lambda": rep.lam,
            "spectrum": rep.spectrum,
            "tolerance": tol,
        }
        if out:
            _dump(doc, out)
        if csv_path:
            io.spectrum_to_csv(rep.spectrum, csv_path)
        click.echo(f"lambda={rep.lam:.9g} n={graph.n} degree={graph.degree}")
        return
    rep = SG.expansion_constant(graph, mode=mode, samples=samples, seed=seed)
    doc = {
        "schema": io.SCHEMA,
        "kind": "expansion-report",
        "c": rep.c,
        "subset": rep.subset,
        "mode": rep.mode,
        "samples": rep.samples,
        "seed": seed,
        "tolerance": tol,
    }
    if out:
        _dump(doc, out)
    click.echo(f"c={rep.c:.9g} mode={rep.mode} |A|={len(rep.subset)}")


# -- diam ----------------------------------------------------------------------


@main.command()
@click.option("--group", "group_kind", type=click.Choice(["zn", "z2pow", "dihedral"]), required=True)
@click.option("--n", required=True, type=int)
@click.option("--r", "r_values", multiple=True, type=float, default=(1.0,))
@click.option("--eps", "eps_values", multiple=True, type=float, default=(0.5,))
@click.option("--form", type=click.Choice(["folner", "witness"]), default="folner")
@click.option("--exact/--no-exact", default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def diam(group_kind, n, r_values, eps_values, form, exact, out, csv_path):
    """Minimal support radius table for a named group."""
    try:
        g = _named_group(group_kind, n)
        table = A.diam_table(g, list(r_values), list(eps_values), form=form, exact=exact)
    except (ValueError, A.LPError) as exc:
        _fail(str(exc))
    if not table.monotone():
        _fail("diam table violates monotonicity")
    doc = {
        "schema": io.SCHEMA,
        "kind": "diam-table",
        "target": f"{group_kind}({n})",
        "form": form,
        "entries": [
            {"R": r, "eps": e, "S": s, "optimal_defect": float(table.defects[(r, e, s)])}
            for (r, e), s in sorted(table.entries.items())
        ],
    }
    if out:
        _dump(doc, out)
    if csv_path:
        table.target = f"{group_kind}({n})"
        io.diam_to_csv(table, csv_path)
    for (r, e), s in sorted(table.entries.items()):
        click.echo(f"R={r:g} eps={e:g} -> S={s:g} (defect {float(table.defects[(r, e, s)]):.6g})")


# -- embed ---------------------------------------------------------------------


@main.command()
@click.option("--in", "inp", required=True, type=click.Path(exists=True))
@click.option("--space", "space_path", type=click.Path(exists=True), default=None)
@click.option("--mode", type=click.Choice(["positive", "negative"]), default="negative")
@click.option("--tol", type=float, default=1e-9)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--profile", "profile_path", type=click.Path(), default=None)
def embed(inp, space_path, mode, tol, csv_path, profile_path):
    """Embed a kernel and export coordinates / compression profile CSVs."""
    kern = io.kernel_from_doc(_load(inp))
    try:
        emb = K.embed_from_kernel(kern, mode, tol)
    except ValueError as exc:
        _fail(str(exc))
    n = emb.coords.shape[0]
    ids = list(range(n))
    if csv_path:
        io.embedding_to_csv(emb.coords, ids, csv_path)
    if profile_path:
        if space_path is None:
            _fail("--space needed for a compression profile")
        sp = io.space_from_doc(_load(space_path))
        prof = SP.compression_profile(SP.PointMap(sp, None, emb.coords))
        io.profile_to_csv(prof, profile_path)
    click.echo(f"embedded {n} points into dim {emb.dimension} (clipped mass {emb.clipped_mass:.3g}, tol {tol})")


# -- report --------------------------------------------------------------------


@main.command()
@click.option("--in", "inp", required=True, type=click.Path(exists=True))
@click.option("--space", "space_path", type=click.Path(exists=True), default=None)
@click.option("--tol", type=float, default=1e-9)
def report(inp, space_path, tol):
    """Re-verify a stored artifact's type invariants; exit 0 iff clean."""
    doc = _load(inp)
    kind = doc.get("kind")
    if kind == "space":
        try:
            io.space_from_doc(doc)
        except ValueError as exc:
            _fail(f"space: {exc}")
        click.echo("space invariants ok")
        return
    if kind == "group":
        try:
            io.group_from_doc(doc)
        except ValueError as exc:
            _fail(f"group: {exc}")
        click.echo("group invariants ok")
        return
    if kind == "witness":
        if space_path is None:
            _fail("--space required to check a witness")
        sp = io.space_from_doc(_load(space_path))
        w = io.witness_from_doc(doc)
        bad = W.validate_witness(w, sp, tol)
        if bad:
            _fail("witness: " + "; ".join(bad))
        click.echo("witness invariants ok")
        return
    if kind == "kernel":
        kern = io.kernel_from_doc(doc)
        cls = K.classify_kernel(kern, tol)
        click.echo(f"kernel symmetric; positive_type={cls.positive_type} negative_type={cls.negative_type}")
        return
    if kind == "graph":
        try:
            io.graph_from_doc(doc)
        except ValueError as exc:
            _fail(f"graph: {exc}")
        click.echo("graph invariants ok")
        return
    check = _REPORT_CHECKS.get(kind)
    if check is None:
        _fail(f"no invariant checks for kind {kind!r}")
    if doc.get("schema") != io.SCHEMA:
        _fail(f"{kind}: bad or missing schema field (expected {io.SCHEMA})")
    bad = check(doc, space_path, tol)
    if bad:
        _fail(f"{kind}: " + "; ".join(bad))
    click.echo(f"{kind} invariants ok")


# Checks of the report documents the CLI writes: each returns its problems.
# They read the document alone, except where --space supplies the graph
# (its unit-distance pairs) for a re-measurement, and kazhdan-report, whose
# named group is rebuilt to recompute the certificate.


def _numbers(doc, keys, low=-math.inf) -> list:
    bad = []
    for key in keys:
        v = doc.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            bad.append(f"{key} is not a finite number")
        elif v < low:
            bad.append(f"{key} {v!r} is below {low!r}")
    return bad


def _flags(doc, keys) -> list:
    return [f"{key} is not a boolean" for key in keys if not isinstance(doc.get(key), bool)]


def _unit_graph(sp, what) -> SG.RegularGraph:
    """The graph of unit-distance pairs, which must be regular and connected."""
    try:
        return SG.RegularGraph((np.abs(sp.dist - 1.0) <= 1e-9).astype(int))
    except ValueError as exc:
        _fail(f"{what} is not a regular graph metric: {exc}")


def _space_graph(space_path) -> SG.RegularGraph:
    return _unit_graph(io.space_from_doc(_load(space_path)), "--space")


def _check_witness_report(doc, _space_path, _tol) -> list:
    bad = _numbers(doc, ["R_target", "eps_measured", "S_measured", "norm_deviation", "tolerance"], low=0.0)
    if doc.get("form") not in FORMS:
        bad.append(f"unknown witness form {doc.get('form')!r}")
    if not isinstance(doc.get("notes"), dict):
        bad.append("notes is not an object")
    return bad


def _check_kernel_class(doc, _space_path, _tol) -> list:
    bad = _flags(doc, ["positive_type", "negative_type"])
    bad += _numbers(doc, ["min_eigenvalue", "max_meanzero_value"]) + _numbers(doc, ["tolerance"], low=0.0)
    if bad:
        return bad
    if doc["min_eigenvalue"] >= 0 and not doc["positive_type"]:
        bad.append("min_eigenvalue >= 0 but positive_type is false")
    if doc["max_meanzero_value"] <= 0 and not doc["negative_type"]:
        bad.append("max_meanzero_value <= 0 but negative_type is false")
    return bad


def _check_operator_report(doc, _space_path, _tol) -> list:
    bad = _flags(doc, ["norm_within_bound", "psd_agreement"])
    bad += _numbers(doc, ["operator_norm", "propagation", "tolerance"], low=0.0) + _numbers(doc, ["ball_bound"], low=1)
    if bad:
        return bad
    if not doc["norm_within_bound"]:
        bad.append("operator norm exceeds the ball bound")
    if not doc["psd_agreement"]:
        bad.append("operator positivity and kernel positive type disagree")
    return bad


def _check_spectral_report(doc, space_path, tol) -> list:
    bad = _numbers(doc, ["lambda"]) + _numbers(doc, ["tolerance"], low=0.0)
    spectrum = doc.get("spectrum")
    if not isinstance(spectrum, list) or len(spectrum) < 2:
        return bad + ["spectrum is not a list of at least two eigenvalues"]
    bad += _numbers(dict(enumerate(spectrum)), range(len(spectrum)))
    if bad:
        return bad
    spec = np.asarray(spectrum, dtype=float)
    slack = tol * max(1.0, float(np.abs(spec).max()))
    if np.any(np.diff(spec) < -slack):
        bad.append("spectrum is not ascending")
    if abs(spec[0]) > slack:
        bad.append(f"smallest eigenvalue {spec[0]!r} is not 0")
    if doc["lambda"] != spec[1]:
        bad.append("lambda is not the second-smallest eigenvalue")
    if space_path is not None:
        again = SG.laplacian_gap(_space_graph(space_path)).spectrum
        if again.shape != spec.shape or np.abs(again - spec).max() > slack:
            bad.append("spectrum differs from the Laplacian spectrum of --space")
    return bad


def _check_expansion_report(doc, space_path, _tol) -> list:
    bad = _numbers(doc, ["c", "tolerance"], low=0.0)
    subset = doc.get("subset")
    if (not isinstance(subset, list) or not subset or len(set(subset)) != len(subset)
            or not all(isinstance(v, int) and v >= 0 for v in subset)):
        bad.append("subset is not a nonempty list of distinct vertex indices")
    mode, samples = doc.get("mode"), doc.get("samples")
    if mode == "exact" and samples is not None:
        bad.append("exact mode records a sample count")
    elif mode == "sampled" and not (isinstance(samples, int) and samples >= 1):
        bad.append("sampled mode needs a positive sample count")
    elif mode not in ("exact", "sampled"):
        bad.append(f"unknown mode {mode!r}")
    if not bad and space_path is not None:
        try:
            again = SG.expansion_constant(_space_graph(space_path), mode=mode, samples=samples, seed=doc.get("seed", 0))
        except ValueError as exc:
            _fail(f"expansion-report: {exc}")
        if again.c != doc["c"] or again.subset != subset:
            bad.append(f"re-measured on --space: c={again.c!r} subset={again.subset}")
    return bad


def _check_kazhdan_report(doc, _space_path, tol) -> list:
    bad = _numbers(doc, ["eps", "certified_lower", "lambda", "tolerance"], low=0.0) + _flags(doc, ["exact"])
    weights = doc.get("weights")
    if not isinstance(weights, list) or not weights:
        bad.append("weights is not a nonempty list")
    else:
        bad += _numbers(dict(enumerate(weights)), range(len(weights)), low=0.0)
    if doc.get("expansion_ok") is False:
        bad.append("the per-quotient expansion inequality failed")
    elif doc.get("expansion_ok") is not None and doc.get("expansion_ok") is not True:
        bad.append("expansion_ok is not a boolean or null")
    kind, n = doc.get("group"), doc.get("n")
    if kind not in ("zn", "z2pow", "dihedral") or isinstance(n, bool) or not isinstance(n, int) or n < 1:
        bad.append("group and n do not name a group")
    if bad:
        return bad
    try:
        group = _named_group(kind, n)
    except ValueError as exc:
        return [f"cannot rebuild {kind}({n}): {exc}"]
    if group.n < 2:
        return [f"{kind}({n}) has fewer than two elements"]
    eps, cert = doc["eps"], doc["certified_lower"]
    forms, _counts = SG.kazhdan_forms(group)
    w = np.asarray(weights, dtype=float)
    if len(w) != len(forms) or abs(w.sum() - 1.0) > tol:
        bad.append(f"weights are not a point of the simplex over the {len(forms)} distinct generator forms")
    else:
        dual = float(np.linalg.eigvalsh(np.tensordot(w, forms, 1))[0])
        if dual < cert**2 - tol:
            bad.append(f"lambda_min at the recorded weights, {dual!r}, is below certified_lower^2 = {cert**2!r}")
    if cert**2 < 2.0 * doc["lambda"] / len(group.generators) - tol:
        bad.append("certified_lower is below the uniform-weight bound sqrt(2 lambda / |S|)")
    if eps < cert - tol:
        bad.append(f"eps {eps!r} is below certified_lower {cert!r}")
    if doc["exact"] and eps - cert > tol:
        bad.append(f"exact, but the primal-dual gap eps - certified_lower is {eps - cert!r}")
    return bad


def _check_diam_table(doc, _space_path, tol) -> list:
    bad = []
    if doc.get("form") not in ("folner", "witness"):
        bad.append(f"unknown form {doc.get('form')!r}")
    if not isinstance(doc.get("target"), str):
        bad.append("target is not a string")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        return bad + ["entries is not a nonempty list"]
    table = A.DiamTable(target=doc.get("target"), form=doc.get("form"))
    for i, entry in enumerate(entries):
        problems = _numbers(entry, ["R", "eps", "S", "optimal_defect"], low=0.0) if isinstance(entry, dict) else ["not an object"]
        if problems:
            bad += [f"entry {i}: {p}" for p in problems]
            continue
        key = (entry["R"], entry["eps"])
        if key in table.entries:
            bad.append(f"entry {i}: repeats the cell R={key[0]!r} eps={key[1]!r}")
        if not entry["optimal_defect"] < entry["eps"] + tol:
            bad.append(f"entry {i}: optimal defect {entry['optimal_defect']!r} is not below eps {entry['eps']!r}")
        table.entries[key] = entry["S"]
    if not bad and not table.monotone():
        bad.append("S is not monotone in R and eps")
    return bad


_REPORT_CHECKS = {
    "witness-report": _check_witness_report,
    "kernel-class": _check_kernel_class,
    "operator-report": _check_operator_report,
    "spectral-report": _check_spectral_report,
    "expansion-report": _check_expansion_report,
    "kazhdan-report": _check_kazhdan_report,
    "diam-table": _check_diam_table,
}


if __name__ == "__main__":
    main()
