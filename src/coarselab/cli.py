"""Command-line surface: generation, witness pipelines, kernel and spectral
reports, support-radius tables, and plot-ready CSV exports.

Every numeric report records the tolerance in effect and, for randomized
operations, the seed; given identical inputs and seed the JSON outputs are
byte-identical.  Exit status is nonzero whenever a requested invariant check
fails.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click
import numpy as np

from . import serialize as io
from . import spaces as SP
from . import witnesses as W
from . import kernels as K
from . import spectral as SG
from . import groups as G
from . import amenability as A


GROUPS = click.Choice(list(G.NAMED_GROUPS))


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _write(*outputs):
    """Write every output of a command, all or nothing.  Each output is a
    (path, value) pair, with path None when it was not asked for, and value
    a library object, written as its document, or the text of a CSV file.
    A value the writer refuses, or a path that cannot be written, is an
    error line, and then none of the outputs is written."""
    files = {}
    for path, value in outputs:
        if path is None:
            continue
        try:
            files[path] = value.encode() if isinstance(value, str) else io.dumps(io.write(value)) + b"\n"
        except (ValueError, TypeError) as exc:
            _fail(f"cannot write {path}: {exc}")
    try:
        io.dump_files(files)
    except OSError as exc:
        _fail(f"cannot write {exc.filename}: {exc.strerror or exc}")


def _load(path, kind=None):
    """The library object of the document at ``path`` (of ``kind`` when
    given); an unreadable or malformed document is an error line."""
    try:
        return io.read(io.load(path), kind)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _named_group(kind: str, n: int) -> G.FiniteGroup:
    try:
        return G.NAMED_GROUPS[kind](n)
    except ValueError as exc:
        _fail(f"cannot build {kind}({n}): {exc}")


def _same_size(kern, sp):
    if kern.matrix.shape[0] != sp.n:
        _fail(f"the kernel has {kern.matrix.shape[0]} points but --space has {sp.n}")


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
    if n is None and kind in ("cycle", "path", "complete", "hypercube", "random-regular"):
        _fail(f"--kind {kind} needs --n")
    try:
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
            group = _named_group("zn", base**k)
            subs = [[g for g in range(group.n) if g % (base**j) == 0] for j in range(1, k + 1)]
            sp = G.build_box(G.QuotientChain(group, subs)).space
        else:  # nowak
            sp = G.hypercube_space(_named_group("zn", base), n_max)
    except ValueError as exc:
        _fail(f"cannot build {kind}: {exc}")
    if sp.n == 0:  # a 0 x 0 matrix is written as [], which no reader can size
        _fail(f"cannot build {kind}: a space needs at least one point")
    if graph_out and kind in ("box", "nowak"):
        _fail(f"--graph-out needs a graph kind, not {kind}")
    graph = _unit_graph(sp, "the space") if graph_out else None
    try:
        SP.FiniteMetricSpace(sp.points, sp.dist, blocks=sp.blocks)
    except ValueError as exc:
        _fail(f"output space failed invariant re-check: {exc}")
    kern = K.Kernel(matrix=sp.dist, normalized=True) if kernel_out else None
    _write((out, sp), (graph_out, graph), (kernel_out, kern))
    click.echo(f"wrote space ({sp.n} points, tol {tol}) to {out}")
    if graph_out:
        click.echo(f"wrote graph ({graph.n} vertices, degree {graph.degree}) to {graph_out}")
    if kernel_out:
        click.echo(f"wrote distance kernel ({sp.n} points) to {kernel_out}")


# -- group ---------------------------------------------------------------------


@main.command()
@click.argument("action", type=click.Choice(["gen"]), default="gen")
@click.option("--kind", required=True, type=GROUPS)
@click.option("--n", required=True, type=int)
@click.option("--out", required=True, type=click.Path())
def group(action, kind, n, out):
    """Generate a finite group with its word-length data."""
    g = _named_group(kind, n)
    _write((out, g))
    click.echo(f"wrote group ({g.n} elements) to {out}")


# -- witness -------------------------------------------------------------------


@main.command()
@click.argument("action", type=click.Choice(["build", "convert", "measure"]))
@click.option("--in", "inp", type=click.Path(exists=True), default=None)
@click.option("--space", "space_path", required=True, type=click.Path(exists=True))
@click.option("--kind", type=click.Choice(["ball", "tree"]), default="ball")
@click.option("--to", "target", default=None,
              type=click.Choice(W.FORMS))
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
    sp = _load(space_path, "space")
    if action == "build":
        if kind == "tree" and ray is None:
            _fail("tree witnesses need --ray (boundary vertex index)")
        if kind == "tree" and not 0 <= ray < sp.n:
            _fail(f"--ray {ray} is not a point index of the {sp.n}-point space")
        try:
            w = W.ball_witness(sp, s, r) if kind == "ball" else W.tree_witness(sp, sp.points[ray], r, eps)
        except ValueError as exc:
            _fail(str(exc))
    else:
        if inp is None:
            _fail("--in is required")
        w = _load(inp, "witness")
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
    try:
        rep = replace(W.measure_witness(w, sp, r), tol=tol)
    except ValueError as exc:
        _fail(str(exc))
    _write((report_path, rep), (out, w))
    if out:
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
    kern = _load(inp, "kernel")
    if action == "classify":
        try:  # a --tol below the reader's symmetry tolerance
            cls = K.classify_kernel(kern, tol)
        except ValueError as exc:
            _fail(str(exc))
        _write((out, cls))
        click.echo(f"positive_type={cls.positive_type} negative_type={cls.negative_type} tol={tol}")
        return
    if action == "transform":
        if op is None:
            _fail("--op is required for transform")
        try:
            if op == "schur":
                if other is None:
                    _fail("--other kernel required for schur")
                result = K.schur_product(kern, _load(other, "kernel"), tol)
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
        _write((out, result))
        click.echo(f"transform {op} done (tol {tol})")
        return
    if space_path is None:
        _fail("--space is required for bridge")
    sp = _load(space_path, "space")
    _same_size(kern, sp)
    rep = K.kernel_operator_bridge(kern, sp, tol=tol)
    _write((out, rep))
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
@click.option("--group", "group_kind", type=GROUPS, default=None)
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
        try:
            rep = SG.kazhdan_gap(_named_group(group_kind, n))
        except ValueError as exc:
            _fail(str(exc))
        rep = replace(rep, group=group_kind, n=n, tol=tol)
        _write((out, rep))
        click.echo(f"eps={rep.eps:.9g} cert={rep.cert_lower:.9g} expansion_ok={rep.expansion_ok}")
        if rep.expansion_ok is False:
            _fail("per-quotient expansion inequality failed")
        return
    if inp is None:
        _fail("--in graph document required")
    graph = _load(inp, "graph")
    if action == "report":
        rep = replace(SG.laplacian_gap(graph), tol=tol)
        _write((out, rep), (csv_path, io.spectrum_csv(rep.spectrum) if csv_path else None))
        click.echo(f"lambda={rep.lam:.9g} n={graph.n} degree={graph.degree}")
        return
    try:
        rep = replace(SG.expansion_constant(graph, mode=mode, samples=samples, seed=seed), tol=tol)
    except ValueError as exc:
        _fail(str(exc))
    _write((out, rep))
    click.echo(f"c={rep.c:.9g} mode={rep.mode} |A|={len(rep.subset)}")


# -- diam ----------------------------------------------------------------------


@main.command()
@click.option("--group", "group_kind", type=GROUPS, required=True)
@click.option("--n", required=True, type=int)
@click.option("--r", "r_values", multiple=True, type=float, default=(1.0,))
@click.option("--eps", "eps_values", multiple=True, type=float, default=(0.5,))
@click.option("--form", type=click.Choice(["folner", "witness"]), default="folner")
@click.option("--exact/--no-exact", default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def diam(group_kind, n, r_values, eps_values, form, exact, out, csv_path):
    """Minimal support radius table for a named group."""
    g = _named_group(group_kind, n)
    try:
        table = A.diam_table(g, list(r_values), list(eps_values), form=form, exact=exact)
    except (ValueError, A.LPError) as exc:
        _fail(str(exc))
    if not table.monotone():
        _fail("diam table violates monotonicity")
    table.target = f"{group_kind}({n})"
    _write((out, table), (csv_path, io.diam_csv(table) if csv_path else None))
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
    kern = _load(inp, "kernel")
    if profile_path:  # check the inputs before anything is written
        if space_path is None:
            _fail("--space needed for a compression profile")
        sp = _load(space_path, "space")
        _same_size(kern, sp)
    try:
        emb = K.embed_from_kernel(kern, mode, tol)
    except ValueError as exc:
        _fail(str(exc))
    n = emb.coords.shape[0]
    csv = io.embedding_csv(emb.coords, list(range(n))) if csv_path else None
    profile = io.profile_csv(SP.compression_profile(SP.PointMap(sp, None, emb.coords))) if profile_path else None
    _write((csv_path, csv), (profile_path, profile))
    click.echo(f"embedded {n} points into dim {emb.dimension} (clipped mass {emb.clipped_mass:.3g}, tol {tol})")


# -- report --------------------------------------------------------------------


@main.command()
@click.option("--in", "inp", required=True, type=click.Path(exists=True))
@click.option("--space", "space_path", type=click.Path(exists=True), default=None)
@click.option("--tol", type=float, default=1e-9)
def report(inp, space_path, tol):
    """Re-verify a stored artifact's invariants; exit 0 iff clean."""
    obj = _load(inp)
    kind = io.kind_of(obj)
    bad = obj.invariants(tol) if hasattr(obj, "invariants") else []
    if kind in _REMEASURE:
        bad += _REMEASURE[kind](obj, space_path, tol)
    if bad:
        _fail(f"{kind}: " + "; ".join(bad))
    click.echo(f"{kind} invariants ok")


# Re-measurements behind ``report``: each returns its problems.  --space
# supplies the space of a witness and the graph (its unit-distance pairs) of
# the spectral and expansion reports; a Kazhdan report names its group.


def _unit_graph(sp, what) -> SG.RegularGraph:
    """The graph of unit-distance pairs, which must be regular and connected."""
    try:
        return SG.RegularGraph((np.abs(sp.dist - 1.0) <= 1e-9).astype(int))
    except ValueError as exc:
        _fail(f"{what} is not a regular graph metric: {exc}")


def _remeasure_witness(w, space_path, tol) -> list:
    if space_path is None:
        _fail("--space required to check a witness")
    return W.validate_witness(w, _load(space_path, "space"), tol)


def _remeasure_spectral(rep, space_path, tol) -> list:
    if space_path is None:
        return []
    again = SG.laplacian_gap(_unit_graph(_load(space_path, "space"), "--space")).spectrum
    slack = tol * max(1.0, float(np.abs(rep.spectrum).max(initial=0.0)))
    if again.shape != rep.spectrum.shape or np.abs(again - rep.spectrum).max() > slack:
        return ["spectrum differs from the Laplacian spectrum of --space"]
    return []


def _remeasure_expansion(rep, space_path, _tol) -> list:
    if space_path is None:
        return []
    graph = _unit_graph(_load(space_path, "space"), "--space")
    try:
        again = SG.expansion_constant(graph, mode=rep.mode, samples=rep.samples, seed=rep.seed)
    except ValueError as exc:
        return [f"cannot re-measure on --space: {exc}"]
    if again.c != rep.c or again.subset != rep.subset:
        return [f"re-measured on --space: c={again.c!r} subset={again.subset}"]
    return []


def _remeasure_kazhdan(rep, _space_path, tol) -> list:
    group = _named_group(rep.group, rep.n)
    if group.n < 2:
        return [f"{rep.group}({rep.n}) has fewer than two elements"]
    bad = []
    cert, forms = rep.cert_lower, SG.kazhdan_forms(group)[0]
    if len(rep.weights) != len(forms) or rep.weights.min() < 0 or abs(rep.weights.sum() - 1.0) > tol:
        bad.append(f"weights are not a point of the simplex over the {len(forms)} distinct generator forms")
    else:
        dual = float(np.linalg.eigvalsh(np.tensordot(rep.weights, forms, 1))[0])
        if dual < cert**2 - tol:
            bad.append(f"lambda_min at the recorded weights, {dual!r}, is below certified_lower^2 = {cert**2!r}")
    if cert**2 < 2.0 * rep.lam / len(group.generators) - tol:
        bad.append("certified_lower is below the uniform-weight bound sqrt(2 lambda / |S|)")
    return bad


_REMEASURE = {
    "witness": _remeasure_witness,
    "spectral-report": _remeasure_spectral,
    "expansion-report": _remeasure_expansion,
    "kazhdan-report": _remeasure_kazhdan,
}


if __name__ == "__main__":
    main()
