"""pipeline: the README's CLI pipelines run in-process, beside the same
stages called through the library on the same inputs.  The spaces,
witnesses, kernels, serialize and cli layers do the work, with writes
(build, convert, dump) and reads (load, re-validate, measure, report).

Commands run through ``coarselab.cli.main(args, standalone_mode=False)``:
a process per command would add the import (about 0.9 s) and scheduler
noise to commands that take 0.05-0.5 s.  No CLI command writes ``kernel``
or ``graph`` documents, so set-up writes them through ``serialize``.

Three operations fail on every pass because of two faults in the program:
``kernel classify --out`` and ``kernel bridge --out`` (``serialize``
rejects the ``numpy.bool_`` flags of the class and bridge reports and
leaves a 0-byte file) and ``report`` on a ``witness-report`` the CLI wrote
(``report`` has no checks for that kind).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import pdist, squareform

from coarselab import groups as G
from coarselab import kernels as K
from coarselab import serialize as S
from coarselab import spaces as SP
from coarselab import spectral as SG
from coarselab import witnesses as W
from coarselab.cli import main as cli_main

EXPECTED_FAILURES = frozenset({"cli kernel classify", "cli kernel bridge", "cli report witness-report"})

SIZES = {
    False: {"n": 300, "box_k": 7, "nowak": 7, "warp": 72, "box_order": 64},
    True: {"n": 40, "box_k": 4, "nowak": 4, "warp": 12, "box_order": 16},
}
# (output stem, input stem, target form, extra CLI arguments)
CONVERSIONS = [
    ("af", "w", "a-family", []),
    ("lp1", "af", "lp", []),
    ("lp2", "lp1", "lp", ["--p", "2"]),
    ("tail", "lp1", "tail", []),
    ("lpt", "tail", "lp", []),
    ("part", "lp1", "partition", []),
    ("vec", "lp2", "vector", []),
    ("ker", "vec", "kernel", []),
]
LIB_PARAMS = {"lp2": {"q": 2.0}, "tail": {"delta": 0.5}}
BALL_S, BALL_R = 2.0, 1.0


class CommandFailed(RuntimeError):
    pass


def setup(ctx):
    rng = ctx.rng
    sizes = SIZES[ctx.small]
    n = sizes["n"]
    tr = ctx.tracer
    # a jittered circle of circumference n: negative type, cycle-like geometry
    angle = 2 * np.pi * np.arange(n) / n
    radius = n / (2 * np.pi)
    pts = np.stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(n)], axis=1)
    pts += 0.1 * rng.standard_normal(pts.shape)
    sq = squareform(pdist(pts, "sqeuclidean"))
    kneg = K.Kernel(matrix=sq, normalized=True)
    kpos = K.Kernel(matrix=np.exp(-sq / 4.0))
    # the CLI's `space gen --kind random-regular --seed` draws the same graph
    rr_seed = int(rng.integers(2**31))
    with tr.span("spectral.random_regular_graph"):
        graph = SG.random_regular_graph(n, 3, seed=rr_seed)
    with tr.span("spaces.cycle_space"):
        cycle = SP.cycle_space(n)
    inputs = Path(ctx.workdir) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    with tr.span("serialize.dump"):
        S.dump(S.kernel_to_doc(kneg), inputs / "kneg.json")
        S.dump(S.kernel_to_doc(kpos), inputs / "kpos.json")
        S.dump(S.graph_to_doc(graph), inputs / "graph.json")
    warp_n = sizes["warp"]
    with tr.span("spaces.cycle_space"):
        warp_space = SP.cycle_space(warp_n)
    with tr.span("groups.build"):
        z3 = G.cyclic_group(3)
    perms = np.array([[(i + (warp_n // 3) * j) % warp_n for i in range(warp_n)] for j in range(3)])
    action = G.GroupAction(z3, warp_space, perms)
    return {
        "small": ctx.small,
        "sizes": sizes,
        "inputs": inputs,
        "kneg": kneg,
        "kpos": kpos,
        "graph": graph,
        "rr_seed": rr_seed,
        "cycle": cycle,
        "warp_space": warp_space,
        "action": action,
    }


def _cli(args):
    def op(tr, pass_dir, _results):
        argv = [str(a).replace("{P}", str(pass_dir)) for a in args]
        out, err = io.StringIO(), io.StringIO()
        code = 0
        tr.count("cli.commands", 1)
        with tr.span("cli.command"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli_main.main(argv, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        if code not in (0, None):
            raise CommandFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()
    return op


def _cli_ops(state):
    sizes = state["sizes"]
    inputs = state["inputs"]
    n = sizes["n"]
    P = "{P}"
    ops = [
        ("cli space gen cycle", ["space", "gen", "--kind", "cycle", "--n", n, "--out", f"{P}/cyc.json"]),
        ("cli space gen random-regular", ["space", "gen", "--kind", "random-regular", "--n", n,
                                          "--seed", state["rr_seed"], "--out", f"{P}/rr.json"]),
        ("cli space gen box", ["space", "gen", "--kind", "box", "--base", 2, "--k", sizes["box_k"],
                               "--out", f"{P}/box.json"]),
        ("cli space gen nowak", ["space", "gen", "--kind", "nowak", "--n-max", sizes["nowak"],
                                 "--out", f"{P}/nowak.json"]),
        ("cli witness build", ["witness", "build", "--space", f"{P}/rr.json", "--kind", "ball",
                               "--s", BALL_S, "--r", BALL_R, "--out", f"{P}/w.json",
                               "--report", f"{P}/w.rep.json"]),
    ]
    for stem, src, form, extra in CONVERSIONS:
        ops.append((f"cli witness convert {stem}", [
            "witness", "convert", "--in", f"{P}/{src}.json", "--space", f"{P}/rr.json", "--to", form,
            *extra, "--out", f"{P}/{stem}.json", "--report", f"{P}/{stem}.rep.json"]))
    ops += [
        ("cli witness measure", ["witness", "measure", "--in", f"{P}/ker.json", "--space", f"{P}/rr.json",
                                 "--r", 2, "--report", f"{P}/measure.rep.json"]),
        ("cli kernel classify", ["kernel", "classify", "--in", inputs / "kneg.json", "--out", f"{P}/kclass.json"]),
        ("cli kernel transform exp", ["kernel", "transform", "--in", inputs / "kneg.json", "--op", "exp",
                                      "--t", 0.5, "--out", f"{P}/kexp.json"]),
        ("cli kernel transform power", ["kernel", "transform", "--in", inputs / "kneg.json", "--op", "power",
                                        "--alpha", 0.5, "--out", f"{P}/kpow.json"]),
        ("cli kernel bridge", ["kernel", "bridge", "--in", inputs / "kpos.json", "--space", f"{P}/cyc.json",
                               "--out", f"{P}/kbridge.json"]),
        ("cli embed", ["embed", "--in", inputs / "kneg.json", "--space", f"{P}/cyc.json", "--mode", "negative",
                       "--csv", f"{P}/emb.csv", "--profile", f"{P}/prof.csv"]),
        ("cli spectral report", ["spectral", "report", "--in", inputs / "graph.json", "--csv", f"{P}/spec.csv",
                                 "--out", f"{P}/spec.json"]),
        ("cli report space", ["report", "--in", f"{P}/rr.json"]),
        ("cli report witness", ["report", "--in", f"{P}/lp1.json", "--space", f"{P}/rr.json"]),
        ("cli report kernel", ["report", "--in", f"{P}/kexp.json"]),
        ("cli report graph", ["report", "--in", inputs / "graph.json"]),
        ("cli report witness-report", ["report", "--in", f"{P}/w.rep.json"]),
    ]
    return [(name, _cli(args)) for name, args in ops]


def _lib_graph(state):
    def op(tr, _pass_dir, _results):
        adj = state["graph"].adjacency
        with tr.span("spaces.graph_metric"):
            space = SP.graph_metric(adj)
        with tr.span("spaces.validate"):
            checked = SP.FiniteMetricSpace(space.points, space.dist)
        return checked
    return op


def _lib_witnesses(state):
    def op(tr, pass_dir, results):
        space = results["lib graph metric"]
        with tr.span("witnesses.build"):
            ws = {"w": W.ball_witness(space, BALL_S, BALL_R)}
        for stem, src, form, _extra in CONVERSIONS:
            with tr.span("witnesses.convert"):
                ws[stem] = W.convert_witness(ws[src], form, space, **LIB_PARAMS.get(stem, {}))
        reports, problems, reloaded = {}, {}, {}
        for stem, w in ws.items():
            with tr.span("witnesses.validate"):
                problems[stem] = W.validate_witness(w, space)
            with tr.span("witnesses.measure"):
                reports[stem] = W.measure_witness(w, space, BALL_R)
            path = Path(pass_dir) / f"lib-{stem}.json"
            with tr.span("serialize.dump"):
                S.dump(S.witness_to_doc(w), path)
            tr.count("serialize.bytes_written", path.stat().st_size)
            with tr.span("serialize.load"):
                reloaded[stem] = S.witness_from_doc(S.load(path))
        return ws, reports, problems, reloaded
    return op


def _lib_kernels(state):
    def op(tr, pass_dir, _results):
        kneg = state["kneg"]
        with tr.span("kernels.classify"):
            cls = K.classify_kernel(kneg)
        with tr.span("kernels.transform"):
            kexp = K.exp_transform(kneg, 0.5)
            kpow = K.power_transform(kneg, 0.5)
        with tr.span("kernels.embed"):
            emb = K.embed_from_kernel(kneg, "negative")
        space = state["cycle"]
        with tr.span("spaces.compression_profile"):
            prof = SP.compression_profile(SP.PointMap(space, None, emb.coords))
        path = Path(pass_dir) / "lib-kexp.json"
        with tr.span("serialize.dump"):
            S.dump(S.kernel_to_doc(kexp), path)
        tr.count("serialize.bytes_written", path.stat().st_size)
        with tr.span("serialize.load"):
            back = S.kernel_from_doc(S.load(path))
        return cls, kexp, kpow, emb, prof, back
    return op


def _lib_spectral(state):
    def op(tr, _pass_dir, _results):
        with tr.span("serialize.load"):
            graph = S.graph_from_doc(S.load(state["inputs"] / "graph.json"))
        with tr.span("spectral.laplacian_gap"):
            return SG.laplacian_gap(graph)
    return op


def _lib_warp(state):
    def op(tr, _pass_dir, _results):
        with tr.span("groups.warp_metric"):
            return G.warp_metric(state["warp_space"], state["action"])
    return op


def _lib_box(state):
    order = state["sizes"]["box_order"]

    def op(tr, _pass_dir, _results):
        with tr.span("groups.build"):
            base = G.cyclic_group(order)
        subs = []
        step = 2
        while step <= order:
            subs.append([g for g in range(order) if g % step == 0])
            step *= 2
        with tr.span("groups.box_bridge"):
            box = G.build_box(G.QuotientChain(base, subs))
            phi = np.maximum(0.0, 1.0 - base.lengths / 3.0)
            kw = G.box_to_kernel(box, phi, R=1.0)
            first = kw.meta["isometric_from_block"]
            psis = {b: G.box_to_function(box, kw, b) for b in range(first, len(box.quotients))}
        return base, box, phi, kw, psis
    return op


def operations(state):
    return _cli_ops(state) + [
        ("lib graph metric", _lib_graph(state)),
        ("lib witnesses", _lib_witnesses(state)),
        ("lib kernels", _lib_kernels(state)),
        ("lib spectral", _lib_spectral(state)),
        ("lib warp", _lib_warp(state)),
        ("lib box bridge", _lib_box(state)),
    ]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float))
    return h.hexdigest()


def _lib_fingerprint(name, value):
    if name == "lib graph metric":
        return _digest(value.dist)
    if name == "lib witnesses":
        # the witnesses themselves are in the lib-*.json artifacts
        _ws, reports, problems, _reloaded = value
        return [(stem, repr((rep.eps_measured, rep.S_measured, rep.norm_deviation)), repr(problems[stem]))
                for stem, rep in sorted(reports.items())]
    if name == "lib kernels":
        cls, kexp, kpow, emb, prof, back = value
        return (repr((cls.positive_type, cls.negative_type, cls.min_eigenvalue, cls.max_meanzero_value)),
                repr(prof.bins), _digest(kexp.matrix, kpow.matrix, emb.coords, prof.rho1, prof.rho2, back.matrix))
    if name == "lib spectral":
        return repr(value.lam), _digest(value.spectrum)
    if name == "lib warp":
        return _digest(value.dist)
    _base, _box, phi, kw, psis = value
    return sorted(psis), _digest(phi, kw.matrix, *(psis[b] for b in sorted(psis)))


def fingerprint(results, pass_dir):
    """Digest of every artifact the pass wrote, by file name, and of every
    library stage's results."""
    out = {}
    for path in sorted(Path(pass_dir).iterdir()):
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    for name in sorted(results):
        if name.startswith("lib "):
            out[name] = _lib_fingerprint(name, results[name])
    return out


# -- checks (independent of the program) -------------------------------------


def _doc(pass_dir, name):
    return S.load(Path(pass_dir) / name)


def _graph_dist(adj):
    return shortest_path(np.asarray(adj, dtype=float), unweighted=True, directed=False)


def _profile_oracle(dist, coords):
    """Per-bin min/max of image distances by pdist, unit bins."""
    n = dist.shape[0]
    iu = np.triu_indices(n, 1)
    bins = (dist[iu] // 1.0).astype(int)
    image = pdist(coords)
    keys = np.unique(bins)
    lo = np.array([image[bins == k].min() for k in keys])
    hi = np.array([image[bins == k].max() for k in keys])
    return keys, lo, hi


def _profile_matches(bin_lo, rho1, rho2, keys, lo, hi):
    # the program takes norms pair by pair, pdist in one pass: equal up to rounding
    tol = 1e-12 * max(1.0, float(hi.max()))
    return (np.array_equal(np.asarray(bin_lo, dtype=float), keys * 1.0)
            and np.allclose(rho1, lo, rtol=0, atol=tol) and np.allclose(rho2, hi, rtol=0, atol=tol))


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _min_plus_closure(space, action):
    group = action.group
    hop = np.full((space.n, space.n), np.inf)
    for g in range(group.n):
        hop = np.minimum(hop, group.lengths[g] + space.dist[action.permutations[g], :])
    hop = np.minimum(hop, space.dist)
    np.fill_diagonal(hop, 0.0)
    for k in range(space.n):
        hop = np.minimum(hop, hop[:, k:k + 1] + hop[k:k + 1, :])
    return hop


def check(state, results, pass_dir):
    bad = []
    pass_dir = Path(pass_dir)
    kneg = state["kneg"].matrix
    scale = max(1.0, float(np.abs(kneg).max()))
    # graph metrics against scipy
    for name in ("cyc.json", "rr.json"):
        dist = np.asarray(_doc(pass_dir, name)["dist"])
        if not np.array_equal(_graph_dist(dist == 1), dist):
            bad.append(f"{name}: distances differ from shortest_path on its unit edges")
    rr = np.asarray(_doc(pass_dir, "rr.json")["dist"])
    if not np.all((rr == 1).sum(axis=1) == 3):
        bad.append("rr.json: graph is not 3-regular")
    lib_space = results["lib graph metric"]
    if not np.array_equal(_graph_dist(state["graph"].adjacency), lib_space.dist):
        bad.append("graph_metric differs from shortest_path")
    if not np.array_equal(rr, lib_space.dist):
        bad.append("rr.json and the library graph metric differ on the same seed")
    # every CLI report measures at most what its witness declares
    compared = 0
    for stem in ["w"] + [c[0] for c in CONVERSIONS]:
        rep = _doc(pass_dir, f"{stem}.rep.json")
        declared = _doc(pass_dir, f"{stem}.json")["params"]["eps"]
        if declared is not None:
            compared += 1
            if rep["eps_measured"] > declared + 1e-9:
                bad.append(f"{stem}: measured eps {rep['eps_measured']} above declared {declared}")
    if compared < len(CONVERSIONS) // 2:
        bad.append(f"only {compared} witness reports carry a declared eps")
    # library witnesses: valid, measured within declared, lossless round trip
    ws, reports, problems, reloaded = results["lib witnesses"]
    for stem, w in ws.items():
        if problems[stem]:
            bad.append(f"library {stem}: {problems[stem]}")
        if w.eps is not None and np.isfinite(w.eps) and reports[stem].eps_measured > w.eps + 1e-9:
            bad.append(f"library {stem}: measured eps above declared")
        # numeric equality: an integer exponent reads back as a float
        if json.loads(S.dumps(S.witness_to_doc(reloaded[stem]))) != json.loads(S.dumps(S.witness_to_doc(w))):
            bad.append(f"library {stem}: dump/load round trip changed the witness")
    # negative-type embeddings reproduce the kernel
    cls, kexp, _kpow, emb, prof, back = results["lib kernels"]
    if not cls.negative_type:
        bad.append("negative-type kernel misclassified")
    if np.abs(emb.squared_distances() - kneg).max() > 1e-8 * scale:
        bad.append("library embedding does not reproduce the kernel")
    _header, rows = _read_csv(pass_dir / "emb.csv")
    coords = np.array([[float(v) for v in row[1:]] for row in rows])
    sq = squareform(pdist(coords, "sqeuclidean"))
    if np.abs(sq - kneg).max() > 1e-8 * scale:
        bad.append("emb.csv does not reproduce the kernel")
    if not np.array_equal(back.matrix, kexp.matrix):
        bad.append("kernel dump/load round trip changed the matrix")
    # compression profiles against pdist
    cycle_dist = state["cycle"].dist
    keys, lo, hi = _profile_oracle(cycle_dist, emb.coords)
    if not _profile_matches([b[0] for b in prof.bins], prof.rho1, prof.rho2, keys, lo, hi):
        bad.append("library compression profile differs from pdist min/max")
    keys, lo, hi = _profile_oracle(cycle_dist, coords)
    _header, rows = _read_csv(pass_dir / "prof.csv")
    table = np.array([[float(v) for v in row[:4]] for row in rows])
    if not _profile_matches(table[:, 0], table[:, 2], table[:, 3], keys, lo, hi):
        bad.append("prof.csv differs from pdist min/max")
    # spectral report agrees with the library gap
    gap = results["lib spectral"]
    spec = _doc(pass_dir, "spec.json")
    if abs(spec["lambda"] - gap.lam) > 1e-12 or gap.lam <= 0:
        bad.append("spectral report lambda differs from laplacian_gap")
    # warped metric against a min-plus closure
    warped = results["lib warp"]
    if not np.allclose(warped.dist, _min_plus_closure(state["warp_space"], state["action"]), rtol=0, atol=1e-12):
        bad.append("warp_metric differs from the min-plus closure")
    # box bridge: per-block averages recover the bump on the isometric ball
    base, box, phi, kw, psis = results["lib box bridge"]
    ball = [g for g in range(base.n) if base.lengths[g] <= kw.meta["support_radius"]]
    for block, psi in psis.items():
        proj = box.projections[block]
        if max(abs(psi[proj[g]] - phi[g]) for g in ball) > 1e-9:
            bad.append(f"box bridge block {block}: average does not recover the bump")
    if not psis:
        bad.append("box bridge: no isometric block")
    return bad
