import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from coarselab import serialize as io
from coarselab.cli import main
from coarselab import cycle_space, ball_witness, cyclic_group, cayley_metric
from coarselab.kernels import Kernel
from coarselab.spectral import RegularGraph, random_regular_graph
from coarselab import witnesses as W
from coarselab.spaces import FiniteMetricSpace


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_space_gen_and_determinism(runner, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        res = invoke(runner, ["space", "--kind", "cycle", "--n", "8", "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema"] == "coarselab/1"
    sp = io.space_from_doc(doc)
    assert sp.n == 8 and sp.dist[0, 4] == 4


def test_witness_pipeline(runner, tmp_path):
    sp_path = tmp_path / "c8.json"
    invoke(runner, ["space", "--kind", "cycle", "--n", "8", "--out", str(sp_path)])
    w_path = tmp_path / "w.json"
    rep_path = tmp_path / "rep.json"
    res = invoke(
        runner,
        ["witness", "build", "--space", str(sp_path), "--kind", "ball", "--s", "2",
         "--r", "1", "--out", str(w_path), "--report", str(rep_path)],
    )
    assert res.exit_code == 0, res.output
    rep = json.loads(rep_path.read_text())
    assert rep["kind"] == "witness-report"
    assert rep["tolerance"] == 1e-9
    out2 = tmp_path / "w2.json"
    res = invoke(
        runner,
        ["witness", "convert", "--in", str(w_path), "--space", str(sp_path),
         "--to", "lp", "--p", "2", "--out", str(out2), "--report", str(tmp_path / "r2.json")],
    )
    assert res.exit_code == 0, res.output
    w2 = io.witness_from_doc(json.loads(out2.read_text()))
    assert w2.p == 2.0
    # report subcommand validates the stored witness
    res = invoke(runner, ["report", "--in", str(out2), "--space", str(sp_path)])
    assert res.exit_code == 0


def test_witness_roundtrip_all_forms(tmp_path):
    sp = cycle_space(6)
    w1 = ball_witness(sp, 1, 1)
    forms = [w1]
    forms.append(W.convert_witness(w1, "a-family", sp, M=12))
    forms.append(W.convert_witness(w1, "tail", sp, delta=0.5))
    forms.append(W.convert_witness(w1, "partition", sp))
    w2 = W.convert_witness(w1, "lp", sp, q=2)
    forms.append(W.convert_witness(w2, "vector", sp))
    forms.append(W.convert_witness(forms[-1], "kernel", sp))
    for w in forms:
        doc = io.witness_to_doc(w)
        back = io.witness_from_doc(json.loads(io.dumps(doc)))
        assert back.form == w.form
        assert not W.validate_witness(back, sp)


def test_schema_rejection(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "space", "points": [0], "dist": [[0]]}')
    res = invoke(runner, ["report", "--in", str(bad)])
    assert res.exit_code == 1
    assert "schema" in res.output


def test_invariant_failure_exit_code(runner, tmp_path):
    doc = {
        "schema": "coarselab/1",
        "kind": "space",
        "points": [0, 1, 2],
        "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
    }
    bad = tmp_path / "bad_space.json"
    bad.write_text(json.dumps(doc))
    res = invoke(runner, ["report", "--in", str(bad)])
    assert res.exit_code == 1
    assert "triangle" in res.output


def test_group_diam_and_kazhdan(runner, tmp_path):
    res = invoke(runner, ["diam", "--group", "z2pow", "--n", "2", "--r", "1", "--eps", "0.5"])
    assert res.exit_code == 0
    assert "S=2" in res.output
    res = invoke(runner, ["spectral", "kazhdan", "--group", "zn", "--n", "3"])
    assert res.exit_code == 0
    assert "expansion_ok=True" in res.output


def test_named_group_above_the_cap_is_an_error_line(runner, tmp_path):
    kaz, big = tmp_path / "kaz.json", tmp_path / "big.json"
    assert invoke(runner, ["spectral", "kazhdan", "--group", "z2pow", "--n", "2", "--out", str(kaz)]).exit_code == 0
    big.write_text(json.dumps({**json.loads(kaz.read_text()), "n": 40}))
    for argv in (["group", "gen", "--kind", "z2pow", "--n", "40", "--out", str(tmp_path / "g.json")],
                 ["spectral", "kazhdan", "--group", "dihedral", "--n", "513"],
                 ["diam", "--group", "zn", "--n", "1025"],
                 ["space", "gen", "--kind", "box", "--base", "2", "--k", "11", "--out", str(tmp_path / "b.json")],
                 ["report", "--in", str(big)]):
        res = invoke(runner, argv)
        assert res.exit_code == 1 and "is above the cap of 1024 elements" in res.output, (argv, res.output)
    assert not (tmp_path / "g.json").exists() and not (tmp_path / "b.json").exists()


def test_kernel_commands(runner, tmp_path):
    sq = tmp_path / "sq.json"
    io.dump(io.kernel_to_doc(np.array([[0.0, 1, 4], [1, 0, 1], [4, 1, 0]])), sq)
    res = invoke(runner, ["kernel", "classify", "--in", str(sq)])
    assert res.exit_code == 0 and "negative_type=True" in res.output
    out = tmp_path / "exp.json"
    res = invoke(runner, ["kernel", "transform", "--in", str(sq), "--op", "exp", "--t", "1", "--out", str(out)])
    assert res.exit_code == 0
    res = invoke(runner, ["kernel", "classify", "--in", str(out)])
    assert "positive_type=True" in res.output
    # embed with profile export
    sp_path = tmp_path / "p3.json"
    invoke(runner, ["space", "--kind", "path", "--n", "3", "--out", str(sp_path)])
    csv_path = tmp_path / "emb.csv"
    prof_path = tmp_path / "prof.csv"
    res = invoke(
        runner,
        ["embed", "--in", str(sq), "--space", str(sp_path), "--mode", "negative",
         "--csv", str(csv_path), "--profile", str(prof_path)],
    )
    assert res.exit_code == 0
    assert prof_path.read_text().startswith("r_lo,r_hi,rho1,rho2")


def test_spectral_commands(runner, tmp_path):
    g = random_regular_graph(8, 3, seed=2)
    gpath = tmp_path / "g.json"
    io.dump(io.graph_to_doc(g), gpath)
    res = invoke(runner, ["spectral", "report", "--in", str(gpath), "--csv", str(tmp_path / "s.csv")])
    assert res.exit_code == 0 and "lambda=" in res.output
    res = invoke(runner, ["spectral", "expansion", "--in", str(gpath)])
    assert res.exit_code == 0 and "mode=exact" in res.output


def test_group_json_roundtrip(tmp_path):
    g = cyclic_group(6)
    doc = io.group_to_doc(g)
    back = io.group_from_doc(json.loads(io.dumps(doc)))
    assert np.array_equal(back.table, g.table)
    assert np.allclose(cayley_metric(back).dist, cayley_metric(g).dist)


@pytest.mark.parametrize("obj", [FiniteMetricSpace([], np.zeros((0, 0))), Kernel(matrix=np.zeros((0, 0))),
                                 RegularGraph(np.zeros((0, 0), dtype=int))], ids=["space", "kernel", "graph"])
def test_empty_documents_round_trip(obj):
    # the writer writes an empty matrix as [], which the reader sizes as 0 x 0
    data = io.dumps(io.write(obj))
    back = io.read(json.loads(data))
    assert type(back) is type(obj) and io.dumps(io.write(back)) == data


def _kernel_inputs(runner, tmp_path):
    sp_path = tmp_path / "c6.json"
    invoke(runner, ["space", "--kind", "cycle", "--n", "6", "--out", str(sp_path)])
    dist = io.space_from_doc(io.load(sp_path)).dist
    kneg, kpos = tmp_path / "kneg.json", tmp_path / "kpos.json"
    io.dump(io.kernel_to_doc(dist**2), kneg)
    io.dump(io.kernel_to_doc(np.exp(-(dist**2) / 4.0)), kpos)
    return sp_path, kneg, kpos


def test_kernel_classify_out_writes_numpy_flags(runner, tmp_path):
    _sp, kneg, _kpos = _kernel_inputs(runner, tmp_path)
    out = tmp_path / "kclass.json"
    res = invoke(runner, ["kernel", "classify", "--in", str(kneg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["kind"] == "kernel-class" and isinstance(doc["negative_type"], bool)
    assert invoke(runner, ["report", "--in", str(out)]).exit_code == 0


def test_kernel_bridge_out_writes_numpy_flags(runner, tmp_path):
    sp, _kneg, kpos = _kernel_inputs(runner, tmp_path)
    out = tmp_path / "kbridge.json"
    res = invoke(runner, ["kernel", "bridge", "--in", str(kpos), "--space", str(sp), "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads(out.read_text())
    assert doc["kind"] == "operator-report" and doc["psd_agreement"] is True
    assert invoke(runner, ["report", "--in", str(out)]).exit_code == 0



def _eight_point_kernel(tmp_path):
    kern = tmp_path / "k8.json"
    io.dump(io.kernel_to_doc(np.exp(-(cycle_space(8).dist ** 2) / 4.0)), kern)
    return kern


def test_kernel_bridge_rejects_a_space_of_another_size(runner, tmp_path):
    sp, _kneg, _kpos = _kernel_inputs(runner, tmp_path)
    out = tmp_path / "bridge.json"
    res = invoke(runner, ["kernel", "bridge", "--in", str(_eight_point_kernel(tmp_path)), "--space", str(sp),
                          "--out", str(out)])
    assert res.exit_code == 1
    assert "error: the kernel has 8 points but --space has 6" in res.output
    assert not out.exists()


def test_embed_profile_rejects_a_space_of_another_size(runner, tmp_path):
    sp, _kneg, _kpos = _kernel_inputs(runner, tmp_path)
    kern = _eight_point_kernel(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    res = invoke(runner, ["embed", "--in", str(kern), "--space", str(sp), "--mode", "positive",
                          "--csv", str(tmp_path / "emb.csv"), "--profile", str(tmp_path / "prof.csv")])
    assert res.exit_code == 1
    assert "error: the kernel has 8 points but --space has 6" in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_diam_rejects_nonpositive_eps(runner, tmp_path):
    # no defect is below eps <= 0: an error line, not an LPError traceback
    out = tmp_path / "diam.json"
    res = invoke(runner, ["diam", "--group", "zn", "--n", "4", "--eps", "0", "--out", str(out)])
    assert res.exit_code == 1
    assert "error: eps must be positive" in res.output
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "inf", "eps must be finite"),
    ("--eps", "nan", "eps must be finite"),
    ("--r", "nan", "R must be finite and nonnegative"),
    ("--r", "-1", "R must be finite and nonnegative"),
])
def test_diam_rejects_non_finite_grids(runner, tmp_path, flag, value, message):
    # once an OverflowError traceback, a NaN ratio error, and S=0 tables
    out = tmp_path / "diam.json"
    res = invoke(runner, ["diam", "--group", "zn", "--n", "4", flag, value, "--out", str(out)])
    assert res.exit_code == 1
    assert f"error: {message}" in res.output
    assert not out.exists()


def test_diam_exact_below_the_rounding_grain(runner):
    # limit_denominator(10**6) rounds eps = 1e-7 to 0; the exact path must
    # still find the S that the float path finds.  At eps = 1e-10 the float
    # path's margin against LP noise must stay below eps.
    for eps in ("1e-7", "1e-10"):
        answers = [invoke(runner, ["diam", "--group", "zn", "--n", "4", "--eps", eps, flag])
                   for flag in ("--exact", "--no-exact")]
        for res in answers:
            assert res.exit_code == 0, res.output
        assert "S=2 (defect 0)" in answers[0].output
        assert answers[0].output == answers[1].output


def test_space_gen_writes_graph_and_kernel_documents(runner, tmp_path):
    res = invoke(runner, ["space", "gen", "--kind", "cycle", "--n", "8", "--out", str(tmp_path / "c8.json"),
                          "--graph-out", str(tmp_path / "g.json"), "--kernel-out", str(tmp_path / "k.json")])
    assert res.exit_code == 0, res.output
    dist = cycle_space(8).dist
    assert (tmp_path / "k.json").read_bytes() == io.dumps(io.kernel_to_doc(dist, normalized=True)) + b"\n"
    graph = io.graph_from_doc(io.load(tmp_path / "g.json"))
    assert graph.degree == 2 and np.array_equal(graph.metric_space().dist, dist)
    # a kind without a regular graph: an error line and no file at all
    for kind in ("path", "box"):
        res = invoke(runner, ["space", "gen", "--kind", kind, "--n", "5", "--out", str(tmp_path / f"{kind}.json"),
                              "--graph-out", str(tmp_path / f"{kind}.g.json")])
        assert res.exit_code == 1 and "error:" in res.output
        assert not (tmp_path / f"{kind}.json").exists() and not (tmp_path / f"{kind}.g.json").exists()

def test_unwritable_report_fails_cleanly_and_leaves_no_file(runner, tmp_path):
    # a zero-scale ball witness converts to a set family with eps = inf,
    # which the canonical writer refuses
    sp = tmp_path / "c8.json"
    w = tmp_path / "w.json"
    rep = tmp_path / "r.json"
    invoke(runner, ["space", "gen", "--kind", "cycle", "--n", "8", "--out", str(sp)])
    res = invoke(runner, ["witness", "build", "--space", str(sp), "--kind", "ball", "--s", "0", "--out", str(w)])
    assert res.exit_code == 0, res.output
    res = invoke(runner, ["witness", "convert", "--in", str(w), "--space", str(sp), "--to", "a-family",
                          "--m", "1", "--report", str(rep)])
    assert res.exit_code != 0
    assert "error:" in res.output
    assert not rep.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c8.json", "w.json"]


def test_report_rejects_unreadable_json(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "coarselab/1", "kind": "space"')
    res = invoke(runner, ["report", "--in", str(bad)])
    assert res.exit_code == 1 and "error: cannot read" in res.output


def _rewrite(path, **changes):
    doc = json.loads(path.read_text())
    doc.update(changes)
    out = path.with_name("tampered-" + path.name)
    out.write_text(json.dumps(doc))
    return out


def test_report_checks_every_written_kind(runner, tmp_path):
    def run(*args):
        res = invoke(runner, [str(a) for a in args])
        assert res.exit_code == 0, res.output

    sp = tmp_path / "rr.json"
    run("space", "gen", "--kind", "random-regular", "--n", 10, "--seed", 3, "--out", sp)
    graph = tmp_path / "g.json"
    io.dump(io.graph_to_doc(random_regular_graph(10, 3, seed=3)), graph)
    sp_c6, kneg, kpos = _kernel_inputs(runner, tmp_path)
    written = {
        "w.rep.json": ["witness", "build", "--space", sp, "--kind", "ball", "--s", 2, "--r", 1,
                       "--report", tmp_path / "w.rep.json"],
        "kclass.json": ["kernel", "classify", "--in", kneg, "--out", tmp_path / "kclass.json"],
        "kbridge.json": ["kernel", "bridge", "--in", kpos, "--space", sp_c6, "--out", tmp_path / "kbridge.json"],
        "spec.json": ["spectral", "report", "--in", graph, "--out", tmp_path / "spec.json"],
        "exp.json": ["spectral", "expansion", "--in", graph, "--out", tmp_path / "exp.json"],
        "exps.json": ["spectral", "expansion", "--in", graph, "--mode", "sampled", "--samples", 300,
                      "--seed", 4, "--out", tmp_path / "exps.json"],
        "kaz.json": ["spectral", "kazhdan", "--group", "dihedral", "--n", 4, "--out", tmp_path / "kaz.json"],
        "diam.json": ["diam", "--group", "zn", "--n", 4, "--r", 1, "--r", 2, "--eps", 0.5, "--eps", 0.25,
                      "--out", tmp_path / "diam.json"],
    }
    for name, args in written.items():
        run(*args)
        res = invoke(runner, ["report", "--in", str(tmp_path / name)])
        assert res.exit_code == 0, (name, res.output)
    for name in ("spec.json", "exp.json", "exps.json"):
        res = invoke(runner, ["report", "--in", str(tmp_path / name), "--space", str(sp)])
        assert res.exit_code == 0, (name, res.output)

    kaz = json.loads((tmp_path / "kaz.json").read_text())
    assert kaz["group"] == "dihedral" and kaz["n"] == 4 and "seed" not in kaz
    diam = json.loads((tmp_path / "diam.json").read_text())
    # a larger R may never need a smaller support radius
    flipped = [dict(e, S=e["S"] - 1.0 if e["R"] == 2 else e["S"]) for e in diam["entries"]]
    tampered = [
        ("w.rep.json", {"form": "sonnet"}, "unknown witness form"),
        ("kclass.json", {"min_eigenvalue": 1.0, "positive_type": False}, "positive_type"),
        ("kbridge.json", {"norm_within_bound": False}, "ball bound"),
        ("spec.json", {"lambda": 0.5}, "second-smallest"),
        ("exp.json", {"mode": "sampled"}, "sample count"),
        ("kaz.json", {"certified_lower": kaz["certified_lower"] + 1e-6}, "below certified_lower^2"),
        ("kaz.json", {"eps": kaz["eps"] + 1e-3}, "primal-dual gap"),
        ("kaz.json", {"weights": [1.0]}, "simplex"),
        ("diam.json", {"entries": flipped}, "monotone"),
    ]
    for name, changes, message in tampered:
        res = invoke(runner, ["report", "--in", str(_rewrite(tmp_path / name, **changes))])
        assert res.exit_code == 1 and message in res.output, (name, changes, res.output)
    # re-measurement against --space catches a c the graph does not have
    moved = _rewrite(tmp_path / "exp.json", c=json.loads((tmp_path / "exp.json").read_text())["c"] + 0.1)
    assert invoke(runner, ["report", "--in", str(moved)]).exit_code == 0
    res = invoke(runner, ["report", "--in", str(moved), "--space", str(sp)])
    assert res.exit_code == 1 and "re-measured" in res.output


def _without(doc, key, part=None):
    doc = json.loads(json.dumps(doc))
    del (doc[part] if part else doc)[key]
    return doc


ASYMMETRIC = {"schema": "coarselab/1", "kind": "kernel", "matrix": [[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]]}
# symmetric to the reader's 1e-9, not to --tol 1e-15
NEARLY_SYMMETRIC = {"schema": "coarselab/1", "kind": "kernel", "matrix": [[0.0, 1.0], [1.0 + 1e-12, 0.0]]}
# (written document, how to break it, commands that read it)
MALFORMED = {
    "witness without form": ("w.json", lambda d: _without(d, "form"), ["report", "convert"]),
    "witness without data": ("w.json", lambda d: _without(d, "data"), ["report", "convert"]),
    "witness data without table": ("w.json", lambda d: _without(d, "table", "data"), ["report", "convert"]),
    "graph without adjacency": ("g.json", lambda d: _without(d, "adjacency"), ["report", "spectral"]),
    "space without dist": ("c8.json", lambda d: _without(d, "dist"), ["report", "build"]),
    "asymmetric kernel": ("c8.json", lambda d: ASYMMETRIC, ["report", "classify"]),
    "kernel asymmetric at --tol": ("c8.json", lambda d: NEARLY_SYMMETRIC, ["classify at 1e-15"]),
    "top-level list": ("c8.json", lambda d: [d], ["report", "convert", "classify"]),
    "document without kind": ("c8.json", lambda d: _without(d, "kind"), ["report", "build"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_an_error_line(runner, tmp_path, case):
    sp, graph, w = tmp_path / "c8.json", tmp_path / "g.json", tmp_path / "w.json"
    invoke(runner, ["space", "gen", "--kind", "cycle", "--n", "8", "--out", str(sp), "--graph-out", str(graph)])
    invoke(runner, ["witness", "build", "--space", str(sp), "--kind", "ball", "--out", str(w)])
    source, breaks, commands = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(breaks(json.loads((tmp_path / source).read_text()))))
    argv = {
        "report": ["report", "--in", bad, "--space", sp],
        "convert": ["witness", "convert", "--in", bad, "--space", sp, "--to", "lp"],
        "spectral": ["spectral", "report", "--in", bad],
        "build": ["witness", "build", "--space", bad],
        "classify": ["kernel", "classify", "--in", bad],
        "classify at 1e-15": ["kernel", "classify", "--in", bad, "--tol", "1e-15"],
    }
    for command in commands:
        # an exception other than the exit would escape invoke() here
        res = invoke(runner, [str(a) for a in argv[command]])
        assert res.exit_code == 1 and "error: " in res.output, (command, res.output)


def test_report_accepts_a_space_at_distance_2e9(runner, tmp_path):
    # the reader's tolerance reaches 1 at distance 1e9 and once rejected
    # such a space at its own diagonal, as "points 0 and 0"
    doc = tmp_path / "far.json"
    doc.write_text('{"dist":[[0.0,2e9],[2e9,0.0]],"kind":"space","points":[0,1],"schema":"coarselab/1"}')
    res = invoke(runner, ["report", "--in", str(doc)])
    assert res.exit_code == 0 and "space invariants ok" in res.output, res.output


@pytest.mark.parametrize("ray", ["999", "-1"])
def test_tree_witness_ray_outside_the_space_is_an_error_line(runner, tmp_path, ray):
    sp, w = tmp_path / "tree.json", tmp_path / "w.json"
    invoke(runner, ["space", "gen", "--kind", "tree", "--branch", "2", "--depth", "3", "--out", str(sp)])
    res = invoke(runner, ["witness", "build", "--space", str(sp), "--kind", "tree", "--ray", ray,
                          "--r", "1", "--out", str(w), "--report", str(tmp_path / "rep.json")])
    assert res.exit_code == 1 and f"error: --ray {ray} is not a point index of the 15-point space" in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.json"]


# -- the reader's verdicts where orjson and json differ ----------------------

REPORT = {
    "R_target": 1.0, "S_measured": 2.0, "eps_measured": 0.4, "form": "lp", "kind": "witness-report",
    "norm_deviation": 0.0, "notes": {}, "schema": "coarselab/1", "tolerance": 1e-9,
}
# (document bytes, exit code, what the output names).  json read NaN in notes
# and the lone surrogate without complaint; it read 2**64 as an int, which
# _number refuses; 1e400 and the invalid byte were error lines with other
# messages; nested 2,000 deep it raised RecursionError, a traceback
READER_VERDICTS = {
    "NaN in notes": (json.dumps(dict(REPORT, notes={"x": math.nan})).encode(), 1, "unexpected character"),
    "1e400 in a float field": (json.dumps(REPORT).replace("1.0", "1e400", 1).encode(), 1,
                               "number is infinity when parsed as double"),
    "lone surrogate point id": (b'{"dist":[[0.0,1.0],[1.0,0.0]],"kind":"space","points":["\\ud800","b"],'
                                b'"schema":"coarselab/1"}', 1, "surrogate"),
    "invalid UTF-8 byte": (b'{"dist":[[0.0,1.0],[1.0,0.0]],"kind":"space","points":["\xff","b"],'
                           b'"schema":"coarselab/1"}', 1, "not valid UTF-8"),
    "nested 2,000 deep": (b"[" * 2000 + b"]" * 2000, 1, "a document is a JSON object"),
    # the one widening: json read an int, which is not a finite float64
    "2**64 as R_target": (json.dumps(dict(REPORT, R_target=2**64)).encode(), 0, "witness-report invariants ok"),
}


@pytest.mark.parametrize("case", sorted(READER_VERDICTS))
def test_reader_verdict(runner, tmp_path, case):
    data, code, message = READER_VERDICTS[case]
    doc = tmp_path / "doc.json"
    doc.write_bytes(data)
    res = invoke(runner, ["report", "--in", str(doc)])
    assert res.exit_code == code and message in res.output, res.output
    assert ("error: cannot read" in res.output) == (code == 1) and "Traceback" not in res.output


def test_a_document_nested_past_the_c_stack_is_an_error_line(tmp_path):
    # orjson alone would overflow the C stack here; a fresh process, so a
    # crash fails this test and not the suite
    doc = tmp_path / "deep.json"
    doc.write_bytes(b"[" * 400_000 + b"]" * 400_000)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, "-m", "coarselab.cli", "report", "--in", str(doc)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 1 and "error: cannot read" in res.stderr, res.stderr
    assert "nest deeper than 10000" in res.stderr and "Traceback" not in res.stderr


# -- writing: unwritable paths, bad inputs, and the writer's verdicts ---------

UNWRITABLE = {
    "spectral --out": ["spectral", "report", "--in", "g.json", "--out", "nodir/s.json"],
    "spectral --csv": ["spectral", "report", "--in", "g.json", "--csv", "nodir/s.csv"],
    "diam --csv": ["diam", "--group", "zn", "--n", "4", "--csv", "nodir/d.csv"],
    "space --kernel-out": ["space", "gen", "--kind", "cycle", "--n", "8", "--out", "c.json",
                           "--kernel-out", "nodir/k.json"],
    "embed --csv": ["embed", "--in", "k.json", "--csv", "nodir/e.csv"],
    "embed --profile": ["embed", "--in", "k.json", "--space", "c8.json", "--profile", "nodir/p.csv"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_output_path_is_an_error_line(runner, tmp_path, monkeypatch, case):
    # each was a FileNotFoundError traceback
    monkeypatch.chdir(tmp_path)
    invoke(runner, ["space", "gen", "--kind", "cycle", "--n", "8", "--out", "c8.json",
                    "--graph-out", "g.json", "--kernel-out", "k.json"])
    args = UNWRITABLE[case]
    res = invoke(runner, args)
    assert res.exit_code == 1, res.output
    assert f"error: cannot write {args[-1]}: No such file or directory" in res.output
    assert not (tmp_path / "nodir").exists()


# commands with several outputs whose last cannot be written; the others were
# left behind; with a writable path in its place, all are written
PARTIAL = {
    "space --kernel-out": (["space", "gen", "--kind", "cycle", "--n", "8", "--out", "c.json",
                            "--graph-out", "g2.json", "--kernel-out", "nodir/k.json"], ["c.json", "g2.json"]),
    "witness --out": (["witness", "build", "--space", "c8.json", "--kind", "ball", "--s", "2", "--r", "1",
                       "--report", "ok.json", "--out", "nodir/w.json"], ["ok.json"]),
    "spectral --csv": (["spectral", "report", "--in", "g.json", "--out", "s.json", "--csv", "nodir/s.csv"],
                       ["s.json"]),
    "diam --csv": (["diam", "--group", "zn", "--n", "4", "--out", "d.json", "--csv", "nodir/d.csv"], ["d.json"]),
    "embed --profile": (["embed", "--in", "k.json", "--space", "c8.json", "--csv", "e.csv",
                         "--profile", "nodir/p.csv"], ["e.csv"]),
}


@pytest.mark.parametrize("case", sorted(PARTIAL))
def test_a_command_with_several_outputs_writes_all_or_none(runner, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    invoke(runner, ["space", "gen", "--kind", "cycle", "--n", "8", "--out", "c8.json",
                    "--graph-out", "g.json", "--kernel-out", "k.json"])
    args, others = PARTIAL[case]
    res = invoke(runner, args)
    assert res.exit_code == 1 and "error: cannot write nodir/" in res.output, res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c8.json", "g.json", "k.json"]  # no temporary files either
    res = invoke(runner, [a.replace("nodir/", "") for a in args])
    assert res.exit_code == 0, res.output
    assert all((tmp_path / name).is_file() for name in others)


def test_space_gen_writes_no_0_point_space_that_report_refuses(runner, tmp_path):
    # report reads the empty dist of a 0-point space; space gen still writes none
    p0 = tmp_path / "p0.json"
    p0.write_text('{"dist":[],"kind":"space","points":[],"schema":"coarselab/1"}')
    res = invoke(runner, ["report", "--in", str(p0)])
    assert res.exit_code == 0 and "space invariants ok" in res.output, res.output
    res = invoke(runner, ["space", "gen", "--kind", "path", "--n", "0", "--out", str(tmp_path / "q.json")])
    assert res.exit_code == 1 and "error: cannot build path: a space needs at least one point" in res.output
    assert not (tmp_path / "q.json").exists()


SPACE_INPUTS = {
    "cycle without --n": (["--kind", "cycle"], "--kind cycle needs --n"),
    "cycle --n -3": (["--kind", "cycle", "--n", "-3"], "cannot build cycle"),
    "random-regular n d odd": (["--kind", "random-regular", "--n", "5", "--d", "3"], "n*d must be even"),
    "random-regular d >= n": (["--kind", "random-regular", "--n", "4", "--d", "7"], "need 0 < d < n"),
    "box --k 0": (["--kind", "box", "--k", "0"], "cannot build box"),
    "nowak --n-max 0": (["--kind", "nowak", "--n-max", "0"], "cannot build nowak"),
}


@pytest.mark.parametrize("case", sorted(SPACE_INPUTS))
def test_space_gen_input_failure_is_an_error_line(runner, tmp_path, case):
    # each was a traceback (a TypeError without --n, ValueErrors otherwise)
    args, message = SPACE_INPUTS[case]
    res = invoke(runner, ["space", "gen", *args, "--out", str(tmp_path / "s.json")])
    assert res.exit_code == 1 and "error: " in res.output and message in res.output, res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sampled_expansion_needs_a_positive_sample_count(runner, tmp_path, samples):
    # -5 printed c=inf with |A|=0 and exit 0, a report that fails its own invariants
    invoke(runner, ["space", "gen", "--kind", "cycle", "--n", "8", "--out", str(tmp_path / "c8.json"),
                    "--graph-out", str(tmp_path / "g.json")])
    res = invoke(runner, ["spectral", "expansion", "--in", str(tmp_path / "g.json"), "--mode", "sampled",
                          "--samples", samples, "--out", str(tmp_path / "e.json")])
    assert res.exit_code == 1 and "error: sampled mode needs a positive sample count" in res.output
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("action", ["build", "convert", "measure"])
@pytest.mark.parametrize("r", ["nan", "-1"])
def test_witness_r_must_be_finite_and_nonnegative(runner, tmp_path, action, r):
    # no pair is within such an R: these reported eps_measured=0 with exit 0
    sp, w = str(tmp_path / "c8.json"), str(tmp_path / "w.json")
    invoke(runner, ["space", "gen", "--kind", "cycle", "--n", "8", "--out", sp])
    invoke(runner, ["witness", "build", "--space", sp, "--kind", "ball", "--s", "2", "--r", "1", "--out", w])
    args = {"build": ["--kind", "ball", "--s", "2"], "convert": ["--in", w, "--to", "lp"], "measure": ["--in", w]}
    res = invoke(runner, ["witness", action, "--space", sp, *args[action], "--r", r,
                          "--out", str(tmp_path / "out.json"), "--report", str(tmp_path / "rep.json")])
    assert res.exit_code == 1 and "error: R must be finite and nonnegative" in res.output, res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c8.json", "w.json"]


def test_integer_beyond_64_bits_is_a_write_error(runner, tmp_path):
    # the old writer wrote this seed, and report then refused the document
    # ("seed is not an integer"); orjson refuses to write it
    invoke(runner, ["space", "gen", "--kind", "cycle", "--n", "8", "--out", str(tmp_path / "c8.json"),
                    "--graph-out", str(tmp_path / "g.json")])
    out = tmp_path / "e.json"
    res = invoke(runner, ["spectral", "expansion", "--in", str(tmp_path / "g.json"), "--mode", "sampled",
                          "--samples", "5", "--seed", str(2**70), "--out", str(out)])
    assert res.exit_code == 1 and f"error: cannot write {out}: Integer exceeds 64-bit range" in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c8.json", "g.json"]


def test_non_ascii_strings_are_written_as_raw_utf8(runner, tmp_path):
    # the old writer escaped them ("é"); the reader takes either
    path = tmp_path / "s.json"
    space = FiniteMetricSpace(["é", "日本"], np.array([[0.0, 1.0], [1.0, 0.0]]))
    io.dump(io.write(space), path)
    data = path.read_bytes()
    assert '"é","日本"'.encode() in data and b"\\u" not in data
    assert io.space_from_doc(io.load(path)).points == ["é", "日本"]
    res = invoke(runner, ["report", "--in", str(path)])
    assert res.exit_code == 0 and "space invariants ok" in res.output, res.output
