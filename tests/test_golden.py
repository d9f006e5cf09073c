"""The byte format across versions: sha256 of the CLI's JSON output on a
fixed input, pinned to the bytes an earlier release of the writer produced
(scalar, one value at a time).  A change to the canonical writer, a
document layout or a computed value changes a hash here."""

import hashlib

from click.testing import CliRunner

from coarselab import serialize as io
from coarselab.cli import main
from coarselab.spaces import cycle_space
from coarselab.spectral import RegularGraph

# (output stem, input stem, target form, extra arguments)
CONVERSIONS = [
    ("af", "w", "a-family", []),
    ("lp1", "af", "lp", []),
    ("lp2", "lp1", "lp", ["--p", "2"]),
    ("tail", "lp1", "tail", []),
    ("part", "lp1", "partition", []),
    ("vec", "lp2", "vector", []),
    ("ker", "vec", "kernel", []),
]

# generated by artifacts() from the scalar writer, before arrays were written in bulk
GOLDEN = {
    "af.json": "86eeeb2cf58795bec7c1794428d7ae452796726cccb686799d639d6d4887f591",
    "af.rep.json": "71cf8143c204a874becdaf185ddb6c061e8e3bbde35befd454f5790b7b29c142",
    "c8.json": "5b79ee1a76671dba2abc65b6d7f67a533d3e9c261e0a42cee8594ea8b20555d6",
    "graph.json": "1c8593f70cef0ea93533ea90019096a7103e260277065f2e3d4f014ebb7b279a",
    "k.json": "593fac90a4db9e8c0de046b273d8aad7678a8ce1be69a65df5f2a019d8d76277",
    "ker.json": "cd1e038a54335be6cbf94c086679c5e64e8ac9c96758c9c4c5855c8c2ea8cb95",
    "ker.rep.json": "3d4cf7449a54c264dea84ef33f0bd99344be3054d2b19b4f53bb71729471ad8d",
    "kexp.json": "88bfd0bdacf2a8508c72158ffdec1ebe99a0a5c3079fa9cbc5ed500f3d8aebbb",
    "lp1.json": "12e2c8e937e53eeb0e3672bfa7d83c5dde93a904e04116e7ba3864fcb4179224",
    "lp1.rep.json": "dffc3a5bef7282e55d4a211e5e98499893d137ec4f5b1729ed3446750a5e342b",
    "lp2.json": "7d872e115990a3bdf321604144d3112ba3500ce5e6f38407adcce99b7c78d97f",
    "lp2.rep.json": "82a4fb8ccdbdff8a8bb8563dbdaa5961dcfa639f6d4dfda7cf48c012bb510a2a",
    "part.json": "93971a4ff5a0cccb9eea56a77582ba31b0c8c3b8e7ccbb76650321bfcd28ae10",
    "part.rep.json": "bec09abdf594d62729b3d5c7147ed09198c130ed45641028630476b71ccfc5e9",
    "spec.csv": "338dcc7dc0f5a6d7497d5f545c62c843102236181cdde633da458d570657c45a",
    "spec.json": "4caf7ec363eda8c2c40448b8da194ca4265952130c0e9ef94c08263296cf60f7",
    "tail.json": "41500f34e02eca7342514800c55d5aa2d1200579a2cedc2752c2723be40b95fc",
    "tail.rep.json": "87dd36cb4b8573036d76cec5847c0e505d7000f94b3ef75987cb0a531ca98c9f",
    "vec.json": "e20cd67308adf67924adaee7813093e3c7426a0c8a1d62cbfbd3e108c02bedfd",
    "vec.rep.json": "9d00baf1bad12176db344abe54148c1318cb375979d3cd09cdb509bbe73fcd0f",
    "w.json": "3a487f1e9c18af4231e36e847fbf6d4cabc5856bdddaf49a6f5c58175e5c7037",
    "w.rep.json": "dffc3a5bef7282e55d4a211e5e98499893d137ec4f5b1729ed3446750a5e342b",
}
# generated by artifacts() before the report layouts moved from the CLI into serialize
GOLDEN.update({
    "bridge.json": "118a39c22f26443ce09a4a31e09bc59558a8962dd699cd5b8cbf4490a1cd1eaa",
    "diam.json": "08d95ce874b80f612bf3109c8be07b23c974d2df9a9fc4c4994982f331709975",
    "exp.json": "bd42af418c2432f38a9d933facc5706c588f0146635dabe762a4f38c55598533",
    "exps.json": "d95df9b15ece59b59fa22a7e76b7dd99fddce5e7c2ad339280be2a032c6cd2ef",
    "kaz.json": "a20560a36e278443fb94210ca7b394c6cd8870f2abd89234a78639625d752965",
    "kclass.json": "3e645eac45a8b7738d375098e4a040518cf4c86dc56d8b678e1a7c99a719b64c",
})
# generated by artifacts() while diam_table still solved one LP per (R, eps, S)
GOLDEN.update({
    "diam_w.json": "2f169e8edba4d1fdbba97b1271b47f3b83d61564c68f6a7ee2ce40c651a8b15a",
})


def artifacts(tmp_path) -> dict:
    """Run the pinned commands in ``tmp_path``; sha256 of every file written."""
    runner = CliRunner()

    def run(*args):
        res = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert res.exit_code == 0, res.output

    P = tmp_path
    run("space", "gen", "--kind", "cycle", "--n", 8, "--out", P / "c8.json")
    run("witness", "build", "--space", P / "c8.json", "--kind", "ball", "--s", 2, "--r", 1,
        "--out", P / "w.json", "--report", P / "w.rep.json")
    for stem, src, form, extra in CONVERSIONS:
        run("witness", "convert", "--in", P / f"{src}.json", "--space", P / "c8.json", "--to", form, *extra,
            "--out", P / f"{stem}.json", "--report", P / f"{stem}.rep.json")
    # kernel and graph inputs written by the library, which every release has
    dist = cycle_space(8).dist
    io.dump(io.kernel_to_doc(dist, normalized=True), P / "k.json")
    io.dump(io.graph_to_doc(RegularGraph((dist == 1).astype(int))), P / "graph.json")
    run("kernel", "transform", "--in", P / "k.json", "--op", "exp", "--t", 1, "--out", P / "kexp.json")
    run("spectral", "report", "--in", P / "graph.json", "--out", P / "spec.json", "--csv", P / "spec.csv")
    run("kernel", "classify", "--in", P / "k.json", "--out", P / "kclass.json")
    run("kernel", "bridge", "--in", P / "kexp.json", "--space", P / "c8.json", "--out", P / "bridge.json")
    run("spectral", "expansion", "--in", P / "graph.json", "--out", P / "exp.json")
    run("spectral", "expansion", "--in", P / "graph.json", "--mode", "sampled", "--samples", 40, "--seed", 5,
        "--out", P / "exps.json")
    run("spectral", "kazhdan", "--group", "dihedral", "--n", 4, "--out", P / "kaz.json")
    run("diam", "--group", "zn", "--n", 4, "--r", 1, "--r", 2, "--eps", 0.5, "--eps", 0.25, "--out", P / "diam.json")
    run("diam", "--group", "zn", "--n", 4, "--form", "witness", "--r", 1, "--r", 2, "--eps", 1, "--eps", 0.5,
        "--eps", 0.25, "--out", P / "diam_w.json")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(P.iterdir())}


def test_cli_output_bytes_match_pinned_hashes(tmp_path):
    assert artifacts(tmp_path) == GOLDEN


# A 64-point random 3-regular graph: matrices with few distinct values, and
# pairs within R a small share of all pairs.  One conversion into each form.
CONVERSIONS_64 = CONVERSIONS[:4] + [("lpt", "tail", "lp", [])] + CONVERSIONS[4:]

# generated by artifacts_64() before floats were formatted once per distinct
# value and witnesses measured on the pairs within R only
GOLDEN_64 = {
    "af.json": "880c706d1d0d16fa46008aaa97de86058294f27d7352e8953173657bbab5266d",
    "af.rep.json": "f1b5064df3cbc76fbeb3d78f5ec9a40b0cb0ad4e08c8999b30cec15a49df2f9b",
    "ker.json": "beb3316897dc50c628348e46e036986c83ae33d2e46e0b582790c2965f5e7353",
    "ker.rep.json": "ee74c92ecdc3487f90236c634ba04bbf0588e87bbb3a1413043b3934922a6d17",
    "lp1.json": "59579d8c3928187232f7ccc0a1f4b01f00df3f81393f111108cd375b9d339a68",
    "lp1.rep.json": "5d87c651807a663d1de03d47f3f91fd11e4b8385eedfd82ac1e902f938e9eb3e",
    "lp2.json": "22018cb0ae6de2b602c7e0972a5d63c8e1c61bc1966df0024fa63538cdb16d71",
    "lp2.rep.json": "642a57ff147c7e5286f0875d1ff220c46a66fe6079cccfc1275f3f1aeb074e9c",
    "lpt.json": "14f5f70fdf843e9716e32826bb181a1c66cd42610019da6ab2bdf73838b5e713",
    "lpt.rep.json": "2223e451bded8729c6b5c518629fa698caac82e0f5c6cb4215921086fc643995",
    "measure.rep.json": "0f65345c2a5c95744cbf7920e82cf1635e872ec41b1df86d191a68847fd7818e",
    "part.json": "7b676f72662816de6ae567fc243c8d8987f4e274df5e812d18729276a23fc5ee",
    "part.rep.json": "81e4834cd4a596cef7ccd119e0b0740f49d21cd7ed18c304ec41ee59359d81c2",
    "rr.json": "0fb23c14281b4681c4f2dddf8365eae398327a58843619bdcb493638689b391a",
    "tail.json": "be0dab493ad8338045e6f846c54dbb260593509e10f3153ff850c166d1c23e2e",
    "tail.rep.json": "80464d0985bd3a5b116f5858fe24d3ec066e6f036e6723b2977486e1ee0c6989",
    "vec.json": "4de2268141937a73c0835c84d31c3edcf0ee0a2c79e10d9bdd341aeabf391300",
    "vec.rep.json": "e51f5c69d908dcb3fb17f8b24e982dd189544f2be9326759261b6d9b83ea96f8",
    "w.json": "de4abffbf0c869a4521ec66a958cb7f970073bcf9eb22476c99fb39b241ee86c",
    "w.rep.json": "5d87c651807a663d1de03d47f3f91fd11e4b8385eedfd82ac1e902f938e9eb3e",
}


def artifacts_64(tmp_path) -> dict:
    runner = CliRunner()

    def run(*args):
        res = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert res.exit_code == 0, res.output

    P = tmp_path
    run("space", "gen", "--kind", "random-regular", "--n", 64, "--seed", 3, "--out", P / "rr.json")
    run("witness", "build", "--space", P / "rr.json", "--kind", "ball", "--s", 2, "--r", 1,
        "--out", P / "w.json", "--report", P / "w.rep.json")
    for stem, src, form, extra in CONVERSIONS_64:
        run("witness", "convert", "--in", P / f"{src}.json", "--space", P / "rr.json", "--to", form, *extra,
            "--out", P / f"{stem}.json", "--report", P / f"{stem}.rep.json")
    run("witness", "measure", "--in", P / "ker.json", "--space", P / "rr.json", "--r", 2,
        "--report", P / "measure.rep.json")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(P.iterdir())}


def test_cli_output_bytes_match_pinned_hashes_at_64_points(tmp_path):
    assert artifacts_64(tmp_path) == GOLDEN_64



# generated by artifacts_groups() while quotients, box kernels and the named
# groups' tables were still built one element at a time
GOLDEN_GROUPS = {
    "box.json": "e8f9619e776a2ffd8a48e0547656c867dc7253c955b71c9f2c1b3bef74c7823d",
    "d5.json": "878f30c91848d3c47d566a02894689187697d47083d3a6805da095e135cc622d",
    "diam_d3.json": "68688f5ae06cc4aaa9a83d6994df58c4c9742e72876cfc6eb90e99d20399bab9",
    "nowak.json": "717337fb5e48259ddbc79042cb29be8d47072fee8be88d4971e62a3ae69cd1d8",
    "z2p3.json": "c5f7e8da7c47f9e39c7ea44a5d70fe558f7f39fcc136c87be846795ba0a2cc32",
}


def artifacts_groups(tmp_path) -> dict:
    """Quotient, box-space and group documents, and a non-abelian diam table."""
    runner = CliRunner()

    def run(*args):
        res = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
        assert res.exit_code == 0, res.output

    P = tmp_path
    run("space", "gen", "--kind", "box", "--base", 2, "--k", 5, "--out", P / "box.json")
    run("space", "gen", "--kind", "nowak", "--n-max", 3, "--out", P / "nowak.json")
    run("group", "gen", "--kind", "dihedral", "--n", 5, "--out", P / "d5.json")
    run("group", "gen", "--kind", "z2pow", "--n", 3, "--out", P / "z2p3.json")
    run("diam", "--group", "dihedral", "--n", 3, "--out", P / "diam_d3.json")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(P.iterdir())}


def test_group_documents_match_pinned_hashes(tmp_path):
    assert artifacts_groups(tmp_path) == GOLDEN_GROUPS
