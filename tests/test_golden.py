"""The byte format across versions: sha256 of the CLI's JSON output on a
fixed input.  A change to the writer, a document layout or a computed value
changes a hash here."""

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

# generated by artifacts() when the writer became orjson: each float is now
# the shortest text that reads back to the same double (it was 17 significant
# digits), so most hashes moved while every parsed value stayed the same, bit
# for bit; documents of integers and integral floats kept their bytes
GOLDEN = {
    "af.json": "86eeeb2cf58795bec7c1794428d7ae452796726cccb686799d639d6d4887f591",
    "af.rep.json": "ab1ffd1c49a75d0529be65e1a97c1b173ffaeee6157fc1e88849c8f6ed747b3b",
    "bridge.json": "7ea3a26d158ab3d126e882e4a433ffa87862925ab00c941f691a397cee83a3a2",
    "c8.json": "5b79ee1a76671dba2abc65b6d7f67a533d3e9c261e0a42cee8594ea8b20555d6",
    "diam.json": "08d95ce874b80f612bf3109c8be07b23c974d2df9a9fc4c4994982f331709975",
    "diam_w.json": "385469b6cdbf436d678cb9003a4f354ace9107e41935174b5b12c8bc3a497258",
    "exp.json": "44756e65bb03ba1e33352cdc39cc96b6248376abdcc35ee83bdafa3e717df8f7",
    # regenerated when sampled subsets came to be drawn in bulk (a size, then a
    # uniform permutation's ranks below it): seed 5 now draws other subsets,
    # and its best of 40 is c = 16/15 on [2..6], not c = 1 on [2..5]
    "exps.json": "47de991ec7bd71ae326f15c63a370b6da7d9caa2c6ac3bb27e6f40a2b2001bcf",
    "graph.json": "1c8593f70cef0ea93533ea90019096a7103e260277065f2e3d4f014ebb7b279a",
    "k.json": "593fac90a4db9e8c0de046b273d8aad7678a8ce1be69a65df5f2a019d8d76277",
    "kaz.json": "c86448f05b5306790396d7e17c608a89a0b88be331996b646fc0866debb9877e",
    "kclass.json": "fab88e04a4a0d8dbca88aff8a275c45ee72e9ed2cc133d3c3ad2439d6c1c8032",
    "ker.json": "900c00b00294ecb965a339b865f4eb34da40ce39696eca7ba23ae191a93db62d",
    "ker.rep.json": "9d81f47246d0a69a41b988e1b68db52d1db36d945e7d3a293c65782e73bcfe6b",
    "kexp.json": "c28224ad2aadf7692e100c2cf8476ba2a2965ee202135dc379cabea2060fd358",
    "lp1.json": "52d032b72d074af9dd11f2cfa8885c552a95e769308c7444bb6325ee2c65480c",
    "lp1.rep.json": "2a41ec8ed14d8cfe0b4f9edb7f46c17bc7021a7c360df9155efba16c8ff138c5",
    "lp2.json": "65e5f16c5fd546d1509a84d64cb089d56d9df1ca229a56fb9f081c94e51a6546",
    "lp2.rep.json": "5bba9bab84e7a810315aeb113bf2ffcc7669b45d07febf9699a094e99384120d",
    "part.json": "bb2f11b1255bee3607bf071261192d81501f95b0eab1aab2130b8543e35203fd",
    "part.rep.json": "91d0f70dac0716120d2977b26ba1f67eb25da3294e8193ac11b0b0e40a341d28",
    "spec.csv": "338dcc7dc0f5a6d7497d5f545c62c843102236181cdde633da458d570657c45a",
    "spec.json": "bb4aebcdabe6d00629595284e72e27cf108324dd6bdb18b41bff2d694718ef20",
    "tail.json": "1f1f707e33615f609aacccae7b7c7834e5cd2602aa886aee0d9be4548971ee07",
    "tail.rep.json": "c7c5d59b607b7f4f952aeca5d8b4f308236d82511eaa2c7e18e116227ed48a88",
    "vec.json": "35d8f8679ee710d724547c6102b5b77f786b81f3c1ec6f82ce53e2d196c53be0",
    "vec.rep.json": "fd90f41640acdddf3456b729bb892a9cc1473c4a2b805b9173bd8e50990948c9",
    "w.json": "3c4940500f1f6baf93f9fb3137d98f9136e0591db7e32778af27fd130b1f34b6",
    "w.rep.json": "2a41ec8ed14d8cfe0b4f9edb7f46c17bc7021a7c360df9155efba16c8ff138c5",
}

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

# generated by artifacts_64() with the orjson writer, as GOLDEN above
GOLDEN_64 = {
    "af.json": "880c706d1d0d16fa46008aaa97de86058294f27d7352e8953173657bbab5266d",
    "af.rep.json": "5cb4cdebe1f14b0a6b9115251ec1760d4c930ea1710a9a490b1256586b94741c",
    "ker.json": "3bdc96c0b094a10356d767380bda947bb943a205693716135224ff1d44d47d06",
    "ker.rep.json": "4a46885d18f81ac9727c27ca19517d016a4f0ffcfc04d12d96bb33d2dd763cb1",
    "lp1.json": "e840c117cea0f822dcb3b1bbd12f624fb3cd80dd35ca19f2f460fb20d5615b6c",
    "lp1.rep.json": "5be3d4587d84812a92d3986a7c32645e32ccee2b41b6b1051b770b6a976cbd0b",
    "lp2.json": "e5d0580c2ef4f85b49e617b30e0790e37b6063a2d7cbe724f6871cedb2a09084",
    "lp2.rep.json": "2e02e3b5c6b3d2732b5c092e141f9f9438126e4f59b40cd3e83cbcef23e3f5c7",
    "lpt.json": "ebc0f4cb4e89c98fb1bdac74b08fb6b02a2759d1d7cee680f779afc51604f87d",
    "lpt.rep.json": "a49db32ffeb6a9a8336b10d18da8178e9581b967c9fd6c8c9d4811bddc4f16db",
    "measure.rep.json": "a8ac34f1907a4db1aab944b97ae690a6aeea2eb8403d36620fe8c85d793ead33",
    "part.json": "c744e6552e29914814451483b4eef62735bb5b75789f71d0c87976507e8b7bb3",
    "part.rep.json": "5bbcfdfff9af9f9f56f60e5ed689497dd2bc1c3f1216146510a3ace07bba2b11",
    "rr.json": "0fb23c14281b4681c4f2dddf8365eae398327a58843619bdcb493638689b391a",
    "tail.json": "24d213a463542352bee33013b4b1fa1d84ff2e20d7e6276d1a0db5eed3a01f76",
    "tail.rep.json": "9b158acc299f72e6172f49542cc7bc9dd01699c1f7d318397f06eb00fdd7286b",
    "vec.json": "33cd26690fd60e2e31c09272dfdd5148e2cb3d534d4909806c6c66f180d9b9c7",
    "vec.rep.json": "f532a29d1022866c754529ef7e82d9110a474dd4f1f3a977639bfdc2cf2eee2e",
    "w.json": "e7db1ea47ec7e68af6cf6f4274b4bf9eccacb3f72eb23d7239c0ae8e5860c67a",
    "w.rep.json": "5be3d4587d84812a92d3986a7c32645e32ccee2b41b6b1051b770b6a976cbd0b",
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
