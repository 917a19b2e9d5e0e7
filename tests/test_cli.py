import json
import re
from importlib import resources
from pathlib import Path

import pytest

from symdesign import catalog
from symdesign.cli import main
from symdesign.design import parse_design_file, verify_symmetric
from symdesign.group import group_file_text, parse_group_file

from helpers import FIXTURES, cyclic, m12_group_texts


DATA = resources.files("symdesign.data")
FANO_FILE = str(DATA / "fano.design")
M12_CATALOG = str(DATA / "m12_catalog.json")


@pytest.fixture(scope="module")
def m12_files(tmp_path_factory):
    """Key -> path of G, H, K or N3 written as a group file."""
    folder = tmp_path_factory.mktemp("m12")
    files = {}
    for key, text in m12_group_texts().items():
        path = folder / f"m12_144_{key}.grp"
        path.write_text(text)
        files[key] = str(path)
    return files


@pytest.fixture()
def f21_file(tmp_path):
    path = tmp_path / "f21.grp"
    path.write_text(group_file_text(FIXTURES["F21"][0], name="frobenius"))
    return str(path)


def test_order_verb(m12_files, capsys):
    assert main(["order", m12_files["G"]]) == 0
    assert capsys.readouterr().out.strip() == "95040"


def test_orbits_verb_whole_group(m12_files, capsys):
    assert main(["orbits", m12_files["G"]]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].startswith("1,2,3")


def test_orbits_under_subgroup(m12_files, capsys):
    assert main(["orbits", m12_files["G"], "--under", m12_files["K"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    lengths = sorted(len(line.split(",")) for line in lines)
    assert lengths == [1, 11, 11, 55, 66]


def test_orbits_under_rejects_non_subgroup(m12_files, tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree: 144\n(1,2)\n")
    assert main(["orbits", m12_files["G"], "--under", str(bad)]) == 2


def test_orbits_under_rejects_a_degree_mismatch(m12_files, tmp_path, capsys):
    small = tmp_path / "small.grp"
    small.write_text("degree: 12\n(1,2)\n")
    assert main(["orbits", m12_files["G"], "--under", str(small)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --under group: degree 12 != 144\n"


def test_subdegrees_verb(m12_files, capsys):
    assert main(["subdegrees", m12_files["G"], "--point", "1"]) == 0
    out = capsys.readouterr().out
    assert "1,11,11,55,66" in out
    assert "rank: 5" in out


def test_blocks_verb(m12_files, capsys):
    assert main(["blocks", m12_files["G"]]) == 0
    out = capsys.readouterr().out
    assert out.count("system") == 2
    assert "12 classes of 12" in out


def test_blocks_verb_on_primitive_group(tmp_path, capsys):
    path = tmp_path / "s4.grp"
    path.write_text(group_file_text(FIXTURES["S4"][0]))
    assert main(["blocks", str(path)]) == 1
    assert "primitive" in capsys.readouterr().out


def test_coset_action_verb(tmp_path, f21_file, capsys):
    sub = tmp_path / "stab.grp"
    F21 = FIXTURES["F21"][0]
    sub.write_text(group_file_text(F21.point_stabilizer(1)))
    out = tmp_path / "image.grp"
    assert main(["coset-action", f21_file, str(sub), "--out", str(out)]) == 0
    image, _ = parse_group_file(out.read_text())
    assert image.degree == 7
    assert image.order() == 21


@pytest.mark.parametrize("sub", ["H", "K", "N3"])
def test_m12_coset_action_files_are_pinned(m12_files, tmp_path, capsys, sub):
    # H and K are point stabilizers, labelled by their point orbit; the
    # maximal L2(11) in N3 fixes no point and is enumerated by coset
    # representatives.  Both must write the pinned bytes.
    out = tmp_path / "image.grp"
    assert main(["coset-action", m12_files["G"], m12_files[sub], "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"degree 144 action written to {out}\n"
    golden = Path(__file__).parent / "golden" / f"coset_{sub}.grp"
    assert out.read_bytes() == golden.read_bytes()


def test_search_params_verb(capsys):
    assert main(["search-params", "--v", "144", "--m-order", "7920"]) == 0
    assert capsys.readouterr().out.strip() == "144 66 30"


def test_search_params_negative(capsys):
    assert main(["search-params", "--v", "5", "--m-order", "120"]) == 1


@pytest.mark.parametrize("v", ["3", "10"])
def test_search_params_rejects_a_nonpositive_order(capsys, v):
    assert main(["search-params", "--v", v, "--m-order", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: subgroup order 0 must be positive\n"


@pytest.mark.parametrize("v, k, message", [
    ("10", "0", "k = 0 must be positive"),
    ("0", "3", "v = 0 must be positive"),
    ("-4", "3", "v = -4 must be positive"),
])
def test_derive_cdl_rejects_a_nonpositive_v_or_k(capsys, v, k, message):
    assert main(["derive-cdl", "--v", v, "--k", k, "--lambda", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("v", ["0", "-5"])
def test_search_params_rejects_a_nonpositive_v(capsys, v):
    assert main(["search-params", "--v", v, "--m-order", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: v = {v} must be positive\n"


@pytest.mark.parametrize("v", ["1", "3"])
def test_search_params_below_four_points_is_a_negative_verdict(capsys, v):
    assert main(["search-params", "--v", v, "--m-order", "7"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("v, k, message", [
    ("0", "0", "v = 0 must be positive"),
    ("10", "0", "k = 0 must be positive"),
    ("-4", "3", "v = -4 must be positive"),
])
def test_classify_type_rejects_a_nonpositive_v_or_k(capsys, v, k, message):
    assert main(["classify-type", "--v", v, "--k", k, "--lambda", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_classify_type_verb(capsys):
    assert main(["classify-type", "--v", "144", "--k", "66", "--lambda", "30"]) == 0
    assert "type: a" in capsys.readouterr().out
    assert main(["classify-type", "--v", "11", "--k", "5", "--lambda", "2"]) == 1


def test_derive_cdl_verb(capsys):
    assert main(["derive-cdl", "--v", "144", "--k", "66", "--lambda", "30"]) == 0
    assert capsys.readouterr().out.strip() == "c=12 d=12 l=6 s=11"


def test_construct_and_verify_design(tmp_path, capsys):
    c7 = tmp_path / "c7.grp"
    c7.write_text("degree: 7\n(1,2,3,4,5,6,7)\n")
    out = tmp_path / "fano.design"
    assert main(["construct-design", str(c7), "--block", "1,2,4", "--out", str(out)]) == 0
    design = parse_design_file(out.read_text())
    params = verify_symmetric(design)
    assert (params.v, params.k, params.lam) == (7, 3, 1)
    capsys.readouterr()
    assert main(["verify-design", str(out)]) == 0
    assert "symmetric (7,3,1), nontrivial" in capsys.readouterr().out


def test_construct_design_block_from_file(tmp_path):
    c7 = tmp_path / "c7.grp"
    c7.write_text("degree: 7\n(1,2,3,4,5,6,7)\n")
    blk = tmp_path / "block.txt"
    blk.write_text("1,2,4\n")
    out = tmp_path / "d.design"
    assert main(["construct-design", str(c7), "--block", str(blk), "--out", str(out)]) == 0


@pytest.mark.parametrize("from_file", [False, True], ids=["inline", "file"])
def test_construct_design_names_a_non_integer_block_entry(tmp_path, capsys, from_file):
    c7 = tmp_path / "c7.grp"
    c7.write_text("degree: 7\n(1,2,3,4,5,6,7)\n")
    block = "1,2\na\n"
    if from_file:
        path = tmp_path / "block.txt"
        path.write_text(block)
        block = str(path)
    out = tmp_path / "d.design"
    assert main(["construct-design", str(c7), "--block", block, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --block entry 3 ('a') is not an integer\n"
    assert not out.exists()


def test_verify_design_refutation(tmp_path, capsys):
    bad = tmp_path / "bad.design"
    bad.write_text("v: 7\n1,2,4\n1,2,4\n1,3,7\n1,5,6\n2,3,5\n2,6,7\n3,4,6\n")
    assert main(["verify-design", str(bad)]) == 1
    assert "not symmetric" in capsys.readouterr().out
    # two triangles: every block has size 2 and every point degree 2
    uneven = tmp_path / "uneven.design"
    uneven.write_text("v: 6\n1,2\n2,3\n1,3\n4,5\n5,6\n4,6\n")
    assert main(["verify-design", str(uneven)]) == 1
    assert capsys.readouterr().out == (
        "not symmetric: blocks 0,3 meet in 0, expected 1 [axiom block-pair]\n"
    )


def test_flag_transitive_verb(tmp_path, f21_file, capsys):
    assert main(["flag-transitive", FANO_FILE, f21_file]) == 0
    assert "flag-transitive: yes" in capsys.readouterr().out
    assert main(["flag-transitive", FANO_FILE, f21_file, "--anti"]) == 1
    assert "anti-flag-transitive: no" in capsys.readouterr().out


def test_flag_transitive_verb_exits_1_on_a_refuted_design(tmp_path, f21_file, capsys):
    """A design that fails an axiom is a negative verdict under every verb:
    ``flag-transitive``, with or without ``--anti``, prints the line
    ``verify-design`` prints and exits 1."""
    uneven = tmp_path / "uneven.design"
    uneven.write_text("v: 7\n1,2,3\n1,2,4\n1,2,5\n1,2,6\n1,2,7\n3,4,5\n3,6,7\n")
    line = "not symmetric: point 1 lies on 5 blocks, expected 3 [axiom point-degree]\n"
    assert main(["verify-design", str(uneven)]) == 1
    assert capsys.readouterr() == (line, "")
    for anti in ([], ["--anti"]):
        assert main(["flag-transitive", str(uneven), f21_file, *anti]) == 1
        assert capsys.readouterr() == (line, "")


def test_missing_data_file_exits_2(monkeypatch, tmp_path, capsys):
    """Data files are opened beside the catalog module; one that is not
    there is an error naming it, with exit code 2."""
    monkeypatch.setattr(catalog, "__file__", str(tmp_path / "catalog.py"))
    assert main(["reproduce-d1"]) == 2
    assert capsys.readouterr() == ("", "error: missing data file m12_catalog.json\n")


def test_flag_transitive_verb_on_one_point_blocks_past_the_byte_range(tmp_path, capsys):
    """A design read from a file records no block action, so the check maps
    every block through the point-set kernel: at degree 300 a one-point
    block is a one-index gather, and its complement a 299-point one."""
    design = tmp_path / "points.design"
    design.write_text("v: 300\n" + "".join(f"{x}\n" for x in range(1, 301)))
    group = tmp_path / "c300.grp"
    group.write_text(group_file_text(cyclic(300)))
    assert main(["flag-transitive", str(design), str(group), "--force"]) == 0
    assert capsys.readouterr().out == "flag-transitive: yes\n"
    assert main(["flag-transitive", str(design), str(group), "--anti", "--force"]) == 1
    assert capsys.readouterr().out == "anti-flag-transitive: no\n"


def test_pipeline_verb_text_and_json(capsys):
    assert main(["pipeline", M12_CATALOG]) == 0
    text = capsys.readouterr().out
    assert "design-found" in text and "no-block-of-length-k" in text
    assert main(["pipeline", M12_CATALOG, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    tuples = data["groups"][0]["tuples"]
    assert len([t for t in tuples if t["status"] == "design-found"]) == 4
    statuses = {t["status"] for t in tuples}
    assert statuses == {"design-found", "no-block-of-length-k", "nsg"}


def test_reproduce_d1_verb(capsys):
    assert main(["reproduce-d1"]) == 0
    out = capsys.readouterr().out
    assert "summary: (144,66,30) design-found; flag-transitive: yes; " \
           "anti-flag-transitive: no; systems: 2x(12 classes of 12); " \
           "(c,d,l,s)=(12,12,6,11)" in out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert out == re.search(r"```\n(blocks: .*?)```", readme, re.S).group(1)


def test_usage_errors():
    assert main(["no-such-verb"]) == 2
    assert main(["order", "/no/such/file"]) == 2
    assert main([]) == 2


def test_malformed_group_file(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("degree: 4\n(1,2\n")
    assert main(["order", str(bad)]) == 2


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{"], ids=["text", "bytes"])
def test_pipeline_rejects_a_file_that_is_not_json(tmp_path, capsys, content):
    path = tmp_path / "cat.json"
    path.write_bytes(content)
    assert main(["pipeline", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_C4 = {"name": "C4", "order": "4"}


def _m11a_factorization(fact):
    """A group of order |M12| whose maximal M11a claims ``fact``."""
    return json.dumps({"group": {"name": "G", "order": "95040"}, "maximals": [
        {"name": "M11a", "order": "7920", "index": "12", "order_factorization": fact}]})


@pytest.mark.parametrize("verb, name, text, message", [
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [{"order": "2", "index": "2"}]}),
     "maximals[0]: missing field 'name'"),
    ("pipeline", "cat.json", json.dumps([_C4]), "catalog: expected a JSON object"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [
         {"name": "C2", "order": "2", "index": "2", "maximal_subgroups": [["B", 3, 4]]}]}),
     "maximals[0].maximal_subgroups: row ['B', 3, 4] is not a pair"),
    ("order", "zero.grp", "degree: 0\n", "degree 0 must be positive"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [
         {"name": "C2", "order": "2", "index": "2", "maximal_indices": 5}]}),
     "maximals[0].maximal_indices: expected a list"),
    ("pipeline", "cat.json",
     json.dumps({"group": dict(_C4, degree=4, generators=5)}),
     "group.generators: expected a list"),
    ("pipeline", "cat.json",
     json.dumps({"group": dict(_C4, degree=4, generators=["(1,2,3,4)"]),
                 "maximals": [{"name": "C2", "order": "2", "index": "2"}],
                 "subgroup_hints": [{"name": "h", "inside": "C2", "index": 0,
                                     "generators": ["(1,3)(2,4)"]}]}),
     "|C2|/0"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [{"name": "C2", "order": "x", "index": "2"}]}),
     "maximals[0].order: expected an integer, got 'x'"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [
         {"name": "C2", "order": "2", "index": "2", "maximal_subgroups": [["A", "y"]]}]}),
     "maximals[0].maximal_subgroups[0][1]: expected an integer, got 'y'"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [{"name": "C2", "order": 7920.5, "index": "2"}]}),
     "maximals[0].order: expected an integer, got 7920.5"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [{"name": "C2", "order": "2", "index": True}]}),
     "maximals[0].index: expected an integer, got True"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "index_tables": {"C2": [["C1", "z"]]}}),
     "index_tables.C2[0][1]: expected an integer, got 'z'"),
    ("pipeline", "cat.json",
     json.dumps({"group": dict(_C4, order_factorization=[[2, "two"]])}),
     "group.order_factorization[0][1]: expected an integer, got 'two'"),
    ("pipeline", "cat.json",
     json.dumps({"group": dict(_C4, degree=4, generators=["(1,2,3,4)"]),
                 "maximals": [{"name": "C2", "order": "2", "index": "2"}],
                 "subgroup_hints": [{"name": "h", "inside": "C2", "index": [1],
                                     "generators": ["(1,3)(2,4)"]}]}),
     "subgroup_hints[0].index: expected an integer, got [1]"),
    ("pipeline", "cat.json", _m11a_factorization([[2, 3], [3, 2], [5, 1], [11, 1]]),
     "maximals[0].order_factorization: product 3960 != order 7920"),
    ("pipeline", "cat.json", _m11a_factorization([[4, 2], [3, 2], [5, 1], [11, 1]]),
     "maximals[0].order_factorization[0][0]: 4 is not a prime"),
    ("pipeline", "cat.json", _m11a_factorization([[2, 4], [3, 2], [5, 1], [11, 1], [7, 0]]),
     "maximals[0].order_factorization[4][1]: exponent 0 is below 1"),
    ("pipeline", "cat.json", json.dumps({"group": dict(_C4, order_factorization=[[2, 1]])}),
     "group.order_factorization: product 2 != order 4"),
    ("pipeline", "cat.json",
     json.dumps({"group": {"name": "C1", "order": "1", "degree": True, "generators": ["()"]}}),
     "group.degree: expected an integer, got True"),
    ("pipeline", "cat.json", _m11a_factorization([[2, 10**10], [3, 2], [5, 1], [11, 1]]),
     "maximals[0].order_factorization[0][1]: exponent 10000000000 is below 1 or above 13"),
    ("order", "huge.grp", "degree: 99999999999\n",
     "degree 99999999999 must be positive and at most 1000000"),
    ("order", "huge.grp", "degree: 99999999999\n(1,2)\n",
     "degree 99999999999 must be positive and at most 1000000"),
    ("pipeline", "cat.json",
     json.dumps({"group": dict(_C4, degree=99999999999, generators=["(1,2,3,4)"])}),
     "group.degree: 99999999999 is outside 1..1000000"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [{"name": ["M11"], "order": "2", "index": "2"}]}),
     "maximals[0].name: expected a string"),
    ("pipeline", "cat.json",
     json.dumps({"group": dict(_C4, degree=4, generators=["(1,2,3,4)"]),
                 "maximals": [{"name": "C2", "order": "2", "index": "2"}],
                 "subgroup_hints": [{"name": "h", "inside": ["C2"], "index": 1,
                                     "generators": ["(1,3)(2,4)"]}]}),
     "subgroup_hints[0].inside: expected a string"),
    ("pipeline", "cat.json",
     json.dumps({"group": dict(_C4, degree=4, generators=["(1,2,3,4)"]),
                 "maximals": [{"name": "C2", "order": "2", "index": "2"}],
                 "subgroup_hints": [{"name": "h", "inside": "C2", "index": 1,
                                     "generators": None}]}),
     "subgroup_hints[0].generators: expected a list"),
    ("pipeline", "cat.json",
     json.dumps({"group": {"name": "G", "order": "0"},
                 "maximals": [{"name": "M", "order": "0", "index": "5"}]}),
     "group.order: 0 is below 1"),
    ("pipeline", "cat.json",
     json.dumps({"group": {"name": "G", "order": "-6"},
                 "maximals": [{"name": "M", "order": "-3", "index": "2"}]}),
     "group.order: -6 is below 1"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [{"name": "M", "order": "-2", "index": "-2"}]}),
     "maximals[0].order: -2 is below 1"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [{"name": "M", "order": "4", "index": "-1"}]}),
     "maximals[0].index: -1 is below 1"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [
         {"name": "C2", "order": "2", "index": "2", "maximal_subgroups": [["A", 0]]}]}),
     "maximals[0].maximal_subgroups[0][1]: 0 is below 1"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "index_tables": {"C2": [["C1", "-2"]]}}),
     "index_tables.C2[0][1]: -2 is below 1"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "index_tables": {"C2": [[["a"], 2]]}}),
     "index_tables.C2[0][0]: expected a string"),
    ("pipeline", "cat.json",
     json.dumps({"group": _C4, "maximals": [
         {"name": "C2", "order": "2", "index": "2", "maximal_subgroups": [[5, 2]]}]}),
     "maximals[0].maximal_subgroups[0][0]: expected a string"),
    ("order", "bad.grp", "degree: x\n", "line 1: degree 'x' is not an integer"),
    ("verify-design", "bad.design", "v: y\n", "line 1: v 'y' is not an integer"),
    ("verify-design", "bad.design", "v: 3\n1,2\n1,x\n",
     "line 3: block '1,x' has a non-integer point"),
], ids=["maximal-without-name", "top-level-list", "row-of-wrong-arity", "degree-zero",
        "indices-not-a-list", "generators-not-a-list", "hint-index-zero",
        "order-not-a-number", "table-index-not-a-number", "order-not-an-integer",
        "index-is-a-bool", "index-table-row-not-a-number", "factorization-not-a-number",
        "hint-index-not-a-number", "factorization-product-short", "factorization-base-not-prime",
        "factorization-exponent-zero", "group-factorization-product-short", "degree-is-a-bool",
        "factorization-exponent-huge", "group-file-degree-huge",
        "group-file-degree-huge-with-generator",
        "catalog-degree-huge", "maximal-name-not-a-string", "hint-inside-not-a-string",
        "hint-generators-null", "group-order-zero", "group-order-negative",
        "maximal-order-negative", "maximal-index-negative",
        "maximal-table-index-zero", "index-table-index-negative", "index-table-name-a-list",
        "maximal-table-name-a-number", "group-file-degree-not-a-number",
        "design-file-v-not-a-number", "design-file-point-not-a-number"])
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, verb, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
