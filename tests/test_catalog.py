import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symdesign import catalog
from symdesign.arith import divisors, factorize
from symdesign.catalog import (
    CatalogError,
    GroupCatalog,
    dataset_ids,
    load,
    load_catalogs,
    provenance,
)
from symdesign.cli import main
from symdesign.design import verify_symmetric
from symdesign.group import PermGroup, StabChain
from symdesign.perm import Permutation, cycle_string, parse_cycles

from helpers import element_closure


def test_every_dataset_loads():
    for dataset_id in dataset_ids():
        assert load(dataset_id) is not None


def test_unknown_id_rejected():
    with pytest.raises(CatalogError, match="unknown"):
        load("no-such-thing")
    with pytest.raises(CatalogError):
        provenance("no-such-thing")


def test_provenance_strings_exist():
    for dataset_id in dataset_ids():
        assert provenance(dataset_id)


def test_checksum_mismatch_detected(monkeypatch):
    monkeypatch.setitem(catalog._CHECKSUMS, "m12_catalog.json", "0" * 64)
    for dataset_id in ("m12-144/G", "m12-144/catalog"):
        with pytest.raises(CatalogError, match="checksum"):
            load(dataset_id)


def test_checksums_are_pinned():
    assert all(len(v) == 64 for v in catalog._CHECKSUMS.values())


def test_every_pinned_file_is_loaded(monkeypatch):
    read = []
    original = catalog._read

    def recording_read(fname):
        read.append(fname)
        return original(fname)

    monkeypatch.setattr(catalog, "_read", recording_read)
    for dataset_id in dataset_ids():
        load(dataset_id)
    assert set(read) == set(catalog._CHECKSUMS)


@pytest.fixture(scope="module")
def G():
    return load("m12-144/G")


@pytest.fixture(scope="module")
def H():
    return load("m12-144/H")


@pytest.fixture(scope="module")
def K():
    return load("m12-144/K")


def test_group_orders(G, H, K):
    assert G.order() == 95040
    assert H.order() == 660
    assert K.order() == 660
    assert G.order() == 144 * H.order() == 144 * K.order()


def test_point_side_subgroup_is_the_stabilizer_of_one(G, H):
    stab = G.point_stabilizer(1)
    assert stab.order() == 660
    assert all(stab.contains(g) for g in H.generators)
    assert all(H.contains(g) for g in stab.generators)


def test_block_side_subgroup_orbits(K):
    assert sorted(len(o) for o in K.orbits()) == [1, 11, 11, 55, 66]


def test_base_block_is_the_66_point_orbit(K):
    block = load("m12-144/base-block")
    orbit66 = [o for o in K.orbits() if len(o) == 66]
    assert orbit66 == [block]


def test_maximal_l211_signature(G):
    N = load("m12-144/maximal-l211")
    assert N.order() == 660
    assert sorted(len(o) for o in N.orbits()) == [12, 132]
    assert all(G.contains(g) for g in N.generators)


def test_class_stabilizers_are_index_twelve(G):
    systems = G.minimal_block_systems()
    assert len(systems) == 2
    for system in systems:
        stab = G.class_stabilizer(system, system.class_of[1])
        assert stab.order() == 7920  # |G| / 12


def test_nested_class_stabilizers_intersect_to_the_point_stabilizer(G, H):
    sys1, sys2 = G.minimal_block_systems()
    M1 = G.class_stabilizer(sys1, sys1.class_of[1])
    M2 = M1.class_stabilizer(sys2, sys2.class_of[1])
    assert M2.order() == 660
    assert all(H.contains(g) for g in M2.generators)
    assert all(M2.contains(g) for g in H.generators)


def test_block_side_subgroup_sits_inside_both_maximal_classes(G, K):
    # K fixes one point; it must stabilize that point's class in both
    # invariant partitions, landing in one conjugate of each M11 class
    fixed = [o[0] for o in K.orbits() if len(o) == 1][0]
    for system in G.minimal_block_systems():
        stab = G.class_stabilizer(system, system.class_of[fixed])
        assert stab.order() == 7920
        assert all(stab.contains(g) for g in K.generators)


def test_fano_fixture(G):
    fano = load("fixtures/fano")
    params = verify_symmetric(fano)
    assert (params.v, params.k, params.lam) == (7, 3, 1)


def test_catalog_payloads_parse_for_pipeline():
    data = load("m12-144/catalog")
    assert data["group"]["name"] == "M12"
    assert len(data["maximals"]) == 3
    stub = load("fi22/catalog-stub")
    assert stub["group"]["name"] == "Fi22"
    assert len(stub["maximals"]) == 2


@pytest.mark.parametrize("dataset_id, record", [
    ("m12-144/G", None),
    ("m12-144/H", "point-L2(11)"),
    ("m12-144/K", "block-L2(11)"),
    ("m12-144/maximal-l211", "L2(11)max"),
])
def test_m12_groups_are_served_from_the_catalog(dataset_id, record):
    """Each M12 group id has the generators, in order, of the catalog's
    group or of its first maximal or hint called ``record``."""
    [cat] = load_catalogs(load("m12-144/catalog"))
    source = cat.group if record is None else next(
        r.group for r in cat.maximals + cat.hints if r.name == record)
    assert [g.table for g in load(dataset_id).generators] == [g.table for g in source.generators]


def test_find_maximal_l211_script_reproduces_the_catalog_maximal():
    script = Path(__file__).resolve().parent.parent / "scripts" / "find_maximal_l211.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True).stdout
    lines = [line for line in out.splitlines() if not line.startswith(("degree:", "name:"))]
    [l211max] = [m for m in load("m12-144/catalog")["maximals"] if m["name"] == "L2(11)max"]
    assert out.startswith("degree: 144\n")
    assert lines == l211max["generators"]


# ---- one parse per cycle string and one chain per generator list ---------------


def test_m12_load_parses_each_string_once_and_builds_each_chain_once(monkeypatch):
    """The M12 catalog holds 16 cycle strings, 9 of them distinct, in 6
    generator lists, 4 of them distinct (the group, the maximal L2(11), and
    point-L2(11) and block-L2(11), each given under M11a and M11b)."""
    parses = builds = 0
    parse, build = catalog.parse_cycles, StabChain._build

    def counting_parse(text, degree):
        nonlocal parses
        parses += 1
        return parse(text, degree)

    def counting_build(self, gens):
        nonlocal builds
        builds += 1
        return build(self, gens)

    monkeypatch.setattr(catalog, "parse_cycles", counting_parse)
    monkeypatch.setattr(StabChain, "_build", counting_build)
    [cat] = load_catalogs(load("m12-144/catalog"))
    assert (parses, builds) == (9, 4)
    assert [h.group.order() for h in cat.hints] == [660] * 4
    assert builds == 4


def test_repeated_generator_lists_share_one_chain_in_distinct_groups():
    [cat] = load_catalogs(load("m12-144/catalog"))
    hints = {(h.name, h.inside): h.group for h in cat.hints}
    for name in ("point-L2(11)", "block-L2(11)"):
        a, b = hints[name, "M11a"], hints[name, "M11b"]
        assert a is not b
        assert a.generators == b.generators
        assert a.chain is b.chain
    assert hints["point-L2(11)", "M11a"].chain is not hints["block-L2(11)", "M11a"].chain
    assert hints["point-L2(11)", "M11a"].generators[0] is cat.group.generators[0]


def _a4_catalog(hints):
    """A4 with the maximal C3 = <(1,2,3)>, and hints inside it."""
    return {
        "group": {"name": "A4", "order": 12, "degree": 4,
                  "generators": ["(1,2,3)", "(2,3,4)"]},
        "maximals": [{"name": "C3", "order": 3, "index": 4, "generators": ["(1,2,3)"]}],
        "subgroup_hints": [{"name": name, "inside": "C3", "index": index, "generators": gens}
                           for name, index, gens in hints],
    }


def test_repeated_list_shares_the_maximal_chain():
    [cat] = load_catalogs(_a4_catalog([("h", 1, ["(1,2,3)"])]))
    assert cat.hints[0].group is not cat.maximals[0].group
    assert cat.hints[0].group.chain is cat.maximals[0].group.chain


def test_repeated_list_outside_the_group_names_the_first_record():
    data = _a4_catalog([("first", 1, ["(1,2)"]), ("second", 1, ["(1,2)"])])
    with pytest.raises(CatalogError, match=r"^hint first: generator outside A4$"):
        load_catalogs(data)


def test_repeated_list_under_a_wrong_index_fails_its_own_order_check():
    data = _a4_catalog([("first", 1, ["(1,2,3)"]), ("second", 3, ["(1,2,3)"])])
    with pytest.raises(CatalogError, match=r"^hint second: order 3 is not \|C3\|/3$"):
        load_catalogs(data)


# ---- bounded fuzz of the catalog loader ----------------------------------------
#
# Catalogs start from a real group on at most 6 points (order <= 720, so
# every coset action the pipeline builds stays small), with maximals and
# hints that are point stabilizers or spans of random elements, and then
# lose or get junk in up to two fields.  Junk is small: integers up to 8,
# so a degree never exceeds 8, and short fixed strings.

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from(["", "x", "2", "-1", "1.5", "()", "(1,2", "(1,9)"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({}),
)


# Elements spanning subgroups of S5 and S6 whose index makes a pipeline
# tuple reach the coset action and the base-block search: S4, D8 =
# <(1,2,3,4), (1,3)>, S5 and F20 = <(1,2,3,4,5), (2,3,5,4)>.
_NAMED = ("(1,2,3,4)", "(1,3)", "(1,2)", "(1,2,3,4,5)", "(2,3,5,4)")


def _subgroup(draw, group, named: bool):
    """The span of up to two elements of ``group``, from the named ones when
    ``named``, or else a point stabilizer or the span of random elements."""
    elements = sorted(element_closure(group), key=lambda g: g.images)
    if named:
        elements = [g for g in elements if cycle_string(g) in _NAMED] or elements
    elif draw(st.booleans()):
        return group.point_stabilizer(draw(st.integers(1, group.degree)))
    return PermGroup(draw(st.lists(st.sampled_from(elements), max_size=2)), degree=group.degree)


def _gens(group) -> list:
    return [cycle_string(g) for g in group.generators]


def _slots(obj):
    """(container, key) for every value nested in ``obj``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = []
    for key, value in items:
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            out += _slots(value)
    return out


@st.composite
def _catalogs(draw):
    named = draw(st.booleans())
    if named:  # S5 or S6, with the stabilizer of the last point as M0
        degree = draw(st.sampled_from([5, 6]))
        gens = [parse_cycles(c, degree) for c in (str(tuple(range(1, degree + 1))), "(1,2)")]
    else:
        degree = draw(st.integers(1, 6))
        gens = [Permutation(draw(st.permutations(range(1, degree + 1))))
                for _ in range(draw(st.integers(1, 2)))]
    G = PermGroup(gens, degree=degree)
    order = G.order()
    group = {"name": "G", "order": str(order)}
    if named or draw(st.booleans()):
        group.update(degree=degree, generators=_gens(G))
    if draw(st.booleans()):
        group["order_factorization"] = [[p, e] for p, e in factorize(order).items()]
    maximals, hints = [], []
    for i in range(draw(st.integers(int(named), 3))):
        M = G.point_stabilizer(degree) if named and i == 0 else _subgroup(draw, G, named)
        rec = {"name": f"M{i}", "order": M.order(), "index": order // M.order()}
        if "generators" in group and draw(st.booleans()):
            rec["generators"] = _gens(M)
        if draw(st.integers(0, 3)) == 0:
            rec["maximal_subgroups"] = [
                [draw(st.sampled_from([None, "M0", "X"])), d]
                for d in draw(st.lists(st.sampled_from(divisors(M.order())), max_size=2))]
        maximals.append(rec)
        for j in range(draw(st.integers(0, 2))):
            H = _subgroup(draw, M, named)
            hints.append({"name": f"h{i}{j}", "inside": f"M{i}",
                          "index": M.order() // H.order(), "generators": _gens(H)})
    data = {"group": group, "maximals": maximals, "subgroup_hints": hints}
    if draw(st.booleans()):
        data["index_tables"] = {"G": [[f"M{i}", m["index"]] for i, m in enumerate(maximals)]}
    for _ in range(draw(st.integers(0, 2))):
        parent, key = draw(st.sampled_from(_slots(data)))
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JUNK)
    return {"groups": [data]} if draw(st.booleans()) else data


@given(_catalogs())
@settings(max_examples=200, deadline=None)
def test_loader_fuzz_raises_only_catalog_errors(data):
    try:
        cats = load_catalogs(data)
    except CatalogError:
        return
    assert all(isinstance(cat, GroupCatalog) for cat in cats)


@given(_catalogs())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pipeline_verb_fuzz_exits_0_1_or_2(tmp_path, data):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pipeline", str(path)])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
