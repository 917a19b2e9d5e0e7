import copy
import json
import math
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdesign import design, pipeline
from symdesign.catalog import CatalogError, MaximalRecord, load, load_catalogs
from symdesign.group import PermGroup, coset_action
from symdesign.params import enumerate_params
from symdesign.pipeline import (
    GATE_NSG,
    GATE_POSSIBLE,
    GATE_UNKNOWN,
    base_block_search,
    candidate_vs,
    divisibility_gate,
    first_bad_subdegree,
    large_filter,
    run_pipeline,
    subgroup_index_gate,
)

from helpers import (
    FIXTURES,
    cyclic,
    grp,
    pairwise_meets,
    reference_pipeline_rows,
    simple_index_bound_refutes,
)


GOLDEN = Path(__file__).parent / "golden"
HS_SUBDEGREES = (7, 42, 126, 210, 252, 630, 1260, 2520)


def test_large_filter():
    assert large_filter(95040, 7920)
    assert not large_filter(95040, 12)
    assert large_filter(95040, 46)  # 46^3 = 97336
    assert not large_filter(95040, 45)


def test_candidate_vs_for_m11_in_m12():
    M = MaximalRecord(name="M11", order=7920, index=12)
    vs = candidate_vs(M)
    assert 144 in vs
    assert 12 not in vs  # z = 1 is excluded on the point side
    assert vs == sorted(vs)
    assert all(v % 12 == 0 for v in vs)


def test_candidate_vs_prime_order_maximal():
    M = MaximalRecord(name="P", order=5, index=4)
    assert candidate_vs(M) == [20]


def test_candidate_vs_checks_consistency():
    # the loader rejects order*index != |G| before candidate_vs sees a record
    bad = {"group": {"name": "M12", "order": 95040},
           "maximals": [{"name": "broken", "order": 7920, "index": 13}]}
    with pytest.raises(CatalogError, match="order\\*index"):
        load_catalogs(bad)


def test_candidate_vs_demands_factorization_for_huge_orders():
    order = 2**64
    M = MaximalRecord(name="huge", order=order, index=3)
    with pytest.raises(CatalogError, match="order_factorization"):
        candidate_vs(M)
    M = MaximalRecord(
        name="huge", order=order, index=3, order_factorization={2: 64}
    )
    vs = candidate_vs(M)
    assert vs[0] == 6 and len(vs) == 64


def test_divisibility_gate():
    m11 = MaximalRecord(name="M11", order=7920, index=12)
    l211 = MaximalRecord(name="L2(11)", order=660, index=144)
    assert divisibility_gate((144, 66, 30), m11)
    assert divisibility_gate((144, 66, 30), l211)
    small = MaximalRecord(name="tiny", order=100, index=144)
    assert not divisibility_gate((144, 66, 30), small)


M11_TABLE = {
    "M11": (("M10", 11), ("L2(11)", 12), ("M9:2", 55), ("S5", 66), ("GL(2,3)", 165)),
    "M10": (("A6", 2), ("M9", 10), ("5:4", 36), ("SD16", 45)),
}


def test_subgroup_index_gate_trivial_index():
    assert subgroup_index_gate("anything", 1, {}) == GATE_POSSIBLE


def test_subgroup_index_gate_direct_hit():
    assert subgroup_index_gate("M11", 12, M11_TABLE) == GATE_POSSIBLE
    assert subgroup_index_gate("M11", 11, M11_TABLE) == GATE_POSSIBLE


def test_subgroup_index_gate_no_divisor():
    assert subgroup_index_gate("M11", 8, M11_TABLE) == GATE_NSG
    assert subgroup_index_gate("M11", 45, M11_TABLE) == GATE_NSG


def test_subgroup_index_gate_recursion_refutes():
    # 11 divides 33, but M10 has no index-3 subgroup
    assert subgroup_index_gate("M11", 33, M11_TABLE) == GATE_NSG


def test_subgroup_index_gate_recursion_decides_each_verdict():
    # 22 = 11 * 2 and M10 has A6 of index 2; 24 = 12 * 2 and L2(11) has no table
    assert subgroup_index_gate("M11", 22, M11_TABLE) == GATE_POSSIBLE
    assert subgroup_index_gate("M11", 24, M11_TABLE) == GATE_UNKNOWN


def test_subgroup_index_gate_smallest_index_screen():
    table = {"O7(3)": ((None, 351), (None, 364), (None, 378))}
    for i in (14, 40, 105):
        assert subgroup_index_gate("O7(3)", i, table) == GATE_NSG


def test_subgroup_index_gate_unknown_without_data():
    assert subgroup_index_gate("mystery", 5, {}) == GATE_UNKNOWN
    # a dividing entry with no name cannot be recursed into
    table = {"M": ((None, 11),)}
    assert subgroup_index_gate("M", 33, table) == GATE_UNKNOWN


def test_subdegree_gate_m12_case():
    assert first_bad_subdegree(66, 30, (1, 11, 11, 55, 66)) is None


def test_subdegree_gate_reproduces_the_rank_breaking_case():
    assert first_bad_subdegree(420, 20, HS_SUBDEGREES) is not None
    assert first_bad_subdegree(420, 20, HS_SUBDEGREES) == 7


def test_subdegree_gate_k_itself_always_passes():
    assert first_bad_subdegree(66, 30, (66,)) is None
    assert first_bad_subdegree(66, 30, (1, 66)) is None


# ---- base-block search -------------------------------------------------------


def test_base_block_search_finds_fano():
    F21, _ = FIXTURES["F21"]
    H = F21.point_stabilizer(1)
    out = base_block_search(coset_action(F21, H), H, (7, 3, 1))
    assert out.status == "design-found"
    assert out.design.num_blocks == 7
    assert out.certificate["params"] == (7, 3, 1)
    assert out.certificate["flag_transitive"] is True
    assert out.certificate["block_intersections"] == pairwise_meets(out.design) == ((1, 21),)


def test_m12_block_intersections_match_a_pairwise_recount():
    G, H, K = (load(f"m12-144/{x}") for x in "GHK")
    out = base_block_search(coset_action(G, H), K, (144, 66, 30))
    assert out.status == "design-found"
    derived = out.certificate["block_intersections"]
    assert derived == pairwise_meets(out.design) == ((30, 10296),)


def test_base_block_search_no_block_of_length_k():
    C7 = cyclic(7)
    triv = PermGroup.trivial(7)
    out = base_block_search(coset_action(C7, triv), triv, (7, 3, 1))
    assert out.status == "no-block-of-length-k"
    assert out.orbit_lengths == (1,) * 7


def test_base_block_search_orbit_fails_verification():
    C15 = cyclic(15)
    triv = PermGroup.trivial(15)
    K = PermGroup([C15.generators[0] ** 3])  # C5: three orbits of length 5
    out = base_block_search(coset_action(C15, triv), K, (15, 5, 2))
    assert out.status == "not-a-design"


def _outcome(out):
    return out.status, out.orbit_lengths, out.design, out.certificate


def test_a_shared_memo_gives_what_fresh_searches_give():
    """Searches that differ in G, in H, in K, in the orbits tried or only
    in the parameters sought, in turn through one memo."""
    F21, S4 = FIXTURES["F21"][0], FIXTURES["S4"][0]
    P1, P2 = F21.point_stabilizer(1), F21.point_stabilizer(2)
    C7 = PermGroup([F21.generators[0]])
    # index 12 in S4; <(1,2)> has 2 fixed cosets under itself, <(1,2)(3,4)> none
    T, V = grp(4, "(1,2)"), grp(4, "(1,2)(3,4)")
    acts = {id(H): coset_action(G, H) for G, H in ((F21, P1), (F21, P2), (S4, T), (S4, V))}
    searches = [(P1, P1, (7, 3, 1)), (P2, P1, (7, 3, 1)), (P1, P2, (7, 3, 1)),
                (P1, C7, (7, 3, 1)), (P1, P1, (7, 3, 2)),
                (T, T, (12, 3, 1)), (V, T, (12, 3, 1))]
    fresh = [_outcome(base_block_search(acts[id(H)], K, params))
             for H, K, params in searches]
    assert all(a != b for a, b in combinations(fresh, 2))
    run = pipeline._Run()
    shared = [_outcome(base_block_search(acts[id(H)], K, params, run))
              for H, K, params in searches]
    assert shared == fresh


def test_a_v_the_action_does_not_have_is_no_design():
    """The Fano plane's (7,3,1) trial under F21 verifies, but its
    certificate's parameters are not (8,3,1): not a design, fresh or
    through a run that already holds the trial."""
    F21 = FIXTURES["F21"][0]
    P1 = F21.point_stabilizer(1)
    act = coset_action(F21, P1)
    fresh = base_block_search(act, P1, (8, 3, 1))
    assert fresh.status == "not-a-design"
    run = pipeline._Run()
    assert base_block_search(act, P1, (7, 3, 1), run).status == "design-found"
    assert len(run.trials) == 1
    assert base_block_search(act, P1, (8, 3, 1), run) == fresh


def test_a_trial_certifies_its_design_or_returns_none():
    F21 = FIXTURES["F21"][0]
    refuted, cert = pipeline._trial(F21, [1, 2])  # 21 blocks on 7 points
    assert cert is None and refuted.num_blocks == 21 and refuted.params is None
    fano, cert = pipeline._trial(F21, [1, 2, 4])
    assert fano.num_blocks == 7 and cert.params == (7, 3, 1) and cert.flag_transitive


def test_m12_run_does_each_search_step_once(monkeypatch):
    """The four design-found tuples share one design: one construction, one
    verification (inside ``certify``), and K-orbits for the 3 distinct
    (H, K) contents."""
    counts: dict = {}

    def counting(name):
        module = design if name == "verify_symmetric" else pipeline
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("construct_design", "verify_symmetric", "induced_orbits",
                 "coset_action", "base_block_search"):
        counting(name)
    data = load("m12-144/catalog")
    expected = {"construct_design": 1, "verify_symmetric": 1, "induced_orbits": 3,
                "coset_action": 4, "base_block_search": 8}
    for _run in range(2):
        counts.clear()
        run_pipeline(data)
        assert counts == expected


def test_each_catalog_of_a_run_gets_its_own_tables(monkeypatch, m12_report):
    """Two copies of M12 in one call give two sections, each the M12
    section, and twice each count of the test above: nothing is shared
    across catalogs or kept at module level."""
    counts = dict.fromkeys(("construct_design", "verify_symmetric", "induced_orbits",
                            "coset_action", "base_block_search"), 0)
    for name in counts:
        module = design if name == "verify_symmetric" else pipeline

        def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    m12 = load("m12-144/catalog")
    report = run_pipeline({"groups": [m12, m12]})
    assert counts == {"construct_design": 2, "verify_symmetric": 2, "induced_orbits": 6,
                      "coset_action": 8, "base_block_search": 16}
    assert len(report.sections) == 2
    for sec in report.sections:
        one = pipeline.PipelineReport([sec])
        assert one.to_text() == m12_report.to_text()
        assert one.to_json_dict() == m12_report.to_json_dict()


# ---- catalog loading ----------------------------------------------------------


def test_load_catalogs_empty():
    assert load_catalogs({}) == []
    assert load_catalogs({"groups": []}) == []


def test_load_catalogs_validates_orders():
    bad = {
        "group": {"name": "C4", "order": "5", "degree": 4, "generators": ["(1,2,3,4)"]},
        "maximals": [],
    }
    with pytest.raises(CatalogError, match="stated order"):
        load_catalogs(bad)


def test_load_catalogs_validates_maximal_index():
    bad = {
        "group": {"name": "C4", "order": "4", "degree": 4, "generators": ["(1,2,3,4)"]},
        "maximals": [{"name": "C2", "order": "2", "index": "3"}],
    }
    with pytest.raises(CatalogError, match="order\\*index"):
        load_catalogs(bad)


def test_load_catalogs_validates_hints():
    bad = {
        "group": {"name": "C4", "order": "4", "degree": 4, "generators": ["(1,2,3,4)"]},
        "maximals": [{"name": "C2", "order": "2", "index": "2"}],
        "subgroup_hints": [
            {"name": "h", "inside": "C2", "index": 1, "generators": ["(1,2)"]}
        ],
    }
    with pytest.raises(CatalogError, match="outside"):
        load_catalogs(bad)


def test_load_catalogs_validates_factorization():
    bad = {
        "group": {
            "name": "C4",
            "order": "4",
            "degree": 4,
            "generators": ["(1,2,3,4)"],
            "order_factorization": [[2, 1]],
        },
        "maximals": [],
    }
    with pytest.raises(CatalogError, match="factorization"):
        load_catalogs(bad)


def test_load_catalogs_refuses_a_stated_prime_miller_rabin_cannot_prove():
    p, q = 1287836182261, 2575672364521  # p * q passes every Miller-Rabin base in use
    n = p * q
    cat = {"group": {"name": "G", "order": str(2 * n)},
           "maximals": [{"name": "M", "order": str(n), "index": "2",
                         "order_factorization": [[n, 1]]}]}
    with pytest.raises(CatalogError, match=rf"^maximals\[0\]\.order_factorization\[0\]\[0\]: "
                                           rf"{n} is not proven prime$"):
        load_catalogs(cat)
    cat["maximals"][0]["order_factorization"] = [[p, 1], [q, 1]]
    M = load_catalogs(cat)[0].maximals[0]
    assert candidate_vs(M) == [2 * p, 2 * q, 2 * n]


def test_load_catalogs_refuses_the_strong_pseudoprime_to_the_first_twelve_primes():
    n = 399165290221 * 798330580441  # passes bases 2..37, not 41
    cat = {"group": {"name": "G", "order": str(2 * n)},
           "maximals": [{"name": "M", "order": str(n), "index": "2",
                         "order_factorization": [[n, 1]]}]}
    with pytest.raises(CatalogError, match=rf"^maximals\[0\]\.order_factorization\[0\]\[0\]: "
                                           rf"{n} is not a prime$"):
        load_catalogs(cat)


# ---- full runs -----------------------------------------------------------------


@pytest.fixture(scope="module")
def m12_report():
    return run_pipeline(load("m12-144/catalog"))


def test_m12_run_has_exactly_six_candidates(m12_report):
    sec = m12_report.sections[0]
    assert sec.name == "M12"
    assert len(sec.candidates()) == 6


def test_m12_run_eliminations_are_all_nsg(m12_report):
    sec = m12_report.sections[0]
    killed = [t for t in sec.tuples if t.status not in
              ("design-found", "no-block-of-length-k")]
    assert killed and all(t.status == "nsg" for t in killed)
    assert {t.params for t in killed} == {
        (36, 15, 6),
        (96, 20, 4),
        (396, 80, 16),
        (540, 99, 18),
    }


def test_m12_run_statuses(m12_report):
    sec = m12_report.sections[0]
    found = [t for t in sec.candidates() if t.status == "design-found"]
    blocked = [t for t in sec.candidates() if t.status == "no-block-of-length-k"]
    assert len(found) == 4
    assert len(blocked) == 2
    assert all(t.N_name == "L2(11)max" and t.i_K == 1 for t in blocked)
    assert all("12, 132" in t.detail for t in blocked)
    certs = [t.invariants for t in found]
    assert all(c == certs[0] for c in certs)
    assert certs[0]["params"] == (144, 66, 30)
    assert certs[0]["subdegrees"] == (1, 11, 11, 55, 66)
    assert certs[0]["profiles"] == ((12, 12, 6, 11), (12, 12, 6, 11))


def test_m12_report_is_deterministic(m12_report):
    again = run_pipeline(load("m12-144/catalog"))
    assert again.to_text() == m12_report.to_text()
    assert json.dumps(again.to_json_dict(), sort_keys=True) == json.dumps(
        m12_report.to_json_dict(), sort_keys=True
    )


# The maximals that are simple groups: a claim of this test, not of the catalogs.
SIMPLE_MAXIMALS = {"M11a": "M11", "M11b": "M11", "O7(3)a": "O7(3)", "O7(3)b": "O7(3)"}


def test_simple_index_bound():
    assert not simple_index_bound_refutes(60, 5)  # A5 on 5 points
    assert not simple_index_bound_refutes(7920, 11) and not simple_index_bound_refutes(7920, 12)
    assert simple_index_bound_refutes(60, 4) and simple_index_bound_refutes(168, 6)
    assert not simple_index_bound_refutes(60, 1) and simple_index_bound_refutes(60, 2)


@pytest.mark.parametrize("key, refuted, indices", [
    ("m12-144/catalog", 8, {3, 8}),
    ("fi22/catalog-stub", 4, {14}),
])
def test_rows_the_simple_group_index_bound_refutes_are_nsg(key, refuted, indices):
    """The index tables aside, |M| dividing i!/2 for a simple M with a
    subgroup of index i > 1 refutes these rows on the side of M or N."""
    data = load(key)
    orders = {M.name: M.order for M in load_catalogs(data)[0].maximals}
    rows = [t for t in run_pipeline(data).sections[0].tuples
            if any(name in SIMPLE_MAXIMALS and simple_index_bound_refutes(orders[name], i)
                   for name, i in ((t.M_name, t.i_H), (t.N_name, t.i_K)))]
    assert len(rows) == refuted
    assert {t.i_H for t in rows} == indices
    assert all(t.status == "nsg" for t in rows)


def test_fi22_stub_all_nsg():
    report = run_pipeline(load("fi22/catalog-stub"))
    sec = report.sections[0]
    assert sec.name == "Fi22"
    assert len(sec.tuples) == 12
    assert all(t.status == "nsg" for t in sec.tuples)
    assert sorted({t.i_H for t in sec.tuples}) == [14, 40, 105]
    assert sec.candidates() == []


def test_fi22_report_bytes_are_pinned():
    # the JSON is pinned in the form ``symdesign pipeline --json`` prints
    report = run_pipeline(load("fi22/catalog-stub"))
    assert report.to_text() == (GOLDEN / "fi22_report.txt").read_text()
    assert json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n" == (
        GOLDEN / "fi22_report.json"
    ).read_text()


def test_m12_report_bytes_are_pinned(m12_report):
    assert m12_report.to_text() == (GOLDEN / "m12_report.txt").read_text()
    assert json.dumps(m12_report.to_json_dict(), indent=1, sort_keys=True) + "\n" == (
        GOLDEN / "m12_report.json"
    ).read_text()


def _rows(report):
    return [(sec.name, [(t.nr_M, t.nr_N, t.M_name, t.N_name, t.i_H, t.i_K, t.v, t.k,
                         t.lam, t.cdl, t.type_tag, t.gate_H, t.gate_K) for t in sec.tuples])
            for sec in report.sections]


def _shuffled_fi22(seed):
    """The Fi22 stub with its maximals and their index rows shuffled."""
    rng = random.Random(seed)
    data = copy.deepcopy(load("fi22/catalog-stub"))
    rng.shuffle(data["maximals"])
    for rec in data["maximals"]:
        rng.shuffle(rec["maximal_indices"])
    return data


def _fi22_with_a_different_o73b():
    """O7(3)a and O7(3)b keep one order and index, so they share a candidate
    list, but O7(3)b's index-14 subgroup passes the gate O7(3)a fails."""
    data = copy.deepcopy(load("fi22/catalog-stub"))
    (rec,) = [m for m in data["maximals"] if m["name"] == "O7(3)b"]
    rec["maximal_indices"] = [14, 351, 364, 378]
    return data


# S7 with two maximals declared at index 3 but no generators for either, and
# S2xS5 (the stabilizer of {1,2}) inside M at index 7; it fixes no point, so
# its coset action walks canonical coset representatives
S7_ONE_HINT = {
    "group": {"name": "S7", "order": 5040, "degree": 7,
              "generators": ["(1,2)", "(1,2,3,4,5,6,7)"]},
    "maximals": [{"name": "M", "order": 1680, "index": 3},
                 {"name": "P", "order": 1680, "index": 3}],
    "subgroup_hints": [{"name": "S2xS5", "inside": "M", "index": 7,
                        "generators": ["(1,2)", "(3,4)", "(3,4,5,6,7)"]}],
}

# AGL(1,13) = <x -> x+1, x -> 5x> on Z13, point x labelled x+1, and the
# point stabilizer C4 = <x -> 5x>, whose 4-orbits are no difference set
X_TIMES_5 = "(2,6,13,9)(3,11,12,4)(5,8,10,7)"
AGL_1_13 = {
    "group": {"name": "AGL(1,13)", "order": 52, "degree": 13,
              "generators": ["(1,2,3,4,5,6,7,8,9,10,11,12,13)", X_TIMES_5]},
    "maximals": [{"name": "M", "order": 52, "index": 1}],
    "subgroup_hints": [{"name": "C4", "inside": "M", "index": 13,
                        "generators": [X_TIMES_5]}],
}

# v = 2z for z | 1980 gives (22,15,10) and (36,15,6): two candidates, one k
ONE_K_TWO_VS = {"group": {"name": "X", "order": 3960},
                "maximals": [{"name": "M", "order": 1980, "index": 2}]}


@pytest.mark.parametrize("make", [
    lambda: load("m12-144/catalog"),
    lambda: load("fi22/catalog-stub"),
    lambda: _shuffled_fi22(1),
    lambda: _shuffled_fi22(2),
    _fi22_with_a_different_o73b,
    lambda: ONE_K_TWO_VS,
    lambda: {"groups": [load("m12-144/catalog"), load("fi22/catalog-stub")]},
    lambda: S7_ONE_HINT,
    lambda: AGL_1_13,
], ids=["m12", "fi22", "fi22-shuffled-1", "fi22-shuffled-2", "fi22-o73b-indices",
        "one-k-two-vs", "m12-and-fi22", "s7-one-hint", "agl-1-13"])
def test_run_pipeline_rows_match_a_memo_free_reference(make):
    data = make()
    assert _rows(run_pipeline(data)) == reference_pipeline_rows(data)


def test_o73b_indices_split_the_gate_statuses():
    """The differing O7(3)b rows of the test above: with one shared
    candidate list, three index-14 tuples on the O7(3)b side get through."""
    sec = run_pipeline(_fi22_with_a_different_o73b()).sections[0]
    gates = {(t.M_name, t.N_name, t.i_H): (t.gate_H, t.gate_K) for t in sec.tuples}
    assert gates[("O7(3)a", "O7(3)b", 14)] == (GATE_NSG, GATE_POSSIBLE)
    assert gates[("O7(3)b", "O7(3)b", 14)] == (GATE_POSSIBLE, GATE_POSSIBLE)
    assert gates[("O7(3)b", "O7(3)a", 14)] == (GATE_POSSIBLE, GATE_NSG)


@pytest.mark.parametrize("catalog, row, status, detail", [
    (_fi22_with_a_different_o73b(), ("O7(3)b", "O7(3)a", 197120), "nsg",
     "O7(3)a has no subgroup of index 14"),
    (_fi22_with_a_different_o73b(), ("O7(3)b", "O7(3)b", 197120), "open",
     "no generator data"),
    (S7_ONE_HINT, ("M", "M", 15, 7, 3), "open",
     "no generators known for an index-5 subgroup of M"),
    (S7_ONE_HINT, ("M", "P", 21, 5, 1), "open",
     "no generators known for an index-7 subgroup of P"),
    (S7_ONE_HINT, ("M", "M", 21, 16, 12), "nsd", "smallest bad subdegree 10"),
    (S7_ONE_HINT, ("M", "M", 21, 5, 1), "no-block-of-length-k",
     "K-orbit lengths [1, 10, 10]"),
    (AGL_1_13, ("M", "M", 13, 4, 1), "not-a-design",
     "length-k orbits exist but verify no design"),
], ids=["nsg-K-side", "no-generator-data", "no-H-generators", "no-K-generators", "nsd",
        "no-block", "not-a-design"])
def test_each_reachable_verdict_has_its_status_and_detail(catalog, row, status, detail):
    """The verdicts the M12 and Fi22 goldens do not show: a row is named by
    (M, N, v, k, lam), or (M, N, v) where v fixes k and lam."""
    (sec,) = run_pipeline(catalog).sections
    (tup,) = [t for t in sec.tuples
              if (t.M_name, t.N_name, *t.params)[:len(row)] == row]
    assert (tup.status, tup.detail) == (status, detail)


@pytest.mark.parametrize("make", [lambda: load("m12-144/catalog"), lambda: S7_ONE_HINT,
                                  lambda: AGL_1_13], ids=["m12", "s7", "agl-1-13"])
def test_a_hint_acts_on_as_many_cosets_as_its_index_in_the_group(make):
    """|G:H| = |G:M| * |M:H| for a hint H inside M, as ``load_catalogs``
    checks the orders, so the coset action of every hint has degree v."""
    (cat,) = load_catalogs(make())
    owners = {M.name: M for M in cat.maximals}
    for hint in cat.hints:
        act = coset_action(cat.group, hint.group)
        assert act.degree == owners[hint.inside].index * hint.index


@pytest.mark.parametrize("dataset, golden, enumerations, derivations", [
    ("fi22/catalog-stub", "fi22_report.txt", 135, 3),
    ("m12-144/catalog", "m12_report.txt", 14, 5),
])
def test_candidates_are_enumerated_once_per_order_and_index(
        monkeypatch, dataset, golden, enumerations, derivations):
    """Fi22's O7(3)a, O7(3)b and M12's M11a, M11b share one (|M|, index)
    each, and every (v,k,lam) gets its cdl rows and type tag once."""
    counts = {"enumerate_params": 0, "derive_cdl": 0}

    def counting(name):
        fn = getattr(pipeline, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(pipeline, name, wrapper)

    for name in counts:
        counting(name)
    report = run_pipeline(load(dataset))
    assert counts == {"enumerate_params": enumerations, "derive_cdl": derivations}
    assert report.to_text() == (GOLDEN / golden).read_text()


def _unfiltered_candidates(M):
    return [c for v in candidate_vs(M) for c in enumerate_params(v, M.order)]


@pytest.mark.parametrize("make", [
    lambda: load("fi22/catalog-stub"),
    lambda: load("m12-144/catalog"),
    lambda: S7_ONE_HINT,
    lambda: AGL_1_13,
], ids=["fi22", "m12", "s7-one-hint", "agl-1-13"])
def test_candidates_skip_only_what_enumerate_params_rejects(make):
    """The gcd test before ``enumerate_params`` drops no candidate."""
    (cat,) = load_catalogs(make())
    large = [M for M in cat.maximals if large_filter(cat.order, M.order)]
    assert large
    for M in large:
        assert pipeline._candidates(M) == _unfiltered_candidates(M)


_SMOOTH_CAPS = {2: 6, 3: 4, 5: 2, 7: 2, 11: 1, 13: 1}


@given(exponents=st.tuples(*(st.integers(0, e) for e in _SMOOTH_CAPS.values())),
       index=st.integers(1, 10**4), factored=st.booleans())
@settings(max_examples=60, deadline=None)
def test_candidates_skip_only_what_enumerate_params_rejects_on_smooth_orders(
        exponents, index, factored):
    fact = dict(zip(_SMOOTH_CAPS, exponents))
    order = math.prod(p**e for p, e in fact.items())
    M = MaximalRecord("M", order, index, order_factorization=fact if factored else None)
    assert pipeline._candidates(M) == _unfiltered_candidates(M)


def test_run_pipeline_empty_catalog():
    report = run_pipeline({})
    assert report.sections == []
    assert "empty catalog" in report.to_text()
