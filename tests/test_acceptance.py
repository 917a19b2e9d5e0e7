"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every expectation is exact; the two timed criteria
assert their wall-clock budgets directly.
"""

import random
import time

from symdesign.catalog import load
from symdesign.design import (
    complement,
    construct_design,
    imprimitivity_profile,
    is_flag_transitive,
    verify_symmetric,
)
from symdesign.group import parse_group_file
from symdesign.params import derive_cdl, check_basic, classify_type, enumerate_params
from symdesign.pipeline import first_bad_subdegree, run_pipeline

from helpers import brute_force_params, m12_group_texts


def _announce(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_acceptance_1_end_to_end_reconstruction():
    start = time.perf_counter()
    G = load("m12-144/G")
    block = load("m12-144/base-block")
    design = construct_design(G, block)
    assert design.num_blocks == 144
    params = verify_symmetric(design)
    assert (params.v, params.k, params.lam) == (144, 66, 30)
    assert is_flag_transitive(design, G)
    assert not is_flag_transitive(complement(design), G)
    systems = G.minimal_block_systems()
    assert len(systems) == 2
    assert all(s.num_classes == 12 and s.class_size == 12 for s in systems)
    one_classes = sorted(s.class_containing(1) for s in systems)
    assert one_classes == [
        tuple(range(1, 13)),
        (1, 13, 35, 38, 57, 62, 81, 91, 103, 109, 128, 140),
    ]
    for system in systems:
        prof = imprimitivity_profile(design, system)
        assert (prof.c, prof.d, prof.ell, prof.s) == (12, 12, 6, 11)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"end-to-end run took {elapsed:.2f}s"
    _announce(1, f"(144,66,30) reconstructed end to end in {elapsed:.2f}s")


def test_acceptance_2_group_arithmetic():
    files = m12_group_texts()
    texts = [files["G"], files["H"], files["K"]]
    start = time.perf_counter()
    G, _ = parse_group_file(texts[0])
    H, _ = parse_group_file(texts[1])
    K, _ = parse_group_file(texts[2])
    og, oh, ok = G.order(), H.order(), K.order()
    elapsed = time.perf_counter() - start
    assert og == 95040
    assert oh == 660 and ok == 660
    assert og // oh == 144 and og // ok == 144
    assert elapsed < 1.0, f"order computations took {elapsed:.3f}s"
    _announce(2, f"|G|=95040, |H|=|K|=660, indices 144 in {elapsed:.3f}s")


def test_acceptance_3_orbit_and_rank():
    G = load("m12-144/G")
    K = load("m12-144/K")
    lengths = sorted(len(o) for o in K.orbits())
    assert lengths == [1, 11, 11, 55, 66]
    assert len(G.subdegrees(1)) == 5
    assert G.subdegrees(1) == [1, 11, 11, 55, 66]
    _announce(3, "K-orbit lengths {1,11,11,55,66}; rank 5 at point 1")


def test_acceptance_4_parameter_search():
    cands = enumerate_params(144, 7920)
    assert [c.triple for c in cands] == [(144, 66, 30)]
    rng = random.Random(20260808)
    checked = 0
    for _ in range(500):
        v = rng.randint(4, 5000)
        m_order = rng.randint(1, 10**6)
        fast = [c.triple for c in enumerate_params(v, m_order)]
        slow = brute_force_params(v, m_order)
        assert fast == slow, (v, m_order)
        checked += 1
    assert checked == 500
    _announce(4, "enumerate == brute force on 500 random instances")


def test_acceptance_5_subdegree_filter():
    assert first_bad_subdegree(66, 30, (1, 11, 11, 55, 66)) is None
    hs = (7, 42, 126, 210, 252, 630, 1260, 2520)
    assert first_bad_subdegree(420, 20, hs) is not None
    assert first_bad_subdegree(420, 20, hs) == 7
    _announce(5, "subdegree gate passes the M12 case, fails the 8800-point case at e=7")


def test_acceptance_6_pipeline_shape():
    report = run_pipeline(load("m12-144/catalog"))
    sec = report.sections[0]
    alive = sec.candidates()
    assert len(alive) == 6
    assert {t.M_name for t in alive} == {"M11a", "M11b"}
    assert {t.N_name for t in alive} == {"M11a", "M11b", "L2(11)max"}
    assert all(t.params == (144, 66, 30) for t in alive)
    assert all(t.cdl == ((12, 12, 6, 11),) for t in alive)
    blocked = [t for t in alive if t.N_name == "L2(11)max"]
    found = [t for t in alive if t.N_name != "L2(11)max"]
    assert len(blocked) == 2
    assert all(t.status == "no-block-of-length-k" for t in blocked)
    assert all("[12, 132]" in t.detail for t in blocked)
    assert len(found) == 4
    assert all(t.status == "design-found" for t in found)
    vectors = [
        (
            t.invariants["params"],
            t.invariants["subdegrees"],
            t.invariants["profiles"],
            t.invariants["block_intersections"],
        )
        for t in found
    ]
    assert all(v == vectors[0] for v in vectors)
    assert vectors[0][0] == (144, 66, 30)
    assert vectors[0][2] == ((12, 12, 6, 11), (12, 12, 6, 11))
    _announce(6, "M12 catalog: 6 candidate tuples; 2 no-block via {12,132}; "
                 "4 design-found with identical invariants")


def test_acceptance_7_class_b_elimination():
    report = run_pipeline(load("fi22/catalog-stub"))
    sec = report.sections[0]
    assert len(sec.tuples) == 12
    assert all(t.status == "nsg" for t in sec.tuples)
    assert sorted({t.i_H for t in sec.tuples}) == [14, 40, 105]
    assert sec.candidates() == []
    _announce(7, "Fi22 stub: every tuple nsg (i_H in {14,40,105} vs smallest index 351)")


def test_acceptance_8_clause_families():
    for lam in range(2, 51):
        v, k = lam * lam * (lam + 2), lam * (lam + 1)
        assert check_basic(v, k, lam)
        t = classify_type(v, k, lam)
        assert t.tag == "b"
        rows = derive_cdl(v, k, lam)
        for c, d, ell in t.witnesses:
            assert v == c * d and k == ell * (k // ell)
            assert lam * (c - 1) == k * (ell - 1)
            assert (c, d, ell, k // ell) in rows
    c_lams = [lam for lam in range(4, 51, 4)] + [18]
    for lam in sorted(c_lams):
        v, k = (lam + 2) * (lam * lam - 2 * lam + 2) // 4, lam * lam // 2
        assert check_basic(v, k, lam)
        t = classify_type(v, k, lam)
        assert t.tag == "c"
        ((c, d, ell),) = t.witnesses
        assert lam * (c - 1) == k * (ell - 1) and v == c * d
        assert (c, d, ell, k // ell) in derive_cdl(v, k, lam)
    for lam in [x for x in range(3, 50) if x % 6 in (1, 3)]:
        v, k = (lam + 6) * (lam * lam + 4 * lam - 1) // 4, lam * (lam + 5) // 2
        assert check_basic(v, k, lam)
        t = classify_type(v, k, lam)
        assert "d" in t.all_tags
        assert t.tag == ("b" if lam == 3 else "d")
        c, d, ell = lam + 6, (lam * lam + 4 * lam - 1) // 4, 3
        assert lam * (c - 1) == k * (ell - 1) and v == c * d
        assert (c, d, ell, k // ell) in derive_cdl(v, k, lam)
    _announce(8, "clause families b/c/d classify to their tags and solve the "
                 "class equations for lambda up to 50")
