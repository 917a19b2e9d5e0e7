import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdesign import params
from symdesign.arith import divisors, factorize, is_probable_prime
from symdesign.catalog import load, load_catalogs
from symdesign.pipeline import candidate_vs, large_filter
from symdesign.params import (
    ParamCandidate,
    check_basic,
    classify_type,
    derive_cdl,
    enumerate_params,
)

from helpers import brute_force_params, reference_enumerate_params


# ---- arith helpers ----------------------------------------------------------


def test_factorize_small():
    assert factorize(7920) == {2: 4, 3: 2, 5: 1, 11: 1}
    assert factorize(1) == {}


def test_factorize_large_group_order():
    fi22 = 64561751654400
    fact = factorize(fi22)
    assert fact == {2: 17, 3: 9, 5: 2, 7: 1, 11: 1, 13: 1}
    total = 1
    for p, e in fact.items():
        total *= p**e
    assert total == fi22


def test_factorize_splits_big_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_refuses_a_cofactor_that_miller_rabin_cannot_prove_prime():
    p, q = 1287836182261, 2575672364521  # p * q passes every Miller-Rabin base in use
    n = p * q
    assert n == 3_317_044_064_679_887_385_961_981 and is_probable_prime(n)
    with pytest.raises(ValueError, match=f"^cannot factorize {n}: {n} is not proven prime$"):
        factorize(n)
    with pytest.raises(ValueError, match="is not proven prime$"):
        factorize(6 * n)
    assert factorize(p * 1000003) == {1000003: 1, p: 1}  # below the bound, as before


def test_base_41_refutes_the_strong_pseudoprime_to_the_first_twelve_primes():
    """399165290221 * 798330580441 passes bases 2..37 and lies below the
    proof bound; base 41 refutes it, so it factorizes."""
    p, q = 399165290221, 798330580441
    assert not is_probable_prime(p * q)
    assert factorize(p * q) == {p: 1, q: 1}


def test_divisor_count():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert len(divisors(7920)) == 60


@given(st.integers(min_value=1, max_value=10**6))
def test_divisors_divide(n):
    for d in divisors(n):
        assert n % d == 0


@given(st.integers(min_value=1, max_value=10**4))
def test_divisors_match_brute_force(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def _catalog_factorizations():
    """(order, factorization) of Fi22, O7(3) and M11, as the catalogs
    state them."""
    fi22 = load("fi22/catalog-stub")
    group = fi22["group"]
    out = [pytest.param(int(group["order"]), dict(group["order_factorization"]), id="Fi22")]
    for data, name in ((fi22, "O7(3)a"), (load("m12-144/catalog"), "M11a")):
        (cat,) = load_catalogs(data)
        (M,) = [M for M in cat.maximals if M.name == name]
        out.append(pytest.param(M.order, M.order_factorization, id=name))
    return out


@pytest.mark.parametrize("n, fact", _catalog_factorizations())
def test_divisors_of_factored_catalog_orders(n, fact):
    divs = divisors(n, fact)
    assert all(a < b for a, b in zip(divs, divs[1:]))
    assert all(n % d == 0 for d in divs)
    assert len(divs) == math.prod(e + 1 for e in fact.values())


def test_divisors_take_an_empty_or_zero_exponent_factorization():
    assert divisors(1, {}) == [1]
    assert divisors(12, {2: 2, 5: 0, 3: 1}) == [1, 2, 3, 4, 6, 12]


def test_primality():
    assert is_probable_prime(2)
    assert is_probable_prime(95039 // 7) is False or True  # no exception
    assert not is_probable_prime(1)
    assert is_probable_prime(10**18 + 9)


# ---- basic admissibility -----------------------------------------------------


def test_check_basic_accepts_the_m12_parameters():
    assert check_basic(144, 66, 30)
    assert 66 * 65 == 30 * 143
    assert 30 * 144 < 66 * 66


def test_check_basic_accepts_fano():
    assert check_basic(7, 3, 1)


def test_check_basic_rejects_counting_failure():
    result = check_basic(144, 66, 29)
    assert not result
    assert "k(k-1) != lam(v-1)" in result.failures


def test_check_basic_rejects_trivial_k():
    assert not check_basic(7, 6, 5)
    assert not check_basic(7, 2, 0)


@pytest.mark.parametrize("check", [check_basic, classify_type])
def test_basic_checks_reject_a_nonpositive_v_or_k(check):
    with pytest.raises(ValueError, match="v = 0 must be positive"):
        check(0, 3, 1)
    with pytest.raises(ValueError, match="k = -1 must be positive"):
        check(7, -1, 1)


# ---- enumeration against the oracle -----------------------------------------


def test_enumerate_m12_instance():
    cands = enumerate_params(144, 7920)
    assert [c.triple for c in cands] == [(144, 66, 30)]
    c = cands[0]
    assert (c.t, c.m, c.k1, c.k2, c.lam1, c.lam2) == (11, 5, 13, 11, 5, 6)


def test_enumerate_small_instances():
    # with subgroup order 24 both the plane and its complement survive the
    # k-divides-order filter; order 42 keeps only k = 3
    assert [c.triple for c in enumerate_params(7, 24)] == [(7, 3, 1), (7, 4, 2)]
    assert [c.triple for c in enumerate_params(7, 42)] == [(7, 3, 1)]
    assert enumerate_params(5, 120) == []
    assert enumerate_params(1, 120) == []
    with pytest.raises(ValueError, match="v = 0 must be positive"):
        enumerate_params(0, 120)


def test_enumerate_agrees_with_brute_force_on_named_instances():
    for v, m in ((144, 7920), (7, 42), (5, 120), (96, 7920), (36, 7920)):
        assert [c.triple for c in enumerate_params(v, m)] == brute_force_params(v, m)


@given(
    st.integers(min_value=4, max_value=5000),
    st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=150, deadline=None)
def test_enumerate_matches_brute_force(v, m_order):
    assert [c.triple for c in enumerate_params(v, m_order)] == brute_force_params(
        v, m_order
    )


def _pipeline_inputs(dataset):
    """Every (v, |M|, factorization) that run_pipeline enumerates for a catalog."""
    out = []
    for cat in load_catalogs(load(dataset)):
        for M in cat.maximals:
            if large_filter(cat.order, M.order):
                out += [(v, M.order, M.order_factorization)
                        for v in candidate_vs(M)]
    return out


@pytest.mark.parametrize("dataset, count, top", [
    ("fi22/catalog-stub", 1598, 64561751654400),
    ("m12-144/catalog", 141, 95040),
])
def test_enumerate_matches_reference_on_every_pipeline_input(dataset, count, top):
    inputs = _pipeline_inputs(dataset)
    assert len(inputs) == count and max(v for v, _, _ in inputs) == top
    for v, m_order, fact in inputs:
        assert enumerate_params(v, m_order) == reference_enumerate_params(
            v, m_order, fact
        ), (v, m_order)


_SMOOTH = (2, 3, 5, 7, 11)
_smooth_exponents = st.lists(st.integers(0, 3), min_size=5, max_size=5)


def _smooth(exponents):
    return math.prod(p**e for p, e in zip(_SMOOTH, exponents))


@st.composite
def _crt_edge_cases(draw):
    """(v, |M|) pairs at the edges of the unitary-split construction."""
    m_exps = draw(_smooth_exponents)
    kind = draw(st.sampled_from(
        ["planted", "prime-power", "deeper", "trivial-M", "v=4", "huge-v"]))
    if kind == "planted":
        # a k dividing |M| and a v-1 dividing k(k-1) with k < v-1
        m_exps[1] = max(m_exps[1], 1)
        k = draw(st.sampled_from([d for d in divisors(_smooth(m_exps)) if d > 2]))
        v = draw(st.sampled_from([n for n in divisors(k * (k - 1)) if n > k + 1])) + 1
    elif kind == "prime-power":
        v = draw(st.sampled_from(_SMOOTH + (13, 10007))) ** draw(st.integers(1, 12)) + 1
    elif kind == "deeper":
        # a prime of |M| divides v-1 to a higher power than it divides |M|
        i = draw(st.integers(0, 4))
        m_exps[i] = max(m_exps[i], 1)
        n_exps = [max(0, e + draw(st.integers(-3, 3))) for e in m_exps]
        n_exps[i] = m_exps[i] + draw(st.integers(1, 4))
        v = _smooth(n_exps) * draw(st.sampled_from([1, 13, 17 * 19])) + 1
    elif kind == "trivial-M":
        m_exps, v = [0] * 5, draw(st.integers(1, 10**12))
    elif kind == "v=4":
        v = 4
    else:
        v = draw(st.integers(4, 10**12))
    return v, _smooth(m_exps)


@given(_crt_edge_cases())
@settings(max_examples=300, deadline=None)
def test_enumerate_matches_reference_on_crt_edge_cases(case):
    v, m_order = case
    assert enumerate_params(v, m_order) == reference_enumerate_params(v, m_order)


@pytest.mark.parametrize("v, m_order", [
    (10, 10**38 - 1),  # factoring |M| itself takes Pollard rho beyond 10 s
    (144, 7920),
    (1000, 2**89 - 1),
    (2017, 2**5 * 3**2 * 7 * (2**61 - 1)),
])
def test_enumerate_factors_only_a_divisor_of_v_minus_1(monkeypatch, v, m_order):
    def guarded(n):
        if (v - 1) % n:
            raise AssertionError(f"factorize({n}) on a number that does not divide v-1")
        return factorize(n)

    monkeypatch.setattr(params, "factorize", guarded)
    assert [c.triple for c in enumerate_params(v, m_order)] == brute_force_params(v, m_order)


def _refuse_factorize(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called although gcd(v-1, |M|) = 1")

    monkeypatch.setattr(params, "factorize", refuse)


def test_enumerate_skips_factoring_on_the_fi22_inputs_prime_to_the_order(monkeypatch):
    """1,328 of the 1,598 Fi22 pipeline inputs have gcd(v-1, |M|) = 1; the
    five smallest distinct v are small enough for the brute-force scan."""
    coprime = sorted({(v, m) for v, m, _ in _pipeline_inputs("fi22/catalog-stub")
                      if math.gcd(v - 1, m) == 1})
    assert len(coprime) == 664 and coprime[0] == (28160, 4585351680)
    _refuse_factorize(monkeypatch)
    assert all(enumerate_params(v, m) == [] for v, m in coprime)
    for v, m in coprime[:5]:
        assert brute_force_params(v, m) == []


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_enumerate_skips_factoring_when_v_minus_1_is_prime_to_the_order(v, m_order):
    while math.gcd(v - 1, m_order) > 1:  # strip every prime of v-1 from |M|
        m_order //= math.gcd(v - 1, m_order)
    with pytest.MonkeyPatch.context() as mp:
        _refuse_factorize(mp)
        assert enumerate_params(v, m_order) == [] == brute_force_params(v, m_order)


def test_candidate_witness_identities_hold_on_random_instances():
    rng = random.Random(99)
    seen = 0
    while seen < 40:
        v = rng.randint(4, 5000)
        m = rng.randint(1, 10**6)
        for cand in enumerate_params(v, m):
            # constructor re-checks; assert the headline identities anyway
            assert cand.m * cand.k == cand.lam * cand.t
            assert (cand.k - 1) % cand.m == 0
            assert math.gcd(cand.m, cand.k) == 1
            assert cand.lam == cand.lam1 * cand.lam2
            assert cand.v - 1 == cand.k1 * cand.k2
            assert cand.t % cand.k2 == 0
            assert cand.m % cand.lam1 == 0
            assert cand.lam1 < cand.k2
            assert math.gcd(cand.lam1, cand.k2) == 1
            seen += 1


def test_candidate_rejects_inconsistent_witnesses():
    with pytest.raises(ValueError):
        ParamCandidate(v=144, k=66, lam=30, t=11, m=4, k1=13, k2=11, lam1=5, lam2=6)
    good = ParamCandidate(v=144, k=66, lam=30, t=11, m=5, k1=13, k2=11, lam1=5, lam2=6)
    with pytest.raises(ValueError):
        good._replace(m=4)


# ---- type classification -----------------------------------------------------


def test_classify_m12_parameters_as_bounded_type():
    t = classify_type(144, 66, 30)
    assert t.tag == "a"
    assert 2 * 66 <= 30 * 27


def test_classify_biplane_family_witnesses():
    t = classify_type(16, 6, 2)
    assert t.tag == "b"
    assert t.witnesses == ((4, 4, 2), (4, 4, 2))


def test_classify_half_square_family():
    t = classify_type(15, 8, 4)
    assert t.tag == "c"
    assert t.witnesses == ((3, 5, 2),)


def test_classify_third_family():
    t = classify_type(247, 42, 7)
    assert t.tag == "d"
    assert t.witnesses == ((13, 19, 3),)


def test_classify_none():
    assert classify_type(11, 5, 2).tag == "none"


def test_classify_degenerate_first_member_of_family_d():
    # lam = 1 gives the (7,3,1) plane; the clause matches with a
    # single-class witness that the class-equation solver rightly refuses
    t = classify_type(7, 3, 1)
    assert t.tag == "d"
    assert t.witnesses == ((7, 1, 3),)
    assert derive_cdl(7, 3, 1) == []


def _family_b(lam):
    return lam * lam * (lam + 2), lam * (lam + 1), lam


def _family_c(lam):
    return (lam + 2) * (lam * lam - 2 * lam + 2) // 4, lam * lam // 2, lam


def _family_d(lam):
    return (lam + 6) * (lam * lam + 4 * lam - 1) // 4, lam * (lam + 5) // 2, lam


def _c_lams(limit=50):
    out = [lam for lam in range(4, limit + 1, 4)]
    for u in range(3, 12, 2):
        lam = 2 * u * u
        if lam <= limit and math.isqrt(2 * (u * u - 1)) ** 2 == 2 * (u * u - 1):
            out.append(lam)
    return sorted(out)


def test_family_b_classifies_for_all_lambda_up_to_50():
    for lam in range(2, 51):
        v, k, _ = _family_b(lam)
        assert check_basic(v, k, lam)
        t = classify_type(v, k, lam)
        assert t.tag == "b", (lam, t)
        rows = derive_cdl(v, k, lam)
        for c, d, ell in t.witnesses:
            s = k // ell
            assert (c, d, ell, s) in rows
            assert v == c * d and k == ell * s
            assert lam * (c - 1) == k * (ell - 1)


def test_family_c_classifies_for_admissible_lambda():
    lams = _c_lams()
    assert 18 in lams  # lam = 2*3^2 with 2(u^2-1) = 16 a square
    for lam in lams:
        v, k, _ = _family_c(lam)
        assert check_basic(v, k, lam)
        t = classify_type(v, k, lam)
        assert t.tag == "c", (lam, t)
        ((c, d, ell),) = t.witnesses
        s = k // ell
        assert (c, d, ell, s) in derive_cdl(v, k, lam)
        assert v == c * d and k == ell * s and lam * (c - 1) == k * (ell - 1)


def test_family_d_classifies_for_admissible_lambda():
    lams = [lam for lam in range(3, 50) if lam % 6 in (1, 3)]
    for lam in lams:
        v, k, _ = _family_d(lam)
        assert check_basic(v, k, lam)
        t = classify_type(v, k, lam)
        # lam = 3 is the one coincidence: the shape is simultaneously the
        # lam = 3 member of family b, which wins on clause order
        assert "d" in t.all_tags, (lam, t)
        assert t.tag == ("b" if lam == 3 else "d"), (lam, t)
        c, d, ell = lam + 6, (lam * lam + 4 * lam - 1) // 4, 3
        s = k // ell
        assert (c, d, ell, s) in derive_cdl(v, k, lam)
        assert v == c * d and k == ell * s and lam * (c - 1) == k * (ell - 1)


def test_family_c_side_condition_excludes_odd_nonsquare_cases():
    # lam = 2*5^2: 2(u^2-1) = 48 is not a square, so the shape must not match
    lam = 50
    v, k, _ = _family_c(lam)
    assert classify_type(v, k, lam).tag != "c"


# ---- class equation solutions -------------------------------------------------


def test_derive_cdl_m12():
    assert derive_cdl(144, 66, 30) == [(12, 12, 6, 11)]


def test_derive_cdl_biplane():
    assert derive_cdl(16, 6, 2) == [(4, 4, 2, 3)]


def test_derive_cdl_prime_v_empty():
    assert derive_cdl(7, 3, 1) == []


def test_derive_cdl_solutions_satisfy_equations():
    for v, k, lam in ((144, 66, 30), (16, 6, 2), (96, 20, 4), (45, 12, 3)):
        for c, d, ell, s in derive_cdl(v, k, lam):
            assert v == c * d
            assert k == ell * s
            assert lam * (c - 1) == k * (ell - 1)
            assert s <= d and ell >= 2 and s >= 2
