import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdesign.perm import Permutation, parse_cycles, cycle_string


def test_involution_squares_to_identity():
    p = parse_cycles("(1,2)", 3)
    assert (p * p).is_identity()


def test_identity_law():
    p = parse_cycles("(1,2,3)", 3)
    e = Permutation.identity(3)
    assert p * e == p
    assert e * p == p


def test_compose_applies_left_then_right():
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    assert p * q == parse_cycles("(1,3,2)", 3)


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        parse_cycles("(1,2)", 2) * parse_cycles("(1,2)", 3)


def test_inverse_of_three_cycle():
    assert parse_cycles("(1,2,3)", 3).inverse() == parse_cycles("(1,3,2)", 3)


def test_inverse_of_identity():
    assert Permutation.identity(5).inverse().is_identity()


def test_constructor_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1, 2])


def test_parse_basic():
    assert parse_cycles("(1,2,3)", 4).images == (2, 3, 1, 4)
    assert parse_cycles("", 5).is_identity()
    assert parse_cycles("()", 5).is_identity()
    assert parse_cycles(" (1, 2) ( 3 ,6 ) ", 6) == parse_cycles("(1,2)(3,6)", 6)


def test_parse_errors_name_the_problem():
    with pytest.raises(ValueError, match="repeated"):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ValueError, match="outside"):
        parse_cycles("(1,9)", 4)
    with pytest.raises(ValueError, match="malformed"):
        parse_cycles("(1,2", 4)
    with pytest.raises(ValueError, match="empty entry"):
        parse_cycles("(1,,2)", 4)


def test_order_and_cycles():
    p = parse_cycles("(1,2)(3,4,5)", 6)
    assert p.order() == 6
    assert p.cycles() == [(1, 2), (3, 4, 5)]
    assert p.moved() == [1, 2, 3, 4, 5]
    assert p.min_moved() == 1


def test_cycle_string_of_identity():
    assert cycle_string(Permutation.identity(3)) == "()"


@st.composite
def permutations(draw, max_degree=500):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(images)


@given(permutations())
@settings(max_examples=150)
def test_parse_print_round_trip(p):
    assert parse_cycles(cycle_string(p), p.degree) == p


@st.composite
def permutation_triples(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ps = [
        Permutation(draw(st.permutations(list(range(1, n + 1)))))
        for _ in range(3)
    ]
    return ps


@given(permutation_triples())
def test_group_laws(ps):
    p, q, r = ps
    assert (p * p.inverse()).is_identity()
    assert (p * q) * r == p * (q * r)


@given(permutations(max_degree=60))
def test_inverse_round_trip(p):
    assert p.inverse().inverse() == p
    assert p ** p.order() == Permutation.identity(p.degree)
