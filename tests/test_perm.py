import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdesign.perm import (
    MAX_DEGREE,
    Permutation,
    _compose,
    _pack,
    _set_key,
    _set_maps,
    _set_points,
    _set_row,
    cycle_string,
    parse_cycles,
)

from helpers import reference_parse_cycles


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


def test_identity_refuses_degree_0():
    with pytest.raises(ValueError) as exc:
        Permutation.identity(0)
    assert str(exc.value) == "degree must be positive"


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


_ENTRY = st.one_of(st.integers(0, 14), st.sampled_from(["", "007", "-1", "x"]))
_GAP = st.sampled_from(["", "", "", " ", "\t", "\n ", "\u00a0"])
_JUNK = st.sampled_from([""] * 10 + [")", "(", "(1", "1", ",", "(1,2", "[1]", "()", "(,)"])


@st.composite
def cycle_texts(draw):
    """(text, degree): disjoint cycles of points, or cycles of
    entries in and out of range with empty entries and repeats, set among
    whitespace, ``()`` and junk, at degree 1-12, the same shifted past 255,
    or a degree out of bounds."""
    shift = draw(st.sampled_from([0, 0, 0, 288]))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):  # at times with n + 1, just out of range, or a repeat
        top = n + draw(st.sampled_from([0, 0, 1]))
        points = draw(st.permutations(range(1, top + 1)))[:draw(st.integers(0, top))]
        points += points[:draw(st.sampled_from([0, 0, 1]))]
        cuts = sorted(draw(st.lists(st.integers(0, len(points)), max_size=4)))
        cycles = [points[i:j] for i, j in zip([0, *cuts], [*cuts, len(points)])]
    else:
        cycles = draw(st.lists(st.lists(_ENTRY, max_size=5), max_size=5))
    pieces = [draw(_GAP)]
    for entries in cycles:
        texts = [str(e + shift) if isinstance(e, int) and e else str(e) for e in entries]
        pieces += ["(", ",".join(texts), ")", draw(_GAP), draw(_JUNK) if draw(st.booleans()) else ""]
    pieces.append(draw(_JUNK))
    return "".join(pieces), draw(st.sampled_from([n + shift] * 9 + [0, MAX_DEGREE + 1]))


def _parse_outcome(parse, text, degree):
    """(degree, table type, table) or the ValueError message; no repr of a
    parsed permutation is formed, so a wrong table cannot hang a report."""
    try:
        p = parse(text, degree)
    except ValueError as exc:
        return str(exc)
    return p.degree, type(p.table), p.table


@given(cycle_texts())
@settings(max_examples=600, deadline=None)
def test_parse_matches_the_cycle_by_cycle_reference(case):
    """The table, or the ValueError message naming the first error."""
    text, degree = case
    assert _parse_outcome(parse_cycles, text, degree) \
        == _parse_outcome(reference_parse_cycles, text, degree)


def test_parse_reads_a_long_number_as_the_reference_does():
    for text in ("(1," + "9" * 5000 + ")", "(0," + "9" * 5000 + ")", "(1,2)(" + "0" * 5000 + "1)"):
        assert _parse_outcome(parse_cycles, text, 5) == _parse_outcome(reference_parse_cycles, text, 5)


def test_parse_rejects_a_degree_outside_the_bound_before_allocating():
    for degree in (0, MAX_DEGREE + 1, 99999999999):
        with pytest.raises(ValueError, match=f"degree {degree} is outside 1..{MAX_DEGREE}"):
            parse_cycles("(1,2)", degree)


def test_order_and_cycles():
    p = parse_cycles("(1,2)(3,4,5)", 6)
    assert p.order() == 6
    assert p.cycles() == [(1, 2), (3, 4, 5)]
    assert p.moved() == [1, 2, 3, 4, 5]
    assert p.min_moved() == 1


def test_cycle_string_of_identity():
    assert cycle_string(Permutation.identity(3)) == "()"


@pytest.mark.parametrize("images", [
    (2, 3, 2, 4),  # 1 -> 2 -> 3 -> 2: the walk from 1 meets 2 again
    (1, 1, 3),  # 2 -> 1, a fixed point
    (2, 1, 4, 4),  # a 2-cycle, then 3 -> 4, a fixed point
    (*range(2, 300), 2),  # past the byte cut-off: 299 -> 2
])
def test_cycles_of_a_table_that_is_not_a_bijection_raise(images):
    """Only the private constructors can make such a table; printing it
    fails at once instead of walking forever."""
    n = len(images)
    p = Permutation._raw(_pack((0, *images), n), n)
    with pytest.raises(ValueError, match="not a bijection"):
        repr(p)
    with pytest.raises(ValueError, match="not a bijection"):
        p.cycles()


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


# ---- the two kernels: translate tables up to degree 255, tuples above ----------

BOUNDARY_DEGREES = [1, 2, 255, 256, 300]


def _ref_mul(p, q):
    """Plain-tuple product, (p * q)(i) = q(p(i))."""
    return tuple(q[x - 1] for x in p)


def _ref_inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p, 1):
        inv[x - 1] = i
    return tuple(inv)


def _ref_cycles(p):
    seen, out = set(), []
    for i in range(1, len(p) + 1):
        if i in seen or p[i - 1] == i:
            continue
        cyc, j = [i], p[i - 1]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j - 1]
        out.append(tuple(cyc))
    return out


def _ref_order(p):
    order, q, ident = 1, p, tuple(range(1, len(p) + 1))
    while q != ident:
        q = _ref_mul(q, p)
        order += 1
    return order


@st.composite
def boundary_pairs(draw):
    n = draw(st.sampled_from(BOUNDARY_DEGREES))
    points = list(range(1, n + 1))
    return n, tuple(draw(st.permutations(points))), tuple(draw(st.permutations(points)))


@given(boundary_pairs(), st.integers(min_value=-3, max_value=7))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_a_plain_tuple_reference(pair, e):
    n, a, b = pair
    p, q = Permutation(a), Permutation(b)
    assert p.degree == n
    assert p.images == a and (p * q).images == _ref_mul(a, b)
    assert _compose(n)(p.table, q.table) == (p * q).table
    assert type(p.images) is tuple and all(type(x) is int for x in p.images)
    assert p.inverse().images == _ref_inverse(a)
    power = tuple(range(1, n + 1))
    for _ in range(abs(e)):
        power = _ref_mul(power, a if e > 0 else _ref_inverse(a))
    assert (p ** e).images == power
    assert p.cycles() == _ref_cycles(a)
    assert p.order() == math.lcm(*map(len, _ref_cycles(a)))
    assert (p ** p.order()).is_identity()
    assert [p(i) for i in range(1, n + 1)] == list(a)
    assert (p == q) == (a == b) and (p == Permutation(a)) and hash(p) == hash(Permutation(a))
    assert (p * p.inverse()).is_identity() and (p.inverse() * p) == Permutation.identity(n)
    assert p.is_identity() == (a == tuple(range(1, n + 1)))


@pytest.mark.parametrize("n", BOUNDARY_DEGREES)
def test_kernel_order_and_points_outside_the_degree(n):
    shift = Permutation([i % n + 1 for i in range(1, n + 1)])
    assert shift.order() == _ref_order(shift.images) == n
    assert parse_cycles(cycle_string(shift), n) == shift
    for bad in (0, n + 1):
        with pytest.raises(ValueError, match="outside"):
            shift(bad)
    with pytest.raises(ValueError, match="degree mismatch"):
        shift * Permutation.identity(n + 1)


def test_identities_of_different_degrees_differ():
    assert Permutation.identity(5) != Permutation.identity(6)
    assert parse_cycles("(1,2)", 5) != parse_cycles("(1,2)", 6)
    assert Permutation.identity(255) != Permutation.identity(256)
    assert len({Permutation.identity(5), Permutation.identity(6)}) == 2


def test_constructor_checks_the_bijection_past_the_byte_cut_off():
    with pytest.raises(ValueError, match="repeated"):
        Permutation([1] * 300)
    with pytest.raises(ValueError, match="outside"):
        Permutation(list(range(2, 258)))


# ---- the point-set kernel: byte masks, and sorted tuples for sparse sets above 255 ----

@pytest.mark.parametrize("n", [*range(1, 10), 254, 255, 256, 257, 263])
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_set_kernel_images_match_the_sorted_point_images(n, data):
    points = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
    count = data.draw(st.integers(min_value=1, max_value=3))
    perms = [Permutation(data.draw(st.permutations(range(1, n + 1)))) for _ in range(count)]
    key = _set_key(points, n)
    assert _set_points(key, n) == tuple(sorted(points))
    assert _set_key(sorted(points, reverse=True), n) == key
    for g, image in zip(perms, _set_maps(perms, n)):
        got = _set_points(image(key), n)
        assert got == tuple(sorted(g(x) for x in points))
        assert all(type(x) is int and 1 <= x <= n for x in got)
        assert _set_points(image(image(key)), n) == tuple(sorted((g * g)(x) for x in points))


@pytest.mark.parametrize("n", [1, 2, 144, 254, 255, 256, 263, 511, 512, 1023])
def test_mask_read_back_at_the_ends_of_the_byte_range(n):
    for points in ((), (1,), (n,), (1, n), tuple(range(1, n + 1)), tuple(range(2, n + 1, 2)),
                   tuple(range(1, (n + 1) // 2 + 1))):
        points = tuple(sorted(set(points)))
        key = _set_key(points, n)
        got = _set_points(key, n)
        assert got == points and all(type(x) is int for x in got)
        if type(key) is bytes:
            assert _set_points(_set_row(key), n) == points


@pytest.mark.parametrize("n", [256, 257, 263, 300])
def test_gather_images_of_small_and_large_sets_past_the_byte_range(n):
    """Above degree 255 a sparse set's image is one itemgetter gather,
    which returns a bare image for one index, and a set of at least
    (n - 1) / 2 points maps as a mask over 256-point planes; every shape of
    set maps right."""
    shift = Permutation([i % n + 1 for i in range(1, n + 1)])
    scale = Permutation([(3 * i) % n + 1 for i in range(n)]) if n % 3 else shift.inverse()
    perms = [shift, scale, shift * scale]
    for points in ((), (1,), (n,), (1, n), tuple(range(1, n + 1)), tuple(range(2, n + 1, 2))):
        key = _set_key(points, n)
        for g, image in zip(perms, _set_maps(perms, n)):
            got = _set_points(image(key), n)
            assert got == tuple(sorted(g(x) for x in points))
            assert type(got) is tuple and all(type(x) is int for x in got)


# ---- masks over 256-point planes above degree 255 -----------------------------

PLANE_DEGREES = [256, 257, 263, 511, 512, 513, 600]


@st.composite
def plane_sets(draw, n):
    """A dense set (at least (n - 1) / 2 points, keyed by a mask) or a
    sparse one (a sorted tuple), holding some of the points 256, 512 and n
    that open a plane or end the degree."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    least = n // 2  # the fewest points of a dense set: 2 * least + 1 >= n
    ends = {x for x in (256, 512, n) if x <= n}
    chosen = {x for x in sorted(ends) if draw(st.booleans())}
    if draw(st.booleans()):
        points = set(rng.sample(range(1, n + 1), rng.randint(least, n)))
    else:  # at most least - 1 points once the ends are added
        points = set(rng.sample(range(1, n + 1), rng.randint(0, least - 4))) - ends
    return points | chosen


@pytest.mark.parametrize("n", PLANE_DEGREES)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_plane_masks_match_the_sorted_point_images(n, data):
    """A dense set's key is a byte mask and a sparse set's the sorted tuple;
    every image key reads back as the sorted point images and equals the
    key made from them, so one set has one key whichever way it was
    reached, and two masks meet in as many points as their sets."""
    points = data.draw(plane_sets(n))
    other = data.draw(plane_sets(n))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    perms = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(2)]
    perms.append(perms[0] * perms[1])
    key = _set_key(points, n)
    assert type(key) is (bytes if 2 * len(points) + 1 >= n else tuple)
    assert _set_points(key, n) == tuple(sorted(points))
    for maps in (_set_maps(perms, n), _set_maps(perms, n, [key])):
        for g, image in zip(perms, maps):
            got = _set_points(image(key), n)
            assert got == tuple(sorted(g(x) for x in points))
            assert all(type(x) is int for x in got)
            assert image(key) == _set_key(got, n)
    other_key = _set_key(other, n)
    if type(key) is bytes and type(other_key) is bytes:
        assert (_set_row(key) & _set_row(other_key)).bit_count() == len(points & other)


@pytest.mark.parametrize("n", PLANE_DEGREES)
def test_a_mask_keys_a_set_of_at_least_half_the_points_less_one(n):
    least = n // 2  # 2 * least + 1 >= n > 2 * (least - 1) + 1
    assert type(_set_key(range(1, least + 1), n)) is bytes
    assert type(_set_key(range(2, least + 1), n)) is tuple


@pytest.mark.parametrize("n", [1023, 1024, 1500])
def test_masks_stop_at_four_planes(n):
    """A mask's image costs about planes * degree bytes of work, so past
    degree 1023 even a set of every point is a sorted tuple."""
    points = range(1, n + 1)
    key = _set_key(points, n)
    assert type(key) is (bytes if n <= 1023 else tuple)
    shift = Permutation([i % n + 1 for i in range(1, n + 1)])
    (image,) = _set_maps([shift], n)
    assert _set_points(image(key), n) == tuple(points)
