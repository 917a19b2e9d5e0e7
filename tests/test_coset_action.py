"""Coset actions, walked over a point orbit or over canonical representatives,
checked against canonical-representative enumeration, and the stabilizer chain
the image carries over from G."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdesign.catalog import load, load_catalogs
from symdesign.group import PermGroup, StabChain, coset_action
from symdesign.perm import Permutation, cycle_string, parse_cycles

from helpers import (FIXTURES, chain_levels, cyclic, grp, paley, random_groups,
                     reference_coset_action, reference_stab_chain)


def random_elements(G, rng, count, length=12):
    out = []
    for _ in range(count):
        w = G.identity()
        for _ in range(length):
            w = w * rng.choice(G.generators)
        out.append(w)
    return out


def assert_matches_reference(G, H, rng, samples=10):
    """The same degree, generator rows and images of random members of G
    as the canonical-representative enumeration; returns the action."""
    act = coset_action(G, H)
    ref = reference_coset_action(G, H)
    assert act.degree == ref.degree
    assert [g.table for g in act.group.generators] == [g.table for g in ref.group.generators]
    for g in random_elements(G, rng, samples):
        assert act.image_of(g) == ref.image_of(g)
    return act


def on_points(act):
    """Whether the walk named the cosets by points, not by representatives."""
    return isinstance(act._orbit[0], int)


def assert_rejects_like_reference(act, ref, bad, message):
    with pytest.raises(ValueError) as want:
        ref.image_of(bad)
    with pytest.raises(ValueError) as got:
        act.image_of(bad)
    assert str(got.value) == str(want.value) == message


def m12_catalog(seed):
    """The M12 catalog; a nonzero seed relabels its 144 points."""
    data = load("m12-144/catalog")
    if seed:
        points = list(range(1, 145))
        random.Random(seed).shuffle(points)
        pi = Permutation(points)
        pi_inv = pi.inverse()
        for rec in (data["group"], *data["maximals"], *data["subgroup_hints"]):
            if rec.get("generators") is not None:
                rec["generators"] = [cycle_string(pi_inv * parse_cycles(s, 144) * pi)
                                     for s in rec["generators"]]
    [cat] = load_catalogs(data)
    return cat


def intransitive_cases():
    s3_c2 = grp(5, "(1,2,3)", "(1,2)", "(4,5)")
    # the first fixed point of the trivial subgroup has an orbit of length 2,
    # shorter than the index 6; the orbit of 3 is the regular one
    c6 = grp(8, "(1,2)(3,4,5,6,7,8)")
    return [(s3_c2, s3_c2.point_stabilizer(1)), (s3_c2, s3_c2.point_stabilizer(4)),
            (c6, PermGroup.trivial(8))]


# ---- the orbit labels agree with coset enumeration -------------------------


@pytest.mark.parametrize("seed", [0, 11, 12])
def test_m12_hints_match_enumeration(seed):
    cat = m12_catalog(seed)
    rng = random.Random(seed)
    assert len(cat.hints) == 4
    for hint in cat.hints:
        act = assert_matches_reference(cat.group, hint.group, rng, samples=6)
        assert on_points(act)
        assert act.group._chain is not None


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_point_stabilizers_match_enumeration(name):
    G, _ = FIXTURES[name]
    rng = random.Random(name)
    for point in (1, G.degree):
        H = G.point_stabilizer(point)
        act = assert_matches_reference(G, H, rng)
        x = act._orbit[0]  # the first point H fixes, not always ``point``
        assert all(h.table[x] == x for h in H.generators)
        assert act.group._chain is not None


@pytest.mark.parametrize("q", [11, 263])
def test_paley_point_stabilizer_matches_enumeration(q):
    G, _ = paley(q)
    act = assert_matches_reference(G, G.point_stabilizer(1), random.Random(q), samples=4)
    assert act.group._chain is not None


@pytest.mark.parametrize("case", range(3))
def test_a_proper_orbit_gets_no_carried_chain(case):
    G, H = intransitive_cases()[case]
    act = assert_matches_reference(G, H, random.Random(case))
    assert on_points(act) and act.degree < G.degree
    assert act.group._chain is None


def _paley_263_with_a_fixed_point():
    """Paley-263's group on 264 points, fixing point 264: the orbit of 1 is
    a proper orbit of a degree above 255."""
    G, _ = paley(263)
    G = PermGroup([Permutation([*g.images, 264]) for g in G.generators], degree=264)
    return G, G.point_stabilizer(1)


POINT_PATH_CASES = {
    "proper-orbit": lambda: intransitive_cases()[1],
    # H = G fixes 4, whose orbit {4} is the one coset: one label, and a
    # gather of slot 0 and one point still yields a tuple
    "orbit-of-length-1": lambda: (grp(5, "(1,2,3)", "(1,2)"), grp(5, "(1,2,3)", "(1,2)")),
    "degree-264": _paley_263_with_a_fixed_point,
}


@pytest.mark.parametrize("name", sorted(POINT_PATH_CASES))
def test_the_point_path_gathers_what_enumeration_labels(name):
    """The two gathers give the enumeration's rows and images, and an image
    group with no carried chain builds the full build's chain to |G|."""
    G, H = POINT_PATH_CASES[name]()
    act = assert_matches_reference(G, H, random.Random(name), samples=6)
    assert on_points(act) and act.degree < G.degree
    assert act.group._chain is None and act.group._bound == G.order()
    assert chain_levels(act.group.chain) == chain_levels(
        reference_stab_chain(act.group.generators, act.degree))


def test_subgroups_that_are_no_point_stabilizer_are_enumerated():
    S4, _ = FIXTURES["S4"]
    rng = random.Random(4)
    # <(2,3)> fixes 1 and 4 but is a proper subgroup of their stabilizers
    for H in (grp(4, "(2,3)"), grp(4, "(1,2)(3,4)", "(1,3)(2,4)"), S4):
        act = assert_matches_reference(S4, H, rng)
        assert not on_points(act) and act.group._chain is None
    G = load("m12-144/G")
    act = assert_matches_reference(G, load("m12-144/maximal-l211"), rng, samples=3)
    assert not on_points(act) and act.group._chain is None


# ---- the carried chain -----------------------------------------------------


CARRIED = ["m12-H", "m12-K", "paley-263", "C7-trivial", *sorted(FIXTURES)]


def carried_case(name):
    """(G, H) with H a point stabilizer of a transitive G."""
    if name.startswith("m12-"):
        return load("m12-144/G"), load(f"m12-144/{name[4:]}")
    if name == "paley-263":
        G, _ = paley(263)
        return G, G.point_stabilizer(1)
    if name == "C7-trivial":
        return cyclic(7), PermGroup.trivial(7)
    G, _ = FIXTURES[name]
    return G, G.point_stabilizer(1)


@pytest.mark.parametrize("name", CARRIED)
def test_the_carried_chain_is_complete(name):
    G, H = carried_case(name)
    act = coset_action(G, H)
    image = act.group
    assert image._chain is not None
    fresh = PermGroup(image.generators, degree=act.degree)
    assert image.order() == StabChain(image.generators, act.degree).order()
    base = image.chain.base
    for i, lv in enumerate(image.chain.levels):
        for g in lv.gens:
            assert fresh.contains(g)
            assert all(g.table[b] == b for b in base[:i])
    assert image.subdegrees(1) == fresh.subdegrees(1)
    assert image.minimal_block_systems() == fresh.minimal_block_systems()


# ---- errors ----------------------------------------------------------------


def test_image_of_rejects_what_enumeration_rejects():
    A5, _ = FIXTURES["A5"]
    orbit_path = coset_action(A5, A5.point_stabilizer(1))
    enumerated = coset_action(A5, grp(5, "(1,2,3)"))
    assert on_points(orbit_path) and not on_points(enumerated)
    for H, act in ((A5.point_stabilizer(1), orbit_path), (grp(5, "(1,2,3)"), enumerated)):
        ref = reference_coset_action(A5, H)
        for bad, message in ((parse_cycles("(1,2)", 5), "element is not in the acted-on group"),
                             (Permutation.identity(6), "degree mismatch: 5 vs 6")):
            assert_rejects_like_reference(act, ref, bad, message)


# ---- random groups -----------------------------------------------------------


@given(random_groups(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_groups_match_enumeration(G, rng):
    """A point stabilizer, a cyclic subgroup and the trivial group: between
    them both walks, each against the enumeration, and the same error for a
    permutation outside G (a missing transposition, unless G is symmetric)."""
    n = G.degree
    [member] = random_elements(G, rng, 1)
    outsider = next((t for t in (parse_cycles(f"({a},{b})", n)
                                 for a in range(1, n) for b in range(a + 1, n + 1))
                     if not G.contains(t)), None)
    for H in (G.point_stabilizer(rng.randint(1, n)), PermGroup([member], degree=n),
              PermGroup.trivial(n)):
        act = assert_matches_reference(G, H, rng, samples=4)
        if outsider is not None:
            assert_rejects_like_reference(act, reference_coset_action(G, H), outsider,
                                          "element is not in the acted-on group")
