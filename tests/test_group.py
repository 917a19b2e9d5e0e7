import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symdesign.perm import Permutation, parse_cycles, cycle_string
from symdesign.group import (
    BlockSystem,
    PermGroup,
    StabChain,
    SubgroupError,
    coset_action,
    group_file_text,
    induced_orbits,
    parse_group_file,
)

from symdesign.catalog import load, load_catalogs
from symdesign.design import block_stabilizer, construct_design

from helpers import (
    FIXTURES,
    chain_levels,
    cyclic,
    element_closure,
    grp,
    paley,
    random_groups,
    random_wreath_subgroup,
    _reference_finest_system_joining,
    reference_invariance_witness,
    reference_minimal_block_systems,
    reference_stab_chain,
    reference_stabilizer_of_action,
    reference_strip,
    sift_cases,
    sym,
    wreath,
)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_order_matches_brute_force_enumeration(name):
    group, expected = FIXTURES[name]
    assert group.order() == expected
    assert len(element_closure(group)) == expected


def test_order_of_trivial_and_tiny_groups():
    assert PermGroup.trivial(5).order() == 1
    assert grp(3, "(1,2,3)").order() == 3


@pytest.mark.parametrize("name", ["S4", "A5", "F21"])
def test_contains_generators_and_identity(name):
    group, _ = FIXTURES[name]
    assert group.identity() in group
    for g in group.generators:
        assert g in group


def test_contains_rejects_nonmembers():
    A4, _ = FIXTURES["A4"]
    assert parse_cycles("(1,2)", 4) not in A4
    with pytest.raises(ValueError, match="^degree mismatch: 5 vs 4$"):
        A4.contains(parse_cycles("(1,2)", 5))


def test_membership_against_closure():
    group, _ = FIXTURES["F21"]
    members = element_closure(group)
    for p in members:
        assert group.contains(p)
    outsider = parse_cycles("(1,2)", 7)
    assert outsider not in members
    assert not group.contains(outsider)


@given(random_groups())
@settings(max_examples=60, deadline=None)
def test_chain_order_matches_closure_on_random_groups(group):
    members = element_closure(group)
    assert group.order() == len(members)
    for point in (1, group.degree):
        stab = group.point_stabilizer(point)
        assert stab.order() == sum(1 for p in members if p(point) == point)


@given(random_groups())
@settings(max_examples=60, deadline=None)
def test_point_stabilizer_matches_the_reference_on_random_groups(group):
    for point in range(1, group.degree + 1):
        stab = group.point_stabilizer(point)
        ref = reference_stabilizer_of_action(group, point, lambda g, x: g.table[x])
        assert stab.order() == ref.order()
        assert stab.orbits() == ref.orbits()
        for g in stab.generators:
            assert g.table[point] == point and group.contains(g)


@given(random_groups())
@settings(max_examples=60, deadline=None)
def test_stabilizer_orbit_walk_matches_the_reference_on_random_groups(group):
    tables = [g.table for g in group.generators]
    for seed in range(1, group.degree + 1):
        ref = reference_stabilizer_of_action(group, seed, lambda g, x: g.table[x])
        for point in range(1, group.degree + 1):
            n = len(ref.orbit(point))
            assert group._stabilizer_orbit_reaches(seed, tables, point, n)
            assert not group._stabilizer_orbit_reaches(seed, tables, point, n + 1)


def test_chain_internal_invariants():
    """Each level's Schreier tree forms elements mapping the base point to
    their orbit point; Paley-263 takes the tuple path above degree 255."""
    groups = [FIXTURES[name][0] for name in ("S4", "A5", "F21")]
    groups += [load("m12-144/G"), paley(263)[0]]
    for group in groups:
        chain = group.chain
        total = 1
        for level, point in zip(chain.levels, chain.base):
            total *= len(level.orbit)
            for x in level.orbit:
                assert level.element(x)(point) == x
                assert level.element(x).inverse()(x) == point
        assert total == group.order()


def test_orbit_of_identity_group():
    assert PermGroup.trivial(5).orbit(3) == [3]


def test_orbit_of_cycle():
    assert cyclic(4).orbit(2) == [1, 2, 3, 4]
    with pytest.raises(ValueError, match="outside"):
        cyclic(4).orbit(9)


def test_orbits_partition_sorted():
    group = grp(6, "(1,2)", "(3,4,5)")
    assert group.orbits() == [[6], [1, 2], [3, 4, 5]]


def _union_find_orbits(group):
    """Orbits as the classes of x ~ g(x), closed by union-find."""
    parent = list(range(group.degree + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in group.generators:
        for x in range(1, group.degree + 1):
            rx, ry = find(x), find(g(x))
            parent[max(rx, ry)] = min(rx, ry)
    classes = {}
    for x in range(1, group.degree + 1):
        classes.setdefault(find(x), []).append(x)
    return sorted(classes.values(), key=lambda o: (len(o), o[0]))


@given(random_groups())
@settings(max_examples=60, deadline=None)
def test_orbits_match_a_union_find_partition_on_random_groups(group):
    orbits = group.orbits()
    assert orbits == _union_find_orbits(group)
    assert all(group.orbit(o[0]) == o for o in orbits)


def test_point_stabilizer_of_s3():
    S3 = grp(3, "(1,2)", "(1,2,3)")
    stab = S3.point_stabilizer(1)
    assert stab.order() == 2
    assert all(g(1) == 1 for g in stab.generators)


def test_point_stabilizer_of_regular_group_is_trivial():
    for point in (1, 4):
        assert cyclic(6).point_stabilizer(point).order() == 1


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_orbit_stabilizer_identity(name):
    group, _ = FIXTURES[name]
    for point in (1, group.degree):
        stab = group.point_stabilizer(point)
        assert group.order() == len(group.orbit(point)) * stab.order()
        members = element_closure(stab)
        assert all(p(point) == point for p in members)
        assert all(group.contains(p) for p in stab.generators)


@given(random_groups())
@settings(max_examples=120, deadline=None)
def test_is_transitive_reads_the_orbit_of_1_off_the_chain(group):
    assert group.is_transitive() == (len(group.orbit(1)) == group.degree)


@pytest.mark.parametrize("group, transitive, first_base_point", [
    (grp(4, "(2,3,4)", "(1,2)"), True, [2]),
    (grp(5, "(2,3)", "(4,5)"), False, [2]),
    (grp(6, "(1,2)", "(3,4,5,6)"), False, [1]),
    (PermGroup.trivial(1), True, []), (PermGroup.trivial(2), False, []),
    (PermGroup.trivial(7), False, []),
], ids=["base-point-2", "fixes-1", "two-orbits", "trivial-1", "trivial-2", "trivial-7"])
def test_is_transitive_on_base_points_past_1_and_trivial_groups(group, transitive,
                                                                first_base_point):
    assert group.is_transitive() == (len(group.orbit(1)) == group.degree) == transitive
    assert group.chain.base[:1] == first_base_point


@pytest.mark.parametrize("steps", [("subdegrees", "blocks"), ("blocks", "subdegrees")])
def test_subdegrees_and_block_systems_walk_the_orbits_of_g_s_once(monkeypatch, steps):
    orbits, calls = PermGroup.orbits, []
    monkeypatch.setattr(PermGroup, "orbits", lambda self: calls.append(self) or orbits(self))
    group = wreath(cyclic(3), sym(3))
    for step in steps * 2:
        if step == "subdegrees":
            assert group.subdegrees(2) == [1, 1, 1, 6]
        else:
            assert [s.classes for s in group.minimal_block_systems()] == [
                ((1, 2, 3), (4, 5, 6), (7, 8, 9))]
    assert len(calls) == 1 and calls[0].generators == group.chain.levels[1].gens


def test_subdegrees_of_regular_group():
    assert cyclic(6).subdegrees(1) == [1] * 6


def test_subdegrees_of_natural_s4():
    S4, _ = FIXTURES["S4"]
    assert S4.subdegrees(1) == [1, 3]
    assert len(S4.subdegrees(1)) == 2


def test_subdegrees_require_transitivity():
    group = grp(6, "(1,2)", "(3,4,5)")
    with pytest.raises(ValueError, match="transitive"):
        group.subdegrees(1)


def test_subdegrees_sum_to_degree():
    for name in ("S4", "A5", "F21", "D10"):
        group, _ = FIXTURES[name]
        assert sum(group.subdegrees(1)) == group.degree


def _stabilizer_subdegrees(group, point):
    return sorted(len(o) for o in group.point_stabilizer(point).orbits())


@given(random_groups())
@settings(max_examples=80, deadline=None)
def test_subdegrees_match_the_point_stabilizer_at_every_point_of_random_groups(group):
    for point in range(1, group.degree + 1):
        if group.is_transitive():
            assert group.subdegrees(point) == _stabilizer_subdegrees(group, point)
        else:
            with pytest.raises(ValueError, match="transitive"):
                group.subdegrees(point)


@pytest.mark.parametrize("name", ["m12-144", "paley-263"])
def test_subdegrees_match_the_point_stabilizer_at_every_point(name):
    group = fresh_group(name)
    want = group.subdegrees(1)
    for point in range(1, group.degree + 1):
        assert group.subdegrees(point) == want == _stabilizer_subdegrees(group, point)


def test_subdegrees_of_the_degree_one_group():
    group = PermGroup.trivial(1)
    assert group.chain.levels == []
    assert group.subdegrees(1) == [1]


def test_subdegrees_of_a_regular_group_at_every_point():
    klein = grp(4, "(1,2)(3,4)", "(1,3)(2,4)")
    assert [klein.subdegrees(p) for p in range(1, 5)] == [[1, 1, 1, 1]] * 4


def test_subdegrees_check_transitivity_before_the_point():
    for group in (grp(6, "(1,2)", "(3,4,5)"), PermGroup.trivial(2)):
        for point in (0, 1, group.degree + 1):
            with pytest.raises(ValueError, match="^subdegrees require a transitive group$"):
                group.subdegrees(point)
    for point in (0, 7):
        with pytest.raises(ValueError, match=f"^point {point} outside 1..6$"):
            cyclic(6).subdegrees(point)


def test_subdegrees_are_counted_once_and_checked_on_every_call(monkeypatch):
    group = wreath(cyclic(3), sym(3))
    orbits, calls = PermGroup.orbits, []
    monkeypatch.setattr(PermGroup, "orbits", lambda self: calls.append(self) or orbits(self))
    first = group.subdegrees(1)
    first.append(99)
    first.sort(reverse=True)
    assert group.subdegrees(1) == group.subdegrees(9) == [1, 1, 1, 6]
    assert len(calls) == 1
    for point in (0, 10, 0):
        with pytest.raises(ValueError, match=f"^point {point} outside 1..9$"):
            group.subdegrees(point)
    assert group.subdegrees(5) == [1, 1, 1, 6] and len(calls) == 1
    for group in (grp(6, "(1,2)", "(3,4,5)"), PermGroup.trivial(2)):
        for point in (0, 1, group.degree + 1) * 2:
            with pytest.raises(ValueError, match="^subdegrees require a transitive group$"):
                group.subdegrees(point)
    assert len(calls) == 1


# ---- block systems ---------------------------------------------------------


def test_primitive_group_has_no_systems():
    S4, _ = FIXTURES["S4"]
    assert S4.minimal_block_systems() == []


def test_c4_block_system():
    systems = cyclic(4).minimal_block_systems()
    assert [s.classes for s in systems] == [((1, 3), (2, 4))]


def test_c6_has_two_minimal_systems():
    systems = cyclic(6).minimal_block_systems()
    assert [s.classes for s in systems] == [
        ((1, 4), (2, 5), (3, 6)),
        ((1, 3, 5), (2, 4, 6)),
    ]


def test_c8_keeps_only_the_minimal_system():
    systems = cyclic(8).minimal_block_systems()
    assert [s.classes for s in systems] == [((1, 5), (2, 6), (3, 7), (4, 8))]


def test_block_systems_are_invariant():
    for name in ("C4", "C6", "C8", "F21"):
        group, _ = FIXTURES[name] if name in FIXTURES else (cyclic(8), 8)
        for system in group.minimal_block_systems():
            assert system.invariance_witness(group.generators) is None
            assert system.class_size * system.num_classes == group.degree


WREATHS = {
    "C2wrC3": (cyclic(2), cyclic(3)),
    "S3wrC2": (sym(3), cyclic(2)),
    "C4wrS3": (cyclic(4), sym(3)),
    "A4wrC4": (FIXTURES["A4"][0], cyclic(4)),
    "D10wrS4": (FIXTURES["D10"][0], sym(4)),
    "C3wrC3wrC2": (wreath(cyclic(3), cyclic(3)), cyclic(2)),
}


def _product_action(A, B):
    """A x B on the pairs (x, y), pair (x, y) as point (x - 1) * B.degree + y."""
    pairs = [(x, y) for x in range(1, A.degree + 1) for y in range(1, B.degree + 1)]
    point = lambda x, y: (x - 1) * B.degree + y
    gens = [Permutation([point(g(x), y) for x, y in pairs]) for g in A.generators]
    gens += [Permutation([point(x, h(y)) for x, y in pairs]) for h in B.generators]
    return PermGroup(gens, degree=len(pairs))


def _petersen():
    """S5 on the 10 pairs of {1..5}: subdegrees 1, 3, 6."""
    pairs = list(combinations(range(1, 6), 2))
    index = {pair: i for i, pair in enumerate(pairs, 1)}
    return PermGroup([
        Permutation([index[tuple(sorted(map(g, pair)))] for pair in pairs])
        for g in FIXTURES["S5"][0].generators
    ], degree=10)


def _group(name):
    if name in FIXTURES:
        return FIXTURES[name][0]
    if name in WREATHS:
        return wreath(*WREATHS[name])
    if name == "M12-144":
        return load("m12-144/G")
    if name == "paley-263":
        return paley(263)[0]
    if name == "S5xPetersen":  # subdegrees 1, 3, 4, 6, 12, 24 on 50 points
        return _product_action(FIXTURES["S5"][0], _petersen())
    return cyclic(int(name[1:]))


@pytest.mark.parametrize("name", sorted(FIXTURES) + sorted(WREATHS)
                         + ["M12-144", "S5xPetersen"]
                         + [f"C{n}" for n in range(2, 31) if f"C{n}" not in FIXTURES])
def test_minimal_block_systems_match_the_all_pairs_reference(name):
    group = _group(name)
    if name in WREATHS:
        inner, outer = WREATHS[name]
        assert group.order() == inner.order() ** outer.degree * outer.order()
    got = group.minimal_block_systems()
    assert [s.classes for s in got] \
        == [s.classes for s in reference_minimal_block_systems(group)]
    if name in WREATHS:
        assert got, "a wreath product of transitive groups is imprimitive"


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_minimal_block_systems_match_the_reference_on_wreath_words(rng):
    group = random_wreath_subgroup(rng)
    assume(group.is_transitive())
    assert [s.classes for s in group.minimal_block_systems()] \
        == [s.classes for s in reference_minimal_block_systems(group)]


def _assert_joins_match_the_reference(group):
    for b in range(2, group.degree + 1):
        got = group._finest_system_joining(1, b)
        want = _reference_finest_system_joining(group, 1, b)
        assert (got and got.classes) == (want and want.classes), b


@pytest.mark.parametrize("name", sorted(FIXTURES) + sorted(WREATHS) + ["M12-144", "S5xPetersen"])
def test_finest_system_joining_matches_the_union_find_reference(name):
    """Every b, not only the seeds that fit a class."""
    _assert_joins_match_the_reference(_group(name))


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_finest_system_joining_matches_the_reference_on_wreath_words(rng):
    group = random_wreath_subgroup(rng)
    assume(group.is_transitive())
    _assert_joins_match_the_reference(group)


def _orbits_that_fit_a_class(group):
    """The least points of the G_1-orbits O other than {1} for which {1}, O
    and some of the other orbits make a size d dividing the degree with
    1 < d < degree, by the set of every sum of the other orbits' sizes."""
    n = group.degree
    orbits = [o for o in group.point_stabilizer(1).orbits() if o[0] != 1]
    fit = []
    for i, orbit in enumerate(orbits):
        sums = {0}
        for other in orbits[:i] + orbits[i + 1:]:
            sums |= {t + len(other) for t in sums}
        if any(1 + len(orbit) + t < n and n % (1 + len(orbit) + t) == 0 for t in sums):
            fit.append(orbit[0])
    return fit


@pytest.mark.parametrize("name, calls", [
    ("M12-144", 2),  # subdegrees 1, 11, 11, 55, 66; 4 calls before the sizes were read
    ("paley-263", 0),  # 263 is prime; 2 calls before the sizes were read
    ("S5xPetersen", 4),  # its orbit of 12 makes a class of 25 only if counted twice
    *((name, None) for name in ["C12", "C30", "S4", "F21", *sorted(WREATHS)]),
])
def test_block_system_seeds_are_the_orbits_that_fit_a_class(name, calls, monkeypatch):
    """``minimal_block_systems`` joins 1 with a point of each G_1-orbit that
    some class through 1 could hold, and only those; from every other orbit
    the closure is the whole point set."""
    group = _group(name)
    fit = _orbits_that_fit_a_class(group)
    for orbit in group.point_stabilizer(1).orbits():
        if orbit[0] not in (1, *fit):
            assert _reference_finest_system_joining(group, 1, orbit[0]) is None
    seeds = []
    finest = PermGroup._finest_system_joining
    monkeypatch.setattr(PermGroup, "_finest_system_joining",
                        lambda self, a, b: seeds.append(b) or finest(self, a, b))
    group.minimal_block_systems()
    assert seeds == fit
    if calls is not None:
        assert len(seeds) == calls


@pytest.mark.parametrize("name", ["M12-144", "S5xPetersen", "C12", "F21", *sorted(WREATHS)])
def test_block_systems_read_the_point_stabilizer_orbits_off_the_chain(name, monkeypatch):
    """The G_1-orbits are the u_1-images of the orbits of G_s, s the first
    base point, so no point stabilizer is formed; the seeds still come in
    the order of ``point_stabilizer(1).orbits()``."""
    group = _group(name)
    want = [s.classes for s in reference_minimal_block_systems(group)]
    fit = _orbits_that_fit_a_class(group)
    if name == "M12-144":
        assert group.chain.levels[0].seed != 1
    seeds = []
    finest = PermGroup._finest_system_joining
    monkeypatch.setattr(PermGroup, "_finest_system_joining",
                        lambda self, a, b: seeds.append(b) or finest(self, a, b))
    monkeypatch.setattr(PermGroup, "point_stabilizer", None)
    assert [s.classes for s in group.minimal_block_systems()] == want
    assert seeds == fit


def test_repeated_queries_give_equal_fresh_results():
    group = wreath(cyclic(3), sym(3))
    first_sub, first_sys = group.subdegrees(1), group.minimal_block_systems()
    assert first_sub == [1, 1, 1, 6] and len(first_sys) == 1
    first_sub.append(99)
    first_sys.clear()
    assert group.subdegrees(1) == [1, 1, 1, 6]
    assert [s.classes for s in group.minimal_block_systems()] \
        == [((1, 2, 3), (4, 5, 6), (7, 8, 9))]
    assert group.subdegrees(1) is not group.subdegrees(1)
    assert group.minimal_block_systems() is not group.minimal_block_systems()


def test_point_stabilizer_is_a_new_group_each_call():
    group = sym(5)
    group.subdegrees(1)  # reads G_1 off the chain, which it builds
    a, b = group.point_stabilizer(1), group.point_stabilizer(1)
    assert a is not b and a.generators == b.generators and a.order() == 24


def test_block_system_validation():
    with pytest.raises(ValueError, match="equal sizes"):
        BlockSystem(7, [[1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(ValueError, match="two classes"):
        BlockSystem(4, [[1, 2], [2, 3]])
    with pytest.raises(ValueError, match="cover"):
        BlockSystem(6, [[1, 2], [3, 4]])


def test_block_systems_require_transitive():
    with pytest.raises(ValueError, match="transitive"):
        grp(4, "(1,2)").minimal_block_systems()


def test_class_stabilizer_of_c4():
    C4 = cyclic(4)
    system = C4.minimal_block_systems()[0]
    stab = C4.class_stabilizer(system, 0)
    assert stab.order() == 2
    assert stab.contains(parse_cycles("(1,3)(2,4)", 4))


def test_class_stabilizer_rejects_non_invariant_partition():
    C4 = cyclic(4)
    bad = BlockSystem(4, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="not invariant"):
        C4.class_stabilizer(bad, 0)


def test_class_stabilizer_order_is_group_over_classes():
    C6 = cyclic(6)
    for system in C6.minimal_block_systems():
        stab = C6.class_stabilizer(system, 0)
        assert stab.order() == C6.order() // system.num_classes


# ---- coset actions ---------------------------------------------------------


def test_coset_action_on_point_stabilizer_matches_natural_action():
    F21, _ = FIXTURES["F21"]
    H = F21.point_stabilizer(1)
    act = coset_action(F21, H)
    assert act.degree == 7
    assert act.group.is_transitive()
    assert act.group.subdegrees(1) == F21.subdegrees(1)


def test_coset_action_on_whole_group_is_trivial():
    S4, _ = FIXTURES["S4"]
    act = coset_action(S4, S4)
    assert act.degree == 1


def test_coset_action_label_one_is_the_subgroup():
    A5, _ = FIXTURES["A5"]
    H = A5.point_stabilizer(1)
    act = coset_action(A5, H)
    for h in H.generators:
        assert act.image_of(h)(1) == 1
    stab1 = act.group.point_stabilizer(1)
    assert act.degree * stab1.order() == act.group.order()


def test_coset_action_is_a_homomorphism_on_random_pairs():
    S5, _ = FIXTURES["S5"]
    H = S5.point_stabilizer(1)
    act = coset_action(S5, H)
    rng = random.Random(7)
    members = sorted(element_closure(S5), key=lambda p: p.images)
    for _ in range(100):
        a, b = rng.choice(members), rng.choice(members)
        assert act.image_of(a * b) == act.image_of(a) * act.image_of(b)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_coset_action_group_is_the_image_of_the_generators(name):
    G, _ = FIXTURES[name]
    for H in (G.point_stabilizer(1), PermGroup.trivial(G.degree), G):
        act = coset_action(G, H)
        assert len(act.group.generators) == len(G.generators)
        for i, g in enumerate(G.generators):
            assert act.group.generators[i] == act.image_of(g)


def test_coset_action_rejects_non_subgroups():
    A4, _ = FIXTURES["A4"]
    fake = PermGroup([parse_cycles("(1,2)", 4)])
    with pytest.raises(SubgroupError, match=r"\(1,2\)"):
        coset_action(A4, fake)


def test_induced_orbits_of_stabilizer_match_subdegrees():
    F21, _ = FIXTURES["F21"]
    H = F21.point_stabilizer(1)
    orbits = induced_orbits(coset_action(F21, H), H)
    assert sorted(len(o) for o in orbits) == F21.subdegrees(1)


def test_induced_orbits_of_whole_group():
    F21, _ = FIXTURES["F21"]
    H = F21.point_stabilizer(1)
    orbits = induced_orbits(coset_action(F21, H), F21)
    assert [len(o) for o in orbits] == [7]


def test_induced_orbits_refuse_a_k_outside_the_acted_on_group():
    F21, _ = FIXTURES["F21"]
    act = coset_action(F21, F21.point_stabilizer(1))
    outside = PermGroup([F21.generators[0], parse_cycles("(1,2)", 7)])
    with pytest.raises(SubgroupError, match=r"^induced orbit subgroup: generator \(1,2\) "
                                            r"is not in the group$"):
        induced_orbits(act, outside)
    with pytest.raises(SubgroupError, match=r"^induced orbit subgroup: degree 8 != 7$"):
        induced_orbits(act, PermGroup.trivial(8))


def test_induced_orbit_lengths_sum_to_index():
    S5, _ = FIXTURES["S5"]
    H = S5.point_stabilizer(2)
    K = S5.point_stabilizer(1)
    orbits = induced_orbits(coset_action(S5, H), K)
    assert sum(len(o) for o in orbits) == S5.order() // H.order()


# ---- chain determinism and group files --------------------------------------


DETERMINISM_CASES = [*sorted(FIXTURES), "m12-144", "paley-11", "paley-263"]


def fresh_group(name):
    if name == "m12-144":
        return load("m12-144/G")
    if name.startswith("paley-"):
        return paley(int(name.split("-")[1]))[0]
    G = FIXTURES[name][0]
    return PermGroup(G.generators, degree=G.degree)


def test_chain_is_deterministic():
    for name in DETERMINISM_CASES:
        a, b = fresh_group(name), fresh_group(name)
        assert a.chain.base == b.chain.base
        assert [lv.orbit for lv in a.chain.levels] == [lv.orbit for lv in b.chain.levels]
        assert [lv.gens for lv in a.chain.levels] == [lv.gens for lv in b.chain.levels]
        assert a.point_stabilizer(1).generators == b.point_stabilizer(1).generators


def _formed(chain, stripped):
    """``StabChain._strip``'s (pair of tables (a, b) or None, level) as
    (the permutation a * b^-1, level)."""
    pair, level = stripped
    n = chain.degree
    if pair is None:
        return Permutation.identity(n), level
    a, b = (Permutation(t[1:n + 1]) if t is not None else Permutation.identity(n) for t in pair)
    return a * b.inverse(), level


def _assert_sift_matches_the_reference(group, cases):
    """Also strips each case g as the pair (g * b, b), b the next case."""
    chain = group.chain
    for g, b in zip(cases, cases[1:] + cases[:1]):
        for start in range(len(chain.levels) + 1):
            want = reference_strip(chain, g, start)
            assert _formed(chain, chain._strip(g.table, start)) == want
            assert _formed(chain, chain._strip((g * b).table, start, b.table)) == want
        assert chain.contains(g) == reference_strip(chain, g, 0)[0].is_identity()


@pytest.mark.parametrize("name", ["m12-144", "paley-263"])
def test_sift_matches_a_strip_that_multiplies_at_every_level(name):
    group = fresh_group(name)
    cases = sift_cases(group, random.Random(name))
    assert any(group.contains(g) for g in cases) and not all(map(group.contains, cases))
    _assert_sift_matches_the_reference(group, cases)


@given(random_groups(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_sift_matches_a_strip_that_multiplies_at_every_level_on_random_groups(group, rng):
    _assert_sift_matches_the_reference(group, sift_cases(group, rng))


def _assert_chain_is_the_reference_build(group):
    fast = StabChain(group.generators, group.degree)
    assert chain_levels(fast) == chain_levels(reference_stab_chain(group.generators, group.degree))


@pytest.mark.parametrize("name", ["A7", "m12-144", "paley-263"])
def test_chain_is_the_one_a_multiply_every_level_strip_builds(name):
    _assert_chain_is_the_reference_build(fresh_group(name))


def _m12_catalog_groups():
    [cat] = load_catalogs(load("m12-144/catalog"))
    return {r.name: r.group for r in cat.maximals + cat.hints if r.group is not None}


@pytest.mark.parametrize("name", sorted(_m12_catalog_groups()))
def test_pair_strip_chain_is_the_reference_build_on_the_m12_catalog(name):
    """Every catalog group with generators: the hints and ``L2(11)max``."""
    _assert_chain_is_the_reference_build(_m12_catalog_groups()[name])


@pytest.mark.parametrize("r", [5, 7])
def test_pair_strip_chain_is_the_reference_build_on_paley_263(r):
    _assert_chain_is_the_reference_build(paley(263, r)[0])


@given(random_groups(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_pair_strip_chain_is_the_reference_build_on_random_groups(group, rng):
    _assert_chain_is_the_reference_build(group)
    _assert_chain_is_the_reference_build(random_wreath_subgroup(rng))


# ---- chains built to a proven order bound ------------------------------------


def _assert_stored_chain_is_the_reference_build(group):
    """The chain a group stores, built to a bound or not, is the full
    textbook build from its generators, level for level."""
    assert chain_levels(group.chain) == chain_levels(
        reference_stab_chain(group.generators, group.degree))


def test_m12_hints_build_to_the_order_of_a_point_stabilizer():
    """Each hint's generators fix a point of the transitive M12, so |G_x| =
    95040/144 = 660 bounds its order; a repeated list shares the first
    one's chain; ``L2(11)max`` fixes no point and takes the full build."""
    [cat] = load_catalogs(load("m12-144/catalog"))
    [l211max] = [m.group for m in cat.maximals if m.name == "L2(11)max"]
    assert l211max._bound is None
    _assert_stored_chain_is_the_reference_build(l211max)
    assert [h.group._bound for h in cat.hints] == [660, None, 660, None]
    for first, repeat in (cat.hints[:2], cat.hints[2:]):
        assert repeat.group.chain is first.group.chain
        _assert_stored_chain_is_the_reference_build(first.group)


def test_a_bound_stops_the_build_only_once_it_is_reached(monkeypatch):
    """At the bound 660 each hint's build skips level checks that the full
    build makes; a bound the chain never reaches changes nothing."""
    [cat] = load_catalogs(load("m12-144/catalog"))
    checks = []
    check = StabChain._check_level

    def counting_check(self, i):
        checks.append(i)
        return check(self, i)

    monkeypatch.setattr(StabChain, "_check_level", counting_check)

    def build(gens, bound):
        checks.clear()
        chain = StabChain(gens, 144, _bound=bound)
        return chain_levels(chain), len(checks)

    for hint in cat.hints[::2]:  # point-L2(11) and block-L2(11), each once
        full, full_checks = build(hint.group.generators, None)
        bounded, bounded_checks = build(hint.group.generators, 660)
        loose, loose_checks = build(hint.group.generators, 95040)
        assert bounded == full == loose
        assert bounded_checks < full_checks == loose_checks


@pytest.mark.parametrize("name", ["m12-144", "paley-263"])
def test_block_stabilizer_chain_built_to_its_order_is_the_reference_build(name):
    G, block = (load("m12-144/G"), load("m12-144/base-block")) if name == "m12-144" else paley(263)
    stab = block_stabilizer(G, construct_design(G, block), 0)
    assert stab.order() == G.order() // G.degree  # one block per point
    _assert_stored_chain_is_the_reference_build(stab)


def test_class_stabilizer_chains_of_the_m12_systems_are_the_reference_build():
    G = load("m12-144/G")
    systems = G.minimal_block_systems()
    assert len(systems) == 2
    for system in systems:
        stab = G.class_stabilizer(system, 0)
        assert stab.order() == G.order() // system.num_classes
        _assert_stored_chain_is_the_reference_build(stab)


@given(random_groups())
@settings(max_examples=60, deadline=None)
def test_stabilizer_chains_built_to_their_order_are_the_reference_build(group):
    for point in range(1, group.degree + 1):
        stab = group.stabilizer_of_action(point, [g.table for g in group.generators])
        _assert_stored_chain_is_the_reference_build(stab)


# ---- invariance of a partition by table compositions ---------------------------


def _partition_and_generators(rng, degree, size):
    """A random partition of 1..degree into classes of ``size``, and
    generators in random order: some that permute its classes, one of
    those with two points of different classes swapped, and a random
    permutation."""
    points = list(range(1, degree + 1))
    rng.shuffle(points)
    classes = [points[i:i + size] for i in range(0, degree, size)]
    system = BlockSystem(degree, classes)

    def keeping():
        order = list(range(len(classes)))
        rng.shuffle(order)
        images = [0] * degree
        for src, dst in zip(classes, (classes[j] for j in order)):
            dst = rng.sample(dst, len(dst))
            for x, y in zip(src, dst):
                images[x - 1] = y
        return Permutation(images)

    g = keeping()
    if len(classes) > 1:
        a, b = classes[0][0], classes[1][0]
        g = parse_cycles(f"({a},{b})", degree) * g
    gens = [keeping() for _ in range(rng.randint(0, 3))] + [g, Permutation(rng.sample(points, degree))]
    rng.shuffle(gens)
    return system, gens[:rng.randint(1, len(gens))]


@pytest.mark.parametrize("degree", [4, 12, 144, 255, 264])
def test_invariance_witness_matches_the_frozenset_walk(degree):
    """Byte tables at degree <= 255, tuple tables above; invariant and
    broken partitions alike, with the same witness generator and class."""
    rng = random.Random(degree)
    sizes = [c for c in range(1, degree + 1) if degree % c == 0]
    outcomes = set()
    for _ in range(40):
        system, gens = _partition_and_generators(rng, degree, rng.choice(sizes))
        got, want = system.invariance_witness(gens), reference_invariance_witness(system, gens)
        assert got == want
        if got is not None:
            assert got[0] is want[0]
        outcomes.add(got is None)
    assert outcomes == {True, False}


@given(random_groups(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_invariance_witness_matches_the_frozenset_walk_on_random_groups(group, rng):
    """Every partition of a random group's points into equal classes that
    a shuffle draws, tested under the group's own generators."""
    n = group.degree
    for size in (c for c in range(1, n + 1) if n % c == 0):
        points = list(range(1, n + 1))
        rng.shuffle(points)
        system = BlockSystem(n, [points[i:i + size] for i in range(0, n, size)])
        assert (system.invariance_witness(group.generators)
                == reference_invariance_witness(system, group.generators))


@pytest.mark.parametrize("chain", [StabChain((), 10), cyclic(10).chain], ids=["no-levels", "C10"])
def test_sift_and_contains_refuse_another_degree(chain):
    for query in (chain.sift, chain.contains):
        with pytest.raises(ValueError, match="^degree mismatch: 5 vs 10$"):
            query(Permutation.identity(5))


def test_install_refuses_a_generator_that_grows_no_orbit():
    """A member that fixes base[:hi] adds nothing to level hi, and a
    generator that moves a base point above hi breaks the install's
    precondition; each raises before the chain can run away."""
    chain = fresh_group("A7").chain
    assert len(chain.levels) >= 2
    member = chain.levels[1].gens[0]
    with pytest.raises(RuntimeError, match="^install at level 1 did not grow its orbit$"):
        chain._install(member, 1, 1)
    chain = fresh_group("A7").chain
    with pytest.raises(RuntimeError, match="^strong generator moves a base point"):
        chain._install(chain.levels[0].gens[0], 1, 1)


def test_a_wrong_strip_fails_the_build_at_once(monkeypatch):
    """A strip that multiplies on the wrong side (b * u_z for u_z * b)
    returns residues that are not Schreier-generator remainders; the
    install guard stops the M12-144 build instead of letting it grow."""
    calls = 0

    def wrong_strip(self, a, start, b=None):
        nonlocal calls
        calls += 1
        assert calls < 10_000, "the build ran away"
        levels = self.levels
        for i in range(start, len(levels)):
            lv = levels[i]
            x = a[lv.seed]
            y = x if b is None else b.index(x)
            if y not in lv.parent:
                return (a, b), i
            u = lv.element(y)
            b = u.table if b is None else (Permutation._raw(b, self.degree) * u).table
        done = a == (Permutation.identity(self.degree).table if b is None else b)
        return (None if done else (a, b)), len(levels)

    G = load("m12-144/G")
    monkeypatch.setattr(StabChain, "_strip", wrong_strip)
    with pytest.raises(RuntimeError):
        StabChain(G.generators, G.degree)


@pytest.mark.parametrize("name", ["A7", "m12-144", "paley-263"])
def test_transversal_elements_follow_the_tree_in_any_request_order(name):
    levels = fresh_group(name).chain.levels
    rng = random.Random(name)
    for lv in levels:
        points = list(lv.orbit)
        rng.shuffle(points)
        for y in points:
            u = lv.element(y)
            assert u.table[lv.seed] == y
            if y == lv.seed:
                assert u.is_identity()
                continue
            x, i = lv.parent[y]
            assert u == lv.element(x) * lv.gens[i]


def test_group_file_round_trip():
    F21, _ = FIXTURES["F21"]
    text = group_file_text(F21, name="frobenius")
    parsed, name = parse_group_file(text)
    assert name == "frobenius"
    assert parsed.generators == F21.generators
    assert group_file_text(parsed, name="frobenius") == text


def test_group_file_whitespace_insensitive():
    parsed, _ = parse_group_file("degree: 4\n ( 1 , 2 ) (3,4)\n\n")
    assert parsed.generators == (parse_cycles("(1,2)(3,4)", 4),)


def test_group_file_errors():
    with pytest.raises(ValueError, match="degree"):
        parse_group_file("(1,2)\n")
