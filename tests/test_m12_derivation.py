"""D1 from first principles: M12 on 12 points, M11 as the stabilizer of
12, an L2(11) inside M11, and the action of M12 on the 144 cosets of that
L2(11), compared with the catalog's G and D1.

The flag-transitive 2-(144,66,30) design appears as the 66-point orbit of a
point stabilizer.  The two unions of an 11-point orbit with the 55-point
orbit are symmetric 2-(144,66,30) designs too, but not flag-transitive.
"""

import pytest

from symdesign.catalog import load
from symdesign.design import (
    ProfileViolation,
    certify,
    construct_design,
    is_flag_transitive,
    verify_symmetric,
)
from symdesign.group import PermGroup, coset_action

from helpers import m11_elements, m12_on_12_points


def _system_shapes(group):
    return [(s.num_classes, s.class_size) for s in group.minimal_block_systems()]


@pytest.fixture(scope="module")
def m12():
    return m12_on_12_points()


@pytest.fixture(scope="module")
def l211():
    """The first listed element of M11 of order 11, with the first of order
    2, 3, 5 or 6 that generates a group of order 660 with it."""
    elements = m11_elements()
    a = next(e for e in elements if e.order() == 11)
    b = next(e for e in elements
             if e.order() in (2, 3, 5, 6) and PermGroup([a, e], degree=12).order() == 660)
    return PermGroup([a, b], degree=12)


@pytest.fixture(scope="module")
def action(m12, l211):
    return coset_action(m12, l211).group


@pytest.fixture(scope="module")
def orbits(action):
    """The orbits of the derived action's stabilizer of 1."""
    return action.point_stabilizer(1).orbits()


def test_the_generators_give_a_sharply_5_transitive_group_of_degree_12(m12):
    """Basic orbits 12, 11, 10, 9, 8: each stabilizer of the first j base
    points is transitive on the other 12 - j, and the order leaves no room
    for a nontrivial stabilizer of 5 points.  Such a group is M12 (Dixon
    and Mortimer, Permutation Groups, 1996, chs. 6-7)."""
    assert [len(lv.orbit) for lv in m12.chain.levels] == [12, 11, 10, 9, 8]
    assert m12.order() == 12 * 11 * 10 * 9 * 8 == 95040


def test_m11_is_the_stabilizer_of_12_and_a_bfs_lists_it(m12):
    elements = m11_elements()
    assert m12.point_stabilizer(12).order() == len(elements) == len(set(elements)) == 7920
    assert all(e.table[12] == 12 and m12.contains(e) for e in elements)


def test_the_l211_fixes_12_and_is_transitive_on_the_rest(m12, l211):
    assert l211.order() == 660
    assert l211.orbits() == [[12], list(range(1, 12))]
    assert all(m12.contains(g) for g in l211.generators)


def test_the_coset_action_matches_the_catalog_group(action):
    G = load("m12-144/G")
    assert action.degree == G.degree == 144
    assert action.order() == G.order() == 95040
    assert action.subdegrees(1) == G.subdegrees(1) == [1, 11, 11, 55, 66]
    assert _system_shapes(action) == _system_shapes(G) == [(12, 12), (12, 12)]


def test_the_66_point_orbit_is_a_base_block_of_d1(action, orbits):
    [block] = [o for o in orbits if len(o) == 66]
    derived = certify(construct_design(action, block), action)
    G = load("m12-144/G")
    shipped = certify(construct_design(G, load("m12-144/base-block")), G)
    assert derived.params == shipped.params == (144, 66, 30)
    assert derived.flag_transitive and shipped.flag_transitive
    assert derived.profiles == shipped.profiles == ((12, 12, 6, 11), (12, 12, 6, 11))


@pytest.mark.parametrize("which", [0, 1])
def test_an_11_and_55_point_union_is_symmetric_but_not_flag_transitive(action, orbits, which):
    eleven = [o for o in orbits if len(o) == 11][which]
    [fifty_five] = [o for o in orbits if len(o) == 55]
    design = construct_design(action, sorted(eleven + fifty_five))
    assert verify_symmetric(design) == (144, 66, 30)
    assert not is_flag_transitive(design, action)
    with pytest.raises(ProfileViolation):
        certify(design, action)
