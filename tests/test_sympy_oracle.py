"""Differential checks of the group engine against sympy.combinatorics.

sympy numbers points from 0 and symdesign from 1; every comparison here
converts between the two.  Skipped when sympy is not installed.
"""

import random

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from symdesign.catalog import load  # noqa: E402
from symdesign.design import block_stabilizer, complement, construct_design  # noqa: E402
from symdesign.group import PermGroup  # noqa: E402
from symdesign.perm import Permutation  # noqa: E402

from helpers import (  # noqa: E402
    FIXTURES,
    cyclic,
    paley,
    random_wreath_subgroup,
    reference_block_action,
    sift_cases,
    sym,
    wreath,
)


def to_sympy(group):
    gens = [sympy_comb.Permutation([x - 1 for x in g.images]) for g in group.generators]
    if not gens:
        gens = [sympy_comb.Permutation(list(range(group.degree)))]
    return sympy_comb.PermutationGroup(gens)


def sympy_partition(blocks):
    """A sympy block vector (block representative of each 0-based point) as
    sorted 1-based classes."""
    classes = {}
    for point, rep in enumerate(blocks):
        classes.setdefault(rep, []).append(point + 1)
    return tuple(sorted(tuple(c) for c in classes.values()))


def random_group(rng):
    n = rng.randint(2, 12)
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return PermGroup(gens, degree=n)


GROUPS = {
    **{name: group for name, (group, _order) in FIXTURES.items()},
    **{f"random-{seed}": random_group(random.Random(seed)) for seed in range(12)},
    **{f"wreath-word-{seed}": random_wreath_subgroup(random.Random(seed)) for seed in range(12)},
    "C2wrS3": wreath(cyclic(2), sym(3)),
    "S3wrC4": wreath(sym(3), cyclic(4)),
}


def _compare(group):
    ref = to_sympy(group)
    assert group.order() == ref.order()
    assert sorted(group.orbits()) == sorted(sorted(x + 1 for x in o) for o in ref.orbits())
    for point in sorted({1, group.degree, (group.degree + 1) // 2}):
        assert group.point_stabilizer(point).order() == ref.stabilizer(point - 1).order()
    if not group.is_transitive():
        return
    want = sorted(
        p for p in (sympy_partition(b) for b in ref.minimal_blocks()) if len(p) > 1
    )
    assert sorted(s.classes for s in group.minimal_block_systems()) == want


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_engine_agrees_with_sympy(name):
    _compare(GROUPS[name])


def test_m12_on_144_points_agrees_with_sympy():
    G = load("m12-144/G")
    _compare(G)
    assert len(G.minimal_block_systems()) == 2


SUBDEGREE_GROUPS = {
    **{name: (lambda g=g: g) for name, g in GROUPS.items() if g.is_transitive()},
    "m12-144": lambda: load("m12-144/G"),
    "paley-263": lambda: paley(263)[0],
}


@pytest.mark.parametrize("name", sorted(SUBDEGREE_GROUPS))
def test_subdegrees_agree_with_sympy(name):
    group = SUBDEGREE_GROUPS[name]()
    ref = to_sympy(group)
    for point in sorted({1, group.degree, (group.degree + 1) // 2}):
        want = sorted(len(o) for o in ref.stabilizer(point - 1).orbits())
        assert group.subdegrees(point) == want


MEMBERSHIP_GROUPS = {
    **{name: (lambda g=g: g) for name, g in GROUPS.items()},
    "m12-144": lambda: load("m12-144/G"),
    "paley-263": lambda: paley(263)[0],
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_GROUPS))
def test_membership_agrees_with_sympy(name):
    """Members and non-members; above degree 255 the pair strip finds
    b^-1(a(s)) by scanning a tuple table."""
    group = MEMBERSHIP_GROUPS[name]()
    ref = to_sympy(group)
    verdicts = []
    for g in sift_cases(group, random.Random(name)):
        verdicts.append(group.contains(g))
        assert verdicts[-1] == ref.contains(sympy_comb.Permutation([x - 1 for x in g.images]))
    assert any(verdicts)
    assert group.degree < 100 or not all(verdicts)


def _paley_design(q):
    G, block = paley(q)
    return G, construct_design(G, block)


def _m12_design():
    G = load("m12-144/G")
    return G, construct_design(G, load("m12-144/base-block"))


DESIGNS = {
    "fano-F21": lambda: (FIXTURES["F21"][0], construct_design(FIXTURES["F21"][0], [1, 2, 4])),
    **{f"paley-{q}": (lambda q=q: _paley_design(q)) for q in (11, 19, 23, 43, 263)},
    "m12-144": _m12_design,
}


@pytest.mark.parametrize("order_known", [False, True], ids=["fresh", "order-known"])
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_block_stabilizer_orders_agree_with_sympy(name, order_known):
    """sympy stabilizes block i as point v+i of G acting on points and blocks
    together, an action in which the setwise stabilizer is a point stabilizer.
    The block images are looked up here, not read from the recorded action."""
    G, design = DESIGNS[name]()
    for des in (design, complement(design)):
        ref = sympy_comb.PermutationGroup([
            sympy_comb.Permutation([x - 1 for x in g.images] + [des.v + j for j in row])
            for g, row in zip(G.generators, reference_block_action(des, G))
        ])
        for index in sorted({0, des.num_blocks // 2, des.num_blocks - 1}):
            group = PermGroup(G.generators, degree=G.degree)
            if order_known:
                group.order()
            got = block_stabilizer(group, des, index).order()
            assert got == ref.stabilizer(des.v + index).order()
