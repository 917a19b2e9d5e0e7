"""Differential checks of the group engine against sympy.combinatorics.

sympy numbers points from 0 and symdesign from 1; every comparison here
converts between the two.  Skipped when sympy is not installed.
"""

import random

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from symdesign.catalog import load  # noqa: E402
from symdesign.group import PermGroup  # noqa: E402
from symdesign.perm import Permutation  # noqa: E402

from helpers import FIXTURES, cyclic, sym, wreath  # noqa: E402


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


def random_wreath_subgroup(rng):
    """Two random words in S_c wr S_d, relabelled by a random permutation:
    often transitive and imprimitive."""
    whole = wreath(sym(rng.randint(2, 4)), sym(rng.randint(2, 4)))
    images = list(range(1, whole.degree + 1))
    rng.shuffle(images)
    pi = Permutation(images)
    gens = []
    for _ in range(2):
        word = whole.identity()
        for _ in range(12):
            word = word * rng.choice(whole.generators)
        gens.append(pi.inverse() * word * pi)
    return PermGroup(gens, degree=whole.degree)


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
