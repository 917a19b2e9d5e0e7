"""Shared fixture groups and brute-force oracles for the test suite."""

from collections import Counter
from itertools import combinations

from symdesign.perm import Permutation, parse_cycles
from symdesign.group import PermGroup


def grp(degree, *cycle_strings):
    return PermGroup([parse_cycles(s, degree) for s in cycle_strings], degree=degree)


def cyclic(n):
    return grp(n, "(" + ",".join(map(str, range(1, n + 1))) + ")")


def sym(n):
    return grp(n, "(1,2)", "(" + ",".join(map(str, range(1, n + 1))) + ")")


FIXTURES = {
    "C4": (cyclic(4), 4),
    "C6": (cyclic(6), 6),
    "C8": (cyclic(8), 8),
    "S3": (sym(3), 6),
    "S4": (sym(4), 24),
    "S5": (sym(5), 120),
    "A4": (grp(4, "(1,2,3)", "(2,3,4)"), 12),
    "A5": (grp(5, "(1,2,3,4,5)", "(1,2,3)"), 60),
    "A7": (grp(7, "(1,2,3)", "(3,4,5,6,7)"), 2520),
    "D10": (grp(5, "(1,2,3,4,5)", "(2,5)(3,4)"), 10),
    "F21": (grp(7, "(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"), 21),
}


def element_closure(group):
    """Every element of the group, by breadth-first word enumeration."""
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in group.generators:
                e = w * g
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return seen


def pairwise_meets(design):
    """(size, count) for every block-pair intersection size, by brute force."""
    sets = [frozenset(b) for b in design.blocks]
    meets = Counter(len(a & b) for a, b in combinations(sets, 2))
    return tuple(sorted(meets.items()))
