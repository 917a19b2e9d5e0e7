"""Shared fixture groups and brute-force oracles for the test suite."""

import math
from collections import Counter
from itertools import combinations

from symdesign.arith import divisors, factorize
from symdesign.design import DesignParams, NotSymmetric, _block_action_images, _verified
from symdesign.perm import Permutation, parse_cycles
from symdesign.group import BlockSystem, PermGroup
from symdesign.params import _candidate


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


def wreath(inner, outer):
    """Imprimitive wreath product inner wr outer on inner.degree * outer.degree
    points: copy j of the inner group acts on points j*c+1..j*c+c, and the
    outer group permutes the copies."""
    c, d = inner.degree, outer.degree
    gens = []
    for g in inner.generators:  # on the first copy only
        gens.append(Permutation([g(x) if x <= c else x for x in range(1, c * d + 1)]))
    for h in outer.generators:
        gens.append(Permutation([
            (h((x - 1) // c + 1) - 1) * c + (x - 1) % c + 1 for x in range(1, c * d + 1)
        ]))
    return PermGroup(gens, degree=c * d)


# ---- reference implementations that the fast kernels are tested against ------


def reference_verify_symmetric(design):
    """The symmetric-design check by frozenset meets and a dict of point pairs.

    Raises NotSymmetric with the same axiom, witness and message as
    ``design.verify_symmetric``, or returns the same parameters; it does not
    cache them on the design.
    """
    v = design.v
    blocks = design.blocks
    if len(blocks) != v:
        raise NotSymmetric("block-count", len(blocks), f"{len(blocks)} blocks for {v} points")
    seen = {}
    for i, b in enumerate(blocks):
        if b in seen:
            raise NotSymmetric(
                "duplicate-block", (seen[b], i), f"blocks {seen[b]} and {i} coincide"
            )
        seen[b] = i
    k = len(blocks[0])
    for i, b in enumerate(blocks):
        if len(b) != k:
            raise NotSymmetric("block-size", i, f"block {i} has size {len(b)}, expected {k}")
    degree = Counter(pt for b in blocks for pt in b)
    for pt in range(1, v + 1):
        if degree[pt] != k:
            raise NotSymmetric(
                "point-degree", pt, f"point {pt} lies on {degree[pt]} blocks, expected {k}"
            )
    block_sets = [frozenset(b) for b in blocks]
    lam = None
    for i, j in combinations(range(v), 2):
        meet = len(block_sets[i] & block_sets[j])
        if lam is None:
            lam = meet
        elif meet != lam:
            raise NotSymmetric(
                "block-pair", (i, j), f"blocks {i},{j} meet in {meet}, expected {lam}"
            )
    if v == 1:
        lam = k
    pair_count = Counter(pair for b in blocks for pair in combinations(b, 2))
    for a, b in combinations(range(1, v + 1), 2):
        meet = pair_count[(a, b)]
        if meet != lam:
            raise NotSymmetric(
                "point-pair", (a, b), f"points {a},{b} lie on {meet} blocks, expected {lam}"
            )
    return DesignParams(v, k, lam)


def reference_is_flag_transitive(design, G, force=False):
    """Flag transitivity by a breadth-first search over (point, block) flags."""
    params = _verified(design)
    if not params.nontrivial and not force:
        raise ValueError(f"design {params} is trivial; pass force=True to override")
    if G.degree != design.v:
        raise ValueError("group degree does not match the point count")
    rows = _block_action_images(G, design)
    tables = [g.table for g in G.generators]
    total = sum(len(b) for b in design.blocks)
    start = (design.blocks[0][0], 0)
    seen = {start}
    queue = [start]
    qi = 0
    while qi < len(queue):
        pt, bi = queue[qi]
        qi += 1
        for t, row in zip(tables, rows):
            nxt = (t[pt], row[bi])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == total


def _reference_finest_system_joining(group, a, b):
    """Union-find closure of {a, b} under the generators, through ``g(x)``."""
    parent = list(range(group.degree + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        pending.extend((g(x), g(y)) for g in group.generators)
    classes = {}
    for pt in range(1, group.degree + 1):
        classes.setdefault(find(pt), []).append(pt)
    return None if len(classes) == 1 else BlockSystem(group.degree, classes.values())


def reference_minimal_block_systems(group):
    """Minimal block systems from the closure of every pair {1, b}, b = 2..degree,
    in the order ``PermGroup.minimal_block_systems`` reports them."""
    found = {}
    for b in range(2, group.degree + 1):
        system = _reference_finest_system_joining(group, 1, b)
        if system is not None:
            found.setdefault(system.classes, system)
    minimal = [
        s for s in found.values()
        if not any(set(o.class_containing(1)) < set(s.class_containing(1))
                   for o in found.values())
    ]
    return sorted(minimal, key=lambda s: (s.class_size, s.classes))


def reference_enumerate_params(v, m_order, m_factorization=None):
    """``params.enumerate_params`` by the divisor double loop it replaced.

    Splits v-1 = k1*k2 over the divisors k2 of t = gcd(v-1, m_order) and
    scans every divisor k of m_order for k = 1 + k1*lam1.
    """
    if v < 4:
        return []
    fact = m_factorization if m_factorization is not None else factorize(m_order)
    t = math.gcd(v - 1, m_order)
    t_fact = {}
    for p, e in fact.items():
        r = 0
        n = v - 1
        while n % p == 0 and r < e:
            n //= p
            r += 1
        if r:
            t_fact[p] = r
    m_divs = divisors(m_order, fact)
    found = {}
    for k2 in divisors(t, t_fact):
        k1 = (v - 1) // k2
        for k in m_divs:
            if k <= 2 or k >= v - 1 or (k - 1) % k1:
                continue
            lam1 = (k - 1) // k1
            if lam1 > k2 or math.gcd(lam1, k2) != 1:
                continue
            num = k * (k - 1)
            if num % (v - 1):
                continue
            lam = num // (v - 1)
            if lam * v >= k * k:
                continue
            found[k] = lam
    return [_candidate(v, k, found[k], t) for k in sorted(found)]
