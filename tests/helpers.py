"""Shared fixture groups and brute-force oracles for the test suite."""

import json
import math
import re
from collections import Counter
from importlib import resources
from itertools import combinations
from types import SimpleNamespace

from hypothesis import strategies as st

from symdesign.arith import divisors, factorize
from symdesign.design import (
    DesignParams,
    ImprimitivityProfile,
    NotSymmetric,
    ProfileViolation,
    _verified,
)
from symdesign.perm import MAX_DEGREE, Permutation, _pack, parse_cycles
from symdesign.group import BlockSystem, PermGroup, StabChain
from symdesign.catalog import load_catalogs
from symdesign.params import _candidate, classify_type, derive_cdl, enumerate_params
from symdesign.pipeline import (
    candidate_vs,
    divisibility_gate,
    large_filter,
    subgroup_index_gate,
)


_REFERENCE_CYCLE_RE = re.compile(r"\(([0-9,]*)\)")


def reference_parse_cycles(text: str, degree: int) -> Permutation:
    """``perm.parse_cycles`` as a regex match per cycle and a check per point,
    the form that names each error where it is met."""
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree {degree} is outside 1..{MAX_DEGREE}")
    stripped = re.sub(r"\s+", "", text)
    images = list(range(degree + 1))
    seen = bytearray(degree + 1)
    pos = 0
    while pos < len(stripped):
        m = _REFERENCE_CYCLE_RE.match(stripped, pos)
        if m is None:
            raise ValueError(f"malformed cycle text at {stripped[pos:pos + 12]!r}")
        body = m.group(1)
        pos = m.end()
        if not body:
            continue
        parts = body.split(",")
        if any(not part for part in parts):
            raise ValueError(f"empty entry in cycle ({body})")
        points = [int(part) for part in parts]
        for pt in points:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} outside 1..{degree}")
            if seen[pt]:
                raise ValueError(f"point {pt} repeated across cycles")
            seen[pt] = 1
        for a, b in zip(points, points[1:]):
            images[a] = b
        images[points[-1]] = points[0]
    return Permutation._raw(_pack(images, degree), degree)


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


def m12_group_texts():
    """Key -> group-file text (``degree: 144`` plus one cycle string per
    line) of G, H, K and N3, read straight from ``m12_catalog.json``: G is
    the catalog's group, the others its first record of each name."""
    data = json.loads((resources.files("symdesign.data") / "m12_catalog.json").read_text())
    records = data["maximals"] + data["subgroup_hints"]
    gens = {"G": data["group"]["generators"]}
    for key, name in (("H", "point-L2(11)"), ("K", "block-L2(11)"), ("N3", "L2(11)max")):
        gens[key] = next(r["generators"] for r in records if r["name"] == name)
    return {key: "\n".join(["degree: 144", *strings]) + "\n" for key, strings in gens.items()}


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


@st.composite
def random_groups(draw):
    """A group on 2..7 points generated by 1..3 drawn permutations."""
    n = draw(st.integers(min_value=2, max_value=7))
    count = draw(st.integers(min_value=1, max_value=3))
    gens = [
        Permutation(draw(st.permutations(list(range(1, n + 1)))))
        for _ in range(count)
    ]
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


def paley(q, r=None):
    """The affine group x -> ax+b, a a nonzero square, on Z_q for a prime
    q = 3 (mod 4), and the Paley base block of the squares; x is point x+1.

    The group has order q(q-1)/2 and is generated by x -> x+1 and x -> r^2 x,
    r the smallest primitive root unless given (r^2 must generate the
    squares)."""
    r = r or next(r for r in range(2, q)
                  if all(pow(r, (q - 1) // p, q) != 1 for p in factorize(q - 1)))
    shift = Permutation([(x + 1) % q + 1 for x in range(q)])
    scale = Permutation([r * r * x % q + 1 for x in range(q)])
    squares = sorted({x * x % q for x in range(1, q)})
    return PermGroup([shift, scale], degree=q), [x + 1 for x in squares]


# ---- reference implementations that the fast kernels are tested against ------


def reference_strip(chain, g, start):
    """``StabChain._strip`` multiplying at every level, the last included:
    ``(residue, level where g left the chain, or the depth)``, each level's
    u_y^-1 inverted afresh from the transversal element."""
    for i in range(start, len(chain.levels)):
        lv = chain.levels[i]
        y = g.table[lv.seed]
        if y not in lv.parent:
            return g, i
        g = g * lv.element(y).inverse()
    return g, len(chain.levels)


def reference_stab_chain(generators, degree):
    """``StabChain(generators, degree)`` built the textbook way: each
    Schreier generator u_x * g * u_y^-1 of level i, in orbit order then
    generator order, with u_y^-1 inverted afresh, is stripped from level
    i+1 by ``reference_strip``; the first non-identity residue is
    installed and the deepest level it reached is checked next."""
    chain = StabChain((), degree)

    def install(g, start):
        h, j = reference_strip(chain, g, start)
        if h.is_identity():
            return None
        chain._install(h, start, j)
        return j

    for g in generators:
        install(g, 0)
    i = len(chain.levels) - 1
    while i >= 0:
        lv = chain.levels[i]
        sgs = (lv.element(x) * g * lv.element(g.table[x]).inverse()
               for x in lv.orbit for g in lv.gens)
        stuck = next((j for sg in sgs if (j := install(sg, i + 1)) is not None), None)
        i = i - 1 if stuck is None else stuck
    return chain


def chain_levels(chain):
    """Each level's base point, orbit list and strong generator tables, in order."""
    return [(lv.seed, lv.orbit, [g.table for g in lv.gens]) for lv in chain.levels]


def reference_invariance_witness(system, generators):
    """``BlockSystem.invariance_witness`` by frozensets: the first generator
    and, in class order, its first class whose image is not a class."""
    class_sets = [frozenset(c) for c in system.classes]
    universe = set(class_sets)
    for g in generators:
        for c in class_sets:
            if frozenset(g.table[x] for x in c) not in universe:
                return g, tuple(sorted(c))
    return None


def sift_cases(group, rng):
    """Members (words in the generators) and non-members: random
    permutations, and members premultiplied by a transposition that fixes
    every base point, whose strip reaches the last level and leaves it."""
    n = group.degree
    words = []
    for _ in range(12):
        w = group.identity()
        for _ in range(rng.randint(0, 20)):
            w = w * rng.choice(group.generators)
        words.append(w)
    others = []
    for _ in range(6):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        others.append(Permutation(images))
    free = [x for x in range(1, n + 1) if x not in group.chain.base]
    if len(free) >= 2:
        a, b = rng.sample(free, 2)
        swap = parse_cycles(f"({a},{b})", n)
        others += [swap * w for w in words[:6]]
    return words + others


def reference_stabilizer_of_action(group, seed, action):
    """``PermGroup.stabilizer_of_action`` without the early stop: the whole
    transversal and its inverses up front, and every Schreier generator of
    every edge sifted, whether or not the group's order is known."""
    ident = group.identity()
    trans = {seed: ident}
    inv = {seed: ident}
    orbit = [seed]
    qi = 0
    while qi < len(orbit):
        x = orbit[qi]
        qi += 1
        ux = trans[x]
        for g in group.generators:
            y = action(g, x)
            if y not in trans:
                u = ux * g
                trans[y] = u
                inv[y] = u.inverse()
                orbit.append(y)
    kept = []
    chain = None
    for x in orbit:
        ux = trans[x]
        for g in group.generators:
            sg = ux * g * inv[action(g, x)]
            if sg.is_identity():
                continue
            if chain is not None and chain.contains(sg):
                continue
            kept.append(sg)
            chain = StabChain(kept, group.degree)
    stab = PermGroup(kept, degree=group.degree)
    stab._chain = chain if chain is not None else StabChain((), group.degree)
    return stab


def reference_coset_action(G, H):
    """``CosetAction`` by canonical coset representatives for every H, even
    a point stabilizer: a breadth-first expansion over G's generators in
    input order, each coset named by the representative that minimizes the
    base images of H's chain level by level.

    Returns a namespace with ``degree``, ``group`` (the image, generator
    for generator, with no chain) and ``image_of``.
    """
    hchain = H.chain

    def canonical(g):
        w = g
        for lv in hchain.levels:
            best = min(lv.orbit, key=w.table.__getitem__)
            if best != lv.seed:
                w = lv.element(best) * w
        return w

    reps = [canonical(G.identity())]
    labels = {reps[0].table: 1}
    rows = [[] for _ in G.generators]
    qi = 0
    while qi < len(reps):
        w = reps[qi]
        qi += 1
        for g, row in zip(G.generators, rows):
            wg = canonical(w * g)
            label = labels.get(wg.table)
            if label is None:
                reps.append(wg)
                label = labels[wg.table] = len(reps)
            row.append(label)
    if len(reps) * hchain.order() != G.order():
        raise RuntimeError("coset enumeration does not match the index")

    def image_of(g):
        images = [labels.get(canonical(w * g).table) for w in reps]
        if None in images:
            raise ValueError("element is not in the acted-on group")
        return Permutation(images)

    group = PermGroup([Permutation(row) for row in rows], degree=len(reps))
    return SimpleNamespace(degree=len(reps), group=group, image_of=image_of)


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


def reference_imprimitivity_profile(design, system):
    """``design.imprimitivity_profile`` by the full loop over every block on
    plain sets, for a design already verified symmetric.

    Raises ProfileViolation with the same fields and message, or returns the
    same profile; it reads k and lam off blocks 0 and 1.
    """
    if system.degree != design.v:
        raise ValueError("block system degree does not match the design")
    blocks = [set(b) for b in design.blocks]
    k = len(blocks[0])
    lam = len(blocks[0] & blocks[1])
    classes = [set(c) for c in system.classes]
    ell = s = None
    for bi, b in enumerate(blocks):
        met = [(ci, len(b & cls)) for ci, cls in enumerate(classes) if b & cls]
        for ci, size in met:
            if ell is None:
                ell = size
            elif size != ell:
                raise ProfileViolation(bi, ci, size, f"block {bi} meets class {ci} in {size}"
                                       f" points, expected 0 or {ell}")
        if s is None:
            s = len(met)
        elif len(met) != s:
            raise ProfileViolation(
                bi, -1, len(met), f"block {bi} meets {len(met)} classes, expected {s}"
            )
    c, d = len(classes[0]), len(classes)
    if ell is None or ell < 2 or s < 2:
        raise ProfileViolation(-1, -1, ell or 0, "degenerate intersection profile")
    if k != ell * s:
        raise ProfileViolation(-1, -1, ell, f"k != ell*s: {k} != {ell}*{s}")
    if lam * (c - 1) != k * (ell - 1):
        raise ProfileViolation(-1, -1, ell, f"lam(c-1) != k(ell-1) for c={c}, ell={ell}")
    return ImprimitivityProfile(c, d, ell, s)


def reference_construct_design(G, base_block):
    """The blocks of the G-orbit of the base block, as sorted tuples in
    ascending order, by a breadth-first search over frozensets that images
    points through ``g.table`` lookups."""
    tables = [g.table for g in G.generators]
    start = frozenset(base_block)
    seen = {start}
    queue = [start]
    for block in queue:
        for t in tables:
            image = frozenset(t[pt] for pt in block)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return sorted(tuple(sorted(b)) for b in seen)


def reference_tuple_walk(G, base_block):
    """``construct_design`` with sorted-tuple block keys at every degree: a
    breadth-first walk that maps a block by looking up and sorting its
    points' images.  Returns the blocks in ascending order and, for each
    generator, the row of the indices of the blocks' images."""
    tables = [g.table for g in G.generators]
    start = tuple(sorted(set(base_block)))
    label = {start: 0}
    orbit = [start]
    walked = [[] for _ in tables]
    for block in orbit:  # the list grows while it is read
        for t, row in zip(tables, walked):
            image = tuple(sorted([t[pt] for pt in block]))
            if image not in label:
                label[image] = len(orbit)
                orbit.append(image)
            row.append(label[image])
    order = sorted(range(len(orbit)), key=orbit.__getitem__)
    rank = [0] * len(orbit)
    for new, old in enumerate(order):
        rank[old] = new
    return [orbit[i] for i in order], [[rank[row[i]] for i in order] for row in walked]


def reference_block_action(design, G):
    """One row per generator of G: ``rows[i][j]`` is the index of the image
    of block j, found by looking the sorted image up among the blocks, not
    read from the design's recorded action."""
    index = {b: i for i, b in enumerate(design.blocks)}
    rows = []
    for g in G.generators:
        t = g.table
        row = []
        for b in design.blocks:
            j = index.get(tuple(sorted(t[pt] for pt in b)))
            if j is None:
                raise ValueError(f"generator maps block {b} outside the block set")
            row.append(j)
        rows.append(row)
    return rows


def reference_is_flag_transitive(design, G, force=False):
    """Flag transitivity by a breadth-first search over (point, block) flags,
    finding block images by its own lookup, not the design's recorded action."""
    params = _verified(design)
    if not params.nontrivial and not force:
        raise ValueError(f"design {params} is trivial; pass force=True to override")
    if G.degree != design.v:
        raise ValueError("group degree does not match the point count")
    tables = [g.table for g in G.generators]
    rows = reference_block_action(design, G)
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


def simple_index_bound_refutes(order: int, index: int) -> bool:
    """Whether a nonabelian simple group of this order provably has no
    subgroup of this index.  A simple M with a subgroup of index i > 1 acts
    faithfully on its i cosets, with image in A_i (else the image meets A_i
    in a normal subgroup of index 2), so |M| divides i!/2."""
    return index > 1 and (math.factorial(index) // 2) % order != 0


def brute_force_params(v: int, m_order: int) -> list[tuple]:
    """Independent oracle: direct scan over every k in 3..v-2.

    Keeps k | m_order with lam = k(k-1)/(v-1) integral and lam*v < k^2.
    Intended for moderate v; quadratic-free but linear in v.
    """
    out = []
    for k in range(3, v - 1):
        if m_order % k:
            continue
        num = k * (k - 1)
        if num % (v - 1):
            continue
        lam = num // (v - 1)
        if lam * v < k * k:
            out.append((v, k, lam))
    return out


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


def reference_pipeline_rows(catalog_data):
    """``run_pipeline``'s tuples without its run tables, as ``(group,
    rows)`` per catalog: for each large M, each v in ``candidate_vs(M)``,
    each ``enumerate_params`` candidate and each large N that passes
    ``divisibility_gate``, the row (nr_M, nr_N, M, N, i_H, i_K, v, k, lam,
    cdl, type, gate_H, gate_K), in the report's order."""
    out = []
    for cat in load_catalogs(catalog_data):
        large = [M for M in cat.maximals if large_filter(cat.order, M.order)]
        rows = []
        for nr_M, M in enumerate(large, 1):
            for v in candidate_vs(M):
                for cand in enumerate_params(v, M.order):
                    for nr_N, N in enumerate(large, 1):
                        if not divisibility_gate(cand.triple, N):
                            continue
                        k, lam = cand.k, cand.lam
                        i_H, i_K = v // M.index, v // N.index
                        rows.append((
                            nr_M, nr_N, M.name, N.name, i_H, i_K, v, k, lam,
                            tuple(derive_cdl(v, k, lam)), classify_type(v, k, lam).tag,
                            subgroup_index_gate(M.name, i_H, cat.index_tables),
                            subgroup_index_gate(N.name, i_K, cat.index_tables),
                        ))
        rows.sort(key=lambda r: (r[0], r[1], r[7], r[6]))
        out.append((cat.name, rows))
    return out
