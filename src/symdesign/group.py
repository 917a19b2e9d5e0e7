"""Permutation groups: stabilizer chains, orbits, blocks, coset actions.

A PermGroup's generators and degree never change.  Its stabilizer chain,
the transversal elements of each Schreier tree (every chain level is one)
and the orbits of G_s are filled in on first use; no tree caches inverses.
Each fill is a single dict or attribute store of a complete value that
depends only on the generators, so threads that query one group
concurrently at worst repeat work; they never see a partial value.
Public queries return fresh lists, so callers may mutate what they get.

A stored chain is always complete: its order is the group's order.  So
a point stabilizer is read off the chain, and any other stabilizer and
its chain build stop at |G|/|orbit| (orbit-stabilizer; see ``StabChain``).

Transitivity and the point stabilizer's orbits come from the chain alone.
The group is transitive iff its first basic orbit is every point.  The
second level's strong generators generate G_s for the first base point s
(Seress 2003, sec. 4.1), and ``_base_stabilizer_orbits`` walks its orbits
once and stores them.  Their lengths are the subdegrees at every point of
a transitive group, and their images under the transversal element u_1
taking s to 1 are the orbits of G_1 that seed ``minimal_block_systems``.
"""

from __future__ import annotations

from itertools import islice
from math import prod
from operator import itemgetter

from .perm import (MAX_DEGREE, Permutation, _compose, _identity_table, _pack, cycle_string,
                   parse_cycles)

__all__ = [
    "PermGroup",
    "StabChain",
    "BlockSystem",
    "CosetAction",
    "SubgroupError",
    "assert_subgroup",
    "coset_action",
    "induced_orbits",
    "parse_group_file",
    "group_file_text",
]


class SubgroupError(ValueError):
    """A claimed subgroup generator fails membership in the ambient group."""


class _SchreierTree:
    """Breadth-first Schreier tree of ``seed`` under ``gens``.

    ``rows[i][x]`` is the image of x under ``gens[i]`` in the action the
    tree follows: a table, a list, or a dict for points that are not ints.
    ``orbit`` lists the orbit in discovery order, generators in input
    order, and ``parent[y] = (x, i)`` records the edge that found y.  The
    transversal element u_y, the product of the generators on the
    path from the seed (so it maps the seed to y), is formed on first use
    by an iterative walk up the links, so a long tree needs no recursion,
    and cached by one dict store of a complete permutation.  No inverse is
    formed or cached.
    """

    __slots__ = ("seed", "gens", "rows", "orbit", "parent", "_u")

    def __init__(self, seed, gens, rows, ident: Permutation):
        parent = {seed: None}
        orbit = [seed]
        for x in orbit:  # the list grows while it is read: breadth first
            for i, row in enumerate(rows):
                y = row[x]
                if y not in parent:
                    parent[y] = (x, i)
                    orbit.append(y)
        self.seed = seed
        self.gens = gens
        self.rows = rows
        self.orbit = orbit
        self.parent = parent
        self._u = {seed: ident}

    def element(self, y) -> Permutation:
        """u_y for a point y of the orbit."""
        trans = self._u
        u = trans.get(y)
        if u is not None:
            return u
        parent, gens = self.parent, self.gens
        x, i = parent[y]
        u = trans.get(x)
        if u is not None:  # one step: the parent's element is already formed
            u = trans[y] = u * gens[i]
            return u
        path = [y]
        y = x
        while u is None:
            path.append(y)
            y = parent[y][0]
            u = trans.get(y)
        for z in reversed(path):
            u = trans[z] = u * gens[parent[z][1]]
        return u

    def schreier_pairs(self):
        """The tables of (u_x * g, u_y) for each non-tree edge x -> y under g
        whose Schreier generator u_x * g * u_y^-1 is not the identity, in
        orbit order then generator order."""
        parent, element = self.parent, self.element
        tables = [g.table for g in self.gens]
        compose = _compose(self._u[self.seed].degree)  # u_seed is the identity
        for x in self.orbit:
            ux = None
            for i, row in enumerate(self.rows):
                y = row[x]
                if parent[y] != (x, i):
                    ux = ux or element(x).table
                    a, b = compose(ux, tables[i]), element(y).table
                    if a != b:
                        yield a, b


def _quotient(a, b, degree: int) -> Permutation:
    """The permutation a * b^-1 for tables a and b (b None: the identity)."""
    p = Permutation._raw(a, degree)
    return p if b is None else p * Permutation._raw(b, degree).inverse()


def _close(orbit: list, seen: bytearray, tables, start: int = 0) -> list:
    """Extend ``orbit`` in place to its closure under the point maps
    ``tables``, breadth first from ``orbit[start]``; ``seen[x]`` is 1 for
    every x in ``orbit`` and is set for every point added.  The points
    before ``start`` must already be closed."""
    for x in islice(orbit, start, None):  # the list grows while it is read
        for t in tables:
            y = t[x]
            if not seen[y]:
                seen[y] = 1
                orbit.append(y)
    return orbit


class StabChain:
    """Deterministic Schreier-Sims stabilizer chain.

    Each level is a breadth-first Schreier tree of its base point under
    the level's strong generators; its transversal elements are formed on
    first use.  A strip keeps its residue as a pair of tables (a, b)
    standing for a * b^-1, a Schreier generator u_x * g * u_y^-1 as the
    tables of (u_x * g, u_y) its tree yields, and composes on tables, so no
    transversal is inverted and a ``Permutation`` is formed only for a
    residue that is installed or returned by ``sift``: a build forms one
    inverse per strong generator it installs.  Base points are chosen as
    the smallest point moved by the strong generator that forces a new
    level, so two builds from the same generator list agree exactly.

    A private ``_bound`` B, proved from a complete chain (never a stated
    order), with |<generators>| <= B, stops the build once the product of
    the basic orbit lengths is B.  That product never exceeds the order
    (orbit-stabilizer, level by level; Seress 2003, sec. 4.1), so the chain
    is then complete: every Schreier check left would install nothing, and
    it is the chain the full build returns, level for level.
    """

    def __init__(self, generators, degree: int, *, _bound: int | None = None):
        self.degree = degree
        self.levels: list[_SchreierTree] = []
        self._bound = _bound
        self._build([g for g in generators if not g.is_identity()])

    @property
    def base(self) -> list[int]:
        return [lv.seed for lv in self.levels]

    def order(self) -> int:
        return prod(len(lv.orbit) for lv in self.levels)

    def sift(self, g: Permutation) -> Permutation:
        """Strip g through the chain; identity result means membership."""
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        pair = self._strip(g.table, 0)[0]
        return Permutation.identity(self.degree) if pair is None else _quotient(*pair, self.degree)

    def contains(self, g: Permutation) -> bool:
        return self.sift(g).is_identity()

    def _strip(self, a, start: int, b=None):
        """Strip a * b^-1, given by the tables a and b (b None: the
        identity), from level ``start`` down: (residue, level where it left
        the chain, or the depth), the residue a pair of tables (a, b), or
        None for the identity.  At base point s the residue's image
        b^-1(a(s)) is the index y of a(s) in b; b -> u_y * b strips u_y."""
        levels, compose = self.levels, _compose(self.degree)
        for i in range(start, len(levels)):
            lv = levels[i]
            x = a[lv.seed]
            y = x if b is None else b.index(x)
            if y not in lv.parent:
                return (a, b), i
            u = (lv._u.get(y) or lv.element(y)).table
            b = u if b is None else compose(u, b)
        done = a == (_identity_table(self.degree) if b is None else b)
        return (None if done else (a, b)), len(levels)

    def _build(self, gens):
        for g in gens:
            pair, j = self._strip(g.table, 0)
            if pair is not None:
                self._install(_quotient(*pair, self.degree), 0, j)
        i = len(self.levels) - 1
        while i >= 0 and self.order() != self._bound:
            stuck = self._check_level(i)
            i = stuck if stuck is not None else i - 1

    def _check_level(self, i: int):
        """Strip each Schreier pair of level i from level i+1 and install
        the first non-identity residue.

        Returns the level where a new strong generator was installed, or
        None when the level verifies cleanly.
        """
        for a, b in self.levels[i].schreier_pairs():
            pair, j = self._strip(a, i + 1, b)
            if pair is not None:
                self._install(_quotient(*pair, self.degree), i + 1, j)
                return j
        return None

    def _conjugated(self, levels, c: Permutation, c_inv: Permutation) -> "StabChain":
        """``levels``, a tail of this chain, conjugated by c (with inverse
        c_inv): base point y becomes y^c and strong generator g becomes
        c^-1 g c.

        A tail of a complete chain is complete for the stabilizer of the
        base points above it, and its conjugate for the conjugate group;
        each level's breadth-first tree walks the carried orbit in the
        same order.
        """
        ident = Permutation.identity(self.degree)
        moved: dict[int, Permutation] = {}  # levels share strong generators
        chain = StabChain((), self.degree)
        for lv in levels:
            gens = []
            for g in lv.gens:
                h = moved.get(id(g))
                if h is None:
                    h = moved[id(g)] = c_inv * g * c
                gens.append(h)
            chain.levels.append(_SchreierTree(c.table[lv.seed], tuple(gens),
                                              [g.table for g in gens], ident))
        return chain

    def _install(self, h: Permutation, lo: int, hi: int):
        """Add strong generator h (fixing base[:hi]) to levels lo..hi.

        Raises RuntimeError when h moves a base point of levels[:hi] or
        level hi's orbit does not grow: each correct install grows an
        orbit, so a wrong residue fails at once instead of growing the
        chain without bound."""
        if any(h.table[lv.seed] != lv.seed for lv in self.levels[:hi]):
            raise RuntimeError("strong generator moves a base point above its level")
        ident = Permutation.identity(self.degree)
        if hi == len(self.levels):
            self.levels.append(_SchreierTree(h.min_moved(), (), [], ident))
        old = len(self.levels[hi].orbit)
        for m in range(lo, hi + 1):
            lv = self.levels[m]
            self.levels[m] = _SchreierTree(lv.seed, lv.gens + (h,), lv.rows + [h.table], ident)
        if len(self.levels[hi].orbit) == old:
            raise RuntimeError(f"install at level {hi} did not grow its orbit")


class PermGroup:
    """Group generated by permutations of one common degree."""

    def __init__(self, generators, degree: int | None = None):
        generators = tuple(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree is required for an empty generating set")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = generators
        self._chain: StabChain | None = None
        self._bound: int | None = None  # a proven bound on the order (``StabChain``)
        self._stabilizer_orbits: list | None = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls((), degree=degree)

    @property
    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = StabChain(self.generators, self.degree, _bound=self._bound)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, p: Permutation) -> bool:
        return self.chain.contains(p)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    # ---- orbits ----------------------------------------------------------

    def orbit(self, point: int) -> list[int]:
        """The <generators>-closure of {point}, sorted ascending."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        seen = bytearray(self.degree + 1)
        seen[point] = 1
        return sorted(_close([point], seen, [g.table for g in self.generators]))

    def orbits(self) -> list[list[int]]:
        """Orbit partition of {1..degree}, sorted by (length, min element).

        One ``seen`` array serves every orbit, and each orbit is walked
        once, breadth first from its least point."""
        seen = bytearray(self.degree + 1)
        tables = [g.table for g in self.generators]
        out = []
        for start in range(1, self.degree + 1):
            if seen[start]:
                continue
            seen[start] = 1
            out.append(sorted(_close([start], seen, tables)))
        out.sort(key=lambda o: (len(o), o[0]))
        return out

    def _fixed_point_bound(self, gens) -> int | None:
        """|G_x| = |G|/|x^G| >= |<gens>|, gens in G and x the first point all fix
        (a proven bound: ``StabChain``); None if they fix no point."""
        x = next((x for x in range(1, self.degree + 1) if all(g.table[x] == x for g in gens)), 0)
        return self.order() // len(self.orbit(x)) if x else None

    def is_transitive(self) -> bool:
        levels = self.chain.levels
        return len(levels[0].orbit) == self.degree if levels else self.degree == 1

    # ---- stabilizers -----------------------------------------------------

    def stabilizer_of_action(self, seed, rows) -> "PermGroup":
        """Stabilizer of ``seed`` under an auxiliary action of this group.

        ``rows[i][x]`` is the image of an auxiliary point x under generator
        i (a table, a list, or a dict for points that are not ints); the
        rows must come from a genuine action (respect products).
        The result is cut out by the Schreier generators of the non-tree
        edges of a breadth-first Schreier tree, each stripped as its pair
        and formed only when kept, so that each kept generator strictly
        grows the subgroup; it lives in this group as
        original-degree permutations whatever the auxiliary points are.

        The loop stops once the kept generators reach |G|/|orbit|, |G| read
        off this group's complete chain, and a regular orbit gives the
        trivial group at once; the kept generators are a prefix of one
        deterministic sequence, and the result's chain is complete.
        """
        tree = _SchreierTree(seed, self.generators, rows, self.identity())
        target = self.order() // len(tree.orbit)
        kept: list[Permutation] = []
        chain = StabChain((), self.degree)
        if target != 1:
            for a, b in tree.schreier_pairs():
                if chain._strip(a, 0, b)[0] is None:
                    continue
                kept.append(_quotient(a, b, self.degree))
                chain = StabChain(kept, self.degree, _bound=target)
                if chain.order() == target:
                    break
        stab = PermGroup(kept, degree=self.degree)
        stab._chain = chain
        return stab

    def _stabilizer_orbit_reaches(self, seed, rows, point: int, size: int) -> bool:
        """Whether the orbit of ``point`` under the stabilizer of ``seed``
        has at least ``size`` points; ``rows[i][x]`` is the image of an
        auxiliary point x under generator i.

        The Schreier generators of the breadth-first tree of ``seed`` (the
        tree ``stabilizer_of_action`` walks) generate the stabilizer
        (Schreier's lemma; Seress 2003, sec. 4.2).  Each non-identity one is
        formed from its pair and added in turn to an orbit kept closed under all added so far, and
        the walk stops once the orbit has ``size`` points.  No membership
        sift is made and no chain is built.
        """
        if size <= 1:
            return True
        seen = bytearray(self.degree + 1)
        seen[point] = 1
        orbit = [point]
        tables = []
        tree = _SchreierTree(seed, self.generators, rows, self.identity())
        for a, b in tree.schreier_pairs():
            new = _quotient(a, b, self.degree).table
            tables.append(new)
            old = len(orbit)
            for x in orbit[:old]:  # the old orbit is closed under the earlier tables
                y = new[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
            if len(_close(orbit, seen, tables, old)) >= size:
                return True
        return False

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point.  For p in the first basic orbit, with u the
        transversal element taking the first base point b to p, G_p is
        u^-1 G_b u: the chain's levels below the first, conjugated by u,
        are a complete chain of G_p (Seress 2003, sec. 4.1).  Any other
        point, in an intransitive group, is cut out of Schreier generators.
        """
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        levels = self.chain.levels
        if point not in (levels[0].parent if levels else ()):
            return self.stabilizer_of_action(point, [g.table for g in self.generators])
        u = levels[0].element(point)
        chain = self.chain._conjugated(levels[1:], u, u.inverse())
        stab = PermGroup(chain.levels[0].gens if chain.levels else (), degree=self.degree)
        stab._chain = chain
        return stab

    def _base_stabilizer_orbits(self) -> list[list[int]]:
        """``orbits()`` of G_s, s the first base point, which the chain's
        second level generates; walked once and stored like the chain.
        Callers must not mutate it."""
        if self._stabilizer_orbits is None:
            levels = self.chain.levels
            stab = PermGroup(levels[1].gens if len(levels) > 1 else (), degree=self.degree)
            self._stabilizer_orbits = stab.orbits()
        return self._stabilizer_orbits

    def subdegrees(self, point: int) -> list[int]:
        """Orbit lengths of the point stabilizer, ascending (trivial orbit included).

        All point stabilizers of a transitive group are conjugate, so these
        are the lengths of the stored orbits of G_s (module docstring); the
        checks run on every call.
        """
        if not self.is_transitive():
            raise ValueError("subdegrees require a transitive group")
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        return [len(o) for o in self._base_stabilizer_orbits()]  # orbits() sorts by length

    # ---- block systems ---------------------------------------------------

    def _finest_system_joining(self, a: int, b: int) -> "BlockSystem | None":
        """Finest block system of this transitive group with a and b in one
        class; None when that class is every point.

        The system is G-invariant, so u_a^-1 maps it to itself: it is the
        finest one joining the first base point s = a^(u_a^-1) and
        c = b^(u_a^-1), u_a from the first chain level's transversal.  The
        blocks through s are the orbits s^H of the subgroups H between G_s
        and G (Dixon and Mortimer 1996, Thm 1.5A), and a block holding s and
        c = s^(u_c) is fixed by u_c, so the class through s is its orbit
        under <G_s, u_c>, G_s generated by the chain's second level: the
        class a^<G_a, u_a^-1 u_b> moved by u_a^-1, with no strong generator
        conjugated and no inverse formed.  The orbit is closed over the
        class's own points, and the other classes are its images under the
        generators.
        """
        first, *rest = self.chain.levels
        tables = [g.table for g in (rest[0].gens if rest else ())]
        c = first.element(a).table.index(b)  # the point u_a maps to b
        tables.append(first.element(c).table)
        n = self.degree
        seen = bytearray(n + 1)
        seen[first.seed] = 1
        block = _close([first.seed], seen, tables)
        if len(block) == n:
            return None
        classes = [block]
        for cls in classes:  # the list grows while it is read
            for g in self.generators:
                t = g.table
                if not seen[t[cls[0]]]:
                    image = [t[x] for x in cls]
                    for x in image:
                        seen[x] = 1
                    classes.append(image)
        return BlockSystem(n, classes)

    def minimal_block_systems(self) -> list["BlockSystem"]:
        """All minimal nontrivial block systems; empty iff primitive.

        Joins 1 with one point b per orbit of the stabilizer G_1 on the other
        points (``_finest_system_joining``): an element of G_1 maps the
        finest system joining 1 and b to itself and b to any point of b's
        G_1-orbit, so the other points of that orbit give the same system.
        A class through 1 is G_1-invariant: {1} and other G_1-orbits, of a
        size d dividing the degree n, 1 < d < n.  So an orbit O seeds only if
        some union of the other orbits has d - 1 - |O| points (a subset sum
        on an int bitset); from any other, the closure is every point.
        Then keeps the systems whose class through 1 contains no other
        candidate's class through 1.  G_1 is u_1^-1 G_s u_1, so its orbits
        are the u_1-images of the stored orbits of G_s (module docstring);
        no strong generator is conjugated.
        """
        if self.degree < 2:
            raise ValueError("block systems need degree >= 2")
        if not self.is_transitive():
            raise ValueError("block systems require a transitive group")
        n = self.degree
        u = self.chain.levels[0].element(1).table
        orbits = sorted((sorted([u[x] for x in o]) for o in self._base_stabilizer_orbits()),
                        key=lambda o: (len(o), o[0]))  # the order of ``orbits()``
        orbits = [o for o in orbits if o[0] != 1]
        sizes = [len(o) for o in orbits]
        classes_less_1 = sum(1 << (d - 1) for d in range(2, n) if n % d == 0)  # bit d - 1
        fit = set()
        for size in set(sizes):
            others = sizes.copy()
            others.remove(size)
            reach = 1 << size  # bit t: an orbit of this size and some others have t points
            for other in others:
                reach |= reach << other
            if reach & classes_less_1:
                fit.add(size)
        found: dict[tuple, BlockSystem] = {}
        for orbit in orbits:
            if len(orbit) in fit:
                sys = self._finest_system_joining(1, orbit[0])
                if sys is not None:
                    found.setdefault(sys.classes, sys)
        systems = list(found.values())
        minimal = []
        for sys in systems:
            c1 = set(sys.class_containing(1))
            proper_refinement = any(
                other is not sys and set(other.class_containing(1)) < c1
                for other in systems
            )
            if not proper_refinement:
                minimal.append(sys)
        minimal.sort(key=lambda s: (s.class_size, s.classes))
        return minimal

    def class_stabilizer(self, system: "BlockSystem", class_index: int) -> "PermGroup":
        """Setwise stabilizer of one class of an invariant partition, cut out
        of the action on class indices: generator g's row maps class i to
        the class of g's image of i's first point."""
        if system.degree != self.degree:
            raise ValueError("block system degree mismatch")
        if not 0 <= class_index < system.num_classes:
            raise ValueError(f"class index {class_index} outside 0..{system.num_classes - 1}")
        bad = system.invariance_witness(self.generators)
        if bad is not None:
            g, cls = bad
            raise ValueError(
                f"partition not invariant: generator {cycle_string(g)} breaks class {cls}"
            )
        class_of = system.class_of
        rows = [[class_of[g.table[c[0]]] for c in system.classes] for g in self.generators]
        return self.stabilizer_of_action(class_index, rows)


class BlockSystem:
    """A partition of {1..degree} into d classes of equal size c."""

    def __init__(self, degree: int, classes):
        cls = sorted((tuple(sorted(c)) for c in classes), key=lambda c: c[0])
        if not cls:
            raise ValueError("empty partition")
        size = len(cls[0])
        cover = bytearray(degree + 1)
        for c in cls:
            if len(c) != size:
                raise ValueError("classes must have equal sizes")
            for pt in c:
                if not 1 <= pt <= degree:
                    raise ValueError(f"point {pt} outside 1..{degree}")
                if cover[pt]:
                    raise ValueError(f"point {pt} appears in two classes")
                cover[pt] = 1
        if size * len(cls) != degree:
            raise ValueError("classes do not cover the point set")
        self.degree = degree
        self.classes: tuple[tuple, ...] = tuple(cls)
        class_of = [0] * (degree + 1)
        for idx, c in enumerate(self.classes):
            for pt in c:
                class_of[pt] = idx
        self.class_of = tuple(class_of)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def class_size(self) -> int:
        return len(self.classes[0])

    def class_containing(self, point: int) -> tuple:
        return self.classes[self.class_of[point]]

    def invariance_witness(self, generators):
        """(generator, class) breaking invariance, or None if invariant.  With
        m[x] the class of x^g (one table composition), g maps classes onto
        classes iff m[rep[x]] == m[x] for all x, rep[x] the first point of x's
        class (rep[0] = 0, padding fixed); the witness: the first class m varies on."""
        n, compose = self.degree, _compose(self.degree)
        cls = _pack(self.class_of, n)
        rep = _pack([0, *(self.classes[i][0] for i in self.class_of[1:])], n)
        for g in generators:
            m = compose(g.table, cls)
            if compose(rep, m) != m:
                return g, next(c for c in self.classes if len({m[x] for x in c}) > 1)
        return None

    def __eq__(self, other):
        return isinstance(other, BlockSystem) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        return f"BlockSystem[{self.num_classes} classes of {self.class_size}]"


# ---- coset actions -------------------------------------------------------


def assert_subgroup(G: PermGroup, H: PermGroup, label: str):
    if H.degree != G.degree:
        raise SubgroupError(f"{label}: degree {H.degree} != {G.degree}")
    for h in H.generators:
        if not G.contains(h):
            raise SubgroupError(f"{label}: generator {cycle_string(h)} is not in the group")


class CosetAction:
    """Right-coset action of G on the cosets of H <= G.

    The coset of H itself gets label 1; the rest are labeled in the
    discovery order of one breadth-first orbit walk over G's generators in
    input order.  ``group`` is the image permutation group on the labels
    (generator for generator), and ``image_of`` extends the quotient map
    to arbitrary elements of G.

    The walk names a coset by a point or by its canonical representative.
    When H fixes a point x whose G-orbit has length |G:H|, H is G_x
    (orbit-stabilizer) and Hw -> x^w is a G-equivariant bijection onto
    x^G, so the walk runs over x^G and g's image is two gathers (the
    orbit's images, then their labels).  If x^G is every point, ``group``
    gets G's complete chain conjugated by the walk order; any other image
    group builds its chain to |G|, a bound on a quotient's order.  Any
    other H names each coset Hw by the representative that minimizes the
    base images of H's chain level by level, and the walk runs over those.
    """

    def __init__(self, G: PermGroup, H: PermGroup):
        assert_subgroup(G, H, "coset action subgroup")
        self.G = G
        self.H = H
        self.degree = index = G.order() // H.chain.order()
        self._orbit = _orbit_of_fixed_point(G, H, index)
        self._gather = None
        if self._orbit is not None:
            self._label = [0] * (G.degree + 1)  # slot 0 stays 0, as in every table
            for j, y in enumerate(self._orbit, 1):
                self._label[y] = j
            self._gather = itemgetter(0, *self._orbit)  # two indices or more: a tuple
            images = [self._image(g) for g in G.generators]
        else:
            images = [self._on_cosets(g) for g in G.generators]
            self._orbit, self._label, rows = _orbit_walk(self._canonical(G.identity()), images)
            if len(self._orbit) != index:
                raise RuntimeError("coset enumeration does not match the index")
            images = map(Permutation._trusted, rows)
        self.group = PermGroup(images, degree=index)
        self.group._bound = G.order()
        if self._gather is not None and index == G.degree:
            # label j is the point p(j), so g acts on the labels as p g p^-1
            p = Permutation._trusted(self._orbit)
            self.group._chain = G.chain._conjugated(G.chain.levels, p.inverse(), p)

    def _canonical(self, g: Permutation) -> Permutation:
        """Unique coset representative: minimizes base images level by level."""
        w = g
        for lv in self.H.chain.levels:
            best = min(lv.orbit, key=w.table.__getitem__)
            if best != lv.seed:
                w = (lv._u.get(best) or lv.element(best)) * w
        return w

    def _on_cosets(self, g: Permutation):
        """The map Hw -> Hwg on canonical representatives."""
        canonical = self._canonical
        return lambda w: canonical(w * g)

    def image_of(self, g: Permutation) -> Permutation:
        """Image of g in the coset action (g need not be a generator)."""
        if g.degree != self.G.degree:
            raise ValueError(f"degree mismatch: {self.G.degree} vs {g.degree}")
        if not self.G.contains(g):
            raise ValueError("element is not in the acted-on group")
        return self._image(g)

    def _image(self, g: Permutation) -> Permutation:
        """``image_of`` for a g known to lie in G, with no checks."""
        if self._gather is not None:
            img = itemgetter(*self._gather(g.table))(self._label)
            return Permutation._raw(_pack(img, self.degree), self.degree)
        image, label = self._on_cosets(g), self._label
        return Permutation._trusted([label[image(w)] for w in self._orbit])


def _orbit_of_fixed_point(G: PermGroup, H: PermGroup, index: int) -> list | None:
    """The G-orbit of the first point fixed by H whose orbit has length
    ``index``, breadth first over G's generators in order; None if none.

    Points of one orbit have conjugate stabilizers, so each G-orbit is
    walked once, from its first point fixed by H.
    """
    tables = [g.table for g in G.generators]
    seen = bytearray(G.degree + 1)
    for x in range(1, G.degree + 1):
        if seen[x] or any(h.table[x] != x for h in H.generators):
            continue
        seen[x] = 1
        orbit = _close([x], seen, tables)
        if len(orbit) == index:
            return orbit
    return None


def _orbit_walk(seed, images):
    """Breadth-first orbit of ``seed`` under one map per generator.

    ``images[i](x)`` is the image of x under generator i; items must be
    hashable.  Returns ``(orbit, label, rows)``: the orbit in discovery
    order, generators in input order; ``label[x]``, x's position in it
    counted from 1; and ``rows[i][j - 1]``, the label of the image of the
    item labelled j under generator i.
    """
    label = {seed: 1}
    orbit = [seed]
    rows = [[] for _ in images]
    for x in orbit:  # the list grows while it is read: breadth first
        for image, row in zip(images, rows):
            y = image(x)
            j = label.get(y)
            if j is None:
                orbit.append(y)
                j = label[y] = len(orbit)
            row.append(j)
    return orbit, label, rows


def coset_action(G: PermGroup, H: PermGroup) -> CosetAction:
    return CosetAction(G, H)


def induced_orbits(act: CosetAction, K: PermGroup) -> list[list[int]]:
    """Orbits of K <= act.G on the coset labels of ``act``, sorted by
    (length, min label)."""
    assert_subgroup(act.G, K, "induced orbit subgroup")
    images = [act._image(k) for k in K.generators]
    return PermGroup(images, degree=act.degree).orbits()


# ---- group file format ---------------------------------------------------


def parse_group_file(text: str) -> tuple[PermGroup, str | None]:
    """Parse the group file format.

    Line ``degree: N``, optional line ``name: <string>``, then one
    generator per line in disjoint-cycle notation.  Whitespace-insensitive.
    """
    degree = None
    name = None
    gens: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.lower().startswith("degree:"):
            value = line.split(":", 1)[1].strip()
            try:
                degree = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: degree {value!r} is not an integer") from None
            if not 1 <= degree <= MAX_DEGREE:
                raise ValueError(f"line {lineno}: degree {degree} must be positive "
                                 f"and at most {MAX_DEGREE}")
            continue
        if line.lower().startswith("name:"):
            name = line.split(":", 1)[1].strip()
            continue
        if degree is None:
            raise ValueError(f"line {lineno}: generator before the degree line")
        gens.append(parse_cycles(line, degree))
    if degree is None:
        raise ValueError("missing degree line")
    return PermGroup(gens, degree=degree), name


def group_file_text(G: PermGroup, name: str | None = None) -> str:
    lines = [f"degree: {G.degree}"]
    if name is not None:
        lines.append(f"name: {name}")
    lines.extend(cycle_string(g) for g in G.generators)
    return "\n".join(lines) + "\n"
