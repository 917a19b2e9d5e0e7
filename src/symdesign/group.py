"""Permutation groups: stabilizer chains, orbits, blocks, coset actions.

A PermGroup's generators and degree never change.  Two things are filled
in lazily: the stabilizer chain, on first use, and a private memo of
point stabilizers, which ``subdegrees`` and ``minimal_block_systems``
share.  Each fill is a single dict or attribute store of a value that
depends only on the generators, so threads that query one group
concurrently at worst repeat work; they never see a partial value.
Queries return fresh lists, so callers may mutate what they get.
"""

from __future__ import annotations

from math import prod

from .perm import MAX_DEGREE, Permutation, cycle_string, parse_cycles

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


class _Level:
    __slots__ = ("point", "gens", "orbit", "transversal", "inv")

    def __init__(self, point: int, degree: int):
        ident = Permutation.identity(degree)
        self.point = point
        self.gens: list[Permutation] = []
        self.orbit = [point]
        self.transversal = {point: ident}
        self.inv = {point: ident}


class StabChain:
    """Deterministic Schreier-Sims stabilizer chain.

    Base points are chosen as the smallest point moved by the strong
    generator that forces a new level; transversals are stored in
    breadth-first discovery order, so two builds from the same generator
    list agree exactly.
    """

    def __init__(self, generators, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._build([g for g in generators if not g.is_identity()])

    @property
    def base(self) -> list[int]:
        return [lv.point for lv in self.levels]

    def order(self) -> int:
        return prod(len(lv.transversal) for lv in self.levels) if self.levels else 1

    def sift(self, g: Permutation) -> Permutation:
        """Strip g through the chain; identity result means membership."""
        return self._strip(g, 0)[0]

    def contains(self, g: Permutation) -> bool:
        return self.sift(g).is_identity()

    def _strip(self, g: Permutation, start: int):
        i = start
        while i < len(self.levels):
            lv = self.levels[i]
            u_inv = lv.inv.get(g.table[lv.point])
            if u_inv is None:
                return g, i
            g = g * u_inv
            i += 1
        return g, len(self.levels)

    def _build(self, gens):
        for g in gens:
            h, j = self._strip(g, 0)
            if not h.is_identity():
                self._install(h, 0, j)
        i = len(self.levels) - 1
        while i >= 0:
            stuck = self._check_level(i)
            i = stuck if stuck is not None else i - 1

    def _check_level(self, i: int):
        """Sift every Schreier generator of level i through the deeper chain.

        Returns the level where a new strong generator was installed, or
        None when the level verifies cleanly.
        """
        lv = self.levels[i]
        for x in lv.orbit:
            ux = lv.transversal[x]
            for s in lv.gens:
                sg = ux * s * lv.inv[s.table[x]]
                if sg.is_identity():
                    continue
                h, j = self._strip(sg, i + 1)
                if not h.is_identity():
                    self._install(h, i + 1, j)
                    return j
        return None

    def _install(self, h: Permutation, lo: int, hi: int):
        """Add strong generator h (fixing base[:hi]) to levels lo..hi."""
        if hi == len(self.levels):
            self.levels.append(_Level(h.min_moved(), self.degree))
        for m in range(lo, hi + 1):
            lv = self.levels[m]
            lv.gens.append(h)
            self._rebuild(lv)

    def _rebuild(self, lv: _Level):
        ident = Permutation.identity(self.degree)
        trans = {lv.point: ident}
        inv = {lv.point: ident}
        orbit = [lv.point]
        qi = 0
        while qi < len(orbit):
            x = orbit[qi]
            qi += 1
            ux = trans[x]
            for s in lv.gens:
                y = s.table[x]
                if y not in trans:
                    u = ux * s
                    trans[y] = u
                    inv[y] = u.inverse()
                    orbit.append(y)
        lv.orbit, lv.transversal, lv.inv = orbit, trans, inv


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
        self._stabilizers: dict[int, PermGroup] = {}

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls((), degree=degree)

    @property
    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = StabChain(self.generators, self.degree)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
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
        queue = [point]
        tables = [g.table for g in self.generators]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for t in tables:
                y = t[x]
                if not seen[y]:
                    seen[y] = 1
                    queue.append(y)
        return sorted(queue)

    def orbits(self) -> list[list[int]]:
        """Orbit partition of {1..degree}, sorted by (length, min element)."""
        seen = bytearray(self.degree + 1)
        out = []
        for start in range(1, self.degree + 1):
            if seen[start]:
                continue
            orb = self.orbit(start)
            for x in orb:
                seen[x] = 1
            out.append(orb)
        out.sort(key=lambda o: (len(o), o[0]))
        return out

    def is_transitive(self) -> bool:
        return self.degree >= 1 and len(self.orbit(1)) == self.degree

    # ---- stabilizers -----------------------------------------------------

    def stabilizer_of_action(self, seed, action) -> "PermGroup":
        """Stabilizer of ``seed`` under an auxiliary action of this group.

        ``action(g, x)`` gives the image of an auxiliary point x under a
        group element g and must be a genuine action (respect products).
        The result is cut out by Schreier generators, reduced so that each
        kept generator strictly grows the subgroup; it lives in this group
        as original-degree permutations whatever the auxiliary points are.
        """
        ident = self.identity()
        trans = {seed: ident}
        inv = {seed: ident}
        orbit = [seed]
        qi = 0
        while qi < len(orbit):
            x = orbit[qi]
            qi += 1
            ux = trans[x]
            for g in self.generators:
                y = action(g, x)
                if y not in trans:
                    u = ux * g
                    trans[y] = u
                    inv[y] = u.inverse()
                    orbit.append(y)
        kept: list[Permutation] = []
        chain = None
        for x in orbit:
            ux = trans[x]
            for g in self.generators:
                sg = ux * g * inv[action(g, x)]
                if sg.is_identity():
                    continue
                if chain is not None and chain.contains(sg):
                    continue
                kept.append(sg)
                chain = StabChain(kept, self.degree)
        stab = PermGroup(kept, degree=self.degree)
        stab._chain = chain if chain is not None else StabChain((), self.degree)
        return stab

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point, generated by reduced Schreier generators."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        return self.stabilizer_of_action(point, lambda g, x: g.table[x])

    def _stabilizer(self, point: int) -> "PermGroup":
        """``point_stabilizer(point)``, computed once per group and point."""
        stab = self._stabilizers.get(point)
        if stab is None:
            stab = self._stabilizers[point] = self.point_stabilizer(point)
        return stab

    def subdegrees(self, point: int) -> list[int]:
        """Orbit lengths of the point stabilizer, ascending (trivial orbit included)."""
        if not self.is_transitive():
            raise ValueError("subdegrees require a transitive group")
        return sorted(len(o) for o in self._stabilizer(point).orbits())

    # ---- block systems ---------------------------------------------------

    def _finest_system_joining(self, a: int, b: int) -> "BlockSystem | None":
        """Finest invariant partition with a and b in one class.

        Classical union-find block refinement; returns None when the
        closure is the full point set.
        """
        parent = list(range(self.degree + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        pending: list[int] = []

        def union(x: int, y: int):
            rx, ry = find(x), find(y)
            if rx == ry:
                return
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            pending.append(ry)

        union(a, b)
        tables = [g.table for g in self.generators]
        while pending:
            y = pending.pop()
            x = find(y)
            for t in tables:
                union(t[x], t[y])
        classes: dict[int, list[int]] = {}
        for pt in range(1, self.degree + 1):
            classes.setdefault(find(pt), []).append(pt)
        if len(classes) <= 1:
            return None
        return BlockSystem(self.degree, list(classes.values()))

    def minimal_block_systems(self) -> list["BlockSystem"]:
        """All minimal nontrivial block systems; empty iff primitive.

        Seeds the refinement with one pair {1, b} per orbit of the stabilizer
        G_1 on the other points: an element of G_1 maps the finest system
        joining 1 and b to itself and b to any point of b's G_1-orbit, so the
        other points of that orbit give the same system (Atkinson, 1975).
        Then keeps the systems whose class through 1 contains no other
        candidate's class through 1.
        """
        if self.degree < 2:
            raise ValueError("block systems need degree >= 2")
        if not self.is_transitive():
            raise ValueError("block systems require a transitive group")
        found: dict[tuple, BlockSystem] = {}
        for orbit in self._stabilizer(1).orbits():
            b = orbit[0]
            if b == 1:
                continue
            sys = self._finest_system_joining(1, b)
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
        """Setwise stabilizer of one class of an invariant partition."""
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
        reps = [cls[0] for cls in system.classes]
        return self.stabilizer_of_action(
            class_index, lambda g, idx: class_of[g.table[reps[idx]]]
        )


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
        """(generator, class) breaking invariance, or None if invariant."""
        class_sets = [frozenset(c) for c in self.classes]
        universe = set(class_sets)
        for g in generators:
            t = g.table
            for c in class_sets:
                if frozenset(t[x] for x in c) not in universe:
                    return g, tuple(sorted(c))
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
    discovery order of a breadth-first expansion over G's generators in
    input order.  ``group`` is the image permutation group on the labels
    (generator for generator), and ``image_of`` extends the quotient map
    to arbitrary elements of G.
    """

    def __init__(self, G: PermGroup, H: PermGroup):
        assert_subgroup(G, H, "coset action subgroup")
        self.G = G
        self._hchain = H.chain
        reps = [self._canonical(G.identity())]
        labels = {reps[0].table: 1}
        rows = [[] for _ in G.generators]  # rows[i][j-1]: label of coset j times generator i
        qi = 0
        while qi < len(reps):
            w = reps[qi]
            qi += 1
            for g, row in zip(G.generators, rows):
                wg = self._canonical(w * g)
                label = labels.get(wg.table)
                if label is None:
                    reps.append(wg)
                    label = labels[wg.table] = len(reps)
                row.append(label)
        self.degree = len(reps)
        self.reps = reps
        self._labels = labels
        if self.degree * H.chain.order() != G.order():
            raise RuntimeError("coset enumeration does not match the index")
        self.group = PermGroup([Permutation(row) for row in rows], degree=self.degree)

    def _canonical(self, g: Permutation) -> Permutation:
        """Unique coset representative: minimizes base images level by level."""
        w = g
        for lv in self._hchain.levels:
            best = min(lv.orbit, key=w.table.__getitem__)
            if best != lv.point:
                w = lv.transversal[best] * w
        return w

    def image_of(self, g: Permutation) -> Permutation:
        """Image of g in the coset action (g need not be a generator)."""
        labels = [self._labels.get(self._canonical(w * g).table) for w in self.reps]
        if None in labels:
            raise ValueError("element is not in the acted-on group")
        return Permutation(labels)


def coset_action(G: PermGroup, H: PermGroup) -> CosetAction:
    return CosetAction(G, H)


def induced_orbits(act: CosetAction, K: PermGroup) -> list[list[int]]:
    """Orbits of K <= act.G on the coset labels of ``act``, sorted by
    (length, min label)."""
    assert_subgroup(act.G, K, "induced orbit subgroup")
    images = [act.image_of(k) for k in K.generators]
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
            degree = int(line.split(":", 1)[1])
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
