"""Symmetric 2-designs: verification, complements, group actions.

A design is a point set {1..v} plus a list of blocks.  Designs are
immutable after construction; ``verify_symmetric`` caches the certified
parameters on the instance, ``complement`` sets those of its result, and
the transitivity predicates refuse trivial designs unless forced.
``construct_design`` records the action of G's generators on the blocks it
builds, ``complement`` keeps that action, and the flag checks reuse it
under the same generators and recompute it for any other generating set.
Such a design's blocks form one orbit of those generators, which carry
block 0 to every block, so ``verify_symmetric`` and
``imprimitivity_profile`` read block 0 where they can.  ``certify`` is the
one certification routine of ``symdesign reproduce-d1`` and the pipeline.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations, starmap
from operator import and_, itemgetter
from typing import NamedTuple

from .group import PermGroup, _close, _orbit_walk
from .perm import _set_key, _set_maps, _set_order, _set_points, _set_row, cycle_string

__all__ = [
    "Design",
    "DesignParams",
    "ImprimitivityProfile",
    "NotSymmetric",
    "ProfileViolation",
    "verify_symmetric",
    "complement",
    "construct_design",
    "block_stabilizer",
    "is_flag_transitive",
    "is_anti_flag_transitive",
    "imprimitivity_profile",
    "Certificate",
    "certify",
    "parse_design_file",
    "design_file_text",
]


class DesignParams(NamedTuple):
    v: int
    k: int
    lam: int

    @property
    def nontrivial(self) -> bool:
        return 2 < self.k < self.v - 1

    def __str__(self):
        return f"({self.v},{self.k},{self.lam})"


class NotSymmetric(ValueError):
    """Refutation of the symmetric-design axioms, with a witness."""

    def __init__(self, axiom: str, witness, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class ProfileViolation(ValueError):
    """A block meets an imprimitivity class in an inadmissible size."""

    def __init__(self, block_index: int, class_index: int, size: int, message: str):
        super().__init__(message)
        self.block_index = block_index
        self.class_index = class_index
        self.size = size


class Design:
    """Points 1..v and blocks, each the sorted tuple of its points: stored
    when given, else formed on first read from an orbit-built design's one
    list ``_rows`` (see ``construct_design``) or a complement's source."""

    _rows = None  # construct_design's incidence rows, or its sorted-tuple keys
    _complement_of = None

    def __init__(self, v: int, blocks):
        if v < 1:
            raise ValueError("v must be positive")
        canon = []
        for b in blocks:
            blk = tuple(sorted(b))
            if not blk:
                raise ValueError("empty block")
            if len(set(blk)) != len(blk):
                raise ValueError(f"repeated point in block {blk}")
            if blk[0] < 1 or blk[-1] > v:
                raise ValueError(f"block {blk} not inside 1..{v}")
            canon.append(blk)
        self.v = v
        self.blocks: tuple[tuple, ...] = tuple(canon)
        self.params: DesignParams | None = None  # set by verify_symmetric or complement
        self._action = None  # (generators, rows) set by construct_design or complement

    @property
    def num_blocks(self) -> int:
        if self._complement_of is not None:
            return self._complement_of.num_blocks
        return len(self.blocks if self._rows is None else self._rows)

    @cached_property
    def blocks(self) -> tuple[tuple, ...]:
        """An orbit-built design's or a complement's blocks, formed on first
        read (a design made from blocks stores them, which shadows this)."""
        if self._rows is not None:
            return tuple(_set_points(row, self.v) for row in self._rows)
        universe = frozenset(range(1, self.v + 1))
        return tuple(tuple(sorted(universe.difference(b))) for b in self._complement_of.blocks)

    @cached_property
    def _block_0(self) -> tuple:
        """Block 0, the one block the checks of an orbit-built design read."""
        return self.blocks[0] if self._rows is None else _set_points(self._rows[0], self.v)

    def __eq__(self, other):
        return (
            isinstance(other, Design)
            and self.v == other.v
            and sorted(self.blocks) == sorted(other.blocks)
        )

    def __hash__(self):
        return hash((self.v, tuple(sorted(self.blocks))))

    def __repr__(self):
        return f"Design[v={self.v}, {self.num_blocks} blocks]"


def verify_symmetric(design: Design) -> DesignParams:
    """Certify the symmetric (v,k,lam) axioms or raise NotSymmetric.

    Checks block count, distinct blocks, block size k, point degree k and a
    constant block-pair meet lam, in ``combinations`` order so the first
    failing pair is the witness.  Point pairs then need no count (Ryser
    1950): distinct k-sets meet in fewer than k points, so k > lam, and for
    the block-by-point incidence matrix N, N N^T = (k-lam) I + lam J is
    nonsingular; with N J = J N = k J it gives N^T N = (k-lam) I + lam J.
    A design with a recorded block action is one orbit of b = v blocks
    B_0 g.  Each g maps the blocks through x onto those through x g, so the
    points of an orbit O of the generators have one degree, and counting
    the flags in O both ways gives it as v |B_0 ∩ O| / |O|; orbits go by
    least point, so the witness is the one a count per incidence names.  If
    B_i = B_0 g then |B_i ∩ B_j| = |B_0 ∩ B_j g^-1|, so only the pairs
    (0, j) are met, which come first in ``combinations`` order and give the
    same witness.  |B_0 ∩ O| is a sum of one ``itemgetter`` gather from a
    0/1 mask of block 0, and so is each meet unless the orbit walk left the
    design its incidence rows.  Any other design counts degrees per
    incidence and meets all pairs.  Rows meet in one ``&`` and one
    ``bit_count``: those of the walk, else int bitsets formed from the
    blocks for the all-pairs meets.  The duplicate and size tests read the
    walk's rows or keys when there are any, so an orbit-built design forms
    block 0 alone.
    """
    v = design.v
    if design.num_blocks != v:
        raise NotSymmetric(
            "block-count", design.num_blocks, f"{design.num_blocks} blocks for {v} points"
        )
    sets = design.blocks if design._rows is None else design._rows
    rows = sets if type(sets[0]) is int else None  # the walk's incidence rows
    if len(set(sets)) != len(sets):
        seen = {}
        for i, b in enumerate(sets):
            if b in seen:
                raise NotSymmetric(
                    "duplicate-block", (seen[b], i), f"blocks {seen[b]} and {i} coincide"
                )
            seen[b] = i
    size = len if rows is None else int.bit_count
    k = size(sets[0])
    for i, b in enumerate(map(size, sets)):
        if b != k:
            raise NotSymmetric(
                "block-size", i, f"block {i} has size {b}, expected {k}"
            )
    if design._action is not None:
        mask = bytearray(v + 1)
        for pt in design._block_0:
            mask[pt] = 1
        tables, seen, degrees = [g.table for g in design._action[0]], bytearray(v + 1), []
        for x in range(1, v + 1):
            if not seen[x]:  # x is the least point of its orbit
                seen[x] = 1
                orbit = _close([x], seen, tables)
                degrees.append((x, v * sum(itemgetter(0, *orbit)(mask)) // len(orbit)))
        # the v-1 pairs (0, j), first in combinations order; slot 0 is never
        # a point, so each gather is a tuple
        if rows is None:
            meets = lambda: (sum(itemgetter(0, *b)(mask)) for b in sets[1:])
        else:
            meets = lambda: map(int.bit_count, map(rows[0].__and__, rows[1:]))
    else:
        degree = [0] * (v + 1)
        for b in design.blocks:
            for pt in b:
                degree[pt] += 1
        degrees = enumerate(degree[1:], 1)
        if rows is None:
            bit = [1 << pt for pt in range(v + 1)]
            rows = [sum(map(bit.__getitem__, b)) for b in design.blocks]  # points are distinct
        meets = lambda: map(int.bit_count, starmap(and_, combinations(rows, 2)))
    for pt, d in degrees:
        if d != k:
            raise NotSymmetric("point-degree", pt, f"point {pt} lies on {d} blocks, expected {k}")
    lam = next(meets(), k)  # v == 1: no pair
    for meet in meets():
        if meet != lam:  # walk again with the pairs to name the first one
            for (i, j), meet in zip(combinations(range(v), 2), meets()):
                if meet != lam:
                    raise NotSymmetric(
                        "block-pair", (i, j), f"blocks {i},{j} meet in {meet}, expected {lam}"
                    )
    params = DesignParams(v, k, lam)
    design.params = params
    return params


def _verified(design: Design) -> DesignParams:
    if design.params is None:
        return verify_symmetric(design)
    return design.params


def complement(design: Design) -> Design:
    """The complement design, symmetric (v, v-k, v-2k+lam) with no re-count:
    its v distinct blocks have size v-k, each point lies on v-k of them, and
    two meet in the v-2k+lam points outside both of the input's blocks.
    Block i is the complement of block i, and (Ω∖B)^g = Ω∖B^g, so the
    result keeps the input's recorded block action.  Its blocks are formed
    when first read: the flag check may answer from |G| mod v(v-k) alone."""
    params = _verified(design)
    if params.k == params.v:
        raise ValueError("empty block")
    comp = Design.__new__(Design)
    comp.v, comp._complement_of, comp._action = design.v, design, design._action
    comp.params = DesignParams(params.v, params.v - params.k, params.v - 2 * params.k + params.lam)
    return comp


def construct_design(G: PermGroup, base_block) -> Design:
    """Design with block set the G-orbit of the base block.

    The orbit is walked on the point-set keys of ``perm``; the result has v
    candidate blocks iff the orbit has length v.  The search finds every
    block's image under every generator of G; the result records that block
    action, which the flag checks reuse under the same generators.
    ``_set_order`` puts the walk's keys in ascending order of the blocks'
    point tuples, and the design keeps them as one list, masks as incidence
    rows; the tuples are formed only when ``blocks`` is first read.
    """
    start = tuple(sorted(set(base_block)))
    if not start:
        raise ValueError("base block must be nonempty")
    if start[0] < 1 or start[-1] > G.degree:
        raise ValueError(f"base block not inside 1..{G.degree}")
    key = _set_key(start, G.degree)
    keys, action = itemgetter(0, 2)(_orbit_walk(key, _set_maps(G.generators, G.degree, [key])))
    order = _set_order(keys)
    keys = [keys[i] for i in order]
    if type(key) is not tuple:
        keys = list(map(_set_row, keys))
    rank = [0] * (len(keys) + 1)  # rank[label]: the block's place in sorted order
    for new, old in enumerate(order):
        rank[old + 1] = new
    design = Design.__new__(Design)
    design.v, design.params, design._rows = G.degree, None, keys
    design._action = (G.generators, [[rank[row[i]] for i in order] for row in action])
    return design


def _block_action_images(G: PermGroup, design: Design):
    """For each generator, the induced permutation of block indices: the
    design's recorded action under the same generators, else computed.

    Raises ValueError when the degrees differ, or naming the first block
    whose image is not a block.
    """
    if G.degree != design.v:
        raise ValueError("group degree does not match the point count")
    if design._action is not None and design._action[0] == G.generators:
        return design._action[1]
    keys = [_set_key(b, design.v) for b in design.blocks]
    index = {key: i for i, key in enumerate(keys)}
    rows = [list(map(index.get, map(image, keys)))
            for image in _set_maps(G.generators, design.v, keys)]
    for g, row in zip(G.generators, rows):
        if None in row:
            b = design.blocks[row.index(None)]
            raise ValueError(f"generator {cycle_string(g)} maps block {b} outside the block set")
    return rows


def block_stabilizer(G: PermGroup, design: Design, block_index: int) -> PermGroup:
    """Setwise stabilizer of one block, cut out of the action on the block orbit."""
    if not 0 <= block_index < design.num_blocks:
        raise ValueError(f"block index {block_index} outside 0..{design.num_blocks - 1}")
    return G.stabilizer_of_action(block_index, _block_action_images(G, design))


def is_flag_transitive(design: Design, G: PermGroup, force: bool = False) -> bool:
    """Whether G acts transitively on the flags of the design.

    G is flag-transitive exactly when it is point-transitive and the
    stabilizer of one block is transitive on that block.  Every generator
    must permute the block set, which is checked first, even when G is
    intransitive; the action recorded under G's generators by
    ``construct_design`` (and kept by ``complement``) is reused, any other
    generating set recomputes it.  A flag-transitive G has order divisible
    by the v*k flags (orbit-stabilizer); any other order answers no before
    the block action is walked.  Otherwise the orbit of a point of block 0
    is grown under the Schreier generators of block 0's tree in the block
    action, which generate its stabilizer (Schreier's lemma): the answer is
    yes once that orbit has k points, no when the generators run out.  No
    stabilizer chain is built.  Trivial designs are refused unless
    ``force``.
    """
    params = _verified(design)
    if not params.nontrivial and not force:
        raise ValueError(f"design {params} is trivial; pass force=True to override")
    rows = _block_action_images(G, design)
    if G.order() % (params.v * params.k):
        return False
    # Block's lemma: G has as many block orbits as point orbits, so points stand in for blocks
    if not G.is_transitive():
        return False
    first = design._block_0
    return G._stabilizer_orbit_reaches(0, rows, first[0], len(first))


def is_anti_flag_transitive(design: Design, G: PermGroup, force: bool = False) -> bool:
    """Whether G is flag-transitive on the complement design."""
    return is_flag_transitive(complement(design), G, force=force)


class ImprimitivityProfile(NamedTuple):
    c: int  # class size
    d: int  # number of classes
    ell: int  # block-class intersection size
    s: int  # classes met by each block

    def __str__(self):
        return f"(c,d,l,s)=({self.c},{self.d},{self.ell},{self.s})"


def imprimitivity_profile(design: Design, system) -> ImprimitivityProfile:
    """Verify 0-or-ell intersections against a block system and solve the
    class equations.

    Requires |B ∩ class| constant over all nonempty meets, a constant
    number s of classes met per block, and the identities v = c d,
    k = ell s, lam (c-1) = k (ell-1).  When the design's recorded generators
    also permute the classes, they carry block 0 and its class meets to every
    block, so block 0 alone is read and any violation shows there.
    """
    params = _verified(design)
    if system.degree != design.v:
        raise ValueError("block system degree does not match the design")
    carried = design._action is not None and system.invariance_witness(design._action[0]) is None
    blocks = (design._block_0,) if carried else design.blocks
    ell = None
    s = None
    for bi, b in enumerate(blocks):
        meets = sorted(Counter(map(system.class_of.__getitem__, b)).items())  # class order
        for ci, size in meets:
            if ell is None:
                ell = size
            elif size != ell:
                raise ProfileViolation(
                    bi, ci, size,
                    f"block {bi} meets class {ci} in {size} points, expected 0 or {ell}",
                )
        met = len(meets)
        if s is None:
            s = met
        elif met != s:
            raise ProfileViolation(
                bi, -1, met, f"block {bi} meets {met} classes, expected {s}"
            )
    c = system.class_size
    d = system.num_classes
    if ell is None or ell < 2 or s < 2:
        raise ProfileViolation(-1, -1, ell or 0, "degenerate intersection profile")
    if params.k != ell * s:
        raise ProfileViolation(-1, -1, ell, f"k != ell*s: {params.k} != {ell}*{s}")
    if params.lam * (c - 1) != params.k * (ell - 1):
        raise ProfileViolation(
            -1, -1, ell, f"lam(c-1) != k(ell-1) for c={c}, ell={ell}"
        )
    return ImprimitivityProfile(c, d, ell, s)


class Certificate(NamedTuple):
    """What ``certify`` established about a design under a group."""

    params: DesignParams
    flag_transitive: bool
    systems: tuple  # G.minimal_block_systems(); empty iff G is primitive
    profiles: tuple  # one ImprimitivityProfile per system, in the same order


def certify(design: Design, G: PermGroup) -> Certificate:
    """Verify the design (unless already verified), its flag transitivity
    under G, and its intersection profile against each minimal block
    system of G; raises NotSymmetric or ProfileViolation on a refutation."""
    params = _verified(design)
    systems = tuple(G.minimal_block_systems())
    return Certificate(
        params=params,
        flag_transitive=is_flag_transitive(design, G),
        systems=systems,
        profiles=tuple(imprimitivity_profile(design, s) for s in systems),
    )


# ---- design file format ----------------------------------------------------


def parse_design_file(text: str) -> Design:
    """Parse the design file format: ``v: N`` then one block per line."""
    v = None
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.lower().startswith("v:"):
            value = line.split(":", 1)[1].strip()
            try:
                v = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: v {value!r} is not an integer") from None
            continue
        if v is None:
            raise ValueError(f"line {lineno}: block before the v line")
        try:
            blocks.append(tuple(int(x) for x in line.split(",")))
        except ValueError:
            raise ValueError(f"line {lineno}: block {line!r} has a non-integer point") from None
    if v is None:
        raise ValueError("missing v line")
    return Design(v, blocks)


def design_file_text(design: Design) -> str:
    lines = [f"v: {design.v}"]
    lines.extend(",".join(map(str, b)) for b in design.blocks)
    return "\n".join(lines) + "\n"
