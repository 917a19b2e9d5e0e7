"""Permutations of {1, ..., n} with exact arithmetic and cycle-text I/O.

Points are 1-based throughout.  Products compose left to right:
``(p * q)(i) == q(p(i))``, i.e. permutations act on the right.

Two private representations, selected by the degree alone:

* degree <= 255: a 256-byte translate table.  Slot 0 holds 0, slots
  1..n hold the images and slots n+1..255 hold themselves, so ``p * q``
  is one ``bytes.translate`` call;
* degree > 255: a tuple of length n+1 with 0 in slot 0, composed by one
  ``operator.itemgetter`` gather.

Either way ``p.table[i]`` is the image of point i for 1 <= i <= degree,
so inner loops elsewhere index ``table`` instead of calling the
bounds-checked ``p(i)``, and ``_compose(degree)`` is the product on tables
that ``p * q`` uses, for loops that strip on tables and form no
``Permutation``.  Nothing outside this module may depend on which of the
two types ``table`` is, nor on the slots past the degree.

A private point-set kernel keys a set of points by its mask, the 0/1 byte
of each slot over whole 256-point planes, or by its sorted tuple when it is
sparse or past degree 1023 (``_set_key``), and maps keys under permutations
(``_set_maps``).  A mask read as a little-endian int, point x at bit 8x, is
an incidence row (``_set_row``); ``_set_order`` sorts keys as their points.
"""

from __future__ import annotations

import math
import re
from functools import cache
from itertools import compress
from operator import itemgetter

__all__ = ["MAX_DEGREE", "Permutation", "parse_cycles", "cycle_string"]

# Largest degree the parsers accept; checked before a table of degree + 1
# slots is allocated.
MAX_DEGREE = 10**6

_BYTES_MAX = 255
# Largest degree whose dense sets are keyed by masks: a mask's image costs
# about planes * degree bytes of work, a sorted tuple's about k log k.
_PLANES_MAX_DEGREE = 1023
_BYTE_IDENTITY = bytes(range(256))
_IDENTITY_ROW = int.from_bytes(_BYTE_IDENTITY, "little")


@cache
def _identity_table(degree: int):
    if degree <= _BYTES_MAX:
        return _BYTE_IDENTITY
    return tuple(range(degree + 1))


def _pack(img, degree: int):
    """Table for the image sequence ``img`` (slot 0 first, length degree+1)."""
    if degree <= _BYTES_MAX:
        return bytes(img) + _BYTE_IDENTITY[degree + 1:]
    return tuple(img)


def _gather(a, b):
    return itemgetter(*a)(b)


def _compose(degree: int):
    """The product on tables at this degree: ``_compose(n)(p.table, q.table)``
    is ``(p * q).table``."""
    return bytes.translate if degree <= _BYTES_MAX else _gather


def _set_key(points, degree: int):
    """Key of a set of distinct points in 1..degree: its mask, the bytes of
    slots 0.. over whole 256-point planes with slot x 1 iff x is in the set,
    at degree <= 255 and, up to degree ``_PLANES_MAX_DEGREE``, for a set of
    at least (degree - 1) / 2 points; for any other set the sorted tuple."""
    if degree > _BYTES_MAX and (2 * len(points) + 1 < degree or degree > _PLANES_MAX_DEGREE):
        return tuple(sorted(points))
    mask = bytearray(((degree >> 8) + 1) << 8)
    for x in points:
        mask[x] = 1
    return bytes(mask)


def _set_points(key, degree: int) -> tuple:
    """The points of a key or of its row, ascending: the slots a mask marks.
    A row's 0/1 bytes times 255 are 0x00/0xff bytes with no carry, so
    ``& _IDENTITY_ROW`` turns slot x of plane 0 into x or 0 and drops the
    other planes, and the zeros are deleted (slot 0 is never in a set).
    Marked slots past plane 0 are picked out one by one."""
    if type(key) is tuple:
        return key
    row = key if type(key) is int else _set_row(key)
    points = (row * 255 & _IDENTITY_ROW).to_bytes(256, "little").translate(None, b"\0")
    rest = row >> 2048
    if not rest:
        return tuple(points)
    return (*points, *compress(range(256, degree + 1), rest.to_bytes(degree - 255, "little")))


def _set_row(key) -> int:
    """A mask as an int with point x at bit 8x, so two masks of one degree
    meet in ``(a & b).bit_count()`` points."""
    return int.from_bytes(key, "little")


def _set_order(keys) -> list:
    """The indices of the keys of sets of one size in ascending order of
    their point tuples.  Where two such tuples first differ, the lesser has
    a point the other lacks and no lower point differs, so masks sort
    descending as bytes and sorted tuples ascending."""
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=type(keys[0]) is bytes)


def _set_maps(perms, degree: int, keys=None) -> list:
    """For each permutation, the map taking a key to the key of its image.
    Above degree 255 a map reads either kind of key, unless the given
    ``keys`` are all sorted tuples: then it is their gather alone."""
    if degree <= _BYTES_MAX:  # mask[p^-1(x)] is 1 iff x is in the image
        return [p.inverse().table.translate for p in perms]
    if keys is not None and all(type(key) is tuple for key in keys):
        return [_gather_map(p.table) for p in perms]
    return [_plane_map(p) for p in perms]


def _gather_map(t):
    """The key map of a sorted tuple under the table t: one gather, one sort."""
    # itemgetter of one index returns a bare image
    return lambda b, t=t: tuple(sorted(itemgetter(*b)(t)) if len(b) > 1 else map(t.__getitem__, b))


def _plane_map(p: "Permutation"):
    """The key map of p above degree 255.  Slot x of a mask's image is slot
    p^-1(x) of the mask.  Point x is slot x & 255 of the 256-point plane
    x >> 8, so one ``translate`` of the low bytes of p^-1 through plane h
    reads slot x of the image for every x with p^-1(x) in plane h, and an
    int selecting those x keeps them; the union, read little-endian, is the
    image's mask.  A sorted tuple goes to ``_gather_map``."""
    gather = _gather_map(p.table)
    inverse = p.inverse().table
    translate = bytes(x & 255 for x in inverse).translate
    high = bytes(x >> 8 for x in inverse)
    planes = []
    for h in range((p.degree >> 8) + 1):
        select = bytearray(256)
        select[h] = 255
        planes.append((slice(h << 8, (h + 1) << 8), int.from_bytes(high.translate(select), "little")))
    size = len(planes) << 8

    def image(key):
        if type(key) is tuple:
            return gather(key)
        out = 0
        for plane, select in planes:
            out |= int.from_bytes(translate(key[plane]), "little") & select
        return out.to_bytes(size, "little")

    return image


class Permutation:
    """An immutable bijection of {1, ..., degree}.

    ``table`` is the read-only image table described in the module
    docstring: ``table[i]`` is the image of point i for 1 <= i <= degree.
    """

    __slots__ = ("table", "degree")

    def __init__(self, images):
        img = (0,) + tuple(images)
        n = len(img) - 1
        seen = bytearray(n + 1)
        for x in img[1:]:
            if not isinstance(x, int) or not 1 <= x <= n:
                raise ValueError(f"image {x!r} outside 1..{n}")
            if seen[x]:
                raise ValueError(f"image {x} repeated: not a bijection on 1..{n}")
            seen[x] = 1
        self.table = _pack(img, n)
        self.degree = n

    @classmethod
    def _raw(cls, table, degree: int) -> "Permutation":
        p = object.__new__(cls)
        p.table = table
        p.degree = degree
        return p

    @classmethod
    def _trusted(cls, images) -> "Permutation":
        """``Permutation(images)`` without its checks, for images that are
        already known to be a bijection of 1..len(images)."""
        n = len(images)
        return cls._raw(_pack((0, *images), n), n)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls._raw(_identity_table(degree), degree)

    @property
    def images(self) -> tuple:
        """Image tuple of ints: images[i-1] is the image of point i."""
        return tuple(self.table[1:self.degree + 1])

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        return self.table[point]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        n = self.degree
        if other.degree != n:
            raise ValueError(f"degree mismatch: {n} vs {other.degree}")
        return Permutation._raw(_compose(n)(self.table, other.table), n)

    def inverse(self) -> "Permutation":
        n = self.degree
        if n <= _BYTES_MAX:
            # maketrans(frm, to) maps frm[i] to to[i]: here table[i] -> i
            return Permutation._raw(bytes.maketrans(self.table, _BYTE_IDENTITY), n)
        inv = [0] * (n + 1)
        for i, x in enumerate(self.table):
            inv[x] = i
        return Permutation._raw(tuple(inv), n)

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Permutation)
            and self.degree == other.degree
            and self.table == other.table
        )

    def __hash__(self):
        return hash(self.table)

    def is_identity(self) -> bool:
        return self.table == _identity_table(self.degree)

    def moved(self) -> list[int]:
        """Support: the points this permutation moves, ascending."""
        t = self.table
        return [i for i in range(1, self.degree + 1) if t[i] != i]

    def min_moved(self) -> int | None:
        t = self.table
        for i in range(1, self.degree + 1):
            if t[i] != i:
                return i
        return None

    def cycles(self) -> list[tuple]:
        """Nontrivial cycles, each rotated to start at its minimum, sorted.

        Raises ValueError when a walk does not close where it began: the
        table is then not a bijection, which only the private constructors
        can make."""
        t = self.table
        seen = bytearray(self.degree + 1)
        out = []
        for i in range(1, self.degree + 1):
            if seen[i] or t[i] == i:
                continue
            seen[i] = 1
            cyc = [i]
            j = t[i]
            while not seen[j]:
                seen[j] = 1
                cyc.append(j)
                j = t[j]
            if j != i:
                raise ValueError(f"table is not a bijection: the walk from {i} meets {j} again")
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def __repr__(self):
        return f"Permutation[{cycle_string(self)}, degree={self.degree}]"


_CYCLE_RE = re.compile(r"\(([0-9,]*)\)")
_CYCLES_RE = re.compile(r"(?:\([0-9,]*\))*")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles such as ``(1,2)(3,6)``.

    Whitespace is ignored everywhere; an empty string (or ``()``) is the
    identity.  Raises ValueError naming the offending token for repeated
    points, out-of-range points, or malformed parentheses.

    One regex match checks the form, and one ``int`` map reads every
    point; range and repeats are checked on the whole list.  Only a text
    that fails a check is walked cycle by cycle, to name its first error.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree {degree} is outside 1..{MAX_DEGREE}")
    stripped = "".join(text.split())
    if _CYCLES_RE.fullmatch(stripped) is None:
        _raise_first_error(stripped, degree)
    cycles = [c for c in stripped[1:-1].split(")(") if c]
    try:
        points = list(map(int, ",".join(cycles).split(","))) if cycles else []
    except ValueError:  # an empty entry, or more digits than int() reads
        points = None
    if points is None or points and (min(points) < 1 or max(points) > degree
                                     or len(set(points)) < len(points)):
        _raise_first_error(stripped, degree)
    # each point goes to the next one, and the last of each cycle to its first
    succ = points[1:] + points[:1]
    stop = 0
    for cyc in cycles:
        first = stop
        stop += cyc.count(",") + 1
        succ[stop - 1] = points[first]
    if degree <= _BYTES_MAX:
        return Permutation._raw(bytes.maketrans(bytes(points), bytes(succ)), degree)
    images = list(range(degree + 1))
    for a, b in zip(points, succ):
        images[a] = b
    return Permutation._raw(tuple(images), degree)


def _raise_first_error(stripped: str, degree: int):
    """Walk the whitespace-free cycle text one cycle at a time and raise the
    ValueError for its first malformed cycle, empty entry, out-of-range or
    repeated point."""
    seen = bytearray(degree + 1)
    pos = 0
    while pos < len(stripped):
        m = _CYCLE_RE.match(stripped, pos)
        if m is None:
            raise ValueError(f"malformed cycle text at {stripped[pos:pos + 12]!r}")
        body = m.group(1)
        pos = m.end()
        if not body:
            continue
        parts = body.split(",")
        if any(not part for part in parts):
            raise ValueError(f"empty entry in cycle ({body})")
        for pt in [int(part) for part in parts]:
            if not 1 <= pt <= degree:
                raise ValueError(f"point {pt} outside 1..{degree}")
            if seen[pt]:
                raise ValueError(f"point {pt} repeated across cycles")
            seen[pt] = 1
    raise RuntimeError("cycle text failed a check but has no first error")


def cycle_string(p: Permutation) -> str:
    """Disjoint-cycle text; inverse of parse_cycles at the same degree."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)
