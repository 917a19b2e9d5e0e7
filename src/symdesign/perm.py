"""Permutations of {1, ..., n} with exact arithmetic and cycle-text I/O.

Points are 1-based throughout.  Products compose left to right:
``(p * q)(i) == q(p(i))``, i.e. permutations act on the right.
"""

from __future__ import annotations

import math
import re

__all__ = ["Permutation", "parse_cycles", "cycle_string"]


class Permutation:
    """An immutable bijection of {1, ..., degree}.

    Internally stores the image tuple with a fixed sentinel at slot 0 so
    that composition is a single indexed pass with no offset arithmetic.
    """

    __slots__ = ("_img",)

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
        self._img = img

    @classmethod
    def _raw(cls, img: tuple) -> "Permutation":
        p = object.__new__(cls)
        p._img = img
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls._raw(tuple(range(degree + 1)))

    @property
    def degree(self) -> int:
        return len(self._img) - 1

    @property
    def images(self) -> tuple:
        """Image tuple: images[i-1] is the image of point i."""
        return self._img[1:]

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        return self._img[point]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        o = other._img
        return Permutation._raw(tuple(o[x] for x in self._img))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._img)
        for i, x in enumerate(self._img):
            inv[x] = i
        return Permutation._raw(tuple(inv))

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
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self):
        return hash(self._img)

    def is_identity(self) -> bool:
        img = self._img
        return all(img[i] == i for i in range(1, len(img)))

    def moved(self) -> list[int]:
        """Support: the points this permutation moves, ascending."""
        img = self._img
        return [i for i in range(1, len(img)) if img[i] != i]

    def min_moved(self) -> int | None:
        img = self._img
        for i in range(1, len(img)):
            if img[i] != i:
                return i
        return None

    def cycles(self) -> list[tuple]:
        """Nontrivial cycles, each rotated to start at its minimum, sorted."""
        img = self._img
        seen = bytearray(len(img))
        out = []
        for i in range(1, len(img)):
            if seen[i] or img[i] == i:
                continue
            cyc = [i]
            j = img[i]
            while j != i:
                seen[j] = 1
                cyc.append(j)
                j = img[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self._img else 1

    def __repr__(self):
        return f"Permutation[{cycle_string(self)}, degree={self.degree}]"


_CYCLE_RE = re.compile(r"\(([0-9,]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse a product of disjoint cycles such as ``(1,2)(3,6)``.

    Whitespace is ignored everywhere; an empty string (or ``()``) is the
    identity.  Raises ValueError naming the offending token for repeated
    points, out-of-range points, or malformed parentheses.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    stripped = re.sub(r"\s+", "", text)
    images = list(range(degree + 1))
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
    return Permutation._raw(tuple(images))


def cycle_string(p: Permutation) -> str:
    """Disjoint-cycle text; inverse of parse_cycles at the same degree."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)
