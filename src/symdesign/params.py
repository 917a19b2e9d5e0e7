"""Admissible symmetric-design parameters and imprimitivity arithmetic.

Pure integer functions: candidate (v,k,lam) enumeration for a point count
and a subgroup order, the basic flag-transitivity divisibility checks, the
four-way classification of imprimitive parameter shapes, and the (c,d,l,s)
class-equation solver.  Everything is exact and safe for unrestricted
parallel use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import divisors, factorize

__all__ = [
    "BasicCheck",
    "ParamCandidate",
    "ImprimitivityType",
    "check_basic",
    "enumerate_params",
    "classify_type",
    "derive_cdl",
]


class BasicCheck(NamedTuple):
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self):
        return self.ok


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} = {value} must be positive")


def check_basic(v: int, k: int, lam: int) -> BasicCheck:
    """Counting identity, the order bound, and nontriviality.

    Passes iff k(k-1) = lam(v-1), lam*v < k*k, and 2 < k < v-1.  A v or
    k below 1 is not a parameter set at all and raises ValueError.
    """
    _require_positive("v", v)
    _require_positive("k", k)
    failures = []
    if k * (k - 1) != lam * (v - 1):
        failures.append("k(k-1) != lam(v-1)")
    if lam * v >= k * k:
        failures.append("lam*v >= k^2")
    if not 2 < k < v - 1:
        failures.append("k outside 2 < k < v-1")
    return BasicCheck(not failures, tuple(failures))


class _CandidateFields(NamedTuple):
    v: int
    k: int
    lam: int
    t: int
    m: int
    k1: int
    k2: int
    lam1: int
    lam2: int


class ParamCandidate(_CandidateFields):
    """An admissible (v,k,lam) plus its divisor-split witnesses.

    t is gcd(v-1, subgroup order); m satisfies m*k = lam*t; lam1, lam2 are
    gcd(lam, k-1) and gcd(lam, k); k1, k2 split v-1 = k1*k2.
    """

    __slots__ = ()

    def __new__(cls, v, k, lam, t, m, k1, k2, lam1, lam2):
        checks = (
            (k - 1) % m == 0,
            math.gcd(m, k) == 1,
            lam == lam1 * lam2,
            v - 1 == k1 * k2,
            t % k2 == 0,
            m % lam1 == 0,
            lam1 < k2,
            math.gcd(lam1, k2) == 1,
        )
        if not all(checks):
            raise ValueError(f"witness identities fail for ({v},{k},{lam})")
        return super().__new__(cls, v, k, lam, t, m, k1, k2, lam1, lam2)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: keep the checks
        return cls(*iterable)

    @property
    def triple(self) -> tuple:
        return (self.v, self.k, self.lam)


def _candidate(v: int, k: int, lam: int, t: int) -> ParamCandidate:
    lam1 = math.gcd(lam, k - 1)
    lam2 = math.gcd(lam, k)
    return ParamCandidate(
        v=v,
        k=k,
        lam=lam,
        t=t,
        m=lam * t // k,
        k1=(k - 1) // lam1,
        k2=k // lam2,
        lam1=lam1,
        lam2=lam2,
    )


def enumerate_params(v: int, m_order: int) -> list[ParamCandidate]:
    """All admissible (v,k,lam) with k dividing m_order, by unitary splits.

    As gcd(k, k-1) = 1, (v-1) | k(k-1) holds exactly when v-1 = a*b with
    gcd(a, b) = 1, a | k and b | k-1; and k | m_order forces a | m_order,
    so a is a product of full prime powers of v-1 (p^r | v-1 with p not
    dividing (v-1)/p^r) that divide t = gcd(v-1, m_order), the one number
    factored here.  For each such a the CRT gives the one k in [0, v-1)
    with k = 0 mod a and k = 1 mod b, so there are at most 2^w candidates
    for the w primes of t.  A k is kept when k > 2 and k | m_order.  That
    is every k in 3..v-2 that the tests' brute_force_params keeps, since
    its last test, lam*v < k^2, reads (k-1)v < k(v-1), i.e. k < v.  When t = 1
    the one unit is a = 1, which gives k = 1, so [] is returned before
    anything is factored.  A v below 1 raises ValueError; v = 1..3 admits
    no k and gives [].
    """
    _require_positive("v", v)
    if m_order < 1:
        raise ValueError(f"subgroup order {m_order} must be positive")
    if v < 4:
        return []
    n = v - 1
    t = math.gcd(n, m_order)
    if t == 1:
        return []
    units = [1]
    for p, e in factorize(t).items():
        q = p**e
        if n // q % p:  # p^e covers all of p in v-1
            units += [a * q for a in units]
    out = []
    for a in units:
        k = a * pow(a, -1, n // a) % n
        if k > 2 and m_order % k == 0:
            out.append(_candidate(v, k, k * (k - 1) // n, t))
    return sorted(out, key=lambda c: c.k)


class ImprimitivityType(NamedTuple):
    """Headline tag a/b/c/d/none plus every matching clause's witnesses."""

    tag: str
    witnesses: tuple[tuple, ...]  # (c, d, ell) triples for the headline tag
    all_tags: tuple[str, ...]


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def classify_type(v: int, k: int, lam: int) -> ImprimitivityType:
    """Match (v,k,lam) against the four imprimitive parameter shapes.

    Clause order is a, b, c, d; the headline tag is the first match and
    every matching tag is reported.  Clauses b-d carry (c,d,ell) witnesses.
    A v or k below 1 raises ValueError.
    """
    _require_positive("v", v)
    _require_positive("k", k)
    matches: list[tuple[str, tuple]] = []
    if 2 * k <= lam * (lam - 3):
        matches.append(("a", ()))
    if v == lam * lam * (lam + 2) and k == lam * (lam + 1):
        matches.append(
            ("b", ((lam * lam, lam + 2, lam), (lam + 2, lam * lam, 2)))
        )
    if 4 * v == (lam + 2) * (lam * lam - 2 * lam + 2) and 2 * k == lam * lam:
        side = lam % 4 == 0
        if not side and lam % 2 == 0:
            u2, rem = divmod(lam, 2)
            u = math.isqrt(u2)
            side = (
                rem == 0
                and u * u == u2
                and u % 2 == 1
                and u >= 3
                and _is_square(2 * (u2 - 1))
            )
        if side:
            matches.append(
                ("c", (((lam + 2) // 2, (lam * lam - 2 * lam + 2) // 2, 2),))
            )
    if (
        4 * v == (lam + 6) * (lam * lam + 4 * lam - 1)
        and 2 * k == lam * (lam + 5)
        and lam % 6 in (1, 3)
    ):
        matches.append(("d", ((lam + 6, (lam * lam + 4 * lam - 1) // 4, 3),)))
    if not matches:
        return ImprimitivityType("none", (), ())
    tag, witnesses = matches[0]
    return ImprimitivityType(tag, witnesses, tuple(m[0] for m in matches))


def derive_cdl(v: int, k: int, lam: int) -> list[tuple]:
    """Integer solutions (c, d, ell, s) of the class equations.

    Iterates the divisor splits v = c*d and solves lam(c-1) = k(ell-1),
    requiring ell >= 2 dividing k and 2 <= s = k/ell <= d.
    """
    _require_positive("v", v)
    _require_positive("k", k)
    out = []
    for c in divisors(v):
        d = v // c
        if c < 2 or d < 2:
            continue
        num = lam * (c - 1)
        if num % k:
            continue
        ell = 1 + num // k
        if ell < 2 or k % ell:
            continue
        s = k // ell
        if s < 2 or s > d:
            continue
        out.append((c, d, ell, s))
    return out
