"""Exact integer helpers: primality, factorization, divisor enumeration.

Everything here works on arbitrary-precision ints; catalog data can carry
group orders well beyond 64 bits, so no floats anywhere.
"""

from __future__ import annotations

import math

__all__ = ["is_probable_prime", "factorize", "divisors"]

# Deterministic Miller-Rabin witness set, the first 13 primes: every
# composite below _MR_PROOF_BOUND fails some base (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", 2015).  The bound itself is
# a composite, 1287836182261 * 2575672364521, that passes every base.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_BOUND = 3_317_044_064_679_887_385_961_981

_TRIAL_LIMIT = 10**7


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set, a proof below ``_MR_PROOF_BOUND``."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _proven_prime(n: int) -> bool:
    """``is_probable_prime(n)`` where its answer is a proof; raises
    ValueError for an n that passes at or above ``_MR_PROOF_BOUND``."""
    prime = is_probable_prime(n)
    if prime and n >= _MR_PROOF_BOUND:
        raise ValueError(f"{n} is not proven prime")
    return prime


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}.

    Trial division up to min(sqrt(n), 1e7), then Miller-Rabin plus Pollard
    rho for any remaining cofactor.  Raises ValueError for a cofactor that
    ``_proven_prime`` cannot decide.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    incs = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f <= _TRIAL_LIMIT:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += incs[i]
            i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            try:
                prime = _proven_prime(m)
            except ValueError as exc:
                raise ValueError(f"cannot factorize {n}: {exc}") from None
            if prime:
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


def divisors(n: int, factorization: dict[int, int] | None = None) -> list[int]:
    """All positive divisors of n, sorted ascending: each of e rounds per
    prime p multiplies the last round's new divisors by p, then one sort."""
    fact = factorization if factorization is not None else factorize(n)
    divs = [1]
    for p, e in fact.items():
        grown = divs
        for _ in range(e):
            grown = [d * p for d in grown]
            divs = divs + grown
    divs.sort()
    return divs
