"""Exact rational arithmetic and membership in the subring Z[1/mn] of Q.

All rational values in this package are ``fractions.Fraction`` instances.
Fraction already maintains the two invariants we rely on everywhere:
gcd(numerator, denominator) = 1 and denominator >= 1, with zero stored
uniquely as 0/1.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError


def mn_member(r: Fraction, m: int, n: int) -> bool:
    """Return True iff r lies in Z[1/mn], the rationals whose denominator
    divides a power of m*n.

    Decided by stripping gcd(den, m*n) factors out of the denominator until
    nothing divides, then checking whether the denominator reached 1.  Each
    strip at least halves the denominator, so the loop is bounded by its bit
    length; no factorisation is needed.
    """
    if m < 1 or n < 1:
        raise DomainError(f"mn_member requires m, n >= 1, got ({m}, {n})")
    den = r.denominator
    mn = m * n
    while True:
        g = gcd(den, mn)
        if g == 1:
            break
        den //= g
    return den == 1
