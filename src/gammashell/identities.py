"""Exact integer evaluation of the binomial identities under test.

Both sides of each identity are computed independently: alternating sums
with exact binomials on the left, factorial closed forms on the right.
"""

from __future__ import annotations

from math import comb, factorial

from .errors import _require_at_least

__all__ = [
    "aigner_rhs",
    "dixon_lhs",
    "dixon_rhs",
    "power_sum_lhs",
    "threeF2_lhs",
    "threeF2_rhs",
]


def power_sum_lhs(n: int, p: int) -> int:
    """Alternating sum of p-th powers of binomials: sum (-1)^s C(n,s)^p."""
    _require_at_least(1, n=n, p=p)
    return sum((-1) ** s * comb(n, s) ** p for s in range(n + 1))


def dixon_lhs(n: int) -> int:
    """Alternating sum of cubes of binomial coefficients."""
    return power_sum_lhs(n, 3)


def dixon_rhs(n: int) -> int:
    """0 for odd n, else (-1)^{n/2} (3n/2)! / (n/2)!^3."""
    _require_at_least(1, n=n)
    if n % 2:
        return 0
    half = n // 2
    value = factorial(3 * half) // factorial(half) ** 3
    return -value if half % 2 else value


def aigner_rhs(n: int) -> int:
    """0 for odd n, else (-1)^{n/2} C(n, n/2); pairs with power_sum_lhs(n, 2)."""
    _require_at_least(1, n=n)
    if n % 2:
        return 0
    half = n // 2
    value = comb(n, half)
    return -value if half % 2 else value


def threeF2_lhs(n1: int, n2: int, n3: int) -> int:
    """Well-poised alternating sum over the admissible window.

    sum over s of (-1)^s C(n3,s) C(n2,n1-s) C(n1,n2-n3+s), with s running
    from max(0, n1-n2, n3-n2) to min(n1, n3, n1+n3-n2); empty windows give 0.
    """
    _require_at_least(0, n1=n1, n2=n2, n3=n3)
    lo = max(0, n1 - n2, n3 - n2)
    hi = min(n1, n3, n1 + n3 - n2)
    total = 0
    for s in range(lo, hi + 1):
        term = comb(n3, s) * comb(n2, n1 - s) * comb(n1, n2 - n3 + s)
        total += -term if s % 2 else term
    return total


def threeF2_rhs(n1: int, n2: int, n3: int) -> int:
    """Closed form: 0 for odd n1+n2+n3, else a signed multinomial.

    (-1)^{N/2 - n2} (N/2)! / ((N/2-n1)! (N/2-n2)! (N/2-n3)!) with N the
    argument sum; 0 whenever a factorial argument would be negative.
    """
    _require_at_least(0, n1=n1, n2=n2, n3=n3)
    total = n1 + n2 + n3
    if total % 2:
        return 0
    half = total // 2
    args = (half - n1, half - n2, half - n3)
    if any(a < 0 for a in args):
        return 0
    value = factorial(half)
    for a in args:
        value //= factorial(a)
    return -value if (half - n2) % 2 else value
