"""Exact p-adic arithmetic over the rationals.

All quantities are exact: rationals are `fractions.Fraction`, valuations are
integers (with ``INF`` standing in for the valuation of zero), and residue
field elements are plain ints in [0, p).  The sign convention is
ord(x) = k where x = p^k * u for a p-unit u, so ord(1/p) = -1;
the corresponding absolute value is |x| = p^(-ord(x)), i.e. larger valuation
means p-adically smaller.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NegativeValuationError, ZeroConstantError, ZeroLeadingError
from .value import Value, rat

#: Formal valuation of zero.  A float sentinel: it orders correctly against
#: any finite (integer or Fraction) valuation, which is all we need.
INF = math.inf

Rat = int | Fraction


#: The first 13 primes.  Miller-Rabin with these bases decides primality
#: exactly for every n below MR_BOUND (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= MR_BOUND."""
    if n >= MR_BOUND:
        raise ValueError(
            f"p = {n} is too large: primality is decided exactly only below {MR_BOUND}"
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeCtx(Value):
    """A prime p, fixing the valuation on Q and the residue field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"p = {p!r} is not a prime integer")
        super().__init__(p)

    def __repr__(self) -> str:
        return f"PrimeCtx({self.p})"


def _strip(n: int, q: int) -> tuple:
    # (n / q^k, k) for the largest k with q^k | n, dividing by q, q^2, q^4, ...
    # on the way in and by q once more where needed on the way out
    d, r = divmod(n, q)
    if r:
        return n, 0
    d, k = _strip(d, q * q)
    e, r = divmod(d, q)
    if r:
        return d, 2 * k + 1
    return e, 2 * k + 2


def _int_ord(n: int, p: int) -> int:
    # n != 0.  One factor of p at a time up to four, then _strip (O(log v) divisions)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == 4:
            return v + _strip(n, p)[1]
    return v


def vp(x: Rat, ctx: PrimeCtx):
    """p-adic order of a rational number.  Returns an int, or INF iff x == 0."""
    if type(x) is not int:
        x = rat(x)  # an int or a Fraction is read as it is
    if x.numerator == 0:
        return INF
    return _int_ord(x.numerator, ctx.p) - _int_ord(x.denominator, ctx.p)


def reduce_residue(x: Rat, ctx: PrimeCtx) -> int:
    """Reduce x mod p: numerator * denominator^(-1), an int in [0, p).

    Requires vp(x) >= 0; a pole at p raises NegativeValuationError.
    """
    f = rat(x)
    if f != 0 and vp(f, ctx) < 0:
        raise NegativeValuationError(f"{f} has negative {ctx.p}-adic valuation")
    return f.numerator % ctx.p * pow(f.denominator, -1, ctx.p) % ctx.p


def _lower_hull(points) -> list:
    """Vertices, left to right, of the lower convex hull of points (x, y)
    with distinct x: the monotone chain, whose turns are compared by
    cross-multiplication, so int and Fraction points stay exact.  The edge
    slopes increase strictly."""
    hull = []
    for x, y in sorted(points):
        while len(hull) > 1:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x2) < (y - y2) * (x2 - x1):
                break
            hull.pop()
        hull.append((x, y))
    return hull


def newton_slopes(coeffs: list, ctx: PrimeCtx) -> tuple:
    """The Newton polygon's slopes of a polynomial given by coefficients
    leading-first, nondecreasing, with multiplicity (one per root).

    ``coeffs = [c_n, ..., c_1, c_0]`` describes c_n*T^n + ... + c_0.  Both
    c_n and c_0 must be nonzero: strip zero roots before calling.  The
    polygon is the lower convex hull of the points (i, vp(c_i)); a hull
    segment of slope s and horizontal length L yields L roots of valuation
    -s.
    """
    cs = [rat(c) for c in coeffs]
    if len(cs) < 2:
        raise ZeroLeadingError("polynomial must have degree >= 1")
    if cs[0] == 0:
        raise ZeroLeadingError("leading coefficient is zero")
    if cs[-1] == 0:
        raise ZeroConstantError("constant coefficient is zero; strip zero roots first")
    deg = len(cs) - 1
    hull = _lower_hull((deg - idx, vp(c, ctx)) for idx, c in enumerate(cs) if c != 0)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes.extend([Fraction(y2 - y1, x2 - x1)] * (x2 - x1))
    return tuple(slopes)
