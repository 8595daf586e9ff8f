"""Exact helper of sigma_invariants: the Sylvester resultant of two dense
polynomials as a Fraction determinant.

Polynomials are dense lists of ints or Fractions indexed by degree (z^i at
position i), trailing zeros stripped; [] is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .value import rat

# shared constants: a Fraction is immutable, so one instance serves every list
_ZERO = Fraction(0)
_ONE = Fraction(1)


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: list) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def exact_det(rows: list) -> Fraction:
    """Determinant over Q by Gaussian elimination with exact Fractions."""
    n = len(rows)
    m = [[rat(x) for x in row] for row in rows]
    det = _ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return _ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def resultant(p: list, q: list, deg_p: int | None = None, deg_q: int | None = None) -> Fraction:
    """Sylvester resultant of two polynomials with the given formal degrees.

    Formal degrees default to the actual degrees.  The usual identity
    Res(p, q) = lc(p)^deg_q * prod q(alpha_i) over the roots of p holds for
    the formal-degree convention used here.
    """
    dp = degree(p) if deg_p is None else deg_p
    dq = degree(q) if deg_q is None else deg_q
    if dp < 0 or dq < 0:
        raise ValueError("resultant of a zero polynomial")
    # leading-first rows padded to the formal degree
    prow = [rat(p[i]) if i < len(p) else _ZERO for i in range(dp, -1, -1)]
    qrow = [rat(q[i]) if i < len(q) else _ZERO for i in range(dq, -1, -1)]
    size = dp + dq
    rows = []
    for shift in range(dq):
        rows.append([_ZERO] * shift + prow + [_ZERO] * (size - shift - dp - 1))
    for shift in range(dp):
        rows.append([_ZERO] * shift + qrow + [_ZERO] * (size - shift - dq - 1))
    return exact_det(rows)
