"""Small exact-arithmetic helpers: dense polynomials over Q and determinants.

Polynomials are dense lists of Fractions indexed by degree (coefficient of
z^i at position i), trailing zeros stripped; [] is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: list) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def add(p: list, q: list) -> list:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def sub(p: list, q: list) -> list:
    return add(p, [-c for c in q])


def mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: list, c) -> list:
    c = Fraction(c)
    if c == 0:
        return []
    return [a * c for a in p]


def divmod_exact(p: list, q: list) -> tuple:
    """Euclidean division over Q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq, lead = degree(q), q[-1]
    while degree(rem) >= dq and rem:
        shift = degree(rem) - dq
        coeff = rem[-1] / lead
        quot[shift] = coeff
        for i, c in enumerate(q):
            rem[shift + i] -= coeff * c
        trim(rem)
    return trim(quot), rem


def gcd(p: list, q: list) -> list:
    """Monic gcd over Q ([] if both zero)."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    trim(a), trim(b)
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def exact_det(rows: list) -> Fraction:
    """Determinant over Q by Gaussian elimination with exact Fractions."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
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
    prow = [Fraction(p[i]) if i < len(p) else Fraction(0) for i in range(dp, -1, -1)]
    qrow = [Fraction(q[i]) if i < len(q) else Fraction(0) for i in range(dq, -1, -1)]
    size = dp + dq
    rows = []
    for shift in range(dq):
        rows.append([Fraction(0)] * shift + prow + [Fraction(0)] * (size - shift - dp - 1))
    for shift in range(dp):
        rows.append([Fraction(0)] * shift + qrow + [Fraction(0)] * (size - shift - dq - 1))
    return exact_det(rows)


def lagrange_interpolate(points: list) -> list:
    """Polynomial of degree < len(points) through the given (x, y) pairs."""
    result = []
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = mul(term, [Fraction(-xj), Fraction(1)])
            term = scale(term, Fraction(1, xi - xj))
        result = add(result, term)
    return result
