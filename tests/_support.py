"""Shared test helpers: independent oracles and random generators.

The oracles here deliberately avoid the library's computation paths:
determinants are expanded over permutations, inverses are found by
exhaustive search, symmetric functions are written out directly.

The seven normal-form families, rand_unit and rand_mobius are the
benchmark's own generator, perfbench/corpus.py, re-exported here: the
suite and the benchmark draw the same maps from one copy, and the
acceptance suite checks its corpus against ACCEPTANCE_CORPUS_SHA256.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import permutations
from math import lcm
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from quadberk import (
    DegreeError,
    Lift,
    MapSyntaxError,
    Mobius,
    PrimeCtx,
    TypeIIPoint,
    UnboundedProfileError,
    conjugate,
    normalize,
    reduce_residue,
    resultant,
    resultant_forms,
    vp,
)
from quadberk import parsing
from quadberk.padic import _int_ord
from quadberk.quadmap import _K, _conjugate_ints, _profile_lines, _resultant_ints

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from corpus import (  # noqa: E402
    ACCEPTANCE_CORPUS_SHA256, CASES, DEFAULT_SEED, PER_FAMILY, PRIMES, corpus_lines,
    family_instance, normal_form_corpus, rand_mobius, rand_unit,
)


def perm_det(rows):
    """Determinant by direct permutation expansion (Leibniz formula)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Fraction(1) if inversions % 2 == 0 else Fraction(-1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def sylvester_matrix(p, q, dp: int, dq: int) -> list:
    """Sylvester matrix of p and q, low-to-high coefficient lists, at the
    formal degrees dp and dq: dq shifted copies of p's leading-first row,
    then dp of q's, each padded with zeros to dp + dq columns."""
    prow = [Fraction(p[i]) if i < len(p) else Fraction(0) for i in range(dp, -1, -1)]
    qrow = [Fraction(q[i]) if i < len(q) else Fraction(0) for i in range(dq, -1, -1)]
    size = dp + dq
    return [[0] * s + prow + [0] * (size - s - dp - 1) for s in range(dq)] + [
        [0] * s + qrow + [0] * (size - s - dq - 1) for s in range(dp)
    ]


def sylvester_rows(f, g):
    """The 4x4 Sylvester matrix of two binary quadratic forms, leading-first."""
    return sylvester_matrix(f[::-1], g[::-1], 2, 2)


def conjugate_oracle(lift: Lift, g: Mobius) -> Lift:
    """Conjugate lift [F^g, G^g] composed directly in Fraction arithmetic."""
    A, B, C, D = g.A, g.B, g.C, g.D

    def compose(c0, c1, c2):
        # coefficients of c0*U^2 + c1*U*V + c2*V^2 with U = AX+BY, V = CX+DY
        return (
            c0 * A * A + c1 * A * C + c2 * C * C,
            2 * c0 * A * B + c1 * (A * D + B * C) + 2 * c2 * C * D,
            c0 * B * B + c1 * B * D + c2 * D * D,
        )

    fc = compose(*lift.coeffs[:3])
    gc = compose(*lift.coeffs[3:])
    new_f = tuple(D * fc[i] - B * gc[i] for i in range(3))
    new_g = tuple(-C * fc[i] + A * gc[i] for i in range(3))
    return Lift(*new_f, *new_g)


def normalized_conjugate_oracle(lift: Lift, point, ctx) -> tuple:
    """(lift, mu): the normalized conjugate by z -> center + p^m z by the
    two-step route: the conjugate as a Mobius, composed in Fraction
    arithmetic, then scaled by p^(-mu) by normalize."""
    g = Mobius.affine(Fraction(ctx.p) ** int(point.radius_exp), point.center)
    return normalize(conjugate_oracle(lift, g), ctx)


def ord_res_at_oracle(lift: Lift, point, ctx) -> int:
    """ordRes at a type II point with integer m on Fractions and Lifts: vp of
    the resultant of the normalized conjugate Lift, checked against the
    transformation formula vp(Res) + 6m - 4*mu."""
    conj, mu = normalized_conjugate_oracle(lift, point, ctx)
    direct = vp(resultant(conj), ctx)
    assert direct == vp(resultant(lift), ctx) + 6 * int(point.radius_exp) - 4 * mu
    return direct


def ord_res_lines_oracle(lift: Lift, point, ctx) -> int:
    """ordRes at a type II point with integer m as the largest of the
    profile's lines (slope, intercept) of quadmap._profile_lines at m: the
    route quadmap.ord_res_at took before it read base + 6m - 4v off the
    segment table in one formula."""
    m = int(point.radius_exp)
    assert m == point.radius_exp
    return max(s * m + c for s, c in _profile_lines(lift, point.center, ctx.p))


def ord_res_direct_oracle(lift: Lift, point, ctx) -> int:
    """ordRes at a type II point with integer m by the direct route, whose
    check quadmap._segment makes once at m = 0: numerator i of the
    conjugate by z -> center + p^m z, over L*den^3, is
    nums[i] * p^(k_i*m), so the numerators times
    p^(k_i*m + 3*max(-m, 0)) are integers, and ordRes is vp of their
    resultant less 4*(their min vp), Res being homogeneous of degree 4.
    It builds p^(3|m|), so its cost grows with |m|."""
    p, m = ctx.p, int(point.radius_exp)
    assert m == point.radius_exp
    den, shift = point.center.denominator, 3 * max(-m, 0)
    nums = _conjugate_ints(lift._ints, den, point.center.numerator, 0, den)
    scaled = [n * p ** (k * m + shift) for k, n in zip(_K, nums)]
    return _int_ord(_resultant_ints(*scaled), p) - 4 * min(_int_ord(n, p) for n in scaled if n)


def profile_lines_oracle(lift: Lift, center, ctx) -> dict:
    """{slope: largest intercept} of the ordRes profile's lines on Fractions:
    the i-th coefficient of the conjugate by z -> center + p^m z is
    c_i * p^(k_i*m), with each c_i composed in Fraction arithmetic, and its
    line is m -> vp(Res) + 6m - 4*(vp(c_i) + k_i*m), vp(Res) of the
    Fraction resultant."""
    a = Fraction(center)
    a0, a1, a2 = lift.coeffs[:3]
    b0, b1, b2 = lift.coeffs[3:]
    f_at, g_at = a0 * a * a + a1 * a + a2, b0 * a * a + b1 * a + b2
    fprime, gprime = 2 * a0 * a + a1, 2 * b0 * a + b1
    coeffs = [
        (2, a0 - a * b0),
        (1, fprime - a * gprime),
        (0, f_at - a * g_at),
        (3, b0),
        (2, gprime),
        (1, g_at),
    ]
    base = vp(resultant(lift), ctx)
    lines = {}
    for k, c in coeffs:
        if c != 0:
            s, b = 6 - 4 * k, base - 4 * vp(c, ctx)
            lines[s] = max(b, lines.get(s, b))
    return lines


def ord_res_profile_oracle(lift: Lift, center, ctx) -> tuple:
    """The ordRes profile on Fractions, (pieces, breakpoints):
    upper_envelope_oracle of profile_lines_oracle."""
    return upper_envelope_oracle(profile_lines_oracle(lift, center, ctx).items())


def upper_envelope_oracle(lines) -> tuple:
    """(pieces, breakpoints) of the pointwise maximum of lines
    (slope, intercept), all Fractions: the lines are added in slope order,
    each new line's crossing with the last kept one found by Fraction
    division, and a kept line whose crossing is not right of the previous
    breakpoint is dropped.  Piece i holds between breakpoints i-1 and i."""
    best = {}
    for k, b in lines:
        k, b = Fraction(k), Fraction(b)
        if k not in best or b > best[k]:
            best[k] = b
    items = sorted(best.items())
    env, bps = [items[0]], []
    for k, b in items[1:]:
        while True:
            k0, b0 = env[-1]
            x = Fraction(b0 - b, k - k0)
            if bps and x <= bps[-1]:
                env.pop()
                bps.pop()
                continue
            env.append((k, b))
            bps.append(x)
            break
    return tuple(env), tuple(bps)


def profile_minimum_oracle(lines: dict) -> tuple:
    """(argmin, min value), both Fractions, of the maximum of the lines
    m -> s*m + c given as {s: c}, by pairwise crossings: the minimum is the
    largest value at which a line of negative slope crosses one of positive
    slope, compared by cross-multiplication, and zero slopes are not read.
    No line of one sign raises UnboundedProfileError."""
    falling = [(s, c) for s, c in lines.items() if s < 0]
    rising = [(s, c) for s, c in lines.items() if s > 0]
    if not falling or not rising:
        raise UnboundedProfileError("no single minimizer: all slopes of one sign")
    best = None
    for sa, ca in falling:
        for sb, cb in rising:
            # crossing at m = (ca - cb)/d with value n/d, d > 0
            d, n = sb - sa, sb * ca - sa * cb
            if best is None or n * best[2] > best[1] * d:
                best = (ca - cb, n, d)
    return Fraction(best[0], best[2]), Fraction(best[1], best[2])


def newton_slopes_oracle(coeffs, ctx) -> tuple:
    """The Newton polygon's slopes of c_n*T^n + ... + c_0 (leading-first,
    c_n and c_0 nonzero) with multiplicity, by gift wrapping: from the point
    (0, vp(c_0)), the next vertex is the point of least slope to it,
    the farthest one on a tie."""
    deg = len(coeffs) - 1
    points = {deg - i: vp(c, ctx) for i, c in enumerate(coeffs) if c != 0}
    x, slopes = 0, []
    while x < deg:
        slope, nxt = min((Fraction(y - points[x], u - x), -u) for u, y in points.items() if u > x)
        slopes += [slope] * (-nxt - x)
        x = -nxt
    return tuple(slopes)


def specialize_oracle(sigma, ctx) -> tuple:
    """classifier.specialize on Fractions: [sigma1 : sigma2 : 1] scaled by
    p^(-mu), mu = min(vp(sigma1), vp(sigma2), 0), each coordinate reduced
    mod p, then divided by the first nonzero one."""
    mu = min(vp(sigma.sigma1, ctx), vp(sigma.sigma2, ctx), 0)
    factor = Fraction(ctx.p) ** (-mu)
    point = [reduce_residue(c, ctx) for c in (sigma.sigma1 * factor, sigma.sigma2 * factor, factor)]
    inv = pow(next(c for c in point if c != 0), -1, ctx.p)
    return tuple(c * inv % ctx.p for c in point)


def sigma_milnor_oracle(lift: Lift) -> tuple:
    """(sigma1, sigma2, sigma3) by Milnor's closed form on the lift's
    integers: sigma_i = N_i/Res with integer quartics N1, N2 and
    N3 = N1 - 2*Res (Milnor, Experiment. Math. 2, 1993).  Valid whether or
    not infinity is fixed."""
    a0, a1, a2, b0, b1, b2 = integral_oracle(lift.coeffs)[0]
    res = (a0 * b2 - a2 * b0) ** 2 - (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1)
    n1 = (
        4 * a0**2 * a2 * b1 + 2 * a0**2 * b2**2 - a0 * a1**2 * b1 - 4 * a0 * a1 * a2 * b0
        + 4 * a0 * a2 * b0 * b2 - 2 * a0 * a2 * b1**2 + a1**3 * b0 - 2 * a1**2 * b0 * b2
        + 4 * a1 * a2 * b0 * b1 + 4 * a1 * b0 * b2**2 - a1 * b1**2 * b2 - 6 * a2**2 * b0**2
        - 4 * a2 * b0 * b1 * b2 + a2 * b1**3
    )
    n2 = (
        4 * a0**3 * a2 - a0**2 * a1**2 + 2 * a0**2 * a1 * b2 - 4 * a0**2 * a2 * b1
        + 10 * a0 * a1 * a2 * b0 - a0 * a1 * b1 * b2 - 4 * a0 * a2 * b0 * b2
        + 5 * a0 * a2 * b1**2 + 2 * a0 * b1 * b2**2 - 2 * a1**3 * b0 + 5 * a1**2 * b0 * b2
        - a1**2 * b1**2 - 7 * a1 * a2 * b0 * b1 - 4 * a1 * b0 * b2**2 + 12 * a2**2 * b0**2
        + 10 * a2 * b0 * b1 * b2 - 2 * a2 * b1**3 + 4 * b0 * b2**3 - b1**2 * b2**2
    )
    return tuple(Fraction(n, res) for n in (n1, n2, n1 - 2 * res))


def multiplier_values_oracle(ints, nodes) -> list:
    """[M(t) for t in nodes] of the multiplier cubic M(t) = Res_z(P, A - t*B)
    at formal degrees (3, 2), with P = f - z*g, A = f' - z*g' and B = g
    built from the six integers of f and g, each by perm_det of the generic
    Sylvester matrix."""
    a0, a1, a2, b0, b1, b2 = ints
    f, g = [a2, a1, a0], [b2, b1, b0]
    z = [0, 1]
    p_fix = add(f, scale(mul(z, g), -1))
    a_poly = add([a1, 2 * a0], scale(mul(z, [b1, 2 * b0]), -1))
    return [perm_det(sylvester_matrix(p_fix, add(a_poly, scale(g, -t)), 3, 2)) for t in nodes]


def difference_table_oracle(y0, y1, y2, y3) -> tuple:
    """(C0, C1, C2, C3) with 6*M(T) = C3*T^3 + C2*T^2 + C1*T + C0 for the
    polynomial M of degree <= 3 with M(t) = y_t, t = 0..3: Newton's forward
    differences at 0, with integer coefficients for integer values."""
    d1 = y1 - y0
    d2 = y2 - 2 * y1 + y0
    d3 = y3 - 3 * y2 + 3 * y1 - y0
    return 6 * y0, 6 * d1 - 3 * d2 + 2 * d3, 3 * d2 - 3 * d3, d3


def finite_fixed_ints_oracle(lift: Lift) -> list:
    """Integers of a lift of the map or, if infinity is fixed (b0 = 0), of its
    conjugate by z -> c + 1/z, c >= 0 the least integer that is not fixed,
    composed by conjugate_oracle: infinity is not fixed in the result."""
    if lift.b0 == 0:
        c = 0
        while lift.a0 * c * c + lift.a1 * c + lift.a2 == c * (lift.b1 * c + lift.b2):
            c += 1
        lift = conjugate_oracle(lift, Mobius(c, 1, 1, 0))
    ints = integral_oracle(lift.coeffs)[0]
    assert ints[3] != 0
    return ints


def sigma_four_values_oracle(lift: Lift) -> tuple:
    """(sigma1, sigma2, sigma3) by the four-value route: M(0..3) of
    finite_fixed_ints_oracle's integers by multiplier_values_oracle, the
    cubic 6*M by difference_table_oracle, no value read off a resultant."""
    values = multiplier_values_oracle(finite_fixed_ints_oracle(lift), range(4))
    c0, c1, c2, c3 = difference_table_oracle(*values)
    return (-c2 / c3, c1 / c3, -c0 / c3)


def sigma_three_values_oracle(lift: Lift) -> tuple:
    """(sigma1, sigma2, sigma3) by the three-value route: M(0..2) of
    finite_fixed_ints_oracle's integers by multiplier_values_oracle, the
    lead -b0*Res by perm_det, and 2*M = C3*T^3 + C2*T^2 + C1*T + C0 from the
    forward differences of the values less lead*t^3."""
    ints = finite_fixed_ints_oracle(lift)
    lead = -ints[3] * perm_det(sylvester_rows(ints[:3], ints[3:]))
    y0, y1, y2 = multiplier_values_oracle(ints, range(3))
    e1 = y1 - y0 - lead
    e2 = y2 - y0 - 8 * lead
    c2 = e2 - 2 * e1
    c0, c1, c3 = 2 * y0, 2 * e1 - c2, 2 * lead
    return (-c2 / c3, c1 / c3, -c0 / c3)


# dense Fraction polynomial arithmetic, low-to-high, [] the zero
# polynomial: the kernels of the Fraction parser below, of the multiplier
# values above, and Lagrange interpolation, the oracle of sigma's
# difference table


def trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: list) -> int:
    """Degree; the zero polynomial [] has degree -1."""
    return len(p) - 1


def add(p: list, q: list) -> list:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


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


# the Fraction parser: today's grammar, every coefficient a Fraction, and
# cancellation by the monic gcd over Q


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


def gcd_q(p: list, q: list) -> list:
    """Monic gcd over Q ([] if both zero)."""
    a = trim([Fraction(c) for c in p])
    b = trim([Fraction(c) for c in q])
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


class _FractionRF:
    """num/den as dense low-to-high Fraction coefficient lists."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, c):
        return cls([Fraction(c)] if c else [], [Fraction(1)])

    @classmethod
    def variable(cls):
        return cls([Fraction(0), Fraction(1)], [Fraction(1)])

    def _guard(self, pos):
        if degree(self.num) > parsing._MAX_DEGREE or degree(self.den) > parsing._MAX_DEGREE:
            raise MapSyntaxError("intermediate degree too large", pos)
        return self

    def add(self, other, pos):
        num = add(mul(self.num, other.den), mul(other.num, self.den))
        return _FractionRF(num, mul(self.den, other.den))._guard(pos)

    def sub(self, other, pos):
        return self.add(other.neg(), pos)

    def mul(self, other, pos):
        return _FractionRF(
            mul(self.num, other.num), mul(self.den, other.den)
        )._guard(pos)

    def div(self, other, pos):
        if not other.num:
            raise MapSyntaxError("division by zero", pos)
        return _FractionRF(
            mul(self.num, other.den), mul(self.den, other.num)
        )._guard(pos)

    def neg(self):
        return _FractionRF([-c for c in self.num], list(self.den))

    def pow(self, exponent, pos):
        result = _FractionRF.constant(1)
        for _ in range(exponent):
            result = result.mul(self, pos)
        return result


class _FractionParser(parsing._Parser):
    """The library's grammar, with literals and z as _FractionRF values."""

    def atom(self):
        tok = self.peek()
        if tok.kind in ("num", "z"):
            self.advance()
            return _FractionRF.constant(tok.value) if tok.kind == "num" else _FractionRF.variable()
        return super().atom()


def parse_map_oracle(text: str) -> Lift:
    """parse_map on Fractions: the library's tokens, the expression
    expanded in Fraction arithmetic, the monic gcd over Q cancelled by
    Euclidean division, and the degree-2 polynomial scaled to be monic."""
    rf = _FractionParser(parsing._tokenize(text)).parse()
    if not rf.num:
        raise DegreeError("the zero map is not a quadratic map")
    common = gcd_q(rf.num, rf.den)
    num, _ = divmod_exact(rf.num, common)
    den, _ = divmod_exact(rf.den, common)
    deg = max(degree(num), degree(den))
    if deg != 2:
        raise DegreeError(f"map has degree {deg}, expected 2")
    lead = num[2] if degree(num) == 2 else den[2]
    num = scale(num, 1 / lead)
    den = scale(den, 1 / lead)

    def coeff(poly, i):
        return poly[i] if i < len(poly) else Fraction(0)

    return Lift(
        coeff(num, 2), coeff(num, 1), coeff(num, 0),
        coeff(den, 2), coeff(den, 1), coeff(den, 0),
    )


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# mod-p polynomial helpers; dense low-to-high int lists, [] = zero


def _divmod_p(f: list, g: list, p: int) -> tuple:
    rem = [c % p for c in f]
    trim(rem)
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, p)
    quot = [0] * max(len(rem) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        shift = len(rem) - 1 - dg
        coeff = rem[-1] * lead_inv % p
        quot[shift] = coeff
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - coeff * c) % p
        trim(rem)
    return quot, rem


def _gcd_p(f: list, g: list, p: int) -> list:
    a = trim([c % p for c in f])
    b = trim([c % p for c in g])
    while b:
        _, r = _divmod_p(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _dehomogenize(form: tuple) -> tuple:
    """(low-to-high univariate part, power of Y split off)."""
    low_to_high = list(reversed(form))
    univ = trim(list(low_to_high))
    if not univ:
        return [], None
    y_power = len(form) - len(univ)
    return univ, y_power


def residue_forms_oracle(fbar: tuple, gbar: tuple, p: int) -> tuple:
    """(F, G) of the residue map of two binary quadratic forms over F_p
    (coefficients leading-first in X), by the Euclidean algorithm in
    F_p[X] on the dehomogenized forms: the common factor is the gcd times
    the shared power of Y."""
    f_univ, fy = _dehomogenize(fbar)
    g_univ, gy = _dehomogenize(gbar)
    if not f_univ:
        return (0,), (1,)
    if not g_univ:
        return (1,), (0,)
    common = _gcd_p(f_univ, g_univ, p)
    qf, rf = _divmod_p(f_univ, common, p)
    qg, rg = _divmod_p(g_univ, common, p)
    assert not rf and not rg
    deg = 2 - min(fy, gy) - (len(common) - 1)

    def homogenize(univ: list) -> tuple:
        # leading-first; padding restores the residual power of Y
        return tuple([0] * (deg + 1 - len(univ)) + list(reversed(univ)))

    return homogenize(qf), homogenize(qg)


def esf3(l1, l2, l3):
    """Elementary symmetric functions of three rationals."""
    l1, l2, l3 = Fraction(l1), Fraction(l2), Fraction(l3)
    return (l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3)


def exhaustive_inverse(a: int, p: int) -> int:
    """Inverse mod p by brute-force search."""
    a %= p
    for x in range(1, p):
        if a * x % p == 1:
            return x
    raise AssertionError(f"{a} not invertible mod {p}")


def expand_monic(roots):
    """Coefficients (leading-first) of prod (T - r), by direct convolution."""
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * r
        coeffs = nxt
    return coeffs


def int_vp(x, p: int):
    """Reference valuation, written independently of the library; every
    input goes through Fraction(), which vp skips for ints and Fractions."""
    x = Fraction(x)
    if x == 0:
        return float("inf")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def integral_oracle(coeffs) -> tuple:
    """(ints, L) of quadmap._integral with every coefficient put through
    Fraction(), which _integral skips for ints and Fractions."""
    fs = [Fraction(c) for c in coeffs]
    L = lcm(*(f.denominator for f in fs))
    return [f.numerator * (L // f.denominator) for f in fs], L


class FractionSub(Fraction):
    """A Fraction subclass: the library must read it as a plain Fraction."""


def rand_rat(rng, lo=-20, hi=20, dmax=12, allow_zero=True) -> Fraction:
    while True:
        f = Fraction(rng.randint(lo, hi), rng.randint(1, dmax))
        if allow_zero or f != 0:
            return f


def rand_rat_bits(rng, bits: int) -> Fraction:
    """Random rational with numerator and denominator of up to `bits` bits."""
    return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


@st.composite
def conjugation_cases(draw):
    """A lift with 40-bit coefficients carrying powers of p, a point whose
    center may have p in its denominator, m in [-12, 12], and p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    power = st.integers(0, 6).map(lambda k: p**k)
    rational = st.builds(
        lambda n, a, d, b: Fraction(n * a, d * b),
        st.integers(-(2**40), 2**40), power, st.integers(1, 2**40), power,
    )
    cs = draw(st.lists(st.one_of(st.just(Fraction(0)), rational), min_size=6, max_size=6))
    assume(resultant_forms(tuple(cs[:3]), tuple(cs[3:])) != 0)
    return Lift(*cs), TypeIIPoint(draw(rational), draw(st.integers(-12, 12))), PrimeCtx(p)


def rand_lift(rng) -> Lift:
    while True:
        cs = [rand_rat(rng) for _ in range(6)]
        if resultant_forms(tuple(cs[:3]), tuple(cs[3:])) != 0:
            return Lift(*cs)


def case_instance(kind: str, rng, p: int, ctx) -> Lift:
    """family_instance, with Bi refused at p = 2: its draw loop never ends
    there, as F_2 has no unit residue outside {0, 1}."""
    if kind == "Bi" and p == 2:
        raise ValueError("Bi needs a unit residue outside {0, 1}: empty over F_2")
    return family_instance(kind, rng, p, ctx)


@st.composite
def conjugated_normal_forms(draw, affine: bool):
    """(phi, conj, centers, ctx): a map phi of one of the seven families,
    its conjugate conj = gamma^(-1) . phi . gamma, the images under
    gamma^(-1) of 0 and -1, where the families put xi (one sent to
    infinity is left out), and p.  With ``affine`` gamma is
    z -> A*z + B, which carries the segments from gamma^(-1)(0) and
    gamma^(-1)(-1) onto those from 0 and -1, so xi is on one of them;
    otherwise gamma is rand_mobius's, and the centers may miss xi."""
    p = draw(st.sampled_from(PRIMES))
    ctx = PrimeCtx(p)
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(CASES))
    # Bi needs a unit residue outside {0, 1}: empty over F_2
    assume(not (kind == "Bi" and p == 2))
    phi = case_instance(kind, rng, p, ctx)
    if affine:
        unit = draw(st.fractions(-9, 9, max_denominator=6).filter(bool))
        g = Mobius.affine(unit * Fraction(p) ** draw(st.integers(-3, 3)),
                          draw(st.fractions(-9, 9, max_denominator=6)))
    else:
        g = rand_mobius(rng)
    # gamma^(-1)(w) = (D*w - B)/(A - C*w)
    centers = [(g.D * w - g.B) / (g.A - g.C * w) for w in (0, -1) if g.A != g.C * w]
    return phi, conjugate(phi, g), centers, ctx


def milnor_model(s1, s2) -> Lift:
    """Milnor's model (2z^2 + (2 - s1)z + 2 - s1) / (-z^2 + (2 + s1)z + 2 - s1 - s2)
    of the point (s1, s2) of M2, whose sigma invariants are (s1, s2)
    (Milnor, Experiment. Math. 2, 1993; Silverman, ADS, section 4.6).
    Infinity is not fixed, and neither form is a normal form's.  Its
    resultant is milnor_resultant(s1, s2): DegenerateMapError on that cubic."""
    return Lift(2, 2 - s1, 2 - s1, -1, 2 + s1, 2 - s1 - s2)


def milnor_resultant(s1, s2):
    """The resultant of milnor_model(s1, s2), a cubic in (s1, s2)."""
    return -2 * s1**3 - s1**2 * s2 + s1**2 + 8 * s1 * s2 - 12 * s1 + 4 * s2**2 - 12 * s2 + 36


# rationals whose denominators carry powers of 2, 3, 5 and 7, so that sigma
# has poles at the primes the properties run at
_MILNOR_RATIONAL = st.builds(
    lambda n, a, b, c, d: Fraction(n, 2**a * 3**b * 5**c * 7**d),
    st.integers(-10**4, 10**4), *[st.integers(0, 3)] * 4,
)

#: (sigma1, sigma2) off Milnor's resultant cubic, where milnor_model realizes it
milnor_sigmas = st.tuples(_MILNOR_RATIONAL, _MILNOR_RATIONAL).filter(
    lambda s: milnor_resultant(*s) != 0)
