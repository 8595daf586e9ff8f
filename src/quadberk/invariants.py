"""Multiplier symmetric functions of a quadratic map, with no root extraction.

The three fixed points of a quadratic rational map carry multipliers
(lambda_1, lambda_2, lambda_3) that may be irrational even for a rational
map; their elementary symmetric functions (sigma_1, sigma_2, sigma_3) are
rational and are computed here exactly from three integer resultants of
the integers the lift carries from construction, or, when infinity is
fixed, of one conjugate of those integers (two 5x5 Sylvester determinants
by exact Fraction elimination and one closed form), and the carried
resultant Res(F, G), checked to be the conjugate's too.  The identity
sigma_3 = sigma_1 - 2, a consequence of the rational fixed-point residue
formula sum 1/(1 - lambda_i) = 1, is enforced on the result type and
checks all three resultants against Res(F, G).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateMultipliersError, InternalInvariantError
from .padic import Rat
from .quadmap import Lift, _conjugate_ints, _resultant_ints
from .value import Value, rat

# a Fraction is immutable, so one instance of each serves every row
_ZERO, _ONE = Fraction(0), Fraction(1)


class SigmaInvariants(Value):
    """Elementary symmetric functions of the fixed-point multipliers."""

    __slots__ = ("sigma1", "sigma2", "sigma3")

    def __init__(self, sigma1: Rat, sigma2: Rat, sigma3: Rat):
        super().__init__(*map(rat, (sigma1, sigma2, sigma3)))
        if self.sigma3 != self.sigma1 - 2:
            raise InternalInvariantError(
                f"sigma3 = {self.sigma3} != sigma1 - 2 = {self.sigma1 - 2}"
            )

    def as_tuple(self) -> tuple:
        return (self.sigma1, self.sigma2, self.sigma3)

    def multiplier_cubic(self) -> list:
        """T^3 - sigma1*T^2 + sigma2*T - sigma3, coefficients leading-first."""
        return [Fraction(1), -self.sigma1, self.sigma2, -self.sigma3]


def lambda3_from(lambda1: Rat, lambda2: Rat) -> Fraction:
    """Third multiplier of a map with three distinct fixed points:
    (lambda1 + lambda2 - 2)/(lambda1*lambda2 - 1)."""
    l1, l2 = rat(lambda1), rat(lambda2)
    if l1 * l2 == 1:
        raise DegenerateMultipliersError(
            "lambda1 * lambda2 = 1: the associated map is degenerate"
        )
    return (l1 + l2 - 2) / (l1 * l2 - 1)


def _sigma_from_finite_fixed(ints: list, res: int) -> SigmaInvariants:
    """sigma invariants from the integers of a multiple of the lift, b0 != 0,
    and their resultant res.  With P the cubic fixed-point polynomial,
    A(z) = f'(z) - z*g'(z) and B(z) = g(z), the multiplier at a fixed root
    alpha is A(alpha)/B(alpha); M(T) = Res_z(P, A - T*B) is then
    proportional to the cubic with the multipliers as roots.  Its T^3
    coefficient Res_z(P, -B) = -b0*res is nonzero (res != 0 is checked where
    it is made), so three integer values fix M: M(0) and M(1), Sylvester
    determinants, and M(-2) in closed form.  sigma3 = sigma1 - 2 reads
    9*M(0) = 2*M(1) + M(-2) - 18*b0*res, a check of each value against res.
    """
    a0, a1, a2, b0, b1, b2 = ints
    # leading-first at formal degrees 3 and 2: P, and Q_t = A - t*B
    p = (-b0, a0 - b1, a1 - b2, a2)
    p3, p2, p1, p0 = map(Fraction, p)
    values = []
    for t in (0, 1):
        q2, q1, q0 = map(Fraction, (-(2 + t) * b0, 2 * a0 - (1 + t) * b1, a1 - t * b2))
        sylvester = [
            [p3, p2, p1, p0, _ZERO],
            [_ZERO, p3, p2, p1, p0],
            [q2, q1, q0, _ZERO, _ZERO],
            [_ZERO, q2, q1, q0, _ZERO],
            [_ZERO, _ZERO, q2, q1, q0],
        ]
        # a determinant of integer rows: its denominator is 1
        values.append(_det(sylvester).numerator)
    values.append(_value_at_minus_two(*p, 2 * a0 + b1, a1 + 2 * b2))
    c0, c1, c2, c3 = _difference_table(*values, -b0 * res)
    return SigmaInvariants(Fraction(-c2, c3), Fraction(c1, c3), Fraction(-c0, c3))


def _value_at_minus_two(p3: int, p2: int, p1: int, p0: int, q1: int, q0: int) -> int:
    """M(-2) = Res_z(P, A + 2*B) on integers: A - T*B has z^2 coefficient
    -(2 + T)*b0, zero at T = -2, so the Sylvester matrix's first column is
    (p3, 0, 0, 0, 0), and its minor is the resultant of P and q1*z + q0."""
    return p3 * (p3 * q0**3 - p2 * q0**2 * q1 + p1 * q0 * q1**2 - p0 * q1**3)


def _det(rows: list) -> Fraction:
    """Determinant over Q by exact Fraction elimination that never rewrites an eliminated column."""
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
        top = m[col]
        det *= top[col]
        for row in m[col + 1:]:
            if row[col] == 0:
                continue
            factor = row[col] / top[col]
            for c in range(col + 1, n):
                row[c] -= factor * top[c]
    return det


def _difference_table(y0: int, y1: int, ym: int, lead: int) -> tuple:
    """(C0, C1, C2, C3) with 6*M(T) = C3*T^3 + C2*T^2 + C1*T + C0 for the
    cubic M with T^3 coefficient lead, M(0) = y0, M(1) = y1 and M(-2) = ym:
    the values less lead*T^3 and M(0), integers for integer input."""
    e1 = y1 - lead - y0
    e2 = ym + 8 * lead - y0
    return 6 * y0, 4 * e1 - e2, 2 * e1 + e2, 6 * lead


def _deterministic_shift(ints: list) -> list:
    """The conjugate, on integer coefficients, by z -> c + 1/z for the
    smallest c >= 0 that is not a fixed point (F(c, 1) != c*G(c, 1)): it
    sends infinity to c, so infinity is no longer fixed."""
    a0, a1, a2, b0, b1, b2 = ints
    c = 0
    while (a0 * c + a1) * c + a2 == c * ((b0 * c + b1) * c + b2):
        c += 1
    return _conjugate_ints(ints, c, 1, 1, 0)


def sigma_invariants(lift: Lift) -> SigmaInvariants:
    """Exact (sigma_1, sigma_2, sigma_3) of the map, conjugation-invariant.

    Computed on the lift's carried integers, a multiple that sigma does
    not see.  If infinity is fixed (b0 = 0), they are first conjugated
    once, moving all fixed points into the affine line; the shift's
    matrix (c 1; 1 0) has det -1, and a resultant scales by det^6, so the
    conjugate's must be the carried Res exactly.  One computation then
    suffices: the multiplier polynomial has degree 3 whenever b0 != 0 (see
    _sigma_from_finite_fixed).  That check and sigma_3 = sigma_1 - 2 raise
    InternalInvariantError when they fail.
    """
    ints, res = lift._ints, lift._res
    if ints[3] == 0:
        ints = _deterministic_shift(ints)
        shifted = _resultant_ints(*ints)
        if shifted != res:  # checked, not assumed
            raise InternalInvariantError(
                "resultant of sigma's conjugate off infinity is not Res",
                {"lift": lift, "conjugate": ints, "resultant": shifted, "expected_resultant": res},
            )
    return _sigma_from_finite_fixed(ints, res)
