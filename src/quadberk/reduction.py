"""Residue maps at type II points and their dynamical classification.

Reducing a normalized lift of a conjugate mod p and removing the common
polynomial factor yields a rational map over F_p of degree 0, 1 or 2.  The
degree decides whether the tested point is moved (degree 0), an indifferent
fixed point (degree 1) or a repelling fixed point (degree 2); degree-1 maps
split further into multiplicative, additive and identity types by their
2x2 residue matrix.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import InternalInvariantError, NonIntegralRadiusError, QuadberkError
from .padic import PrimeCtx, reduce_residue
from .quadmap import Lift, Mobius, TypeIIPoint, conjugate, normalize
from .value import Value


class ResidueKind(Enum):
    REPELLING = "Repelling"
    MULTIPLICATIVE = "MultiplicativeIndifferent"
    ADDITIVE = "AdditiveIndifferent"
    IDENTITY = "IdIndifferent"
    MOVED = "MovedConstant"


class ResidueClass(Value):
    """Classification of a residue map; multiplicative carries x = c + 1/c
    in [0, p) for the eigenvalue ratio c (an F_p quantity even when c lives
    in F_p^2), together with its prime p."""

    __slots__ = ("kind", "x_tilde", "p")

    def __init__(self, kind: ResidueKind, x_tilde: int | None = None, p: int | None = None):
        super().__init__(kind, x_tilde, p)
        multiplicative = self.kind is ResidueKind.MULTIPLICATIVE
        if multiplicative != (self.x_tilde is not None) or (self.x_tilde is None) != (self.p is None):
            raise QuadberkError("x_tilde and p are carried exactly by the multiplicative kind")

    def __repr__(self) -> str:
        if self.x_tilde is not None:
            return f"{self.kind.value}(x_tilde={self.x_tilde} mod {self.p})"
        return self.kind.value


# mod-p polynomial helpers; dense low-to-high int lists, [] = zero


def _trim_p(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _divmod_p(f: list, g: list, p: int) -> tuple:
    rem = [c % p for c in f]
    _trim_p(rem)
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, p)
    quot = [0] * max(len(rem) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        shift = len(rem) - 1 - dg
        coeff = rem[-1] * lead_inv % p
        quot[shift] = coeff
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - coeff * c) % p
        _trim_p(rem)
    return quot, rem


def _gcd_p(f: list, g: list, p: int) -> list:
    a = _trim_p([c % p for c in f])
    b = _trim_p([c % p for c in g])
    while b:
        _, r = _divmod_p(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


class ResidueMap(Value):
    """Pair of coprime homogeneous forms over F_p, coefficients leading-first
    in X; both forms have homogeneous degree = len - 1."""

    __slots__ = ("ftilde", "gtilde", "ctx")

    def __init__(self, ftilde: tuple, gtilde: tuple, ctx: PrimeCtx):
        super().__init__(ftilde, gtilde, ctx)
        if len(self.ftilde) != len(self.gtilde):
            raise QuadberkError("residue forms must share a degree")
        if not any(self.ftilde) and not any(self.gtilde):
            raise QuadberkError("residue forms cannot both vanish")

    @property
    def degree(self) -> int:
        return len(self.ftilde) - 1

    def matrix(self) -> tuple:
        """((alpha, beta), (gamma, delta)) for a degree-1 residue map."""
        if self.degree != 1:
            raise QuadberkError("residue matrix only defined in degree 1")
        return (self.ftilde, self.gtilde)


def _dehomogenize(form: tuple) -> tuple:
    """(low-to-high univariate part, power of Y split off)."""
    low_to_high = list(reversed(form))
    univ = _trim_p(list(low_to_high))
    if not univ:
        return [], None
    y_power = len(form) - len(univ)
    return univ, y_power


def reduce_at(lift: Lift, point: TypeIIPoint, ctx: PrimeCtx) -> ResidueMap:
    """Residue map of the lift at a type II point with integer radius exponent.

    Conjugates by z -> center + p^m z, normalizes, reduces each coefficient
    mod p, and removes the common factor in F_p[X, Y].
    """
    if not point.is_integral:
        raise NonIntegralRadiusError(
            f"radius exponent {point.radius_exp} is not an integer"
        )
    m = int(point.radius_exp)
    gamma = Mobius.affine(Fraction(ctx.p) ** m, point.center)
    normalized, _ = normalize(conjugate(lift, gamma), ctx)
    fbar = tuple(reduce_residue(c, ctx) for c in normalized.f_coeffs)
    gbar = tuple(reduce_residue(c, ctx) for c in normalized.g_coeffs)
    f_univ, fy = _dehomogenize(fbar)
    g_univ, gy = _dehomogenize(gbar)
    if not f_univ:
        # F vanishes mod p: constant map to 0
        return ResidueMap((0,), (1,), ctx)
    if not g_univ:
        # G vanishes mod p: constant map to infinity
        return ResidueMap((1,), (0,), ctx)
    y_common = min(fy, gy)
    common = _gcd_p(f_univ, g_univ, ctx.p)
    qf, rf = _divmod_p(f_univ, common, ctx.p)
    qg, rg = _divmod_p(g_univ, common, ctx.p)
    if rf or rg:
        raise InternalInvariantError(
            f"gcd {common} does not divide the residue forms {f_univ}, {g_univ} mod {ctx.p}"
        )
    deg = 2 - y_common - (len(common) - 1)

    def homogenize(univ: list) -> tuple:
        # leading-first; padding restores the residual power of Y
        pad = deg + 1 - len(univ)
        return tuple([0] * pad + list(reversed(univ)))

    return ResidueMap(homogenize(qf), homogenize(qg), ctx)


def classify_residue(residue: ResidueMap) -> ResidueClass:
    """Dynamical class of a residue map.

    Degree 2 is repelling, degree 0 a moved (constant) point.  Degree 1
    maps are classified through the residue matrix M: scalar M is the
    identity, tr(M)^2 = 4 det(M) is additive (unipotent up to scalar), and
    otherwise the map is multiplicative with x = tr^2/det - 2.
    """
    if residue.degree == 2:
        return ResidueClass(ResidueKind.REPELLING)
    if residue.degree == 0:
        return ResidueClass(ResidueKind.MOVED)
    (alpha, beta), (gamma, delta) = residue.matrix()
    p = residue.ctx.p
    if beta % p == 0 and gamma % p == 0 and alpha % p == delta % p:
        return ResidueClass(ResidueKind.IDENTITY)
    tr = (alpha + delta) % p
    det = (alpha * delta - beta * gamma) % p
    if (tr * tr - 4 * det) % p == 0:
        return ResidueClass(ResidueKind.ADDITIVE)
    x_tilde = (tr * tr * pow(det, -1, p) - 2) % p
    return ResidueClass(ResidueKind.MULTIPLICATIVE, x_tilde, p)
