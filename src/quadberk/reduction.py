"""Residue maps at type II points and their dynamical classification.

A normalized lift of a conjugate reduces mod p to two binary quadratic
forms over F_p; the cross product w of their coefficient vectors gives the
residue map: degree 0 if w = 0 (proportional forms), degree 2 if the
resultant w1^2 - w0*w2 is nonzero, and otherwise degree 1 after dividing
out the one common root, read off w.  The degree decides whether the tested
point is moved (degree 0), an indifferent fixed point (degree 1) or a
repelling fixed point (degree 2); degree-1 maps split further into
multiplicative, additive and identity types by their 2x2 residue matrix.
"""

from __future__ import annotations

from enum import Enum

from .errors import InternalInvariantError, QuadberkError
from .padic import PrimeCtx, _strip
from .quadmap import _K, Lift, TypeIIPoint, _radius, _segment
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


def _common_root(w: tuple, p: int):
    """r with X - r*Y the common factor of two forms with cross product
    w != 0 and resultant 0, or None for the factor Y: w is proportional to
    (x^2, x*y, y^2) at the common root (x : y)."""
    return w[1] * pow(w[2], -1, p) % p if w[2] else None


def reduce_at(lift: Lift, point: TypeIIPoint, ctx: PrimeCtx) -> ResidueMap:
    """Residue map of the lift at a type II point with integer radius exponent.

    The normalized conjugate by z -> center + p^m z reduces mod p to
    F~ = (a0, a1, a2) and G~ = (b0, b1, b2), read off the m = 0 table of
    quadmap._segment: coefficient i is the p-free part of nums[i] times the
    inverse of the p-free part of L*den^3 where vp(nums[i]) + k_i*m is
    least, and 0 elsewhere, so no power of p is built and any m costs the
    same.  If one form vanishes, the map is the constant 0 or infinity;
    otherwise, with the cross product
    w = (a1*b2 - a2*b1, a2*b0 - a0*b2, a0*b1 - a1*b0):

      * w = 0: the forms are proportional; the map is the constant a_i/b_i
        at the first nonzero a_i;
      * w1^2 - w0*w2 != 0: the resultant is a unit; the map is F~/G~;
      * otherwise the common root is (w1 : w2), or (1 : 0) when w2 = 0;
        dividing out X - r*Y leaves (a0, a1 + r*a0) and (b0, b1 + r*b0),
        dividing out Y leaves (a1, a2) and (b1, b2).
    """
    p, m = ctx.p, _radius(point)
    nums, ords, _ = _segment(lift, point.center, p)
    orders = [o + k * m for k, o in zip(_K, ords)]
    v = min(orders)
    inv = pow(_strip(lift._L * point.center.denominator**3, p)[0], -1, p)
    reduced = [_strip(n, p)[0] * inv % p if e == v else 0 for n, e in zip(nums, orders)]
    ftilde, gtilde = tuple(reduced[:3]), tuple(reduced[3:])
    if not any(ftilde):
        return ResidueMap((0,), (1,), ctx)
    if not any(gtilde):
        return ResidueMap((1,), (0,), ctx)
    (a0, a1, a2), (b0, b1, b2) = ftilde, gtilde
    w = ((a1 * b2 - a2 * b1) % p, (a2 * b0 - a0 * b2) % p, (a0 * b1 - a1 * b0) % p)
    if not any(w):
        i = next(i for i, c in enumerate(ftilde) if c)
        return ResidueMap((ftilde[i],), (gtilde[i],), ctx)
    if (w[1] * w[1] - w[0] * w[2]) % p:
        return ResidueMap(ftilde, gtilde, ctx)
    r = _common_root(w, p)
    if r is None:
        (l0, l1), qf, qg = (0, 1), (a1, a2), (b1, b2)
    else:
        (l0, l1), qf, qg = (1, -r), (a0, (a1 + r * a0) % p), (b0, (b1 + r * b0) % p)
    for form, (q0, q1) in ((ftilde, qf), (gtilde, qg)):
        if any((u - c) % p for u, c in zip((l0 * q0, l0 * q1 + l1 * q0, l1 * q1), form)):
            raise InternalInvariantError(
                f"({l0}X + {l1}Y)({q0}X + {q1}Y) is not the residue form {form} mod {p}"
            )
    return ResidueMap(qf, qg, ctx)


def classify_residue(residue: ResidueMap) -> ResidueClass:
    """Dynamical class of a residue map.

    Degree 2 is repelling, degree 0 a moved (constant) point.  Degree 1
    maps are classified through the residue matrix M with rows F~ and G~:
    scalar M is the identity, tr(M)^2 = 4 det(M) is additive (unipotent up
    to scalar), and otherwise the map is multiplicative with x = tr^2/det - 2.
    """
    if residue.degree == 2:
        return ResidueClass(ResidueKind.REPELLING)
    if residue.degree == 0:
        return ResidueClass(ResidueKind.MOVED)
    (alpha, beta), (gamma, delta) = residue.ftilde, residue.gtilde
    p = residue.ctx.p
    if beta % p == 0 and gamma % p == 0 and alpha % p == delta % p:
        return ResidueClass(ResidueKind.IDENTITY)
    tr = (alpha + delta) % p
    det = (alpha * delta - beta * gamma) % p
    if (tr * tr - 4 * det) % p == 0:
        return ResidueClass(ResidueKind.ADDITIVE)
    x_tilde = (tr * tr * pow(det, -1, p) - 2) % p
    return ResidueClass(ResidueKind.MULTIPLICATIVE, x_tilde, p)
