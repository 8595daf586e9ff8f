"""The two classifications the stratification matches: the stratum W1-W4
of the sigma invariants, and the dynamical class of a residue map.

The point [sigma1 : sigma2 : 1] in P^2, specialized to the residue field,
lands in exactly one of four regions, and the region determines the
reduction type of the map at its minimal-resultant point:

  W1  affine point              potential good reduction
  W2  [1 : x : 0], x != 2       potential multiplicative reduction
  W3  [1 : 2 : 0]               potential additive reduction
  W4  [0 : 1 : 0]               potential constant reduction

The W2 payload x equals lam + 1/lam for the residue lam of an indifferent
multiplier.  Valuations of the (possibly irrational) multipliers themselves
are the negated slopes, padic.newton_slopes, of the Newton polygon of
T^3 - sigma1*T^2 + sigma2*T - sigma3.

The residue map at a type II point (quadmap.reduce_at) is classified by
its degree: a moved point (degree 0), an indifferent fixed point
(degree 1) or a repelling fixed point (degree 2); degree-1 maps split
further into multiplicative, additive and identity types by their 2x2
residue matrix.  At xi the class is the stratum's, STRATUM_TO_RESIDUE.
"""

from __future__ import annotations

from enum import Enum

from .errors import QuadberkError
from .invariants import SigmaInvariants
from .padic import INF, PrimeCtx, _int_ord, newton_slopes
from .quadmap import ResidueMap
from .value import Value

W1, W2, W3, W4 = "W1", "W2", "W3", "W4"


def _check_payload(carried: bool, x_tilde, p, carrier: str) -> None:
    """x_tilde and p are both set exactly when ``carried``."""
    if carried != (x_tilde is not None) or (x_tilde is None) != (p is None):
        raise QuadberkError(f"x_tilde and p are carried exactly by {carrier}")


class ReductionType(Value):
    """One of the four strata; W2 carries the payload x in [0, p), never
    2 mod p, together with its prime p."""

    __slots__ = ("tag", "x_tilde", "p")

    def __init__(self, tag: str, x_tilde: int | None = None, p: int | None = None):
        super().__init__(tag, x_tilde, p)
        if self.tag not in (W1, W2, W3, W4):
            raise QuadberkError(f"unknown stratum tag {self.tag!r}")
        _check_payload(self.tag == W2, self.x_tilde, self.p, "W2")
        if self.tag == W2 and (self.x_tilde - 2) % self.p == 0:
            raise QuadberkError("W2 payload cannot be 2 mod p (that point is W3)")

    def __repr__(self) -> str:
        if self.tag == W2:
            return f"W2(x_tilde={self.x_tilde} mod {self.p})"
        return self.tag


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
        _check_payload(self.kind is ResidueKind.MULTIPLICATIVE, self.x_tilde, self.p,
                       "the multiplicative kind")

    def __repr__(self) -> str:
        if self.x_tilde is not None:
            return f"{self.kind.value}(x_tilde={self.x_tilde} mod {self.p})"
        return self.kind.value


#: stratum tag <-> residue kind dictated by the stratification
STRATUM_TO_RESIDUE = {
    W1: ResidueKind.REPELLING,
    W2: ResidueKind.MULTIPLICATIVE,
    W3: ResidueKind.ADDITIVE,
    W4: ResidueKind.MOVED,
}


def _pole_order(sigma: SigmaInvariants, p: int) -> int:
    """-mu, mu = min(vp(sigma1), vp(sigma2), 0): the larger p-order of the
    two denominators, as p divides at most one of numerator and denominator.
    It is min ordRes over the Berkovich line.  ordRes >= -mu everywhere: at
    any point the normalized conjugate psi is integral with min vp 0, so
    Milnor's quartics N1(psi), N2(psi) and Res(psi) are integers with
    sigma_i = N_i(psi)/Res(psi), and vp(Res(psi)) >= -vp(sigma_i).  That xi
    attains it is the stratification (Silverman, "The space of rational
    maps on P^1", Duke Math. J. 94, 1998)."""
    return max(_int_ord(sigma.sigma1.denominator, p), _int_ord(sigma.sigma2.denominator, p))


def specialize(sigma: SigmaInvariants, ctx: PrimeCtx) -> tuple:
    """Specialization of [sigma1 : sigma2 : 1] to P^2(F_p), as an int triple
    normalized so that its first nonzero coordinate is 1.

    Scaled by p^(-mu) (_pole_order), a coordinate whose denominator p^(-mu)
    divides reduces to its p-free residue, and every other one to 0.
    """
    p = ctx.p
    unit = p ** _pole_order(sigma, p)
    point = [s.numerator * pow(s.denominator // unit, -1, p) % p if s.denominator % unit == 0 else 0
             for s in (sigma.sigma1, sigma.sigma2)]
    point.append(1 if unit == 1 else 0)
    inv = pow(next(c for c in point if c != 0), -1, p)
    return tuple(c * inv % p for c in point)


def stratum(sigma: SigmaInvariants, ctx: PrimeCtx) -> ReductionType:
    """The stratum of the map with the given sigma invariants."""
    x, y, z = specialize(sigma, ctx)
    if z != 0:
        return ReductionType(W1)
    if x != 0:
        # normalized so x = 1; the boundary coordinate is y = sigma2/sigma1,
        # and W3 is y = 2 mod p (y = 0 at p = 2)
        if y == 2 % ctx.p:
            return ReductionType(W3)
        return ReductionType(W2, y, ctx.p)
    return ReductionType(W4)


def multiplier_valuations(sigma: SigmaInvariants, ctx: PrimeCtx) -> tuple:
    """Valuations of the three fixed-point multipliers, sorted ascending.

    Read off as negated Newton slopes of the multiplier cubic; zero
    multipliers (vanishing sigma3) are stripped first and reported as INF.
    """
    coeffs = list(sigma.multiplier_cubic())
    zeros = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        zeros += 1
    vals = [-s for s in newton_slopes(coeffs, ctx)] if len(coeffs) > 1 else []
    return tuple(sorted(vals + [INF] * zeros))


def hsia_check(sigma: SigmaInvariants, ctx: PrimeCtx) -> bool:
    """True iff (stratum != W1) implies a negative multiplier valuation.

    A map away from W1 must have a classical repelling fixed point; were
    all fixed points non-repelling, the sigmas would be integral and the
    specialization would land in the affine chart.
    """
    if stratum(sigma, ctx).tag == W1:
        return True
    return any(v < 0 for v in multiplier_valuations(sigma, ctx))


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
