"""Quadratic rational maps as homogeneous lifts, the ordRes function and
the residue map.

A map phi = F/G of degree 2 is stored as the six rational coefficients of a
homogeneous lift [F, G] with F = a0*X^2 + a1*X*Y + a2*Y^2 and
G = b0*X^2 + b1*X*Y + b2*Y^2.  Nondegeneracy (Sylvester resultant nonzero)
is enforced at construction.  The resultant and conjugation are computed on
integers carried from construction: a Lift keeps its coefficients scaled to
integers by the lcm L of their denominators, L and the integer resultant,
and one closed-form integer kernel is evaluated on them.  Every read along
a segment takes one integer table, _segment: the conjugate's six numerators
at m = 0, their p-orders and vp(Res), checked by the exact identity
Res(numerators) = den^12 * Res.  _profile_lines reads the profile's lines
off it (ord_res_profile gives their envelope as integer pieces, _envelope's
lower hull; find_crucial_on_segment minimizes them through the same hull),
ord_res_at reads base + 6m - 4*min(vp + k*m) off it, and reduce_at the
residue map (classifier.classify_residue gives its class); no read builds a
power of p, so every m costs the same.  Only this module reads the table.

Type II points of the projective Berkovich line are written in the affine
chart as a center a in Q together with a radius exponent m, standing for the
sup-norm point of the disc D(a, p^(-m)); the Gauss point is a = 0, m = 0.
Points "beyond infinity" are reached by first conjugating the map by
z -> 1/z.  Moving the Gauss point to (a, m) uses gamma(z) = a + p^m * z,
which is defined over Q exactly when m is an integer; the piecewise-affine
profile of ordRes along a segment carries the same information for all
rational m, half-integers included.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    DegenerateMapError,
    InternalInvariantError,
    NonIntegralRadiusError,
    QuadberkError,
    SingularMatrixError,
    UnboundedProfileError,
)
from .padic import INF, PrimeCtx, Rat, _int_ord, _lower_hull, _strip, vp
from .value import Value, rat


def _integral(coeffs) -> tuple:
    """(ints, L): L is the lcm of the denominators and ints[i] = L * coeffs[i]."""
    # an int or a Fraction is read as it is
    fs = [c if type(c) is int else rat(c) for c in coeffs]
    L = lcm(*(f.denominator for f in fs))
    return [f.numerator * (L // f.denominator) for f in fs], L


def _resultant_ints(a0, a1, a2, b0, b1, b2) -> int:
    """The Sylvester resultant's closed form on six integer coefficients."""
    return (a0 * b2 - a2 * b0) ** 2 - (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1)


def resultant_forms(f: tuple, g: tuple) -> Fraction:
    """Sylvester resultant of two binary quadratic forms (raw, total).

    The closed form _resultant_ints of the 4x4 Sylvester determinant on the
    coefficients scaled to integers by a common L, divided by L^4 (the
    resultant is of degree 2 in each form).  Zero output signals a common
    projective factor; Lift construction rejects that case, but the raw
    operation accepts any coefficients.
    """
    ints, L = _integral((*f, *g))
    return Fraction(_resultant_ints(*ints), L**4)


class _Carried(Value):
    """The slots of the integers a Lift carries: the coefficients as ints
    over L, as _integral gives them, and their resultant.  Value reads the
    fields from the class's own __slots__, so slots declared here, on a
    base, are not fields: eq, hash, repr and pickling ignore them."""

    __slots__ = ("_ints", "_L", "_res")


class Lift(_Carried):
    """Homogeneous degree-2 lift [F, G] of a quadratic rational map."""

    __slots__ = ("a0", "a1", "a2", "b0", "b1", "b2")

    def __init__(self, a0: Rat, a1: Rat, a2: Rat, b0: Rat, b1: Rat, b2: Rat):
        super().__init__(*map(rat, (a0, a1, a2, b0, b1, b2)))
        ints, L = _integral(self._fields())
        res = _resultant_ints(*ints)
        if res == 0:
            raise DegenerateMapError(f"{self!r} has resultant 0 (degenerate map)")
        object.__setattr__(self, "_ints", tuple(ints))
        object.__setattr__(self, "_L", L)
        object.__setattr__(self, "_res", res)

    @property
    def coeffs(self) -> tuple:
        return self._fields()

    def scaled(self, c: Rat) -> "Lift":
        c = rat(c)
        if c == 0:
            raise ValueError("cannot scale a lift by zero")
        return Lift(*(x * c for x in self.coeffs))

    def proportional_to(self, other: "Lift") -> bool:
        """Projective equality, tested by cross-multiplication."""
        u, w = self.coeffs, other.coeffs
        return all(
            u[i] * w[j] == u[j] * w[i]
            for i in range(6)
            for j in range(i + 1, 6)
        )

    def __repr__(self) -> str:
        return f"Lift(F=({self.a0}, {self.a1}, {self.a2}), G=({self.b0}, {self.b1}, {self.b2}))"


class Mobius(Value):
    """Invertible matrix (A B; C D) acting as z -> (Az + B)/(Cz + D)."""

    __slots__ = ("A", "B", "C", "D")

    def __init__(self, A: Rat, B: Rat, C: Rat, D: Rat):
        super().__init__(*map(rat, (A, B, C, D)))
        if self.det == 0:
            raise SingularMatrixError(f"matrix {self} has determinant 0")

    @property
    def det(self) -> Fraction:
        return self.A * self.D - self.B * self.C

    @classmethod
    def affine(cls, scale_by: Rat, shift: Rat) -> "Mobius":
        """z -> scale_by * z + shift."""
        return cls(scale_by, shift, 0, 1)


class TypeIIPoint(Value):
    """The point zeta_{D(center, p^(-radius_exp))} in the affine chart."""

    __slots__ = ("center", "radius_exp")

    def __init__(self, center: Rat, radius_exp: Rat):
        super().__init__(rat(center), rat(radius_exp))

    @property
    def is_integral(self) -> bool:
        return self.radius_exp.denominator == 1

    def __repr__(self) -> str:
        return f"TypeIIPoint(center={self.center}, radius_exp={self.radius_exp})"


def resultant(lift: Lift) -> Fraction:
    """Sylvester resultant of the lift: the carried integer resultant over L^4."""
    return Fraction(lift._res, lift._L**4)


def normalize(lift: Lift, ctx: PrimeCtx) -> tuple:
    """Scale the lift by p^(-mu), mu = min coefficient valuation.

    Returns (scaled lift, mu); the scaled lift has min(ord F, ord G) = 0.
    """
    mu = min(vp(c, ctx) for c in lift.coeffs if c != 0)
    if mu == 0:
        return lift, 0
    return lift.scaled(Fraction(ctx.p) ** (-mu)), mu


def _conjugate_ints(ints, A: int, B: int, C: int, D: int) -> list:
    """Integer coefficients of [D*F - B*G, A*G - C*F](AX + BY, CX + DY), F and G integral."""
    # row i holds the X^(2-i) Y^i coefficients of U^2, U*V and V^2
    rows = ((A * A, A * C, C * C), (2 * A * B, A * D + B * C, 2 * C * D), (B * B, B * D, D * D))
    a0, a1, a2, b0, b1, b2 = ints
    fc = [u * a0 + w * a1 + v * a2 for u, w, v in rows]
    gc = [u * b0 + w * b1 + v * b2 for u, w, v in rows]
    return [D * f - B * g for f, g in zip(fc, gc)] + [A * g - C * f for f, g in zip(fc, gc)]


def conjugate(lift: Lift, g: Mobius) -> Lift:
    """The lift [F^g, G^g] of the conjugate g^(-1) . phi . g.

    F^g(X,Y) = D*F(AX+BY, CX+DY) - B*G(AX+BY, CX+DY) and
    G^g(X,Y) = -C*F(AX+BY, CX+DY) + A*G(AX+BY, CX+DY); no normalization
    is applied.  With the lift the carried ints over L and the matrix scaled
    to integers by M, every output coefficient is an integer over L*M^3.
    """
    (A, B, C, D), M = _integral((g.A, g.B, g.C, g.D))
    scale = lift._L * M**3
    return Lift(*(Fraction(n, scale) for n in _conjugate_ints(lift._ints, A, B, C, D)))


def _envelope(lines) -> list:
    """The pieces (k, b), one per slope k, of the upper envelope of the
    lines m -> k*m + b, in slope order: the largest intercept per slope,
    then the lower hull of the points (k, -b).  Pieces (k1, b1) and
    (k2, b2) meet at m = (b1 - b2)/(k2 - k1)."""
    best = {}
    for k, b in lines:
        if k not in best or b > best[k]:
            best[k] = b
    return [(k, -y) for k, y in _lower_hull((k, -b) for k, b in best.items())]


def minimize_profile(lines) -> tuple:
    """Exact (argmin, min value), both Fractions, of the maximum of the
    lines (k, b), m -> k*m + b, in any order, ints or Fractions: where the
    envelope's last piece of negative slope meets its first of positive
    slope.  A zero-slope piece, or slopes all of one sign, leave no single
    minimizer (an ordRes profile's slopes are never 0): UnboundedProfileError."""
    pieces = _envelope(lines)
    j = next((i for i, (k, _) in enumerate(pieces) if k >= 0), 0)
    if j == 0 or pieces[j][0] == 0:
        raise UnboundedProfileError("no single minimizer: a zero slope, or all slopes of one sign")
    (k1, b1), (k2, b2) = pieces[j - 1], pieces[j]
    return Fraction(b1 - b2, k2 - k1), Fraction(k2 * b1 - k1 * b2, k2 - k1)


#: the power of p^m in each conjugate coefficient: a0, a1, a2, b0, b1, b2
_K = (2, 1, 0, 3, 2, 1)


def _segment(lift: Lift, center: Rat, p: int) -> tuple:
    """(nums, ords, base): the integer table of the segment at ``center``.

    The conjugate by z -> center + p^m z has the coefficients
    nums[i] * p^(k_i*m) over L*den^3, k = _K, where nums are the integers
    of the conjugate at m = 0; ords are their p-orders (INF for 0), and
    base = vp(Res) + 4*vp(L*den^3) = vp(carried Res) + 12*vp(den).  The
    resultant of nums must be den^12 times the carried one, the det^6 of
    the matrix (den, num; 0, den), or InternalInvariantError is raised; so
    it has p-order base, and as its monomials have k-weight 6, that of
    nums[i] * p^(k_i*m + s) is p^(6m + 4s) times it: this one check is
    the direct ordRes route's at every m, for every reader of the table.
    """
    center = rat(center)
    den = center.denominator
    nums = _conjugate_ints(lift._ints, den, center.numerator, 0, den)
    base = _int_ord(lift._res, p) + 12 * _int_ord(den, p)
    res, expected = _resultant_ints(*nums), lift._res * den**12
    if res != expected:
        direct = _int_ord(res, p) if res else INF  # a degenerate conjugate fails
        raise InternalInvariantError(
            f"resultant of the conjugate at center {center} is not den^12 * Res",
            {"lift": lift, "center": center, "p": p, "direct": direct, "base": base,
             "resultant": res, "expected_resultant": expected},
        )
    return nums, [_int_ord(n, p) if n else INF for n in nums], base


def _radius(point: TypeIIPoint) -> int:
    """The radius exponent m, the numerator of the point's exact Fraction,
    refused unless an integer."""
    if point.radius_exp.denominator != 1:
        raise NonIntegralRadiusError(f"radius exponent {point.radius_exp} is not an integer")
    return point.radius_exp.numerator


def ord_res_at(lift: Lift, point: TypeIIPoint, ctx: PrimeCtx) -> int:
    """ordRes of the map at a type II point with integer radius exponent m.

    base + 6m - 4v, v = min_i(vp(nums[i]) + k_i*m) over the nonzero nums
    of _segment's table, which is the largest of the profile's lines at m;
    the table's one check at m = 0 is, by k-weight 6, the direct route's
    at every m.  No power of p is built, so any m costs the same.
    """
    m = _radius(point)
    _, ords, base = _segment(lift, point.center, ctx.p)
    return base + 6 * m - 4 * min(o + k * m for k, o in zip(_K, ords) if o != INF)


def _profile_lines(lift: Lift, center: Rat, p: int) -> list:
    """The ordRes profile's lines (slope, intercept) at ``center``, on integers.

    A nonzero nums[i] of _segment gives the line
    m -> vp(Res) + 6m - 4*(vp(c_i) + k_i*m), c_i = nums[i]/(L*den^3):
    slope 6 - 4*k_i, intercept base - 4*vp(nums[i]).  A slope may repeat.
    """
    _, ords, base = _segment(lift, center, p)
    return [(6 - 4 * k, base - 4 * o) for k, o in zip(_K, ords) if o != INF]


def ord_res_profile(lift: Lift, center: Rat, ctx: PrimeCtx) -> tuple:
    """Exact profile m -> ordRes at zeta_{D(center, p^(-m))}, all rational m,
    as its pieces (slope, intercept), ints in slope order.

    Through the transformation formula the profile is
    vp(Res) + 6m - 4*min_i(vp(c_i) + k_i*m), the upper envelope of the lines
    of _profile_lines, with slopes in {-6, -2, 2, 6}.  Here c_i * p^(k_i*m)
    is the i-th coefficient of the conjugate by z -> center + p^m z.  Both
    signs occur (with no line of one sign F and G would share the factor
    X or Y), so minimize_profile returns a single point.
    """
    return tuple(_envelope(_profile_lines(lift, center, ctx.p)))


def find_crucial_on_segment(lift: Lift, center: Rat, ctx: PrimeCtx) -> tuple:
    """Exact (argmin, min value) of the ordRes profile along the segment of
    points centered at ``center``: minimize_profile on the integer lines
    of _profile_lines, one hull."""
    return minimize_profile(_profile_lines(lift, center, ctx.p))


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
    _segment: coefficient i is the p-free part of nums[i] times the
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
    # INF + k*m overflows once |m| passes the float range
    orders = [INF if o == INF else o + k * m for k, o in zip(_K, ords)]
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
