"""Quadratic rational maps as homogeneous lifts, and the ordRes function.

A map phi = F/G of degree 2 is stored as the six rational coefficients of a
homogeneous lift [F, G] with F = a0*X^2 + a1*X*Y + a2*Y^2 and
G = b0*X^2 + b1*X*Y + b2*Y^2.  Nondegeneracy (Sylvester resultant nonzero)
is enforced at construction.  The resultant and conjugation are computed on
integers carried from construction: a Lift keeps its coefficients scaled to
integers by the lcm L of their denominators, L and the integer resultant,
and one closed-form integer kernel is evaluated on them.  Every read along
a segment takes one integer table, _segment: the conjugate's six numerators
at m = 0, their p-orders and vp(Res).  _profile_lines reads the profile's
lines off it (crucial.find_crucial_on_segment minimizes them on integers,
ord_res_profile builds their PLFunction envelope), ord_res_at evaluates
them at m and checks them against the resultant of the conjugate's own
integers, and reduction.reduce_at reads the residue map off it with no
power of p.

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

from bisect import bisect_right
from fractions import Fraction
from math import lcm

from .errors import (
    DegenerateMapError,
    InternalInvariantError,
    NonIntegralRadiusError,
    SingularMatrixError,
    UnboundedProfileError,
)
from .padic import INF, PrimeCtx, Rat, _int_ord, vp
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
            raise DegenerateMapError(
                f"lift {self.coeffs} has resultant 0 (degenerate map)"
            )
        object.__setattr__(self, "_ints", tuple(ints))
        object.__setattr__(self, "_L", L)
        object.__setattr__(self, "_res", res)

    @property
    def f_coeffs(self) -> tuple:
        return (self.a0, self.a1, self.a2)

    @property
    def g_coeffs(self) -> tuple:
        return (self.b0, self.b1, self.b2)

    @property
    def coeffs(self) -> tuple:
        return self.f_coeffs + self.g_coeffs

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

    def inverse(self) -> "Mobius":
        return Mobius(self.D, -self.B, -self.C, self.A)

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(1, 0, 0, 1)

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


def gauss_point() -> TypeIIPoint:
    return TypeIIPoint(0, 0)


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


class PLFunction(Value):
    """Convex piecewise-affine function of one rational variable.

    Piece i is m -> slopes[i]*m + intercepts[i], valid between
    breakpoints[i-1] and breakpoints[i]; slopes are strictly increasing and
    adjacent pieces agree at their shared breakpoint.
    """

    __slots__ = ("slopes", "intercepts", "breakpoints")

    def __init__(self, slopes: tuple, intercepts: tuple, breakpoints: tuple):
        super().__init__(slopes, intercepts, breakpoints)
        if len(self.slopes) != len(self.intercepts):
            raise ValueError("slopes/intercepts length mismatch")
        if len(self.breakpoints) != len(self.slopes) - 1:
            raise ValueError("breakpoint count must be piece count - 1")
        if any(s1 >= s2 for s1, s2 in zip(self.slopes, self.slopes[1:])):
            raise ValueError("slopes must be strictly increasing (convexity)")
        if any(b1 >= b2 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for i, b in enumerate(self.breakpoints):
            left = self.slopes[i] * b + self.intercepts[i]
            right = self.slopes[i + 1] * b + self.intercepts[i + 1]
            if left != right:
                raise ValueError("pieces do not meet at a breakpoint")

    @classmethod
    def upper_envelope(cls, lines) -> "PLFunction":
        """Pointwise maximum of affine functions given as (slope, intercept)."""
        best = {}
        for k, b in lines:
            k, b = rat(k), rat(b)
            if k not in best or b > best[k]:
                best[k] = b
        items = sorted(best.items())
        if not items:
            raise ValueError("empty set of affine functions")
        env = [items[0]]
        bps = []
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
        slopes, intercepts = zip(*env)
        return cls(tuple(slopes), tuple(intercepts), tuple(bps))

    def __call__(self, m: Rat) -> Fraction:
        m = rat(m)
        i = bisect_right(self.breakpoints, m)
        return self.slopes[i] * m + self.intercepts[i]


def minimize_profile(f: PLFunction) -> tuple:
    """Exact (argmin, min_value) of a convex piecewise-affine function, the
    argmin a Fraction.

    An ordRes profile has slopes in {-6, -2, 2, 6}, never 0, so its
    minimizer is one point.  Raises UnboundedProfileError when there is no
    single minimizer: all slopes of one sign, or a zero-slope piece.
    """
    slopes = f.slopes
    if slopes[0] > 0 or slopes[-1] < 0 or 0 in slopes:
        raise UnboundedProfileError("no single minimizer: a zero slope, or all slopes of one sign")
    j = next(i for i, s in enumerate(slopes) if s > 0)
    m = f.breakpoints[j - 1]
    return m, f(m)


#: the power of p^m in each conjugate coefficient: a0, a1, a2, b0, b1, b2
_K = (2, 1, 0, 3, 2, 1)


def _segment(lift: Lift, center: Rat, p: int) -> tuple:
    """(nums, ords, base): the integer table of the segment at ``center``.

    The conjugate by z -> center + p^m z has the coefficients
    nums[i] * p^(k_i*m) over L*den^3, k = _K, where nums are the integers
    of the conjugate at m = 0; ords are their p-orders (INF for 0), and
    base = vp(Res) + 4*vp(L*den^3) = vp(carried Res) + 12*vp(den).
    """
    center = rat(center)
    den = center.denominator
    nums = _conjugate_ints(lift._ints, den, center.numerator, 0, den)
    ords = [_int_ord(n, p) if n else INF for n in nums]
    return nums, ords, _int_ord(lift._res, p) + 12 * _int_ord(den, p)


def _radius(point: TypeIIPoint) -> int:
    """The radius exponent m of a point, refused unless an integer."""
    if not point.is_integral:
        raise NonIntegralRadiusError(f"radius exponent {point.radius_exp} is not an integer")
    return int(point.radius_exp)


def ord_res_at(lift: Lift, point: TypeIIPoint, ctx: PrimeCtx) -> int:
    """ordRes of the map at a type II point with integer radius exponent m.

    Computed two ways on the table of _segment, building no Lift, and
    checked for agreement.  With v = min_i(vp(nums[i]) + k_i*m), the formula
    route is the profile's lines at m, base + 6m - 4v.  The direct route is
    vp(Res) - 4*min vp of the conjugate's own integers
    nums[i] * p^(k_i*m + 3*max(-m, 0)) (Res is homogeneous of degree 4): it
    builds p^(3|m|) on purpose, as the independent check, and long division
    is quadratic in its size, so m = 300,000 at p = 5 takes seconds.  The
    CLI refuses |m|*log2(p) > 2^18.
    """
    p, m = ctx.p, _radius(point)
    nums, ords, base = _segment(lift, point.center, p)
    v, shift = min(o + k * m for k, o in zip(_K, ords)), 3 * max(-m, 0)
    res = _resultant_ints(*(n * p ** (k * m + shift) for k, n in zip(_K, nums)))
    # a degenerate conjugate has order INF and fails the check
    direct = _int_ord(res, p) - 4 * (v + shift) if res else INF
    formula = base + 6 * m - 4 * v
    if direct != formula:
        raise InternalInvariantError(
            f"ordRes routes disagree at {point}: direct {direct}, formula {formula}"
        )
    return direct


def _profile_lines(lift: Lift, center: Rat, p: int) -> dict:
    """{slope: intercept} of the ordRes profile's lines at ``center``, on integers.

    A nonzero nums[i] of _segment gives the line
    m -> vp(Res) + 6m - 4*(vp(c_i) + k_i*m), c_i = nums[i]/(L*den^3):
    slope 6 - 4*k_i, intercept base - 4*vp(nums[i]).  Per slope only the
    largest intercept is kept.
    """
    _, ords, base = _segment(lift, center, p)
    lines = {}
    for k, o in zip(_K, ords):
        if o != INF:
            s, c = 6 - 4 * k, base - 4 * o
            if s not in lines or c > lines[s]:
                lines[s] = c
    return lines


def ord_res_profile(lift: Lift, center: Rat, ctx: PrimeCtx) -> PLFunction:
    """Exact profile m -> ordRes at zeta_{D(center, p^(-m))}, all rational m.

    Through the transformation formula the profile is
    vp(Res) + 6m - 4*min_i(vp(c_i) + k_i*m), the upper envelope of the lines
    of _profile_lines, with slopes in {-6, -2, 2, 6}.  Here c_i * p^(k_i*m)
    is the i-th coefficient of the conjugate by z -> center + p^m z.  Both
    signs occur (with no line of one sign F and G would share the factor
    X or Y), so minimize_profile returns a single point.
    """
    return PLFunction.upper_envelope(_profile_lines(lift, center, ctx.p).items())
