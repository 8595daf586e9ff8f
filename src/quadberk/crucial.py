"""Locating the minimal-resultant point xi and cross-checking every route.

For degree 2 there is a single point of the Berkovich line carrying weight:
the minimal-resultant locus xi.  Two normal forms cover all quadratic maps:

  * z + s + 1/z            (a multiple fixed point at infinity, s^2 = 1 - lambda3)
  * (z^2 + l1*z)/(l2*z + 1) (three distinct fixed points 0, infinity, alpha3)

and for each this module predicts xi, its stratum and its residue class in
closed form from the multiplier data, and reads sigma off the same
multipliers.  The segment search, quadmap.find_crucial_on_segment,
provides the independent route: the profile's minimum, read off the lower
hull of its integer lines where the slope changes sign.
``_complete_report`` checks every report against it and against the
residue class at xi (quadmap.reduce_at, then
classifier.classify_residue), which must be the stratum's,
classifier.STRATUM_TO_RESIDUE; ``verify_consistency`` adds the Sylvester
sigma, which must equal the report's exactly, its stratum and -mu.
"""

from __future__ import annotations

from fractions import Fraction

from .classifier import (
    STRATUM_TO_RESIDUE, W1, W2, W3, W4, ReductionType, _pole_order, classify_residue, stratum,
)
from .errors import CentersMissXiError, ConsistencyFailure, NotNormalFormError
from .invariants import SigmaInvariants, lambda3_from, sigma_invariants
from .padic import PrimeCtx, Rat, reduce_residue, vp
from .quadmap import Lift, TypeIIPoint, find_crucial_on_segment, reduce_at
from .value import Value, rat


def multiple_fixed_lift(s: Rat) -> Lift:
    """Lift of z + s + 1/z: [X^2 + s*XY + Y^2, XY]."""
    return Lift(1, s, 1, 0, 1, 0)


def distinct_fixed_lift(lambda1: Rat, lambda2: Rat) -> Lift:
    """Lift of (z^2 + l1*z)/(l2*z + 1): [X^2 + l1*XY, l2*XY + Y^2]."""
    return Lift(1, lambda1, 0, 0, lambda2, 1)


class CrucialReport(Value):
    """Everything known about xi for one map.

    ``lift`` is the normal form the numbers refer to, and xi is in its
    coordinates: the multiplier pair may have been reordered into the
    convention with the repelling multiplier first, or re-paired to get a
    unit gap, and then they are not the input's.  ``residue_class``
    is None exactly when ``residue_unavailable`` explains why (half-integer
    radius exponent).  ``sigma`` is the route's: a prediction's multipliers,
    or sigma_invariants where segment centers found xi.
    """

    __slots__ = ("xi", "stratum", "residue_class", "residue_unavailable", "min_ord_res", "sigma", "lift")


def _complete_report(lift: Lift, xi: TypeIIPoint, strat: ReductionType, sigma: SigmaInvariants,
                     ctx: PrimeCtx, context: dict | None = None) -> CrucialReport:
    """The one place where xi meets the profile search: its argmin must be
    xi's radius exponent, its minimum is min_ord_res, and at integer radius
    the residue class must match the stratum.  ``sigma`` is carried as given."""
    dump = ({"lift": lift, "p": ctx.p} if context is None else context) | {"xi": xi}
    argmin, min_val = find_crucial_on_segment(lift, xi.center, ctx)
    if argmin != xi.radius_exp:
        raise ConsistencyFailure(
            f"profile argmin {argmin} differs from xi's radius exponent {xi.radius_exp}",
            dump | {"argmin": argmin},
        )
    if xi.is_integral:
        rc = classify_residue(reduce_at(lift, xi, ctx))
        # x_tilde is None on both sides except W2 <-> multiplicative, where the
        # payloads are ints in [0, p) and must be equal
        if rc.kind is not STRATUM_TO_RESIDUE[strat.tag] or strat.x_tilde != rc.x_tilde:
            raise ConsistencyFailure(
                f"stratum {strat!r} disagrees with residue class {rc!r}",
                dump | {"stratum": strat, "residue_class": rc},
            )
        return CrucialReport(xi, strat, rc, None, min_val, sigma, lift)
    reason = "half-integer radius exponent: no rational conjugating matrix"
    return CrucialReport(xi, strat, None, reason, min_val, sigma, lift)


def predict_xi_multiple_fixed(s: Rat, ctx: PrimeCtx) -> CrucialReport:
    """Closed-form xi for z + s + 1/z (lambda3 = 1 - s^2), checked by _complete_report.

    Integral lambda3 gives good reduction at the Gauss point; a repelling
    lambda3 pushes xi out to radius sqrt|lambda3| with additive reduction.
    sigma is that of the multipliers (1, 1, lambda3).
    """
    s = rat(s)
    lam3 = 1 - s * s
    sigma = SigmaInvariants(2 + lam3, 1 + 2 * lam3, lam3)
    lift = multiple_fixed_lift(s)
    if vp(lam3, ctx) >= 0:
        xi = TypeIIPoint(0, 0)
        strat = ReductionType(W1)
    else:
        # vp(lam3) = 2 vp(s) < 0, so the radius exponent is an integer
        xi = TypeIIPoint(0, vp(s, ctx))
        strat = ReductionType(W3)
    return _complete_report(lift, xi, strat, sigma, ctx)


def _order_for_repelling(l1: Fraction, l2: Fraction, l3: Fraction, ctx: PrimeCtx) -> tuple:
    """Pick (repelling, tamest) deterministically: sort the multiplier
    triple by (valuation, value) and take the two ends."""
    ranked = sorted((l1, l2, l3), key=lambda lam: (vp(lam, ctx), lam))
    return ranked[0], ranked[-1]


def predict_xi_distinct_fixed(lambda1: Rat, lambda2: Rat, ctx: PrimeCtx) -> CrucialReport:
    """Closed-form xi for (z^2 + l1*z)/(l2*z + 1), checked by _complete_report.

    Case tree on the multiplier triple (l1, l2, l3); lambda3_from refuses l1*l2 = 1:

      * no repelling multiplier, l1*l2 - 1 a unit: xi is the Gauss point, W1;
      * no repelling multiplier, all three residues 1: xi is centered at -1
        with radius exponent vp(l1*l2 - 1)/2 (possibly a half-integer), W1;
      * no repelling multiplier, l1*l2 = 1 mod p, residues not all 1: then
        l1 + l2 = 2 mod p too (l3 is integral), so l1 = l2 = 1 and l3 != 1
        mod p; the pair is re-paired as (l1, l3), which has a unit gap, and
        xi is the Gauss point, W1;
      * a repelling multiplier exists: the pair is reordered so the
        repelling one comes first, xi sits at radius |l1| over center 0, and
        the residue of l2 decides W2 / W3 / W4 as it is a unit != 1 / 1 / 0.

    sigma is that of the triple, whatever pair the lift carries; its check
    sigma3 = sigma1 - 2 is then one of lambda3_from.
    """
    l1, l2 = rat(lambda1), rat(lambda2)
    l3 = lambda3_from(l1, l2)
    s, q = l1 + l2, l1 * l2
    sigma = SigmaInvariants(s + l3, q + l3 * s, q * l3)
    has_repelling = min(vp(l1, ctx), vp(l2, ctx), vp(l3, ctx)) < 0

    if has_repelling:
        rep, tame = _order_for_repelling(l1, l2, l3, ctx)
        lift = distinct_fixed_lift(rep, tame)
        xi = TypeIIPoint(0, vp(rep, ctx))
        tame_res = reduce_residue(tame, ctx)
        if tame_res == 0:
            strat = ReductionType(W4)
        elif tame_res == 1:
            strat = ReductionType(W3)
        else:
            strat = ReductionType(W2, (tame_res + pow(tame_res, -1, ctx.p)) % ctx.p, ctx.p)
        return _complete_report(lift, xi, strat, sigma, ctx)

    lift = distinct_fixed_lift(l1, l2)
    unit_gap = vp(q - 1, ctx)
    if unit_gap == 0:
        return _complete_report(lift, TypeIIPoint(0, 0), ReductionType(W1), sigma, ctx)
    if all(vp(lam - 1, ctx) > 0 for lam in (l1, l2, l3)):
        xi = TypeIIPoint(-1, Fraction(unit_gap, 2))
        return _complete_report(lift, xi, ReductionType(W1), sigma, ctx)
    return _complete_report(distinct_fixed_lift(l1, l3), TypeIIPoint(0, 0), ReductionType(W1), sigma, ctx)


def identify_normal_form(lift: Lift):
    """Recognize the two supported normal forms up to projective scaling.

    Returns ("multiple", s), ("distinct", l1, l2), or None.
    """
    if lift.b0 == 0 and lift.b2 == 0 and lift.a0 == lift.b1 and lift.a2 == lift.b1:
        return ("multiple", lift.a1 / lift.a0)
    if lift.a2 == 0 and lift.b0 == 0 and lift.a0 == lift.b2:
        return ("distinct", lift.a1 / lift.a0, lift.b1 / lift.a0)
    return None


def verify_consistency(lift: Lift, ctx: PrimeCtx, centers=None) -> CrucialReport:
    """Compute xi by every available route and check that they agree;
    returns the CrucialReport of the route that found xi.

    sigma_invariants gives the Sylvester sigma, its stratum and -mu
    (classifier._pole_order), the least ordRes on the Berkovich line.  A
    normal form's prediction must give that sigma exactly from its
    multipliers, the sigma stratum, and -mu as its profile minimum; other
    maps need segment centers, and xi is the best profile argmin over
    them, which must reach -mu: above it the centers miss xi
    (CentersMissXiError, an input error), below it is a bug.
    _complete_report checks xi against the profile argmin and the residue
    class at xi against the stratum (W1 <-> repelling, W2 <-> multiplicative
    with equal payloads, W3 <-> additive, W4 <-> moved).
    ConsistencyFailure on valid input means an implementation bug.  xi is
    in the coordinates of ``report.lift``, which may not be the input's.
    """
    sigma = sigma_invariants(lift)
    strat_sigma = stratum(sigma, ctx)
    minus_mu = _pole_order(sigma, ctx.p)
    form = identify_normal_form(lift)
    if form is not None:
        if form[0] == "multiple":
            report = predict_xi_multiple_fixed(form[1], ctx)
        else:
            report = predict_xi_distinct_fixed(form[1], form[2], ctx)
        if report.sigma != sigma or report.stratum != strat_sigma or report.min_ord_res != minus_mu:
            raise ConsistencyFailure(
                f"the Sylvester sigma gives {strat_sigma} and -mu = {minus_mu}, the prediction gives "
                f"{report.stratum} and the profile minimum {report.min_ord_res}"
                f"{'' if report.sigma == sigma else ', from another sigma'}",
                {"lift": lift, "p": ctx.p, "sigma": sigma.as_tuple(),
                 "route_sigma": report.sigma.as_tuple(),
                 "min_ord_res": report.min_ord_res, "minus_mu": minus_mu},
            )
    elif not centers:
        raise NotNormalFormError(
            "lift is not in a recognized normal form; supply segment centers spanning "
            "the fixed-point tree"
        )
    else:
        best = None
        for center in centers:
            argmin, min_val = find_crucial_on_segment(lift, center, ctx)
            if best is None or min_val < best[2]:
                best = (rat(center), argmin, min_val)
        center, argmin, min_val = best
        if min_val > minus_mu:
            raise CentersMissXiError(f"no segment center reaches xi: the best, {center}, has "
                                     f"minimum ordRes {min_val}, above -mu = {minus_mu}")
        context = {"lift": lift, "p": ctx.p, "centers": list(centers)}
        if min_val < minus_mu:
            raise ConsistencyFailure(
                f"profile minimum {min_val} at center {center} is below -mu = {minus_mu}",
                context | {"argmin": argmin, "min_ord_res": min_val, "minus_mu": minus_mu})
        report = _complete_report(lift, TypeIIPoint(center, argmin), strat_sigma, sigma, ctx, context)
    return report
