import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from quadberk import (
    DegenerateMapError,
    InternalInvariantError,
    Lift,
    Mobius,
    NonIntegralRadiusError,
    PrimeCtx,
    ResidueKind,
    ResidueMap,
    TypeIIPoint,
    classify_residue,
    conjugate,
    distinct_fixed_lift,
    gauss_point,
    normalize,
    ord_res_at,
    parse_map,
    reduce_at,
    reduce_residue,
)
from _support import conjugation_cases, rand_lift, rand_rat, rand_unit, residue_forms_oracle

P3, P5 = PrimeCtx(3), PrimeCtx(5)


def test_reduce_at_good_reduction():
    residue = reduce_at(Lift(1, 0, 0, 0, 0, 1), gauss_point(), P5)
    assert residue.degree == 2
    assert residue.ftilde == (1, 0, 0) and residue.gtilde == (0, 0, 1)
    assert classify_residue(residue).kind is ResidueKind.REPELLING


def test_reduce_at_additive_case():
    # residue pair (z^2 + z)/z, i.e. z + 1 after removing the common factor
    L = Lift(1, Fraction(1, 5), 1, 0, 1, 0)
    residue = reduce_at(L, TypeIIPoint(0, -1), P5)
    assert residue.degree == 1
    assert residue.ftilde == (1, 1) and residue.gtilde == (0, 1)
    assert classify_residue(residue).kind is ResidueKind.ADDITIVE


def test_reduce_at_multiplicative_case():
    # residue pair (z^2 + z)/(2z), i.e. (z + 1)/2
    L = distinct_fixed_lift(Fraction(1, 3), 2)
    residue = reduce_at(L, TypeIIPoint(0, -1), P3)
    assert residue.degree == 1
    assert residue.ftilde == (1, 1) and residue.gtilde == (0, 2)
    rc = classify_residue(residue)
    assert rc.kind is ResidueKind.MULTIPLICATIVE
    assert rc.x_tilde == 1


def test_reduce_at_moved_case():
    L = distinct_fixed_lift(Fraction(1, 9), 3)
    residue = reduce_at(L, TypeIIPoint(0, -2), P3)
    assert residue.degree == 0
    assert residue.ftilde == (1,) and residue.gtilde == (0,)  # constant infinity
    assert classify_residue(residue).kind is ResidueKind.MOVED


def test_reduce_at_checks_common_factor(monkeypatch):
    # the check must survive python -O, so it may not be an assert
    from quadberk import reduction

    # the residue pair (z^2 + z)/z shares the factor X; a "common root" at
    # infinity claims the factor Y, which divides neither form
    monkeypatch.setattr(reduction, "_common_root", lambda w, p: None)
    with pytest.raises(InternalInvariantError):
        reduce_at(Lift(1, Fraction(1, 5), 1, 0, 1, 0), TypeIIPoint(0, -1), P5)


def _lift_reducing_to(forms, p):
    """An integer lift congruent to the six residues mod p, nondegenerate
    over Q; a unit coefficient keeps it normalized."""
    for shift in product((0, p), repeat=6):
        try:
            return Lift(*(c + s for c, s in zip(forms, shift)))
        except DegenerateMapError:
            continue
    raise AssertionError(f"no nondegenerate lift of {forms} mod {p}")


@pytest.mark.parametrize("p", (2, 3, 5))
def test_reduce_at_matches_euclid_oracle_on_every_pair(p):
    ctx = PrimeCtx(p)
    for forms in product(range(p), repeat=6):
        if not any(forms):
            continue
        residue = reduce_at(_lift_reducing_to(forms, p), gauss_point(), ctx)
        expected = residue_forms_oracle(forms[:3], forms[3:], p)
        assert (residue.ftilde, residue.gtilde) == expected, forms


def _assert_reduce_at_matches_euclid_oracle(lift, point, ctx):
    # the two-step route: the normalized conjugate in Fraction arithmetic,
    # reduced coefficient by coefficient, then the forms by Euclid mod p
    gamma = Mobius.affine(Fraction(ctx.p) ** int(point.radius_exp), point.center)
    conj, _ = normalize(conjugate(lift, gamma), ctx)
    fbar = tuple(reduce_residue(c, ctx) for c in conj.f_coeffs)
    gbar = tuple(reduce_residue(c, ctx) for c in conj.g_coeffs)
    residue = reduce_at(lift, point, ctx)
    assert (residue.ftilde, residue.gtilde) == residue_forms_oracle(fbar, gbar, ctx.p)


def test_reduce_at_matches_euclid_oracle_on_random_lifts():
    rng = random.Random(44)
    for _ in range(1500):
        L = rand_lift(rng)
        ctx = PrimeCtx(rng.choice((2, 3, 5, 7, 13)))
        point = TypeIIPoint(rand_rat(rng, -4, 4, 3), rng.randint(-3, 3))
        _assert_reduce_at_matches_euclid_oracle(L, point, ctx)


@given(conjugation_cases())
@settings(max_examples=300, deadline=None)
def test_reduce_at_matches_euclid_oracle_on_conjugation_cases(case):
    # 40-bit coefficients with powers of p, centers with p in the
    # denominator, m of either sign
    _assert_reduce_at_matches_euclid_oracle(*case)


@pytest.mark.parametrize("lift", [
    parse_map("z^2+1/5"),
    distinct_fixed_lift(Fraction(3, 25), 10),
    distinct_fixed_lift(2, 3),
], ids=["z^2+1/5", "Biii", "unit-multipliers"])
@pytest.mark.parametrize("sign", [1, -1])
def test_reduce_at_builds_no_power_of_p(lift, sign):
    # the residue map is read off the m = 0 table, so m = 10^6 costs what
    # m = 64 does; past every crossing of vp(nums[i]) + k_i*m the map no
    # longer changes with m.  The first two are constant there; the unit
    # multipliers at 0 and infinity give a degree-1 map at either end
    start = time.perf_counter()
    far = reduce_at(lift, TypeIIPoint(0, sign * 10**6), P5)
    assert time.perf_counter() - start < 1
    assert far == reduce_at(lift, TypeIIPoint(0, sign * 64), P5)


def test_reduce_at_rejects_half_integer():
    with pytest.raises(NonIntegralRadiusError):
        reduce_at(Lift(1, 0, 0, 0, 0, 1), TypeIIPoint(0, Fraction(1, 2)), P5)


def _eigenvalues_mod_p(matrix, p):
    """Brute-force eigenvalues of a 2x2 matrix over F_p (None if outside F_p)."""
    (a, b), (c, d) = matrix
    found = [
        lam for lam in range(p)
        if ((a - lam) * (d - lam) - b * c) % p == 0
    ]
    return found


def test_classify_multiplicative_matrix():
    # the map (z+1)/2 over F_3: matrix [[1,1],[0,2]]
    residue = ResidueMap((1, 1), (0, 2), P3)
    rc = classify_residue(residue)
    assert rc.kind is ResidueKind.MULTIPLICATIVE
    # oracle: eigenvalues 1 and 2, ratio c = 2, x = c + 1/c = 2 + 2 = 4 = 1
    eigs = _eigenvalues_mod_p(((1, 1), (0, 2)), 3)
    assert sorted(eigs) == [1, 2]
    c = eigs[1] * pow(eigs[0], -1, 3) % 3
    assert rc.x_tilde == (c + pow(c, -1, 3)) % 3 == 1


def test_classify_additive_matrix():
    for p in (2, 3, 5, 7, 13):
        residue = ResidueMap((1, 1), (0, 1), PrimeCtx(p))
        assert classify_residue(residue).kind is ResidueKind.ADDITIVE


def test_classify_identity_matrix():
    for p in (3, 5):
        for c in range(1, p):
            residue = ResidueMap((c, 0), (0, c), PrimeCtx(p))
            assert classify_residue(residue).kind is ResidueKind.IDENTITY


def test_classify_scaling_invariance():
    rng = random.Random(41)
    for _ in range(200):
        p = rng.choice((3, 5, 7, 13))
        ctx = PrimeCtx(p)
        while True:
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            if (a * d - b * c) % p != 0:
                break
        base = classify_residue(ResidueMap((a, b), (c, d), ctx))
        for u in range(1, p):
            scaled = ResidueMap(
                (a * u % p, b * u % p), (c * u % p, d * u % p), ctx
            )
            got = classify_residue(scaled)
            assert got.kind is base.kind and got.x_tilde == base.x_tilde


def test_good_reduction_iff_ord_res_zero():
    rng = random.Random(42)
    for _ in range(250):
        L = rand_lift(rng)
        ctx = PrimeCtx(rng.choice((2, 3, 5, 7, 13)))
        point = TypeIIPoint(rand_rat(rng, -4, 4, 3), rng.randint(-3, 3))
        degree = reduce_at(L, point, ctx).degree
        assert (degree == 2) == (ord_res_at(L, point, ctx) == 0)


def test_repelling_family_trichotomy():
    # |l1| > 1 >= |l2|: the class at radius |l1| follows the residue of l2
    rng = random.Random(43)
    for p in (2, 3, 5, 7, 13):
        ctx = PrimeCtx(p)
        for _ in range(120):
            e = rng.randint(1, 3)
            l1 = Fraction(p) ** (-e) * rand_unit(rng, p)
            style = rng.choice(("unit", "one", "zero"))
            if style == "unit":
                l2 = rand_unit(rng, p)
                if reduce_residue(l2, ctx) == 1:
                    continue
                expected = ResidueKind.MULTIPLICATIVE
            elif style == "one":
                l2 = 1 + Fraction(p) ** rng.randint(1, 2) * rand_unit(rng, p)
                expected = ResidueKind.ADDITIVE
            else:
                l2 = Fraction(p) ** rng.randint(1, 2) * rand_unit(rng, p)
                expected = ResidueKind.MOVED
            if style == "unit" and p == 2:
                continue
            L = distinct_fixed_lift(l1, l2)
            xi = TypeIIPoint(0, -e)
            assert classify_residue(reduce_at(L, xi, ctx)).kind is expected
