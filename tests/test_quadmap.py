import pickle
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadberk import (
    DegenerateMapError,
    InternalInvariantError,
    Lift,
    Mobius,
    NonIntegralRadiusError,
    PLFunction,
    PrimeCtx,
    SingularMatrixError,
    TypeIIPoint,
    UnboundedProfileError,
    conjugate,
    distinct_fixed_lift,
    find_crucial_on_segment,
    gauss_point,
    lift_to_expr,
    minimize_profile,
    multiple_fixed_lift,
    normalize,
    ord_res_at,
    ord_res_profile,
    parse_map,
    reduce_at,
    resultant,
    resultant_forms,
    sigma_invariants,
    vp,
)
from quadberk.quadmap import _K, _integral, _segment
from _support import (
    FractionSub,
    conjugate_oracle,
    conjugation_cases,
    int_vp,
    integral_oracle,
    normalized_conjugate_oracle,
    ord_res_at_oracle,
    ord_res_profile_oracle,
    perm_det,
    rand_lift,
    rand_mobius,
    rand_rat,
    rand_rat_bits,
    sylvester_rows,
)

P5 = PrimeCtx(5)
P3 = PrimeCtx(3)

small_rat = st.fractions(min_value=-12, max_value=12, max_denominator=8)


def test_resultant_examples():
    # oracle: direct 4x4 permutation expansion
    z2 = Lift(1, 0, 0, 0, 0, 1)
    assert resultant(z2) == perm_det(sylvester_rows((1, 0, 0), (0, 0, 1))) == 1
    nf = Lift(1, Fraction(1, 3), 0, 0, 2, 1)
    assert resultant(nf) == Fraction(1, 3)
    # raw operation is total; zero flags a common factor
    assert resultant_forms((1, 0, 0), (0, 1, 0)) == 0


def test_degenerate_lift_rejected():
    with pytest.raises(DegenerateMapError):
        Lift(1, 0, 0, 0, 1, 0)  # [X^2, XY]


def test_lift_scaled_by_zero_rejected():
    with pytest.raises(ValueError):
        Lift(1, 0, 0, 0, 0, 1).scaled(0)


@given(st.tuples(*[small_rat] * 6))
@settings(max_examples=300)
def test_resultant_matches_permutation_oracle(cs):
    f, g = tuple(cs[:3]), tuple(cs[3:])
    assert resultant_forms(f, g) == perm_det(sylvester_rows(f, g))


def test_resultant_matches_permutation_oracle_40_bit():
    rng = random.Random(13)
    for _ in range(300):
        cs = [rand_rat_bits(rng, 40) if rng.random() > 0.1 else Fraction(0) for _ in range(6)]
        f, g = tuple(cs[:3]), tuple(cs[3:])
        assert resultant_forms(f, g) == perm_det(sylvester_rows(f, g))
        # a common linear factor forces a zero resultant
        r, s = rand_rat_bits(rng, 40), rand_rat_bits(rng, 40)
        fr = (f[0] * r, f[0] * s + f[1] * r, f[1] * s)
        gr = (g[0] * r, g[0] * s + g[1] * r, g[1] * s)
        assert resultant_forms(fr, gr) == 0


def test_normalize_examples():
    unit_present = Lift(5, 0, 0, 0, 0, 1)
    assert normalize(unit_present, P5) == (unit_present, 0)
    scaled, mu = normalize(Lift(Fraction(1, 5), 0, 0, 0, 0, Fraction(2, 5)), P5)
    assert (scaled, mu) == (Lift(1, 0, 0, 0, 0, 2), -1)
    mixed = Lift(5, 1, 5, 0, 5, 0)
    assert normalize(mixed, P5) == (mixed, 0)


def test_conjugate_by_diagonal():
    # oracle: symbolic expansion of F(pX, Y), p*G(pX, Y)
    z2 = Lift(1, 0, 0, 0, 0, 1)
    conj = conjugate(z2, Mobius(5, 0, 0, 1))
    assert conj == Lift(25, 0, 0, 0, 0, 5)


def test_conjugate_identity():
    L = Lift(1, Fraction(1, 5), 1, 0, 1, 0)
    assert conjugate(L, Mobius.identity()) == L


def test_conjugate_matches_normal_form_blowup():
    L = Lift(1, Fraction(1, 5), 1, 0, 1, 0)
    conj = conjugate(L, Mobius(Fraction(1, 5), 0, 0, 1))
    assert conj.proportional_to(Lift(1, 1, 25, 0, 1, 0))


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrixError):
        Mobius(1, 2, 2, 4)


def test_conjugate_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        L = rand_lift(rng)
        g = rand_mobius(rng)
        back = conjugate(conjugate(L, g), g.inverse())
        assert back.proportional_to(L)


def test_conjugate_matches_fraction_oracle():
    rng = random.Random(14)
    for _ in range(500):
        L = rand_lift(rng)
        g = rand_mobius(rng)
        assert conjugate(L, g) == conjugate_oracle(L, g)


def test_conjugate_affine_matches_fraction_oracle_40_bit():
    # the matrices ord_res_at and reduce_at use: z -> a + p^m z
    rng = random.Random(15)
    for _ in range(300):
        while True:
            cs = [rand_rat_bits(rng, 40) for _ in range(6)]
            if resultant_forms(tuple(cs[:3]), tuple(cs[3:])) != 0:
                break
        L = Lift(*cs)
        p = rng.choice((2, 3, 5, 7, 13))
        g = Mobius.affine(Fraction(p) ** rng.randint(-12, 12), rand_rat_bits(rng, 40))
        assert conjugate(L, g) == conjugate_oracle(L, g)


def test_resultant_transformation_law():
    rng = random.Random(8)
    for _ in range(300):
        L = rand_lift(rng)
        g = rand_mobius(rng)
        for p in (2, 5, 13):
            ctx = PrimeCtx(p)
            assert vp(resultant(conjugate(L, g)), ctx) == vp(resultant(L), ctx) + 6 * vp(
                g.det, ctx
            )


@given(conjugation_cases())
@settings(max_examples=300, deadline=None)
def test_normalized_conjugate_matches_two_step_oracle(case):
    # the conjugate by z -> center + p^m z is nums[i] * p^(k_i*m) / (L*den^3)
    lift, point, ctx = case
    p, m = ctx.p, int(point.radius_exp)
    nums, _, _ = _segment(lift, point.center, p)
    scale = lift._L * point.center.denominator**3
    raw = [Fraction(n, scale) * Fraction(p) ** (k * m) for k, n in zip(_K, nums)]
    mu = min(int_vp(c, p) for c in raw if c)
    conj = tuple(c * Fraction(p) ** -mu for c in raw)
    expected, expected_mu = normalized_conjugate_oracle(lift, point, ctx)
    # equal as Fractions, coefficient by coefficient, not just projectively
    assert conj == expected.coeffs and type(mu) is int and mu == expected_mu


@given(conjugation_cases())
@settings(max_examples=300, deadline=None)
def test_ord_res_at_matches_fraction_oracle(case):
    lift, point, ctx = case
    assert ord_res_at(lift, point, ctx) == ord_res_at_oracle(lift, point, ctx)


@given(conjugation_cases())
@settings(max_examples=100, deadline=None)
def test_ord_res_at_matches_profile(case):
    lift, point, ctx = case
    profile = ord_res_profile(lift, point.center, ctx)
    assert ord_res_at(lift, point, ctx) == profile(point.radius_exp)


@given(conjugation_cases())
@settings(max_examples=300, deadline=None)
def test_ord_res_profile_matches_fraction_oracle(case):
    lift, point, ctx = case
    profile = ord_res_profile(lift, point.center, ctx)
    # equal as PLFunctions: the same pieces, intercepts and breakpoints
    assert profile == ord_res_profile_oracle(lift, point.center, ctx)


@st.composite
def sparse_profile_cases(draw):
    """A nondegenerate lift with small coefficients, most of them zero, a
    center and p: the lifts closest to losing the lines of one sign."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    small = st.sampled_from((1, -1, 2, p, -p, Fraction(1, p), Fraction(3, p * p)))
    cs = draw(st.lists(st.one_of(st.just(0), st.just(0), small), min_size=6, max_size=6))
    assume(resultant_forms(tuple(cs[:3]), tuple(cs[3:])) != 0)
    center = draw(st.sampled_from((0, 1, -1, p, Fraction(1, p), Fraction(-2, 3))))
    return Lift(*cs), center, PrimeCtx(p)


@given(st.one_of(conjugation_cases().map(lambda case: (case[0], case[1].center, case[2])),
                 sparse_profile_cases()))
@settings(max_examples=400, deadline=None)
def test_profile_minimizer_is_one_point(case):
    # with no line of one sign, F and G would share the factor X or Y
    lift, center, ctx = case
    profile = ord_res_profile(lift, center, ctx)
    assert set(profile.slopes) <= {-6, -2, 2, 6}
    assert profile.slopes[0] < 0 < profile.slopes[-1]
    argmin, _ = minimize_profile(profile)
    assert isinstance(argmin, Fraction)


def test_ord_res_profile_calls_no_resultant(monkeypatch):
    from quadberk import quadmap

    def no_resultant(*args):
        raise AssertionError("ord_res_profile called quadmap.resultant")

    monkeypatch.setattr(quadmap, "resultant", no_resultant)
    profile = ord_res_profile(parse_map("z + 1/5 + 1/z"), 0, P5)
    assert minimize_profile(profile) == (-1, 2)


def _carried(lift: Lift) -> tuple:
    return lift._ints, lift._L, lift._res


def _assert_carries_canonical(lift: Lift) -> None:
    # the integers every kernel reads are those _integral gives the
    # coefficients, as a tuple, with their resultant; equal values carry
    # equal integers, however they were built
    ints, L = integral_oracle(lift.coeffs)
    assert type(lift._ints) is tuple and list(lift._ints) == ints and lift._L == L
    assert lift._res == perm_det(sylvester_rows(ints[:3], ints[3:])) != 0
    for twin in (Lift(*lift.coeffs), pickle.loads(pickle.dumps(lift))):
        assert twin == lift and _carried(twin) == _carried(lift)


@given(st.randoms(use_true_random=False), small_rat.filter(bool))
@settings(max_examples=200, deadline=None)
def test_carried_integers_checks_every_construction_path(rng, c):
    from quadberk import invariants, quadmap

    lift = rand_lift(rng)
    g = rand_mobius(rng)
    s, l1, l2 = (rand_rat(rng, -9, 9, 6) for _ in range(3))
    paths = [
        lambda: Lift(*lift.coeffs),
        lambda: parse_map(lift_to_expr(lift)),
        lambda: conjugate(lift, g),
        lambda: lift.scaled(c),
        lambda: multiple_fixed_lift(s),
    ]
    if l1 * l2 != 1:
        paths.append(lambda: distinct_fixed_lift(l1, l2))
    at_infinity = (*lift.coeffs[:3], 0, *lift.coeffs[4:])
    if resultant_forms(at_infinity[:3], at_infinity[3:]):
        paths.append(lambda: Lift(*at_infinity))
    for build in paths:
        built = build()
        _assert_carries_canonical(built)
        if built.b0 == 0:
            # sigma's conjugate off infinity, built here as a Lift to check it
            shifted = Lift(*invariants._deterministic_shift(built._ints))
            assert shifted.b0 != 0
            _assert_carries_canonical(shifted)
    # a resultant-0 input raises whether built directly or by conjugation
    u, w, a, b, d, e = (rand_rat(rng, -6, 6, 4) for _ in range(6))
    common = (u * a, u * b + w * a, w * b, u * d, u * e + w * d, w * e)
    with pytest.raises(DegenerateMapError):
        Lift(*common)
    ints = integral_oracle(common)[0]
    with mock.patch.object(quadmap, "_conjugate_ints", return_value=ints):
        with pytest.raises(DegenerateMapError):
            conjugate(lift, g)


def test_kernels_read_the_carried_integers(monkeypatch):
    from quadberk import quadmap

    lifts = [
        parse_map("z + 1/5 + 1/z"),
        Lift(1, Fraction(1, 3), 0, 0, 2, 1),
        Lift(Fraction(2, 5), 1, Fraction(-3, 10), 5, Fraction(1, 25), 7),
        conjugate(Lift(1, 0, 1, 0, 0, 1), Mobius(Fraction(1, 5), 2, 1, 1)),
    ]

    def answers():
        out = []
        for lift in lifts:
            for center in (0, Fraction(2, 5)):
                points = [TypeIIPoint(center, m) for m in range(-3, 4)]
                out.append([ord_res_at(lift, pt, P5) for pt in points])
                out.append(ord_res_profile(lift, center, P5))
                out.append(find_crucial_on_segment(lift, center, P5))
                out.append([reduce_at(lift, pt, P5) for pt in points])
            # at b0 = 0 too: sigma checks its conjugate off infinity by its
            # integer resultant and builds no Lift
            out.append(sigma_invariants(lift))
        return out

    expected = answers()

    def no_integral(*args):
        raise AssertionError("a kernel rebuilt the lift's integers")

    monkeypatch.setattr(quadmap, "_integral", no_integral)
    assert answers() == expected


def test_ord_res_at_examples():
    z2 = Lift(1, 0, 0, 0, 0, 1)
    assert ord_res_at(z2, gauss_point(), P5) == 0
    assert ord_res_at(z2, TypeIIPoint(0, 1), P5) == 2
    L = Lift(1, Fraction(1, 5), 1, 0, 1, 0)
    assert ord_res_at(L, TypeIIPoint(0, -1), P5) == 2
    assert ord_res_at(L, gauss_point(), P5) == 4


def test_ord_res_at_rejects_half_integer():
    with pytest.raises(NonIntegralRadiusError):
        ord_res_at(Lift(1, 0, 0, 0, 0, 1), TypeIIPoint(0, Fraction(1, 2)), P5)


def test_ord_res_at_checks_its_routes(monkeypatch):
    # the check must survive python -O, so it may not be an assert
    from quadberk import quadmap

    # a numerator multiplied by p inside the pass moves the direct route and
    # leaves the formula route, whose min vp it does not change, as it is
    exact = quadmap._conjugate_ints

    def first_times_p(ints, A, B, C, D):
        nums = exact(ints, A, B, C, D)
        return [nums[0] * 5, *nums[1:]]

    monkeypatch.setattr(quadmap, "_conjugate_ints", first_times_p)
    with pytest.raises(InternalInvariantError):
        ord_res_at(Lift(1, 0, 0, 0, 0, 1), gauss_point(), P5)


def test_ord_res_at_builds_no_lift(monkeypatch):
    from quadberk import quadmap

    lift, xi = parse_map("z + 1/5 + 1/z"), TypeIIPoint(0, -1)

    def no_lift(*args):
        raise AssertionError("ord_res_at built a Lift")

    monkeypatch.setattr(quadmap, "Lift", no_lift)
    assert ord_res_at(lift, xi, P5) == 2


def test_ord_res_nonnegative_random():
    rng = random.Random(9)
    for _ in range(200):
        L = rand_lift(rng)
        ctx = PrimeCtx(rng.choice((2, 3, 5, 7, 13)))
        pt = TypeIIPoint(rand_rat(rng, -4, 4, 3), rng.randint(-4, 4))
        assert ord_res_at(L, pt, ctx) >= 0


def test_profile_of_squaring_map():
    prof = ord_res_profile(Lift(1, 0, 0, 0, 0, 1), 0, P5)
    assert prof.slopes == (-2, 2)
    assert prof.breakpoints == (0,)
    for m in (-3, Fraction(-1, 2), 0, 2):
        assert prof(m) == 2 * abs(Fraction(m))


def test_profile_agrees_with_pointwise_on_grid():
    rng = random.Random(10)
    for _ in range(60):
        L = rand_lift(rng)
        ctx = PrimeCtx(rng.choice((2, 3, 5, 7)))
        center = rand_rat(rng, -6, 6, 4)
        prof = ord_res_profile(L, center, ctx)
        for m in range(-10, 11):
            assert prof(m) == ord_res_at(L, TypeIIPoint(center, m), ctx)


def test_profile_convex_integral_slopes():
    rng = random.Random(11)
    for _ in range(80):
        # integral coefficients: integer values and slopes at integer m
        while True:
            cs = [rng.randint(-9, 9) for _ in range(6)]
            if resultant_forms(tuple(cs[:3]), tuple(cs[3:])) != 0:
                break
        L = Lift(*cs)
        prof = ord_res_profile(L, rng.randint(-3, 3), PrimeCtx(3))
        assert all(s1 < s2 for s1, s2 in zip(prof.slopes, prof.slopes[1:]))
        assert all(s.denominator == 1 for s in prof.slopes)
        assert all(prof(m).denominator == 1 for m in range(-5, 6))


def test_minimize_absolute_value():
    f = PLFunction.upper_envelope([(-2, 0), (2, 0)])
    assert minimize_profile(f) == (0, 0)


def test_minimize_examples():
    L = Lift(1, Fraction(1, 5), 1, 0, 1, 0)
    assert minimize_profile(ord_res_profile(L, 0, P5)) == (-1, 2)
    # two unit-distance-from-1 multipliers: minimum at a half-integer exponent
    L2 = Lift(1, 6, 0, 0, 6, 1)
    argmin, value = minimize_profile(ord_res_profile(L2, -1, P5))
    assert (argmin, value) == (Fraction(1, 2), 0)


def test_minimize_unbounded():
    with pytest.raises(UnboundedProfileError):
        minimize_profile(PLFunction((2,), (0,), ()))
    with pytest.raises(UnboundedProfileError):
        minimize_profile(PLFunction.upper_envelope([(2, 0), (6, 1)]))


def test_minimize_flat_interval():
    # a zero-slope piece has no single minimizer; no ordRes profile has one
    f = PLFunction.upper_envelope([(-2, 0), (0, 2), (2, 0)])
    assert f(-1) == f(0) == f(1) == 2
    with pytest.raises(UnboundedProfileError):
        minimize_profile(f)


def test_plfunction_rejects_unsorted_breakpoints():
    # the pieces meet at both breakpoints and the slopes increase, so only
    # the breakpoint-order check rejects this
    with pytest.raises(ValueError, match="breakpoints must be strictly increasing"):
        PLFunction((-2, 0, 2), (2, 0, 2), (1, -1))


def test_envelope_dominates_lines():
    rng = random.Random(12)
    for _ in range(100):
        lines = [
            (Fraction(rng.randint(-6, 6)), rand_rat(rng, -10, 10, 6))
            for _ in range(rng.randint(1, 6))
        ]
        slopes = {s for s, _ in lines}
        if len(slopes) != len(lines):
            continue
        f = PLFunction.upper_envelope(lines)
        for m in [Fraction(n, 3) for n in range(-15, 16)]:
            assert f(m) == max(s * m + b for s, b in lines)


_huge = st.integers(min_value=-(10**300), max_value=10**300)
_huge_den = st.integers(min_value=1, max_value=10**300)
exact_values = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.booleans(),
    st.integers(),
    _huge,
    st.fractions(),
    st.builds(Fraction, _huge, _huge_den),
    st.builds(FractionSub, _huge, _huge_den),
)


@given(st.lists(exact_values, min_size=6, max_size=6), st.sampled_from((2, 3, 5, 7, 13)))
@settings(max_examples=300)
def test_exact_kernels_match_coercing_oracles(cs, p):
    # vp and _integral read ints and Fractions without Fraction(); they must
    # agree with the coercing versions on ints, bools, Fractions and
    # subclasses, at any height and at 0 (where vp is INF)
    ctx = PrimeCtx(p)
    for c in cs:
        assert vp(c, ctx) == int_vp(c, p)
    ints, L = _integral(cs)
    assert (ints, L) == integral_oracle(cs)
    assert all(type(n) is int for n in ints) and type(L) is int
    res = resultant_forms(tuple(cs[:3]), tuple(cs[3:]))
    assert type(res) is Fraction
    assert res == perm_det(sylvester_rows(cs[:3], cs[3:]))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("x", [2.5, "3/4", " -7 ", Decimal("1.5"), float("inf"), float("nan"), None, "z"])
def test_kernels_coerce_other_types_like_fraction(x):
    # any other input still goes through Fraction(): same result or same error
    assert _outcome(vp, x, P5) == _outcome(int_vp, x, 5)
    assert _outcome(_integral, [x, 1]) == _outcome(integral_oracle, [x, 1])
