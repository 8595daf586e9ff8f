import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from quadberk import (
    CentersMissXiError,
    ConsistencyFailure,
    DegenerateMultipliersError,
    Mobius,
    NotNormalFormError,
    PrimeCtx,
    ResidueKind,
    TypeIIPoint,
    UnboundedProfileError,
    conjugate,
    distinct_fixed_lift,
    find_crucial_on_segment,
    identify_normal_form,
    lambda3_from,
    minimize_profile,
    multiple_fixed_lift,
    ord_res_at,
    ord_res_profile,
    parse_map,
    predict_xi_distinct_fixed,
    predict_xi_multiple_fixed,
    sigma_invariants,
    verify_consistency,
    vp,
)
from quadberk.classifier import _pole_order
from _support import (
    CASES, case_instance as _case_instance, conjugated_normal_forms, conjugation_cases, esf3, milnor_model,
    milnor_sigmas, normal_form_corpus, ord_res_profile_oracle, profile_lines_oracle,
    profile_minimum_oracle, rand_lift, rand_unit,
)

P3, P5 = PrimeCtx(3), PrimeCtx(5)


def test_predict_multiple_fixed_repelling_lambda3():
    report = predict_xi_multiple_fixed(Fraction(1, 5), P5)
    assert report.xi == TypeIIPoint(0, -1)
    assert report.stratum.tag == "W3"
    assert report.residue_class.kind is ResidueKind.ADDITIVE
    assert report.min_ord_res == 2


def test_predict_multiple_fixed_integral_lambda3():
    report = predict_xi_multiple_fixed(1, P5)
    assert report.xi == TypeIIPoint(0, 0)
    assert report.stratum.tag == "W1"
    assert report.residue_class.kind is ResidueKind.REPELLING
    assert report.min_ord_res == 0


def test_predict_multiple_fixed_unit_lambda3():
    # s = 5: lambda3 = -24 is a 5-unit, so the Gauss point still wins
    report = predict_xi_multiple_fixed(5, P5)
    assert report.xi == TypeIIPoint(0, 0)
    assert report.stratum.tag == "W1"
    # oracle: the profile minimum really sits at m = 0
    argmin, value = find_crucial_on_segment(multiple_fixed_lift(5), 0, P5)
    assert (argmin, value) == (0, 0) == (report.xi.radius_exp, report.min_ord_res)


def test_predict_distinct_multiplicative():
    report = predict_xi_distinct_fixed(Fraction(1, 3), 2, P3)
    assert report.xi == TypeIIPoint(0, -1)
    assert report.stratum.tag == "W2" and report.stratum.x_tilde == 1
    assert report.residue_class.kind is ResidueKind.MULTIPLICATIVE
    assert report.residue_class.x_tilde == 1


def test_predict_distinct_constant():
    report = predict_xi_distinct_fixed(Fraction(1, 9), 3, P3)
    assert report.xi == TypeIIPoint(0, -2)
    assert report.stratum.tag == "W4"
    assert report.residue_class.kind is ResidueKind.MOVED


def test_predict_distinct_all_residues_one():
    report = predict_xi_distinct_fixed(6, 6, P5)
    assert report.xi == TypeIIPoint(-1, Fraction(1, 2))
    assert report.stratum.tag == "W1"
    assert report.residue_class is None
    assert "half-integer" in report.residue_unavailable
    assert report.min_ord_res == 0


def test_predict_distinct_degenerate_pair():
    with pytest.raises(DegenerateMultipliersError):
        predict_xi_distinct_fixed(2, Fraction(1, 2), P5)


def test_predict_distinct_repairs_unit_product():
    # residues (1, 1, 0) with l1*l2 = 1 mod p and no repelling multiplier:
    # re-paired as (l1, l3) = (6, 5/29), whose product is 1 + a unit mod 5
    report = predict_xi_distinct_fixed(6, 121, P5)
    assert report.lift == distinct_fixed_lift(6, Fraction(5, 29))
    assert report.xi == TypeIIPoint(0, 0)
    assert report.stratum.tag == "W1"
    assert report.residue_class.kind is ResidueKind.REPELLING
    assert report.min_ord_res == 0
    # every map of this case verifies as W1 at the Gauss point
    rng = random.Random(0x6A9)
    for p in (2, 3, 5, 7):
        ctx, found = PrimeCtx(p), 0
        while found < 25:
            l1, l2 = (1 + Fraction(p) ** rng.randint(1, 2) * rand_unit(rng, p) for _ in range(2))
            if l1 * l2 == 1 or vp(lambda3_from(l1, l2), ctx) < 0 or vp(lambda3_from(l1, l2) - 1, ctx) > 0:
                continue
            report = verify_consistency(distinct_fixed_lift(l1, l2), ctx)
            assert (report.stratum.tag, report.xi, report.min_ord_res) == ("W1", TypeIIPoint(0, 0), 0)
            found += 1


@st.composite
def _multiplier(draw, p):
    """0 or 1 plus p^e times a small rational, so that residues 0 and 1 and
    every valuation band are drawn often."""
    scale = Fraction(p) ** draw(st.integers(-2, 2))
    return draw(st.sampled_from((0, 1))) + scale * draw(st.fractions(-20, 20, max_denominator=20))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_verify_distinct_form_is_total(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    l1, l2 = data.draw(_multiplier(p)), data.draw(_multiplier(p))
    assume(l1 * l2 != 1)
    verify_consistency(distinct_fixed_lift(l1, l2), PrimeCtx(p))


def test_predict_reorders_repelling_pair():
    # l1 integral, l2 repelling: prediction swaps them into convention
    report = predict_xi_distinct_fixed(3, Fraction(1, 9), P3)
    assert report.lift == distinct_fixed_lift(Fraction(1, 9), 3)
    assert report.xi == TypeIIPoint(0, -2)
    assert report.stratum.tag == "W4"


def test_find_crucial_examples():
    assert find_crucial_on_segment(
        multiple_fixed_lift(0), 0, P5
    ) == (0, 0)
    L = multiple_fixed_lift(Fraction(1, 5))
    assert find_crucial_on_segment(L, 0, P5) == (-1, 2)
    L2 = distinct_fixed_lift(Fraction(1, 3), 2)
    argmin, value = find_crucial_on_segment(L2, 0, P3)
    assert argmin == -1
    assert value == ord_res_at(L2, TypeIIPoint(0, -1), P3)


def test_find_crucial_against_grid_oracle():
    rng = random.Random(51)
    for p in (2, 3, 5, 7, 13):
        ctx = PrimeCtx(p)
        for _ in range(40):
            e = rng.randint(1, 3)
            l1 = Fraction(p) ** (-e) * rand_unit(rng, p)
            l2 = Fraction(p) ** rng.randint(0, 2) * rand_unit(rng, p)
            if l1 * l2 == 1:
                continue
            L = distinct_fixed_lift(l1, l2)
            argmin, value = find_crucial_on_segment(L, 0, ctx)
            grid = {m: ord_res_at(L, TypeIIPoint(0, m), ctx) for m in range(-5, 6)}
            best = min(grid, key=lambda m: (grid[m], m))
            assert argmin == best and value == grid[best]


def test_verify_worked_examples():
    report = verify_consistency(multiple_fixed_lift(Fraction(1, 5)), P5)
    assert report.sigma.as_tuple() == (Fraction(74, 25), Fraction(73, 25), Fraction(24, 25))
    assert report.stratum.tag == "W3"
    assert report.residue_class.kind is ResidueKind.ADDITIVE
    assert report.xi == TypeIIPoint(0, -1)

    report = verify_consistency(multiple_fixed_lift(0), PrimeCtx(7))
    assert report.stratum.tag == "W1"
    assert report.residue_class.kind is ResidueKind.REPELLING
    assert report.xi == TypeIIPoint(0, 0) and report.min_ord_res == 0

    report = verify_consistency(distinct_fixed_lift(Fraction(1, 9), 3), P3)
    assert report.stratum.tag == "W4"
    assert report.residue_class.kind is ResidueKind.MOVED
    assert report.xi == TypeIIPoint(0, -2)


def test_verify_squaring_map_is_distinct_form():
    # z^2 is the distinct normal form with both parameters zero
    from quadberk import Lift

    z2 = Lift(1, 0, 0, 0, 0, 1)
    assert identify_normal_form(z2) == ("distinct", 0, 0)
    report = verify_consistency(z2, PrimeCtx(7))
    assert report.stratum.tag == "W1"
    assert report.xi == TypeIIPoint(0, 0) and report.min_ord_res == 0
    assert report.residue_class.kind is ResidueKind.REPELLING


def test_verify_requires_normal_form_or_centers():
    # z^2 + 1 is in neither normal form (irrational finite fixed points)
    from quadberk import Lift

    plus_one = Lift(1, 0, 1, 0, 0, 1)
    assert identify_normal_form(plus_one) is None
    with pytest.raises(NotNormalFormError):
        verify_consistency(plus_one, PrimeCtx(7))
    report = verify_consistency(plus_one, PrimeCtx(7), centers=[0, 1])
    assert report.stratum.tag == "W1"
    assert report.xi == TypeIIPoint(0, 0)
    assert report.residue_class.kind is ResidueKind.REPELLING


def test_verify_with_centers_dumps_the_centers(monkeypatch):
    from quadberk import Lift, ResidueClass, crucial

    monkeypatch.setattr(crucial, "classify_residue", lambda residue: ResidueClass(ResidueKind.MOVED))
    plus_one = Lift(1, 0, 1, 0, 0, 1)
    with pytest.raises(ConsistencyFailure) as exc_info:
        verify_consistency(plus_one, PrimeCtx(7), centers=[0, 1])
    details = exc_info.value.details
    assert list(details) == ["lift", "p", "centers", "xi", "stratum", "residue_class"]
    assert details["centers"] == [0, 1] and details["xi"] == TypeIIPoint(0, 0)


def test_prediction_and_profile_search_checks(monkeypatch):
    # a profile argmin one off the predicted xi fails in _complete_report,
    # whether the prediction is called directly or through verify_consistency
    from quadberk import crucial

    search = crucial.find_crucial_on_segment

    def off_by_one(lift, center, ctx):
        argmin, value = search(lift, center, ctx)
        return argmin + 1, value

    monkeypatch.setattr(crucial, "find_crucial_on_segment", off_by_one)
    calls = [
        lambda: predict_xi_multiple_fixed(Fraction(1, 5), P5),
        lambda: predict_xi_distinct_fixed(Fraction(1, 3), 2, P3),
        lambda: verify_consistency(multiple_fixed_lift(Fraction(1, 5)), P5),
        lambda: verify_consistency(distinct_fixed_lift(6, 6), P5),
    ]
    for call in calls:
        with pytest.raises(ConsistencyFailure) as exc_info:
            call()
        details = exc_info.value.details
        assert details["argmin"] == details["xi"].radius_exp + 1


def test_verify_checks_min_ord_res_against_sigma(monkeypatch):
    # a profile minimum one above sigma's -mu, at the right argmin, passes
    # _complete_report and fails the sigma-only route of verify_consistency
    from quadberk import quadmap

    minimum = quadmap.minimize_profile

    def one_more(lines):
        argmin, value = minimum(lines)
        return argmin, value + 1

    monkeypatch.setattr(quadmap, "minimize_profile", one_more)
    cases = [
        (multiple_fixed_lift(Fraction(1, 5)), P5),
        (distinct_fixed_lift(6, 6), P5),
        (distinct_fixed_lift(Fraction(1, 3), 2), P3),
    ]
    for lift, ctx in cases:
        with pytest.raises(ConsistencyFailure) as exc_info:
            verify_consistency(lift, ctx)
        details = exc_info.value.details
        assert details["lift"] == lift and details["p"] == ctx.p
        assert details["min_ord_res"] == details["minus_mu"] + 1


def test_verify_checks_the_route_sigma_against_sylvester(monkeypatch, capsys):
    # C1 + C3 in the difference table makes the Sylvester sigma2 one too
    # large while sigma3 = sigma1 - 2 still holds: only the comparison with
    # the prediction's multiplier sigma sees it, on every family, and the
    # CLI exits 2 with both sigma in the dump
    import json

    from quadberk import invariants
    from quadberk.cli import run

    table = invariants._difference_table

    def sigma2_plus_one(*args):
        c0, c1, c2, c3 = table(*args)
        return c0, c1 + c3, c2, c3

    monkeypatch.setattr(invariants, "_difference_table", sigma2_plus_one)
    rng = random.Random(28)
    for kind in CASES:
        ctx = P5 if kind == "Bi" else PrimeCtx(rng.choice((2, 3, 5, 7)))
        lift = _case_instance(kind, rng, ctx.p, ctx)
        with pytest.raises(ConsistencyFailure) as exc_info:
            verify_consistency(lift, ctx)
        assert type(exc_info.value) is ConsistencyFailure
        details = exc_info.value.details
        (s1, s2, s3), route = details["sigma"], details["route_sigma"]
        assert (s1, s2 - 1, s3) == route == _multiplier_sigma(lift)

    assert run(["verify", "-p", "5", "--map", "z + 1/5 + 1/z", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is False
    assert payload["details"]["sigma"] == ["74/25", "98/25", "24/25"]
    assert payload["details"]["route_sigma"] == ["74/25", "73/25", "24/25"]


def test_normal_form_verify_builds_one_profile(monkeypatch):
    # one profile search per verify, on the integer lines: ord_res_profile
    # is for the profile command
    from quadberk import quadmap

    lines, calls = quadmap._profile_lines, []

    def counted(*args):
        calls.append(args)
        return lines(*args)

    def refuse(*args):
        raise AssertionError("the verify path called ord_res_profile")

    monkeypatch.setattr(quadmap, "_profile_lines", counted)
    monkeypatch.setattr(quadmap, "ord_res_profile", refuse)
    cases = [(multiple_fixed_lift(Fraction(1, 5)), P5), (multiple_fixed_lift(1), P5),
             (distinct_fixed_lift(Fraction(1, 3), 2), P3), (distinct_fixed_lift(3, Fraction(1, 9)), P3),
             (distinct_fixed_lift(6, 6), P5), (distinct_fixed_lift(6, 121), P5)]
    for lift, ctx in cases:
        calls.clear()
        verify_consistency(lift, ctx)
        assert len(calls) == 1


@st.composite
def _segment_cases(draw):
    """A random lift or a map of one of the seven families, a rational
    center (often 0 or -1, where the families put xi) and p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    ctx = PrimeCtx(p)
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("random",) + CASES))
    # Bi needs a unit residue outside {0, 1}: empty over F_2
    assume(not (kind == "Bi" and p == 2))
    lift = rand_lift(rng) if kind == "random" else _case_instance(kind, rng, p, ctx)
    scaled = st.builds(lambda e, f: Fraction(p) ** e * f, st.integers(-4, 4),
                       st.fractions(-60, 60, max_denominator=60))
    center = draw(st.one_of(st.sampled_from((0, -1)), scaled))
    return lift, center, ctx


@given(_segment_cases())
@settings(max_examples=400, deadline=None)
def test_find_crucial_matches_profile_oracle(case):
    lift, center, ctx = case
    found = find_crucial_on_segment(lift, center, ctx)
    expected = minimize_profile(ord_res_profile_oracle(lift, center, ctx)[0])
    assert found == expected == minimize_profile(ord_res_profile(lift, center, ctx))
    assert all(type(x) is Fraction for x in found + expected)


def test_profile_minimum_checks_both_signs():
    for lines in ({}, {-6: 0, -2: 5}, {2: 1, 6: -3}):
        with pytest.raises(UnboundedProfileError):
            minimize_profile(lines.items())
    # the largest crossing wins: -2m + 1 meets 6m - 5 at m = 3/4, value -1/2
    found = minimize_profile({-6: 0, -2: 1, 2: -4, 6: -5}.items())
    assert found == (Fraction(3, 4), Fraction(-1, 2))
    assert all(type(x) is Fraction for x in found)


@given(conjugation_cases())
@settings(max_examples=300, deadline=None)
def test_find_crucial_matches_pairwise_crossing_oracle(case):
    lift, point, ctx = case
    found = find_crucial_on_segment(lift, point.center, ctx)
    assert found == profile_minimum_oracle(profile_lines_oracle(lift, point.center, ctx))
    assert all(type(x) is Fraction for x in found)


# at p = 2 this map has xi = (-5/2, 0) with ordRes 0 = -mu, and the
# segment at center 0 reaches only ordRes 2
_MISSED = "(z^2 - 355/18*z - 491/9)/(z + 5/2)"


def test_verify_names_centers_that_miss_xi():
    lift, p2 = parse_map(_MISSED), PrimeCtx(2)
    with pytest.raises(CentersMissXiError, match=r"the best, 0, has minimum ordRes 2, above -mu = 0"):
        verify_consistency(lift, p2, centers=[0])
    for centers in ([Fraction(-5, 2)], [0, Fraction(-5, 2)]):
        report = verify_consistency(lift, p2, centers=centers)
        assert report.xi == TypeIIPoint(Fraction(-5, 2), 0) and report.min_ord_res == 0
        assert report.residue_class.kind is ResidueKind.REPELLING


def test_verify_centers_checks_min_ord_res_against_sigma(monkeypatch):
    # a centers minimum below -mu is a bug, not an input error: ordRes >= -mu
    # everywhere on the Berkovich line
    from quadberk import crucial

    minus_mu = crucial._pole_order
    monkeypatch.setattr(crucial, "_pole_order", lambda sigma, p: minus_mu(sigma, p) + 1)
    with pytest.raises(ConsistencyFailure) as exc_info:
        verify_consistency(parse_map(_MISSED), PrimeCtx(2), centers=[0, Fraction(-5, 2)])
    details = exc_info.value.details
    assert not isinstance(exc_info.value, CentersMissXiError)
    assert (details["min_ord_res"], details["minus_mu"], details["argmin"]) == (0, 1, 0)
    assert details["centers"] == [0, Fraction(-5, 2)]


def _multiplier_sigma(phi) -> tuple:
    """esf3 of the multipliers a normal form is built from, read off
    identify_normal_form: (1, 1, 1 - s^2), or (l1, l2, l3) with l3 written
    out as (l1 + l2 - 2)/(l1*l2 - 1)."""
    form = identify_normal_form(phi)
    if form[0] == "multiple":
        return esf3(1, 1, 1 - form[1] ** 2)
    _, l1, l2 = form
    return esf3(l1, l2, (l1 + l2 - 2) / (l1 * l2 - 1))


def _same_answer(report, expected):
    """min ordRes, the stratum and the residue kind, or its absence, agree."""
    assert report.min_ord_res == expected.min_ord_res
    assert report.stratum == expected.stratum
    assert (report.residue_class is None) == (expected.residue_class is None)
    if report.residue_class is not None:
        assert report.residue_class.kind is expected.residue_class.kind


@given(conjugated_normal_forms(affine=False), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_with_one_center_answers_or_names_the_miss(case, data):
    phi, conj, _, ctx = case
    assume(identify_normal_form(conj) is None)
    p = ctx.p
    center = data.draw(st.sampled_from((0, -1, p, Fraction(1, p)))) + data.draw(
        st.fractions(-9, 9, max_denominator=6))
    try:
        report = verify_consistency(conj, ctx, centers=[center])
    except CentersMissXiError:
        return
    _same_answer(report, verify_consistency(phi, ctx))


@given(conjugated_normal_forms(affine=True))
@settings(max_examples=200, deadline=None)
def test_verify_at_the_affine_images_of_the_normal_form_centers(case):
    # gamma(z) = A*z + B carries the segments from gamma^(-1)(0) and
    # gamma^(-1)(-1) onto those from 0 and -1, so the centers reach xi
    phi, conj, centers, ctx = case
    assert sigma_invariants(conj) == sigma_invariants(phi)
    assert sigma_invariants(conj).as_tuple() == _multiplier_sigma(phi)
    _same_answer(verify_consistency(conj, ctx, centers=centers), verify_consistency(phi, ctx))


@given(conjugated_normal_forms(affine=False))
@settings(max_examples=200, deadline=None)
def test_verify_at_the_mobius_images_of_the_normal_form_centers(case):
    # a general gamma moves the segments' other end off infinity, so the
    # centers may miss xi, and then the miss is named; it also moves
    # infinity off its fixed point (b0 != 0 in general), so sigma takes its
    # unshifted branch
    phi, conj, centers, ctx = case
    assert sigma_invariants(conj).as_tuple() == _multiplier_sigma(phi)
    assume(identify_normal_form(conj) is None)
    try:
        report = verify_consistency(conj, ctx, centers=centers)
    except CentersMissXiError:
        return
    _same_answer(report, verify_consistency(phi, ctx))


@given(milnor_sigmas, st.fractions(-9, 9, max_denominator=12))
@settings(max_examples=200, deadline=None)
def test_verify_on_milnor_models_answers_minus_mu_or_names_the_miss(sigmas, center):
    # off the two normal forms: at every point ordRes >= -mu, so no profile
    # dips below it, and centers that reach -mu have found xi
    lift = milnor_model(*sigmas)
    sigma = sigma_invariants(lift)
    centers = [0, -1, center]
    for p in (2, 3, 5, 7):
        ctx, minus_mu = PrimeCtx(p), _pole_order(sigma, p)
        assert all(find_crucial_on_segment(lift, c, ctx)[1] >= minus_mu for c in centers)
        try:
            report = verify_consistency(lift, ctx, centers=centers)
        except CentersMissXiError:
            continue
        assert report.min_ord_res == minus_mu


def test_identify_normal_form():
    assert identify_normal_form(multiple_fixed_lift(Fraction(2, 7))) == (
        "multiple",
        Fraction(2, 7),
    )
    assert identify_normal_form(distinct_fixed_lift(Fraction(1, 3), 2)) == (
        "distinct",
        Fraction(1, 3),
        Fraction(2),
    )
    scaled = distinct_fixed_lift(Fraction(1, 3), 2).scaled(3)
    assert identify_normal_form(scaled) == ("distinct", Fraction(1, 3), Fraction(2))



def test_prediction_matches_search_per_case():
    # per-case agreement between the closed form and the segment search:
    # verify_consistency raises ConsistencyFailure on any disagreement
    for kind, p, lift in normal_form_corpus(52, 1000):
        if kind in CASES:
            verify_consistency(lift, PrimeCtx(p))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: xi is reported in the "
                   "coordinates of report.lift, a reordered normal form, not the input's")
def test_verify_reports_xi_in_the_input_coordinates():
    # the input's own profile at the printed center has its argmin at 2 and
    # -1, where verify prints -2
    for text in ("(z^2+3*z)/(z/9+1)", "(z^2 - 1/3*z)/(69/16*z + 1)"):
        lift = parse_map(text)
        report = verify_consistency(lift, P3)
        found = find_crucial_on_segment(lift, report.xi.center, P3)
        assert found == (report.xi.radius_exp, report.min_ord_res)


def test_profile_minimizer_is_unique_point_on_normal_forms():
    rng = random.Random(53)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 13))
        ctx = PrimeCtx(p)
        kind = rng.choice(CASES)
        if kind == "Bi" and p == 2:
            continue
        lift = _case_instance(kind, rng, p, ctx)
        report = verify_consistency(lift, ctx)
        argmin, _ = find_crucial_on_segment(report.lift, report.xi.center, ctx)
        assert isinstance(argmin, Fraction)


def test_equivariance_under_scaling_conjugation():
    rng = random.Random(54)
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7, 13))
        ctx = PrimeCtx(p)
        kind = rng.choice(("Bi", "Bii", "Biii", "P1B"))
        if kind == "Bi" and p == 2:
            continue
        lift = _case_instance(kind, rng, p, ctx)
        argmin, value = find_crucial_on_segment(lift, 0, ctx)
        # conjugating by z -> p*z re-parametrizes the segment by m -> m + 1,
        # so the argmin shifts by exactly one
        moved = conjugate(lift, Mobius.affine(p, 0))
        argmin2, value2 = find_crucial_on_segment(moved, 0, ctx)
        assert argmin2 == argmin - 1
        assert value2 == value


def test_consistency_failure_reports_details():
    with pytest.raises(ConsistencyFailure) as exc_info:
        raise ConsistencyFailure("boom", {"p": 5})
    assert "boom" in str(exc_info.value) and "p" in str(exc_info.value)
