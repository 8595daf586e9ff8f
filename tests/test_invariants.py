import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadberk import (
    DegenerateMapError,
    DegenerateMultipliersError,
    InternalInvariantError,
    Lift,
    SigmaInvariants,
    conjugate,
    distinct_fixed_lift,
    lambda3_from,
    multiple_fixed_lift,
    resultant,
    sigma_invariants,
)
from _support import (
    esf3,
    finite_fixed_ints_oracle,
    lagrange_interpolate,
    multiplier_values_oracle,
    perm_det,
    rand_lift,
    milnor_model,
    milnor_resultant,
    milnor_sigmas,
    rand_mobius,
    sigma_four_values_oracle,
    sigma_milnor_oracle,
    sigma_three_values_oracle,
    sylvester_rows,
)

Z_SQUARED = Lift(1, 0, 0, 0, 0, 1)


def test_sigma_squaring_map():
    # multipliers {0, 0, 2} at fixed points {0, infinity, 1}
    assert sigma_invariants(Z_SQUARED).as_tuple() == (2, 0, 0)


def test_sigma_distinct_form():
    # oracle: symmetric functions of (1/3, 2, -1)
    sig = sigma_invariants(distinct_fixed_lift(Fraction(1, 3), 2))
    assert sig.as_tuple() == esf3(Fraction(1, 3), 2, -1)
    assert sig.as_tuple() == (Fraction(4, 3), Fraction(-5, 3), Fraction(-2, 3))


def test_sigma_multiple_form():
    # multipliers (1, 1, 24/25) since s = 1/5 means lambda3 = 1 - 1/25
    sig = sigma_invariants(multiple_fixed_lift(Fraction(1, 5)))
    assert sig.as_tuple() == esf3(1, 1, Fraction(24, 25))
    assert sig.as_tuple() == (Fraction(74, 25), Fraction(73, 25), Fraction(24, 25))


def test_sigma_chebyshev_map_has_a_multiplier_at_the_closed_form_node(monkeypatch):
    # z^2 - 2 has multipliers (4, -2, 0) at (2, -1, infinity), so M(-2) = 0;
    # infinity is fixed (b0 = 0), so it goes through the shift, while its
    # conjugate by 1/z, z^2/(1 - 2z^2), has b0 = -2 and takes the direct branch
    from quadberk import invariants

    closed, seen = invariants._value_at_minus_two, []

    def value_at_minus_two(*args):
        seen.append(closed(*args))
        return seen[-1]

    monkeypatch.setattr(invariants, "_value_at_minus_two", value_at_minus_two)
    for lift in (Lift(1, 0, -2, 0, 0, 1), Lift(1, 0, 0, -2, 0, 1)):
        assert sigma_invariants(lift).as_tuple() == esf3(4, -2, 0) == (2, -8, 0)
    assert seen == [0, 0]


def test_sigma_shift_builds_no_mobius(monkeypatch):
    # infinity is fixed in all three: the shift runs on the integer kernel
    from quadberk import quadmap

    def refuse(*args):
        raise AssertionError("sigma_invariants built a Mobius")

    monkeypatch.setattr(quadmap.Mobius, "__init__", refuse)
    assert sigma_invariants(Z_SQUARED).as_tuple() == (2, 0, 0)
    assert sigma_invariants(multiple_fixed_lift(Fraction(1, 5))).as_tuple() == esf3(
        1, 1, Fraction(24, 25)
    )
    assert sigma_invariants(distinct_fixed_lift(Fraction(1, 3), 2)).as_tuple() == esf3(
        Fraction(1, 3), 2, -1
    )


def test_lambda3_examples():
    assert lambda3_from(Fraction(1, 3), 2) == -1
    assert lambda3_from(0, 0) == 2
    with pytest.raises(DegenerateMultipliersError):
        lambda3_from(2, Fraction(1, 2))


def test_sigma_type_enforces_relation():
    with pytest.raises(InternalInvariantError):
        SigmaInvariants(2, 0, 1)


def test_sigma_conjugation_invariance_seeded():
    rng = random.Random(21)
    for _ in range(150):
        L = rand_lift(rng)
        g = rand_mobius(rng)
        assert sigma_invariants(conjugate(L, g)) == sigma_invariants(L)


def test_sigma3_relation_on_random_lifts():
    rng = random.Random(22)
    for _ in range(200):
        sig = sigma_invariants(rand_lift(rng))
        assert sig.sigma3 == sig.sigma1 - 2


small_rat = st.fractions(min_value=-30, max_value=30, max_denominator=20)


@given(small_rat, small_rat)
@settings(max_examples=300)
def test_sigma_oracle_on_normal_form(l1, l2):
    if l1 * l2 == 1:
        return
    l3 = lambda3_from(l1, l2)
    sig = sigma_invariants(distinct_fixed_lift(l1, l2))
    assert sig.as_tuple() == esf3(l1, l2, l3)
    # each multiplier is an exact root of the multiplier cubic
    cubic = sig.multiplier_cubic()
    for lam in (l1, l2, l3):
        value = sum(c * lam ** (3 - i) for i, c in enumerate(cubic))
        assert value == 0


@given(small_rat)
@settings(max_examples=150)
def test_sigma_oracle_on_multiple_form(s):
    lam3 = 1 - s * s
    sig = sigma_invariants(multiple_fixed_lift(s))
    assert sig.as_tuple() == esf3(1, 1, lam3)


coefficient = st.one_of(
    st.just(Fraction(0)),
    small_rat,
    st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
)


@st.composite
def sigma_lifts(draw):
    """A nondegenerate lift with small or 40-bit coefficients, any of them
    possibly zero, and b0 = 0 (infinity fixed) in about half the draws."""
    cs = draw(st.lists(coefficient, min_size=6, max_size=6))
    if draw(st.booleans()):
        cs[3] = Fraction(0)
    a0, a1, a2, b0, b1, b2 = cs
    assume((a0 * b2 - a2 * b0) ** 2 != (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1))
    return Lift(*cs)


@given(sigma_lifts())
@settings(max_examples=400, deadline=None)
def test_sigma_matches_milnor_closed_form(lift):
    assert sigma_invariants(lift).as_tuple() == sigma_milnor_oracle(lift)


nonzero_40_bit = st.builds(Fraction, st.integers(-(2**40), 2**40).filter(bool), st.integers(2, 2**40))


@st.composite
def lifts_with_denominators(draw):
    """A nondegenerate lift of nonzero 40-bit coefficients with denominators,
    b0 = 0 (infinity fixed) in about half the draws and b0 != 0 otherwise."""
    cs = draw(st.lists(nonzero_40_bit, min_size=6, max_size=6))
    if draw(st.booleans()):
        cs[3] = Fraction(0)
    a0, a1, a2, b0, b1, b2 = cs
    assume((a0 * b2 - a2 * b0) ** 2 != (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1))
    return Lift(*cs)


@given(lifts_with_denominators(), nonzero_40_bit)
@settings(max_examples=200, deadline=None)
def test_sigma_ignores_projective_scaling(lift, c):
    # sigma reads the lift's integers, a multiple of the lift: any multiple gives the same
    assert sigma_invariants(lift.scaled(c)) == sigma_invariants(lift)


@given(milnor_sigmas)
@settings(max_examples=300, deadline=None)
def test_sigma_of_milnor_model_gives_back_its_point(sigmas):
    # infinity is not fixed, so sigma takes its general path; the round trip
    # checks sigma off the normal forms, independently of Milnor's quartics
    model = milnor_model(*sigmas)
    assert resultant(model) == milnor_resultant(*sigmas)
    assert sigma_invariants(model).as_tuple() == (*sigmas, sigmas[0] - 2)


@pytest.mark.parametrize("sigmas", [(2, 0), (3, 3), (3, Fraction(-15, 4))])
def test_milnor_model_is_degenerate_on_the_resultant_cubic(sigmas):
    assert milnor_resultant(*sigmas) == 0
    with pytest.raises(DegenerateMapError):
        milnor_model(*sigmas)


def test_sigma_checks_its_cubic(monkeypatch):
    # the check must survive python -O, so it may not be an assert
    from quadberk import invariants

    exact = invariants._det

    def quadratic_first(rows):
        # M(t) = t^2 + 1 on the first two calls, M(0) and M(1), the true
        # values after: a retry would then succeed
        nonlocal calls
        t, calls = calls, calls + 1
        return t * t + 1 if t < 2 else exact(rows)

    monkeypatch.setattr(invariants, "_det", quadratic_first)
    for lift in (distinct_fixed_lift(Fraction(1, 3), 2), Lift(1, 2, 3, 4, 5, 7)):
        calls = 0
        with pytest.raises(InternalInvariantError):
            sigma_invariants(lift)
        assert calls == 2


@pytest.mark.parametrize("lift", [
    distinct_fixed_lift(Fraction(1, 3), 2), Lift(1, 2, 3, 4, 5, 7), Z_SQUARED,
], ids=["normal-form", "finite-fixed", "infinity-fixed"])
def test_sigma_checks_each_value_against_the_resultant(monkeypatch, lift):
    # sigma3 = sigma1 - 2 reads 9*M(0) = 2*M(1) + M(-2) + 18*lead: one value
    # off by one, whichever, raises; M(0) and M(1) are the two _det calls,
    # M(-2) the closed form; the check may not be an assert (-O)
    from quadberk import invariants

    calls, off_by = [], {}

    def off(name):
        exact = getattr(invariants, name)

        def value(*args):
            calls.append(name)
            return exact(*args) + off_by.get(len(calls) - 1, 0)
        monkeypatch.setattr(invariants, name, value)

    off("_det")
    off("_value_at_minus_two")
    assert sigma_invariants(lift).as_tuple() == sigma_milnor_oracle(lift)
    assert calls == ["_det", "_det", "_value_at_minus_two"]
    for i in range(3):
        for delta in (1, -1):
            calls.clear()
            off_by.clear()
            off_by[i] = delta
            with pytest.raises(InternalInvariantError):
                sigma_invariants(lift)
            assert len(calls) == 3


small_entries = st.integers(-50, 50) | st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


@st.composite
def square_matrices(draw):
    """An n x n matrix, n = 1..5, of ints and Fractions: unconstrained, with
    a zero first pivot (a row swap, or no pivot at all), or singular (one
    row a multiple of another; for n = 1, the zero matrix)."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(small_entries, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(("any", "zero pivot", "singular")))
    if shape == "zero pivot":
        rows[0][0] = 0
    elif shape == "singular":
        if n == 1:
            rows[0][0] = 0
        else:
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(small_entries)
            rows[j] = [c * x for x in rows[i]]
    return rows


@given(square_matrices())
@settings(max_examples=400, deadline=None)
def test_det_matches_permutation_expansion(rows):
    from quadberk import invariants

    before = [list(row) for row in rows]
    det = invariants._det(rows)
    assert type(det) is Fraction and det == perm_det(rows)
    # the elimination works on a copy: the caller's rows are unchanged
    assert rows == before


@st.composite
def finite_fixed_ints(draw):
    """Six integers with b0 != 0 (infinity not fixed) and a nonzero
    resultant; a2 = 0 (z = 0 fixed), a1 = t*b2 for some t in {-2, 0, 1, 2, 3}
    (a zero constant term in A - t*B), or both (z = 0 fixed with multiplier
    t, so M(t) = 0: a Sylvester matrix of sigma's is singular when t is 0 or
    1, and the closed form M(-2) is 0 when t = -2) in about a quarter of the
    draws each."""
    big = st.integers(-(2**30), 2**30)
    a0, a1, a2, b1, b2 = (draw(big) for _ in range(5))
    b0 = draw(big.filter(bool))
    shape = draw(st.sampled_from(("any", "a2 = 0", "a1 = t*b2", "a2 = 0, a1 = t*b2")))
    if shape.startswith("a2 = 0"):
        a2 = 0
    if shape.endswith("a1 = t*b2"):
        a1 = draw(st.sampled_from((-2, 0, 1, 2, 3))) * b2
    assume((a0 * b2 - a2 * b0) ** 2 != (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1))
    return [a0, a1, a2, b0, b1, b2]


@given(finite_fixed_ints())
@settings(max_examples=200, deadline=None)
def test_sigma_resultants_match_generic_sylvester(ints):
    # the three values M(0), M(1), M(-2) are Res_z(P, A - t*B), against the
    # permutation expansion of the generic Sylvester matrix, and the lead is
    # -b0 times the permutation expansion of Res(F, G)
    from quadberk import invariants

    expected = multiplier_values_oracle(ints, (0, 1, -2))
    lead = -ints[3] * perm_det(sylvester_rows(ints[:3], ints[3:]))
    seen = []
    table = invariants._difference_table

    def recording(*values):
        seen.append(values)
        return table(*values)

    with mock.patch.object(invariants, "_difference_table", recording):
        sigma_invariants(Lift(*ints))
    assert seen == [(*expected, lead)]


@st.composite
def infinity_fixed_lifts(draw):
    """finite_fixed_ints with b0 set to 0, kept when still nondegenerate."""
    a0, a1, a2, _, b1, b2 = draw(finite_fixed_ints())
    assume((a0 * b2) ** 2 != a0 * b1 * (a1 * b2 - a2 * b1))
    return Lift(a0, a1, a2, 0, b1, b2)


@given(st.one_of(finite_fixed_ints().map(lambda ints: Lift(*ints)), infinity_fixed_lifts()))
@settings(max_examples=200, deadline=None)
def test_sigma_matches_the_four_value_oracle(lift):
    sigma = sigma_invariants(lift).as_tuple()
    assert sigma == sigma_four_values_oracle(lift) == sigma_milnor_oracle(lift)
    assert sigma == sigma_three_values_oracle(lift)
    # M(2) and M(3), which sigma no longer reads, are on the cubic through
    # the three it reads with the lead -b0*Res
    ints = finite_fixed_ints_oracle(lift)
    nodes = (0, 1, -2, 2, 3)
    values = multiplier_values_oracle(ints, nodes)
    lead = -ints[3] * perm_det(sylvester_rows(ints[:3], ints[3:]))
    m0, m1, m2 = (lagrange_interpolate([(t, y - lead * t**3) for t, y in zip(nodes[:3], values)])
                  + [0, 0, 0])[:3]
    for t, y in zip(nodes[3:], values[3:]):
        assert y == lead * t**3 + m2 * t**2 + m1 * t + m0


@st.composite
def values_and_lead(draw):
    """Three integers up to 2^200 and a nonzero lead up to 2^200."""
    big = st.integers(-(2**200), 2**200)
    return draw(big), draw(big), draw(big), draw(big.filter(bool))


@given(values_and_lead())
@settings(max_examples=300, deadline=None)
def test_difference_table_matches_lagrange(args):
    # the cubic with the given lead through (0, y0), (1, y1) and (-2, ym):
    # Lagrange through the values less lead*t^3, then the lead put back
    from quadberk import invariants

    *values, lead = args
    quadratic = lagrange_interpolate([(t, y - lead * t**3) for t, y in zip((0, 1, -2), values)])
    expected = [6 * c for c in quadratic] + [0] * (3 - len(quadratic)) + [6 * lead]
    assert list(invariants._difference_table(*values, lead)) == expected


def test_sigma_checks_its_shift(monkeypatch):
    # the integer conjugate off infinity must have the carried resultant
    # exactly (its matrix has determinant -1), so a wrong shift raises
    # instead of giving a sigma, degenerate or not: a kernel bug, not an
    # input error; not an assert, as -O would drop it
    from quadberk import invariants

    exact = invariants._conjugate_ints
    monkeypatch.setattr(invariants, "_conjugate_ints", lambda ints, *matrix: [1, 0, 0, 1, 0, 0])
    with pytest.raises(InternalInvariantError):
        sigma_invariants(Z_SQUARED)
    # coefficient 0 one too large: sigma3 = sigma1 - 2 still holds on the
    # wrong integers, and z + 1/5 + 1/z would read (77/27, 73/27, 23/27)
    monkeypatch.setattr(invariants, "_conjugate_ints",
                        lambda ints, *matrix: [exact(ints, *matrix)[0] + 1, *exact(ints, *matrix)[1:]])
    with pytest.raises(InternalInvariantError) as exc_info:
        sigma_invariants(multiple_fixed_lift(Fraction(1, 5)))
    details = exc_info.value.details
    assert details["resultant"] != details["expected_resultant"] == multiple_fixed_lift(Fraction(1, 5))._res
