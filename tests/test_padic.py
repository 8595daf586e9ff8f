import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadberk import (
    INF,
    NegativeValuationError,
    PrimeCtx,
    ZeroConstantError,
    ZeroLeadingError,
    newton_slopes,
    reduce_residue,
    vp,
)
from quadberk.padic import _MR_BASES, MR_BOUND, _is_prime
from _support import exhaustive_inverse, expand_monic, int_vp, newton_slopes_oracle, trial_division_is_prime

P5 = PrimeCtx(5)
P3 = PrimeCtx(3)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=200)


def test_prime_ctx_rejects_composites():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeCtx(bad)
    PrimeCtx(2), PrimeCtx(97)


def test_primality_matches_trial_division():
    assert all(_is_prime(n) == trial_division_is_prime(n) for n in range(100_000))


def test_large_prime_accepted_quickly():
    start = time.perf_counter()
    assert PrimeCtx(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0


def test_pseudoprimes_rejected():
    # Carmichael numbers and strong pseudoprimes; the last is the smallest
    # strong pseudoprime to all of the first 12 prime bases
    for n in (561, 2047, 41041, 3215031751, 3825123056546413051,
              318665857834031151167461):
        with pytest.raises(ValueError):
            PrimeCtx(n)


def test_miller_rabin_bases_are_the_first_13_primes():
    # MR_BOUND is exact for these bases only, and a changed base can still
    # reject every pseudoprime above: 42 is a witness for the last of them
    primes = [n for n in range(2, 50) if trial_division_is_prime(n)]
    assert _MR_BASES == tuple(primes[:13])


def test_primality_bound():
    assert PrimeCtx(MR_BOUND - 168).p == MR_BOUND - 168  # the largest prime below it
    with pytest.raises(ValueError, match="too large"):
        PrimeCtx(MR_BOUND)
    with pytest.raises(ValueError, match="too large"):
        PrimeCtx(2**89 - 1)  # a prime beyond the bound


def test_vp_examples():
    assert vp(Fraction(24, 25), P5) == -2
    assert vp(0, P5) == INF
    assert vp(Fraction(74, 25), P5) == -2


def test_vp_random_sampling_against_reference():
    rng = random.Random(0xA1)
    for _ in range(10_000):
        x = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
        y = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
        p = rng.choice((2, 3, 5, 7, 13))
        ctx = PrimeCtx(p)
        assert vp(x, ctx) == int_vp(x, p)
        if x != 0 and y != 0:
            assert vp(x * y, ctx) == vp(x, ctx) + vp(y, ctx)
            lhs = vp(x + y, ctx)
            lo = min(vp(x, ctx), vp(y, ctx))
            assert lhs >= lo
            if vp(x, ctx) != vp(y, ctx):
                assert lhs == lo


@given(
    st.sampled_from((2, 3, 5, 7, 13)),
    st.integers(0, 5000),
    st.integers(0, 5000),
    st.integers(1, 2**64),
    st.integers(1, 2**64),
    st.sampled_from((1, -1)),
)
@settings(max_examples=200, deadline=None)
def test_vp_of_high_powers_against_reference(p, v, w, u, t, sign):
    # u * p^v / (t * p^w) for a unit part that may itself hold a few factors of p
    x = Fraction(sign * u * p**v, t * p**w)
    assert vp(x, PrimeCtx(p)) == int_vp(x, p)


def test_vp_of_a_huge_power_is_quick():
    start = time.perf_counter()
    assert vp(7 * 5**100_000, P5) == 100_000
    assert vp(Fraction(-3, 2**50_000), PrimeCtx(2)) == -50_000
    assert time.perf_counter() - start < 1.0


@given(rationals, rationals)
def test_vp_ultrametric(x, y):
    if x == 0 or y == 0:
        return
    assert vp(x * y, P5) == vp(x, P5) + vp(y, P5)
    if x + y != 0:
        assert vp(x + y, P5) >= min(vp(x, P5), vp(y, P5))


def test_reduce_residue_examples():
    assert reduce_residue(73, P5) == 3
    # oracle: exhaustive search for 3^(-1) mod 5
    expected = 2 * exhaustive_inverse(3, 5) % 5
    assert expected == 4
    assert reduce_residue(Fraction(2, 3), P5) == expected
    with pytest.raises(NegativeValuationError):
        reduce_residue(Fraction(1, 5), P5)


@given(rationals, rationals)
@settings(max_examples=200)
def test_reduce_residue_is_ring_hom(x, y):
    if vp(x, P5) < 0 or vp(y, P5) < 0:
        return
    rx, ry = reduce_residue(x, P5), reduce_residue(y, P5)
    assert reduce_residue(x + y, P5) == (rx + ry) % 5
    assert reduce_residue(x * y, P5) == (rx * ry) % 5


def _root_valuations(coeffs, ctx) -> tuple:
    """Valuations of the roots in an algebraic closure: the negated Newton
    slopes, ascending."""
    return tuple(sorted(-s for s in newton_slopes(coeffs, ctx)))


def test_newton_slopes_factored_cubic():
    # oracle: expand (T - 1/3)(T - 2)(T + 1) and read off root valuations
    roots = (Fraction(1, 3), Fraction(2), Fraction(-1))
    coeffs = expand_monic(roots)
    assert coeffs == [1, Fraction(-4, 3), Fraction(-5, 3), Fraction(2, 3)]
    got = _root_valuations(coeffs, P3)
    assert got == tuple(sorted(int_vp(r, 3) for r in roots)) == (-1, 0, 0)


def test_newton_slopes_unit_roots():
    assert newton_slopes([1, 0, 0, -1], P5) == (0, 0, 0)


def test_newton_slopes_spread_valuations():
    # oracle: expand (T - 1/9)(T + 5/3)(T - 3)
    roots = (Fraction(1, 9), Fraction(-5, 3), Fraction(3))
    coeffs = expand_monic(roots)
    assert coeffs == [1, Fraction(-13, 9), Fraction(-131, 27), Fraction(5, 9)]
    assert _root_valuations(coeffs, P3) == (-2, -1, 1)


def test_newton_slopes_preconditions():
    with pytest.raises(ZeroLeadingError):
        newton_slopes([0, 1, 1], P5)
    with pytest.raises(ZeroConstantError):
        newton_slopes([1, 1, 0], P5)


nonzero_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=40).filter(
    lambda f: f != 0
)


@given(st.tuples(nonzero_rationals, nonzero_rationals, nonzero_rationals))
@settings(max_examples=250)
def test_newton_slopes_match_known_roots(roots):
    coeffs = expand_monic(roots)
    for p in (2, 3, 5):
        ctx = PrimeCtx(p)
        slopes = newton_slopes(coeffs, ctx)
        assert _root_valuations(coeffs, ctx) == tuple(sorted(int_vp(r, p) for r in roots))
        # conservation: root valuations sum to vp(c_0) - vp(c_deg)
        assert -sum(slopes) == vp(coeffs[-1], ctx) - vp(coeffs[0], ctx)
        assert all(s1 <= s2 for s1, s2 in zip(slopes, slopes[1:]))


@st.composite
def _newton_cases(draw):
    """A coefficient list, leading-first, with nonzero ends and inner zeros,
    its terms carrying powers of p, and p."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    term = st.builds(lambda u, e: u * Fraction(p) ** e, nonzero_rationals, st.integers(-6, 6))
    inner = draw(st.lists(st.one_of(st.just(0), term), max_size=6))
    return [draw(term), *inner, draw(term)], PrimeCtx(p)


@given(_newton_cases())
@settings(max_examples=300)
def test_newton_slopes_match_gift_wrapping_oracle(case):
    coeffs, ctx = case
    slopes = newton_slopes(coeffs, ctx)
    assert slopes == newton_slopes_oracle(coeffs, ctx)
    assert len(slopes) == len(coeffs) - 1 and all(type(s) is Fraction for s in slopes)
