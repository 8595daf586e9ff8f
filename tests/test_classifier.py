import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from quadberk import (
    INF,
    PrimeCtx,
    QuadberkError,
    ReductionType,
    SigmaInvariants,
    hsia_check,
    lambda3_from,
    multiplier_valuations,
    reduce_residue,
    specialize,
    stratum,
    vp,
)
from _support import exhaustive_inverse, rand_rat, rand_unit, specialize_oracle

P3, P5 = PrimeCtx(3), PrimeCtx(5)

SIG_W3 = SigmaInvariants(Fraction(74, 25), Fraction(73, 25), Fraction(24, 25))
SIG_W2 = SigmaInvariants(Fraction(4, 3), Fraction(-5, 3), Fraction(-2, 3))
SIG_W4 = SigmaInvariants(Fraction(13, 9), Fraction(-131, 27), Fraction(-5, 9))
SIG_W1 = SigmaInvariants(2, 0, 0)


def test_specialize_examples():
    # oracle: scale by 25 -> (74, 73, 25) = (4, 3, 0) mod 5, then divide by 4
    inv4 = exhaustive_inverse(4, 5)
    assert (1, 3 * inv4 % 5, 0) == (1, 2, 0)
    assert specialize(SIG_W3, P5) == (1, 2, 0)
    # scale by 3 -> (4, -5, 3) = (1, 1, 0) mod 3
    assert specialize(SIG_W2, P3) == (1, 1, 0)
    # both sigmas integral: an affine point
    point = specialize(SIG_W1, PrimeCtx(7))
    assert point == (1, 0, exhaustive_inverse(2, 7))


def test_specialize_w4():
    # scale by 27 -> (39, -131, 27) = (0, 1, 0) mod 3
    assert specialize(SIG_W4, P3) == (0, 1, 0)


@st.composite
def _sigma_cases(draw):
    """Sigma invariants with sigma1 and sigma2 each 0 or a fraction times
    p^e, |e| up to 80, so that high powers of p sit in numerators and
    denominators alike, and p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    coordinate = st.one_of(
        st.just(0),
        st.builds(lambda e, f: Fraction(p) ** e * f, st.integers(-80, 80),
                  st.fractions(max_denominator=10**6).filter(bool)),
    )
    s1, s2 = draw(coordinate), draw(coordinate)
    return SigmaInvariants(s1, s2, s1 - 2), PrimeCtx(p)


@given(_sigma_cases())
@example((SigmaInvariants(0, 0, -2), PrimeCtx(2)))
@example((SigmaInvariants(Fraction(3, 2**70), Fraction(5 * 2**60, 7), Fraction(3, 2**70) - 2), PrimeCtx(2)))
@example((SigmaInvariants(Fraction(1, 5**40), Fraction(2, 5**40), Fraction(1, 5**40) - 2), PrimeCtx(5)))
@settings(max_examples=400, deadline=None)
def test_specialize_matches_fraction_oracle(case):
    sigma, ctx = case
    assert specialize(sigma, ctx) == specialize_oracle(sigma, ctx)


def test_stratum_examples():
    assert stratum(SIG_W3, P5).tag == "W3"
    st = stratum(SIG_W2, P3)
    assert st.tag == "W2" and st.x_tilde == 1
    assert stratum(SIG_W4, P3).tag == "W4"
    for p in (2, 3, 5, 7, 13):
        assert stratum(SIG_W1, PrimeCtx(p)).tag == "W1"


def test_reduction_type_validation():
    with pytest.raises(QuadberkError):
        ReductionType("W5")
    with pytest.raises(QuadberkError):
        ReductionType("W2")  # missing payload
    with pytest.raises(QuadberkError):
        ReductionType("W2", 2, 5)  # payload 2 is the W3 point
    with pytest.raises(QuadberkError):
        ReductionType("W2", 1)  # payload without its prime
    with pytest.raises(QuadberkError):
        ReductionType("W1", None, 5)  # prime without a payload


def test_p2_boundary():
    # the W3 point [1 : 2 : 0] is [1 : 0 : 0] over F_2: payload 2 = 0 mod 2
    with pytest.raises(QuadberkError):
        ReductionType("W2", 0, 2)
    # sigmas of (z^2 + z/2)/(3z + 1): scale by 2 -> (13, 24, 2) = (1, 0, 0) mod 2
    sig = SigmaInvariants(Fraction(13, 2), 12, Fraction(9, 2))
    assert specialize(sig, PrimeCtx(2)) == (1, 0, 0)
    assert stratum(sig, PrimeCtx(2)) == ReductionType("W3")


def test_w2_payload_zero_accepted():
    # at p = 5, lambda = 2 gives lambda + 1/lambda = 2 + 3 = 0 mod 5
    st = stratum(SigmaInvariants(Fraction(28, 15), Fraction(-1, 3), Fraction(-2, 15)), P5)
    assert st == ReductionType("W2", 0, 5)
    assert repr(st) == "W2(x_tilde=0 mod 5)"


def test_multiplier_valuations_examples():
    assert multiplier_valuations(SIG_W2, P3) == (-1, 0, 0)
    assert multiplier_valuations(SIG_W1, P5) == (0, INF, INF)
    assert multiplier_valuations(SIG_W1, PrimeCtx(2)) == (1, INF, INF)
    assert multiplier_valuations(SIG_W4, P3) == (-2, -1, 1)


def test_multiplier_valuations_conservation():
    rng = random.Random(31)
    for _ in range(300):
        l1, l2 = rand_rat(rng, -30, 30, 20), rand_rat(rng, -30, 30, 20)
        if l1 * l2 == 1:
            continue
        l3 = lambda3_from(l1, l2)
        sig = SigmaInvariants(
            l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3
        )
        ctx = PrimeCtx(rng.choice((2, 3, 5, 7, 13)))
        vals = multiplier_valuations(sig, ctx)
        assert vals == tuple(sorted(vp(lam, ctx) for lam in (l1, l2, l3)))
        finite = [v for v in vals if v != INF]
        # finite valuations sum to vp(sigma3) = vp(sigma1 - 2): polygon ends
        if sig.sigma3 != 0:
            assert sum(finite) == vp(sig.sigma1 - 2, ctx)


def test_hsia_examples():
    assert hsia_check(SIG_W2, P3)
    assert hsia_check(SIG_W4, P3)
    assert hsia_check(SIG_W1, P5)  # vacuous: stratum W1


def test_partition_property():
    rng = random.Random(32)
    for _ in range(400):
        l1, l2 = rand_rat(rng, -40, 40, 25), rand_rat(rng, -40, 40, 25)
        if l1 * l2 == 1:
            continue
        l3 = lambda3_from(l1, l2)
        sig = SigmaInvariants(
            l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3
        )
        ctx = PrimeCtx(rng.choice((2, 3, 5, 7, 13)))
        st = stratum(sig, ctx)
        point = specialize(sig, ctx)
        # re-derive the region straight from the specialized point
        if point[2] != 0:
            assert st.tag == "W1"
        elif point[0] != 0:
            expected_x = point[1]  # normalized so x = 1
            if expected_x == 2 % ctx.p:
                assert st.tag == "W3"
            else:
                assert st.tag == "W2" and st.x_tilde == expected_x
        else:
            assert st.tag == "W4"


def test_multiplier_valuation_constraints_sampled():
    rng = random.Random(33)
    for p in (2, 3, 5, 7, 13):
        ctx = PrimeCtx(p)
        for _ in range(250):
            e1, e2 = rng.randint(-3, 3), rng.randint(-3, 3)
            l1 = Fraction(p) ** e1 * rand_unit(rng, p)
            l2 = Fraction(p) ** e2 * rand_unit(rng, p)
            if l1 * l2 == 1:
                continue
            l3 = lambda3_from(l1, l2)
            vals = sorted((vp(l1, ctx), vp(l2, ctx), vp(l3, ctx)))
            negatives = sum(1 for v in vals if v < 0)
            assert negatives < 3, "never all three repelling"
            if vals[0] < 0 and vals[1] < 0:
                assert vals[2] > 0  # two repelling: third attracting
            if negatives == 1:
                assert vals[1] == 0 and vals[2] == 0  # one repelling: rest indifferent


def test_w2_payload_matches_residue_formula():
    rng = random.Random(34)
    for p in (3, 5, 7, 13):
        ctx = PrimeCtx(p)
        for _ in range(100):
            l1 = Fraction(p) ** (-rng.randint(1, 3)) * rand_unit(rng, p)
            l2 = rand_unit(rng, p)
            lam2_bar = reduce_residue(l2, ctx)
            if lam2_bar == 1:
                continue
            l3 = lambda3_from(l1, l2)
            sig = SigmaInvariants(
                l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3
            )
            st = stratum(sig, ctx)
            assert st.tag == "W2"
            # oracle: raw modular arithmetic for lambda + 1/lambda
            expected = (lam2_bar + exhaustive_inverse(lam2_bar, p)) % p
            assert st.x_tilde == expected


def test_hsia_premise_on_bad_reduction_samples():
    rng = random.Random(35)
    for p in (2, 3, 5, 7, 13):
        ctx = PrimeCtx(p)
        for _ in range(150):
            l1 = Fraction(p) ** (-rng.randint(1, 3)) * rand_unit(rng, p)
            l2 = Fraction(p) ** rng.randint(0, 2) * rand_unit(rng, p)
            if l1 * l2 == 1:
                continue
            l3 = lambda3_from(l1, l2)
            sig = SigmaInvariants(
                l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3
            )
            assert hsia_check(sig, ctx)
