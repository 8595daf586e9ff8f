"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is an exact algebraic identity, so the tolerance everywhere is
equality of Fractions / integers.  Each test prints a single
"ACCEPTANCE n (...): PASS|FAIL" line; run pytest with -s to see them on a
passing run.
"""

import functools
import hashlib
import random
from fractions import Fraction

from quadberk import (
    INF,
    PrimeCtx,
    ResidueKind,
    TypeIIPoint,
    conjugate,
    lambda3_from,
    multiplier_valuations,
    ord_res_at,
    parse_map,
    reduce_residue,
    sigma_invariants,
    stratum,
    verify_consistency,
    vp,
)
from _support import (
    ACCEPTANCE_CORPUS_SHA256, CASES, DEFAULT_SEED, PER_FAMILY, PRIMES, corpus_lines,
    exhaustive_inverse, normal_form_corpus, ord_res_direct_oracle, rand_lift, rand_mobius, rand_rat,
    rand_unit,
)


@functools.cache
def _corpus():
    """The seven-family prefix of the default-seed benchmark corpus, 500
    instances per family, primes cycling through {2, 3, 5, 7, 13} (Bi is
    empty over F_2, so it cycles the odd primes), checked by hash and each
    verified end to end."""
    drawn = normal_form_corpus(DEFAULT_SEED)[: len(CASES) * PER_FAMILY]
    assert hashlib.sha256(corpus_lines(drawn)).hexdigest() == ACCEPTANCE_CORPUS_SHA256
    entries = []
    for kind, p, lift in drawn:
        ctx = PrimeCtx(p)
        entries.append((kind, ctx, lift, verify_consistency(lift, ctx)))
    return entries


def _criterion(number, name):
    def decorate(func):
        def wrapper():
            try:
                func()
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        wrapper.__name__ = func.__name__
        return wrapper

    return decorate


@_criterion(1, "stratification over all normal-form families")
def test_criterion_1_stratification():
    corpus = _corpus()
    assert len(corpus) == len(CASES) * PER_FAMILY
    for kind, ctx, lift, report in corpus:
        # verify_consistency already asserted: Sylvester sigma == the
        # prediction's sigma, sigma stratum == predicted stratum == residue
        # classification at xi, payloads included
        assert stratum(report.sigma, ctx) == report.stratum
        if report.stratum.tag == "W2":
            assert report.residue_class.kind is ResidueKind.MULTIPLICATIVE
            assert report.stratum.x_tilde == report.residue_class.x_tilde
        if kind == "Bi":
            # payload equals lambda2 + 1/lambda2 mod p, recomputed from raw ints
            lam2 = reduce_residue(report.lift.b1 / report.lift.a0, ctx)
            expected = (lam2 + exhaustive_inverse(lam2, ctx.p)) % ctx.p
            assert report.stratum.tag == "W2"
            assert report.stratum.x_tilde == expected


@_criterion(2, "worked fixtures, bit for bit")
def test_criterion_2_worked_fixtures():
    p5, p3 = PrimeCtx(5), PrimeCtx(3)

    lift = parse_map("z + 1/5 + 1/z")
    sigma = sigma_invariants(lift)
    assert sigma.as_tuple() == (Fraction(74, 25), Fraction(73, 25), Fraction(24, 25))
    report = verify_consistency(lift, p5)
    assert report.stratum.tag == "W3"
    assert report.xi == TypeIIPoint(0, -1)
    assert report.min_ord_res == 2
    assert ord_res_at(lift, TypeIIPoint(0, -1), p5) == 2
    assert ord_res_at(lift, TypeIIPoint(0, 0), p5) == 4

    lift = parse_map("(z^2 + 1/3*z)/(2z + 1)")
    report = verify_consistency(lift, p3)
    assert report.stratum.tag == "W2"
    assert report.stratum.x_tilde == 1
    assert report.xi == TypeIIPoint(0, -1)

    lift = parse_map("(z^2 + 1/9*z)/(3z + 1)")
    report = verify_consistency(lift, p3)
    assert report.stratum.tag == "W4"
    assert report.xi == TypeIIPoint(0, -2)


@_criterion(3, "sigma identities and dual ordRes routes")
def test_criterion_3_sigma_identities():
    rng = random.Random(0x516)
    for _ in range(1000):
        lift = rand_lift(rng)
        gamma = rand_mobius(rng)
        sigma = sigma_invariants(lift)
        assert sigma.sigma3 == sigma.sigma1 - 2
        conjugated = sigma_invariants(conjugate(lift, gamma))
        assert (conjugated.sigma1, conjugated.sigma2) == (sigma.sigma1, sigma.sigma2)
    for _ in range(1000):
        lift = rand_lift(rng)
        ctx = PrimeCtx(rng.choice(PRIMES))
        point = TypeIIPoint(rand_rat(rng, -5, 5, 4), rng.randint(-4, 4))
        # base + 6m - 4v off the table _segment checks by Res(nums) = den^12 * Res
        # at m = 0, against the resultant of the conjugate's own integers at m
        value = ord_res_at(lift, point, ctx)
        assert value >= 0 and value == ord_res_direct_oracle(lift, point, ctx)


@_criterion(4, "multiplier valuation constraints")
def test_criterion_4_valuation_constraints():
    rng = random.Random(0x1E44)
    for p in PRIMES:
        ctx = PrimeCtx(p)
        for _ in range(1000):
            l1 = Fraction(p) ** rng.randint(-3, 3) * rand_unit(rng, p)
            l2 = Fraction(p) ** rng.randint(-3, 3) * rand_unit(rng, p)
            if l1 * l2 == 1:
                continue
            l3 = lambda3_from(l1, l2)
            vals = sorted(vp(lam, ctx) for lam in (l1, l2, l3))
            negatives = sum(1 for v in vals if v < 0)
            assert negatives < 3, "all three repelling is impossible"
            if vals[0] < 0 and vals[1] < 0:
                assert vals[2] > 0
            if negatives == 1:
                assert vals[1] == 0 and vals[2] == 0


@_criterion(5, "minimal-resultant locus against the integer-grid oracle")
def test_criterion_5_minimal_resultant_locus():
    for kind, ctx, lift, report in _corpus():
        if not report.xi.is_integral:
            continue
        center = report.xi.center
        predicted = report.xi.radius_exp
        grid = {
            m: ord_res_at(report.lift, TypeIIPoint(center, m), ctx)
            for m in range(-12, 13)
        }
        best = min(grid, key=lambda m: (grid[m], m))
        assert best == predicted
        assert grid[best] == report.min_ord_res
        # zero minimum exactly in the potential-good-reduction stratum
        assert (report.min_ord_res == 0) == (report.stratum.tag == "W1")


@_criterion(6, "repelling fixed point beneath every bad-reduction stratum")
def test_criterion_6_repelling_premise():
    for kind, ctx, lift, report in _corpus():
        if report.stratum.tag == "W1":
            continue
        sigma = sigma_invariants(report.lift)
        vals = multiplier_valuations(sigma, ctx)
        assert any(v != INF and v < 0 for v in vals)
