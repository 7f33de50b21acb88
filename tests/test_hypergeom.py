"""Hypergeometric evaluators against brute-force summation oracles."""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from flbessel.hypergeom import (
    LowerParamPole,
    TermCapExceeded,
    plain_sum_rational,
    plain_terms,
    regularized_sum_rational,
    sum_terms,
)
from flbessel.mpnum import BigReal, gamma_half_exact, gamma_int_exact, pochhammer
from oracles import term_direct
from refdata import BRUTE_2F3, BRUTE_2F3_REG_ZERO, PI_70

F = Fraction


def plain(upper, lower, z, prec):
    """The plain sum rendered once at ``prec`` digits."""
    q = plain_sum_rational(
        tuple(F(a) for a in upper), tuple(F(b) for b in lower), F(z), prec
    )
    return BigReal.from_fraction(q, prec)


def brute_sum(upper, lower, z, terms):
    """Independent oracle: direct Pochhammer products, no recurrence."""
    return sum(
        (term_direct_oracle(upper, lower, F(z), n) for n in range(terms)),
        F(0),
    )


def term_direct_oracle(upper, lower, z, n):
    num = F(1)
    for a in upper:
        num *= pochhammer(F(a), n)
    den = F(1)
    for b in lower:
        den *= pochhammer(F(b), n)
    return num / den * z**n / math.factorial(n)


# -- plain --------------------------------------------------------------------


def test_pfq_at_zero_is_one():
    assert plain([F(1, 2)], [1, F(3, 2)], 0, 30).value == 1


def test_1f2_published_value():
    got = plain([F(1, 2)], [1, F(3, 2)], F(-1, 4), 34)
    assert str(got) == "0.9197304100897602393144211940806200"


def test_2f3_against_brute_force():
    got = plain([F(1, 2), 1], [F(3, 2), 1, 1], F(-1, 4), 50)
    # frozen from the 200-term direct summation
    assert abs(got.value - BRUTE_2F3) < Decimal(10) ** -49
    # and re-derived in place at lower depth
    q = brute_sum([F(1, 2), 1], [F(3, 2), 1, 1], F(-1, 4), 120)
    assert abs(got.to_fraction() - q) < F(1, 10**49)


def test_terms_match_direct_products():
    rng = random.Random(4242)
    for _ in range(20):
        upper = tuple(F(rng.randint(1, 9), rng.choice((1, 2))) for _ in range(2))
        lower = tuple(F(rng.randint(1, 9), rng.choice((1, 2))) for _ in range(3))
        z = F(rng.randint(-8, 8), rng.randint(1, 4))
        gen = plain_terms(upper, lower, z)
        for n in range(30):
            assert next(gen) == term_direct(upper, lower, z, n)
        # started mid-series from a given term, as the regularized route does
        start = rng.randint(1, 12)
        gen = plain_terms(upper, lower, z, term_direct(upper, lower, z, start), start)
        for n in range(start, start + 20):
            assert next(gen) == term_direct(upper, lower, z, n)


def test_sum_terms_stopping_rule_and_cap():
    tiny = F(1, 10**30)
    # the first term is always taken, even when it is itself negligible
    assert sum_terms(iter([tiny, 0, 0, 5]), 10, 0, 100) == tiny
    # one small term is not enough; two in a row are
    assert sum_terms(iter([1, tiny, 1, tiny, tiny, 7]), 10, 0, 100) == 2 + 3 * tiny
    # terms up to index ``cap`` are allowed, the next one raises
    assert sum_terms(iter([1, 1, tiny, tiny]), 10, 0, 3) == 2 + 2 * tiny
    with pytest.raises(TermCapExceeded):
        sum_terms(iter([1, 1, 1, tiny, tiny]), 10, 0, 3)


def test_lower_pole_rejected():
    with pytest.raises(LowerParamPole):
        plain([F(1, 2)], [0, F(3, 2)], F(-1, 4), 20)
    with pytest.raises(LowerParamPole):
        plain([F(1, 2)], [-3, F(3, 2)], F(-1, 4), 20)


def test_term_cap_exceeded():
    # |z| so large the terms are still climbing when the cap hits
    with pytest.raises(TermCapExceeded):
        plain_sum_rational((F(1, 2),), (F(1), F(3, 2)), F(-9 * 10**6), 1)
    with pytest.raises(TermCapExceeded):
        regularized_sum_rational((F(1, 2), F(1)), (F(3, 2), F(0), F(2)), F(-9 * 10**6), 1)


# -- regularized ---------------------------------------------------------------


def test_regularized_at_zero():
    # all lower params positive: value is the product of reciprocal gammas,
    # 1/Gamma(1) * 1/Gamma(2) * 1/Gamma(3/2) = 2 / sqrt(pi)
    q, s = regularized_sum_rational((F(1, 2), F(1)), (F(1), F(2), F(3, 2)), F(0), 40)
    assert (q, s) == (F(2), -1)


def test_regularized_zero_lower_parameter():
    # lower parameter 0: the head of the series vanishes, summation starts
    # at n = 1
    q, s = regularized_sum_rational(
        (F(1, 2), F(1)), (F(3, 2), F(0), F(2)), F(-1, 4), 45
    )
    assert s == -1
    with localcontext() as ctx:
        ctx.prec = 70
        value = Decimal(q.numerator) / Decimal(q.denominator) / PI_70.sqrt()
        assert abs(value - BRUTE_2F3_REG_ZERO) < Decimal(10) ** -44

    # re-derive with in-place zero-skipping brute force
    total = F(0)
    for n in range(1, 80):
        t = pochhammer(F(1, 2), n) * pochhammer(F(1), n)
        t /= gamma_half_exact(n + 1) * gamma_int_exact(n) * gamma_int_exact(n + 2)
        t *= F(-1, 4) ** n / math.factorial(n)
        total += t
    assert abs(q - total) < F(1, 10**55)


def test_regularized_consistency_identity_spot():
    # Gamma(b1) Gamma(b2) Gamma(b3) * regularized == plain; the sqrt(pi) of
    # Gamma(7/2) cancels the regularized sum's 1/sqrt(pi) exactly
    upper, lower = (F(3, 2), F(2)), (F(7, 2), F(2), F(3))
    plain_q = plain_sum_rational(upper, lower, F(-1, 4), 40)
    q, s = regularized_sum_rational(upper, lower, F(-1, 4), 40)
    assert s == -1
    gammas = gamma_half_exact(3) * gamma_int_exact(2) * gamma_int_exact(3)
    assert abs(q * gammas - plain_q) < F(1, 10**38)


def test_regularized_consistency_identity_random():
    rng = random.Random(77)
    for _ in range(200):
        upper = tuple(F(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(2))
        lower = tuple(F(rng.randint(1, 12), rng.choice((1, 2))) for _ in range(3))
        z = F(rng.randint(-6, 6), rng.randint(1, 3))
        prec = 30
        plain = plain_sum_rational(upper, lower, z, prec)
        q, s = regularized_sum_rational(upper, lower, z, prec)
        gam = F(1)
        pi_pow = 0
        for b in lower:
            if b.denominator == 1:
                gam *= gamma_int_exact(int(b))
            else:
                gam *= gamma_half_exact((b.numerator - 1) // 2)
                pi_pow += 1
        assert pi_pow == -s
        # q * gam == plain exactly up to the two truncation points
        assert abs(q * gam - plain) <= abs(plain) * F(1, 10 ** (prec - 2)) + F(
            1, 10 ** (prec + 10)
        )


def test_monotone_refinement_on_coefficient_family():
    # doubling the precision must not disturb previously guaranteed digits
    for L in (0, 2, 6, 16, 40, 80):
        upper = [F(L + 1, 2)]
        lower = [F(L + 2, 2), F(2 * L + 3, 2)]
        lo = plain(upper, lower, F(-1, 4), 30)
        hi = plain(upper, lower, F(-1, 4), 60)
        assert abs(lo.value - hi.value) <= Decimal(10) ** -29


def test_partial_sums_bracket_once_alternating():
    # coefficient-family parameters at the largest scale of interest
    for k in (4, 10):
        upper = (F(1, 2),)
        lower = (F(1), F(3, 2))
        z = F(-(k**2), 4)
        terms = []
        gen = plain_terms(upper, lower, z)
        for _ in range(200):
            terms.append(next(gen))
        limit = plain_sum_rational(upper, lower, z, 60)
        # find where strict alternation + decreasing magnitude sets in
        start = None
        for i in range(len(terms) - 1):
            tail = terms[i:]
            if all(
                tail[j] * tail[j + 1] < 0 and abs(tail[j + 1]) < abs(tail[j])
                for j in range(min(len(tail) - 1, 40))
            ):
                start = i
                break
        assert start is not None
        partial = sum(terms[: start + 1], F(0))
        lo_hi = []
        for j in range(start + 1, start + 30):
            partial += terms[j]
            lo_hi.append(partial)
        brackets = [
            (a <= limit <= b) or (b <= limit <= a)
            for a, b in zip(lo_hi, lo_hi[1:])
        ]
        assert all(brackets)
