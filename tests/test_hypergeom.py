"""Hypergeometric evaluators against brute-force summation oracles."""

from __future__ import annotations

import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flbessel.hypergeom as hypergeom
from flbessel.hypergeom import (
    LowerParamPole,
    TermCapExceeded,
    plain_sum_rational,
    plain_terms,
    regularized_sum_rational,
    sum_terms,
    term_cap,
)
from flbessel.mpnum import BigReal, pochhammer
from oracles import (
    as_fraction,
    fraction_regularized_sum,
    fraction_sum_terms,
    fraction_terms,
    gamma_half_exact,
    recip_gamma_exact,
    term_direct,
)
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


def running_products(pairs, count):
    """The first ``count`` terms that integer pairs from ``plain_terms`` give."""
    P = Q = 1
    out = []
    for p, q in itertools.islice(pairs, count):
        P *= p
        Q *= q
        out.append(F(P, Q))
    return out


def counted(items, seen):
    """Pass ``items`` through, appending each one to ``seen``."""
    for item in items:
        seen.append(item)
        yield item


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
        terms = running_products(plain_terms(upper, lower, z), 30)
        for n in range(30):
            assert terms[n] == term_direct(upper, lower, z, n)
        # started mid-series from a given term, as the regularized route does
        start = rng.randint(1, 12)
        pairs = plain_terms(upper, lower, z, term_direct(upper, lower, z, start), start)
        terms = running_products(pairs, 20)
        for n in range(start, start + 20):
            assert terms[n - start] == term_direct(upper, lower, z, n)


# -- equal upper and lower parameters -------------------------------------------

#: (upper, lower, the parameters left once equal pairs are dropped); an int
#: and a Fraction of the same value are one parameter.
EQUAL_PAIRS = [
    ((F(5, 2), F(1, 3)), (F(7), F(5, 2)), ((F(1, 3),), (F(7),))),
    ((F(4),), (F(-1, 2), 4), ((), (F(-1, 2),))),
    # the N = 0 shape: two equal lower parameters, one matching upper
    ((F(5, 2), F(3)), (F(11, 2), 3, 3), ((F(5, 2),), (F(11, 2), 3))),
    # two matching uppers take one lower each, and a third finds none
    ((F(3, 2), F(3, 2)), (F(3, 2), F(3, 2), F(2)), ((), (F(2),))),
    ((F(3, 2),) * 3, (F(3, 2), F(3, 2), F(2)), ((F(3, 2),), (F(2),))),
]


@pytest.mark.parametrize("upper, lower, rest", EQUAL_PAIRS)
def test_an_equal_parameter_pair_is_dropped(upper, lower, rest):
    # the series yields exactly the pairs of the series without both
    for z in (F(-49, 9), F(5, 4)):
        for first, start in ((F(1), 0), (F(-3, 5), 4)):
            got = itertools.islice(plain_terms(upper, lower, z, first, start), 40)
            want = itertools.islice(plain_terms(*rest, z, first, start), 40)
            assert list(got) == list(want)
    # the value and the number of items read (what the benchmark's term
    # counter sees) are those of the reference that keeps the pair
    new, ref = kernel_and_reference(upper, lower, F(-49, 9), F(1), 0, 66, 10**4)
    assert new == ref


def test_an_equal_pole_is_still_refused():
    # the pole check reads the lower parameters before any pair is dropped
    with pytest.raises(LowerParamPole):
        plain_sum_rational((F(-2), F(1, 2)), (F(-2), F(3, 2)), F(-1, 4), 20)
    with pytest.raises(LowerParamPole):
        plain_sum_rational((F(0),), (0,), F(-1, 4), 20)


def test_sum_terms_stopping_rule_and_cap():
    # each case gives the first term and then the term ratios as integer
    # pairs; ``tiny`` is the pair of the term 10^-30
    tiny = F(1, 10**30)
    tiny_pair = (1, 10**30)
    # the first term is always taken, even when it is itself negligible:
    # terms tiny, 0, 0 stop before the pair after them is read
    pairs = iter([tiny_pair, (0, 1), (1, 1), (5, 1)])
    assert as_fraction(sum_terms(pairs, 10, 100)) == tiny
    assert list(pairs) == [(5, 1)]
    # one small term is not enough; two in a row are:
    # terms 1, tiny, 1, tiny, tiny, 7
    pairs = [(1, 1), tiny_pair, (10**30, 1), tiny_pair, (1, 1), (7 * 10**30, 1)]
    assert as_fraction(sum_terms(iter(pairs), 10, 100)) == 2 + 3 * tiny
    # terms up to index ``cap`` are allowed, the next one raises:
    # terms 1, 1, tiny, tiny and then 1, 1, 1, tiny, tiny
    got = sum_terms(iter([(1, 1), (1, 1), tiny_pair, (1, 1)]), 10, 3)
    assert as_fraction(got) == 2 + 2 * tiny
    with pytest.raises(TermCapExceeded):
        sum_terms(iter([(1, 1), (1, 1), (1, 1), tiny_pair, (1, 1)]), 10, 3)


def test_a_sum_far_below_one_stops_relative_to_itself():
    # terms 1e-40, 1e-52, 1e-64, 1e-76, ... at digits = 20: 1e-52
    # is 1e-12 of the sum, so it is not small although it is below 1e-20;
    # 1e-64 and 1e-76 are, and the sum stops after reading four items
    pairs = [(1, 10**40)] + [(1, 10**12)] * 6
    seen = []
    got = as_fraction(sum_terms(counted(pairs, seen), 20, 100))
    assert len(seen) == 4
    assert got == sum(F(1, 10 ** (40 + 12 * j)) for j in range(4))


def test_lower_pole_rejected():
    with pytest.raises(LowerParamPole):
        plain([F(1, 2)], [0, F(3, 2)], F(-1, 4), 20)
    with pytest.raises(LowerParamPole):
        plain([F(1, 2)], [-3, F(3, 2)], F(-1, 4), 20)


def test_term_cap_exceeded(monkeypatch):
    # with term_cap 0 the caps are the 3 (isqrt(floor |z|) + 1) = 3 terms
    # that z = -1/4 adds (one more past the regularized head), too few
    # for 17 digits
    monkeypatch.setattr(hypergeom, "term_cap", lambda precision: 0)
    with pytest.raises(TermCapExceeded, match="within 3 terms"):
        plain_sum_rational((F(1, 2),), (F(1), F(3, 2)), F(-1, 4), 1)
    with pytest.raises(TermCapExceeded, match="within 4 terms"):
        regularized_sum_rational((F(1, 2), F(1)), (F(3, 2), F(0), F(2)), F(-1, 4), 1)


def test_the_cap_grows_with_z(monkeypatch):
    # at z = -9 * 10^6 the terms climb until n is about 3000, past the
    # 210-term cap of one digit; the sum converges within the cap's
    # 3 (isqrt(|z|) + 1) = 9003 extra terms
    seen = []
    terms = hypergeom.plain_terms
    monkeypatch.setattr(hypergeom, "plain_terms",
                        lambda *args: counted(terms(*args), seen))
    plain_sum_rational((F(1, 2),), (F(1), F(3, 2)), F(-9 * 10**6), 1)
    assert term_cap(1) < len(seen) <= term_cap(1) + 9003


# -- regularized ---------------------------------------------------------------


def test_regularized_at_zero():
    # all lower params positive: value is the product of reciprocal gammas,
    # 1/Gamma(1) * 1/Gamma(2) * 1/Gamma(3/2) = 2 / sqrt(pi)
    q, s = regularized_sum_rational((F(1, 2), F(1)), (F(1), F(2), F(3, 2)), F(0), 40)
    assert (as_fraction(q), s) == (F(2), -1)


def test_regularized_zero_lower_parameter():
    # lower parameter 0: the head of the series vanishes, summation starts
    # at n = 1
    q, s = regularized_sum_rational(
        (F(1, 2), F(1)), (F(3, 2), F(0), F(2)), F(-1, 4), 45
    )
    q = as_fraction(q)
    assert s == -1
    with localcontext() as ctx:
        ctx.prec = 70
        value = Decimal(q.numerator) / Decimal(q.denominator) / PI_70.sqrt()
        assert abs(value - BRUTE_2F3_REG_ZERO) < Decimal(10) ** -44

    # re-derive with in-place zero-skipping brute force
    total = F(0)
    for n in range(1, 80):
        t = pochhammer(F(1, 2), n) * pochhammer(F(1), n)
        t /= gamma_half_exact(n + 1) * math.factorial(n - 1) * math.factorial(n + 1)
        t *= F(-1, 4) ** n / math.factorial(n)
        total += t
    assert abs(q - total) < F(1, 10**55)


def test_regularized_consistency_identity_spot():
    # Gamma(b1) Gamma(b2) Gamma(b3) * regularized == plain; the sqrt(pi) of
    # Gamma(7/2) cancels the regularized sum's 1/sqrt(pi) exactly
    upper, lower = (F(3, 2), F(2)), (F(7, 2), F(2), F(3))
    plain_q = as_fraction(plain_sum_rational(upper, lower, F(-1, 4), 40))
    q, s = regularized_sum_rational(upper, lower, F(-1, 4), 40)
    q = as_fraction(q)
    assert s == -1
    gammas = gamma_half_exact(3) * math.factorial(1) * math.factorial(2)
    assert abs(q * gammas - plain_q) < F(1, 10**38)


def test_regularized_consistency_identity_random():
    rng = random.Random(77)
    for _ in range(200):
        upper = tuple(F(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(2))
        lower = tuple(F(rng.randint(1, 12), rng.choice((1, 2))) for _ in range(3))
        z = F(rng.randint(-6, 6), rng.randint(1, 3))
        prec = 30
        plain = as_fraction(plain_sum_rational(upper, lower, z, prec))
        q, s = regularized_sum_rational(upper, lower, z, prec)
        q = as_fraction(q)
        gam = F(1)
        pi_pow = 0
        for b in lower:
            if b.denominator == 1:
                gam *= math.factorial(int(b) - 1)
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
        terms = running_products(plain_terms(upper, lower, z), 200)
        limit = as_fraction(plain_sum_rational(upper, lower, z, 60))
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


# -- the integer kernel against the reduced-Fraction reference -----------------

#: Upper parameters: integers down to -6 terminate the series (P becomes 0).
upper_params = st.fractions(min_value=-6, max_value=12, max_denominator=4)
#: Lower parameters: never a nonpositive integer, but negative non-integers
#: make ratio denominators negative, whose sign moves into p.
lower_params = st.fractions(min_value=-6, max_value=12, max_denominator=4).filter(
    lambda b: not (b.denominator == 1 and b <= 0)
)


def kernel_and_reference(upper, lower, z, first, start, digits, cap):
    """(value, items read) of the integer kernel and of the reference loop;
    the value is the exception class when the cap is hit."""
    results = []
    for terms, total, value_of in (
        (plain_terms, sum_terms, as_fraction),
        (fraction_terms, fraction_sum_terms, Fraction),
    ):
        seen = []
        try:
            value = value_of(total(
                counted(terms(upper, lower, z, first, start), seen), digits, cap
            ))
        except TermCapExceeded:
            value = TermCapExceeded
        results.append((value, len(seen)))
    return results


@given(
    st.lists(upper_params, max_size=2),
    st.lists(lower_params, min_size=1, max_size=3),
    st.fractions(min_value=-40, max_value=40, max_denominator=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(0, 6),
    st.integers(1, 30),
    st.integers(0, 16),
)
@settings(max_examples=200, deadline=None)
def test_integer_kernel_equals_fraction_reference(
    upper, lower, z, first, start, precision, guard
):
    upper, lower = tuple(upper), tuple(lower)
    # a mid-series start never passes a lower parameter's zero
    lower = tuple(b for b in lower if not (b.denominator == 1 and b + start <= 0))
    cap = term_cap(precision)
    new, ref = kernel_and_reference(
        upper, lower, z, first, start, precision + guard, cap
    )
    assert new == ref


@given(st.integers(0, 40), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_ratio_pairs_have_positive_denominators(num, den):
    b = -num - F(1, den + 1)  # negative, never an integer
    for p, q in itertools.islice(plain_terms((F(1, 3),), (b, F(2)), F(-5, 3)), 60):
        assert q > 0


#: (upper, lower, z, first term, start) for the streamed ratio pairs.
STREAM_CASES = {
    "mid-series start": ((F(1, 2), F(7, 3)), (F(3, 2), F(4), F(5, 2)), F(-49, 9),
                         F(-3, 5), 7),
    # -17/2 + n changes sign at n = 9: the pairs' signs are flipped there
    "lower factor crosses zero": ((F(7, 3),), (F(-17, 2), F(-1, 3)), F(40), F(1), 2),
    "equal pair drops out": ((F(5, 2), F(1, 3)), (F(7), F(5, 2)), F(-9, 4), F(1), 0),
    "int lower parameter": ((F(147, 2), F(148, 2)), (F(295, 2), 72, 74), F(-1, 4),
                            F(2, 7), 3),
    "z = 0": ((F(1, 2),), (F(1), F(3, 2)), F(0), F(1), 0),
}


@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_the_pair_stream_gives_the_fraction_terms(name):
    upper, lower, z, first, start = STREAM_CASES[name]
    pairs = list(itertools.islice(plain_terms(upper, lower, z, first, start), 40))
    assert all(q > 0 for _, q in pairs)
    want = itertools.islice(fraction_terms(upper, lower, z, first, start), 40)
    assert running_products(iter(pairs), 40) == list(want)


def test_the_constant_factors_are_divided_by_their_gcd_once():
    # the J0 table's 1F2: p_const = -1 * 2 and q_const = 4 * 2 share 2
    pairs = itertools.islice(plain_terms((F(147, 2),), (F(74), F(295, 2)), F(-1, 4)), 30)
    assert list(pairs)[1:] == [(-(147 + 2 * n), 4 * (n + 1) * (74 + n) * (295 + 2 * n))
                               for n in range(29)]
    # z = 0: the gcd with 0 is q_const itself, which leaves q_const = 1
    pairs = itertools.islice(plain_terms((F(1, 2),), (F(1), F(3, 2)), F(0)), 5)
    assert list(pairs)[1:] == [(0, (n + 1) * (n + 1) * (3 + 2 * n)) for n in range(4)]


def test_integer_kernel_edge_cases():
    cases = [
        # z = 0: the first term and two zero terms
        ((F(1, 2),), (F(1), F(3, 2)), F(0)),
        # a terminating upper parameter -4: P is 0 from term 5 on
        ((F(-4), F(1, 2)), (F(3, 2), F(2), F(5)), F(-9, 4)),
        # negative non-integer lower parameters: ratios change sign
        ((F(1, 2),), (F(-11, 2), F(-7, 3)), F(5, 4)),
        ((), (F(-1, 2),), F(-3)),
    ]
    for upper, lower, z in cases:
        for precision in (5, 50, 300):
            new, ref = kernel_and_reference(upper, lower, z, F(1), 0, precision + 16, 10**4)
            assert new == ref
            assert new[0] == as_fraction(plain_sum_rational(upper, lower, z, precision))


@pytest.mark.parametrize("n0", [1, 2, 5])
def test_regularized_head_matches_fraction_reference(n0):
    # lower parameter 1 - n0 vanishes the head; the sum starts at n0
    upper = (F(1, 2), F(7, 3))
    lower = (F(3, 2), F(1 - n0), F(4))
    for z in (F(-1, 4), F(-49, 9), F(25, 16)):
        for precision in (10, 120):
            head = pochhammer(upper[0], n0) * pochhammer(upper[1], n0)
            for b in lower:
                head *= recip_gamma_exact(b + n0)[0]
            head *= z**n0 / math.factorial(n0)
            want = fraction_sum_terms(
                fraction_terms(upper, lower, z, head, n0),
                precision + 16, term_cap(precision) + 1,
            )
            q, s = regularized_sum_rational(upper, lower, z, precision)
            assert (as_fraction(q), s) == (want, -1)


@pytest.mark.parametrize("digits", [1, 2, 7, 33, 200])
def test_a_tie_is_not_small(digits):
    # 10^digits * |P| == |T| exactly; bit
    # lengths cannot settle these, so the exact comparison decides
    s = 10**digits
    tail = [(1, 10 * s), (1, 1), (1, 1)]
    ties = [
        [(1, 1), (1, s - 1)],  # Q = s - 1, T = s: tie on T
        [(-1, 1), (1, s - 1)],  # Q = s - 1, T = -s: tie on a negative T
        [(1, 1), (-1, s)],  # Q = s, T = s - 1: a tie on Q is not small either
        [(s - 1, 1), (1, s - 1)],  # P/Q = (s-1)/(s-1) unreduced, T = s(s-1)
    ]
    for head in ties:
        pairs = head + tail
        # the tie is not small, so the sum stops only after the two small
        # terms behind it: four items are read, not three
        seen = []
        got = as_fraction(sum_terms(counted(pairs, seen), digits, 100))
        assert len(seen) == 4
        ref = fraction_sum_terms(running_products(iter(pairs), len(pairs)), digits, 100)
        assert got == ref
    # one unit below a tie is small: 10^digits * 1 < s + 1 = |T|
    seen = []
    sum_terms(counted([(1, 1), (1, s), (1, 1), (7, 1)], seen), digits, 100)
    assert len(seen) == 3


# -- head, stretch, certificate and tail of sum_terms ---------------------------

#: The 2000-digit sums of the paper's tables: the 1F2 of J0 at k = 1,
#: L = 146 and the regularized 2F3 of J3 at k = 7/3, L = 145, each as
#: (upper, lower, z, first term, precision).
TABLE_SUMS = {
    "1F2 J0 k=1 L=146": ((F(147, 2),), (F(148, 2), F(295, 2)), F(-1, 4), F(1), 2000),
    "2F3 J3 k=7/3 L=145": (
        (F(146, 2), F(147, 2)), (F(293, 2), F(72), F(75)), F(-49, 36),
        recip_gamma_exact(F(293, 2))[0] / (math.factorial(71) * math.factorial(74)),
        2000,
    ),
}

#: Sums that leave the head, each as (upper, lower, z, precision).
LONG_SUMS = {
    # terms grow before they shrink
    "growing z=125/4": ((F(1, 2),), (F(1), F(3, 2)), F(125, 4), 60),
    "growing z=-900": ((F(1, 2),), (F(1), F(3, 2)), F(-900), 60),
    # negative non-integer lower parameters: the ratios change sign
    "sign flips": ((F(1, 2),), (F(-11, 2), F(-7, 3)), F(-5, 4), 300),
    "sign flips, growing": ((F(7, 3),), (F(-17, 2), F(-1, 3)), F(40), 100),
    # |t_61 / t_60| > 1 ends the stretch; the loop runs on from there
    "grows past the head": ((F(1, 2),), (F(-121, 2), F(3, 2)), F(-40), 300),
}


def spy_on_split(monkeypatch) -> list[int]:
    """The length of every range ``hypergeom._split`` is called on."""
    splits = []
    split = hypergeom._split

    def spy(pairs, lo, hi):
        splits.append(hi - lo)
        return split(pairs, lo, hi)

    monkeypatch.setattr(hypergeom, "_split", spy)
    return splits


@pytest.mark.parametrize("name", sorted(TABLE_SUMS))
def test_table_sums_equal_the_fraction_reference_and_are_split(name, monkeypatch):
    upper, lower, z, first, precision = TABLE_SUMS[name]
    splits = spy_on_split(monkeypatch)
    new, ref = kernel_and_reference(
        upper, lower, z, first, 0, precision + 16, term_cap(precision) + 1
    )
    assert new == ref
    # the stretch was multiplied out by binary splitting, not by the loop,
    # and it covered most of the sum
    assert splits and splits[0] > new[1] // 2 > hypergeom._HEAD


@pytest.mark.parametrize("name", sorted(LONG_SUMS))
def test_long_sums_equal_the_fraction_reference(name, monkeypatch):
    upper, lower, z, precision = LONG_SUMS[name]
    splits = spy_on_split(monkeypatch)
    new, ref = kernel_and_reference(
        upper, lower, z, F(1), 0, precision + 16, term_cap(precision)
    )
    assert new == ref
    assert splits


def test_a_cap_hit_past_the_head_matches_the_reference(monkeypatch):
    # t_n = (999/1000)^n shrinks too slowly to stop within the cap: the
    # stretch runs to the cap and the loop raises on the next pair
    splits = spy_on_split(monkeypatch)
    args = ((F(1), F(1)), (F(1),), F(999, 1000), F(1), 0, 30, 400)
    new, ref = kernel_and_reference(*args)
    assert new == ref == (TermCapExceeded, 402)
    assert splits[0] == 400 - hypergeom._HEAD


def test_z_zero_stops_in_the_head():
    new, ref = kernel_and_reference((F(1, 2),), (F(1), F(3, 2)), F(0), F(1), 0, 2016, 20200)
    assert new == ref == (F(1), 3)


def test_a_failed_certificate_redoes_the_stretch(monkeypatch):
    # a margin of -10^6 makes the estimate pull every pair up to the cap,
    # far past the stop; the certificate fails, and the loop sums from the
    # head's state to the stop of the plain loop
    verdicts = []
    certified = hypergeom._certified

    def spy(state, room):
        verdicts.append(certified(state, room))
        return verdicts[-1]

    monkeypatch.setattr(hypergeom, "_MARGIN", -1e6)
    monkeypatch.setattr(hypergeom, "_certified", spy)
    upper, lower, z, first, precision = TABLE_SUMS["1F2 J0 k=1 L=146"]
    cap = term_cap(precision)
    new, ref = kernel_and_reference(upper, lower, z, first, 0, precision + 16, cap)
    assert verdicts == [False]
    assert new[0] == ref[0]
    assert new[1] == cap + 2 > ref[1]


def test_a_growing_pair_bounds_what_a_wrong_estimate_can_pull(monkeypatch):
    # terms 1 (49 times), 1e-40, 1e-40, 1, 1, ...: the plain loop stops at
    # the second tiny term.  With the estimate forced wrong, the stretch
    # still ends at the first growing pair, so the certificate sees the
    # tiny terms, fails, and the loop finds that stop
    monkeypatch.setattr(hypergeom, "_MARGIN", -1e6)
    pairs = [(1, 1)] * 49 + [(1, 10**40), (1, 1), (10**40, 1)] + [(1, 1)] * 100
    seen = []
    got = as_fraction(sum_terms(counted(pairs, seen), 20, 120))
    assert got == 49 + 2 * F(1, 10**40)
    assert len(seen) == 52


# -- the first term as one integer pair ------------------------------------------

#: Regularized sums whose first term is not 1, each as (upper, lower,
#: z, precision): the 2000-digit J3 sum of ``TABLE_SUMS``, heads of n0 > 0
#: with a half-integer and a third, z = 0 with n0 > 0, and terminating
#: upper parameters that die before and after n0.
FIRST_TERM_SUMS = {
    "2F3 J3 k=7/3 L=145": TABLE_SUMS["2F3 J3 k=7/3 L=145"][:3] + (2000,),
    "n0=3": ((F(1, 2), F(7, 3)), (F(3, 2), F(-2), F(4)), F(-49, 9), 50),
    "n0=3, z=0": ((F(1, 2), F(7, 3)), (F(3, 2), F(-2), F(4)), F(0), 50),
    "n0=2, half-integer at 1/2": ((F(5, 3),), (F(-3, 2), F(-1)), F(9, 4), 50),
    "-1 dies before n0=3": ((F(-1), F(5, 2)), (F(5, 2), F(-2), F(1)), F(-1, 4), 50),
    "-3 outlives n0=3": ((F(-3), F(5, 2)), (F(5, 2), F(-2), F(1)), F(-1, 4), 50),
}


@pytest.mark.parametrize("name", sorted(FIRST_TERM_SUMS))
def test_first_term_gives_the_integers_of_the_fraction_products(name):
    # one normalization of the integer product is the lowest-terms pair a
    # chain of reduced Fraction products ends in, so the sum gets the same
    # integers and returns the same unreduced pair
    args = FIRST_TERM_SUMS[name]
    assert regularized_sum_rational(*args) == fraction_regularized_sum(*args)


@pytest.mark.parametrize("lower, message", [
    ((F(1, 3), F(2)), "integer or half-integer, got 1/3"),
    ((F(-5, 2), F(-1)), "below 1/2"),  # n0 = 2 leaves -1/2
])
def test_first_term_refuses_what_the_reciprocal_gammas_refuse(lower, message):
    for route in (regularized_sum_rational, fraction_regularized_sum):
        with pytest.raises(ValueError, match=message):
            route((F(1, 2),), lower, F(-1, 4), 20)
