"""Arithmetic layer: BigReal semantics, gamma, Pochhammer, and the
near-integer factorization witness of ``oracles``."""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbessel import mpnum, series
from flbessel.mpnum import BigReal, PrimePowers, pochhammer, render_significant
from flbessel.powerprime import PRIMES
from oracles import (
    FACTOR_PRIMES,
    NotNearInteger,
    decimal_from_fraction,
    divmod_from_fraction,
    factorize_reciprocal,
    gamma_half_exact,
    join_render_significant,
    pochhammer_reflect,
    recip_gamma_exact,
    reconstruct,
)


# -- BigReal -----------------------------------------------------------------


def test_bigreal_text_round_trip():
    for text in ("0.9197304100897602393144211940806200",
                 "-2.269056283827394368836057470594599e-64",
                 "427.5641157218", "1.000000000000000", "0"):
        x = BigReal.parse(text)
        assert BigReal.parse(str(x), x.precision) == x


def test_bigreal_is_canonical_at_precision():
    x = BigReal.parse("0.123456789123456789", 9)
    assert str(x) == "0.123456789"
    assert x.to_fraction() == Fraction(123456789, 10**9)


def test_bigreal_determinism():
    a = BigReal.from_fraction(Fraction(1, 3), 40)
    b = BigReal.from_fraction(Fraction(1, 3), 40)
    assert a == b and str(a) == str(b)


@given(st.integers(min_value=-10**18, max_value=10**18),
       st.integers(min_value=1, max_value=10**12),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=150, deadline=None)
def test_bigreal_parse_render_identity(num, den, prec):
    x = BigReal.from_fraction(Fraction(num, den), prec)
    assert BigReal.parse(str(x), prec) == x


#: Decimals with 1 to 2500 digits, either sign, trailing zeros appended
#: and exponents from -400 to +400, plus both zeros.
rendered_values = st.one_of(
    st.sampled_from([Decimal(0), Decimal("-0"), Decimal("0E+7"), Decimal("-0E-12")]),
    st.builds(
        lambda sign, coeff, zeros, exp: Decimal(
            (sign, tuple(map(int, str(coeff))) + (0,) * zeros, exp)
        ),
        st.integers(0, 1),
        st.one_of(st.integers(1, 10**40), st.integers(1, 10**2500)),
        st.integers(0, 30),
        st.integers(-400, 400),
    ),
)


@given(rendered_values, st.integers(1, 2500))
@settings(max_examples=400, deadline=None)
def test_render_significant_equals_joined_digits(value, digits):
    assert render_significant(value, digits) == join_render_significant(value, digits)


def test_render_significant_edge_layouts():
    cases = [Decimal("1e-5"), Decimal("-9.99999e-6"), Decimal("1200"),
             Decimal("-123.4500"), Decimal(10) ** 2499, Decimal("-5e400")]
    for value in cases:
        for digits in (1, 2, 4, 2500):
            assert render_significant(value, digits) == join_render_significant(value, digits)


def _half_even(q: Fraction, digits: int) -> Decimal:
    """q rounded half-even to ``digits`` significant digits, in integers."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    e = len(str(q.numerator)) - len(str(q.denominator))
    if q < Fraction(10) ** e:
        e -= 1
    shift = digits - 1 - e
    scaled = q * Fraction(10) ** shift
    n, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r > scaled.denominator or (2 * r == scaled.denominator and n % 2):
        n += 1
    return Decimal(f"{sign}{n}e{-shift}")


def test_from_fraction_near_ties_round_correctly():
    assert str(BigReal.from_fraction(Fraction(1234549999, 10**9), 5)) == "1.2345"
    assert str(BigReal.from_fraction(Fraction(1234550001, 10**9), 5)) == "1.2346"
    assert str(BigReal.from_fraction(Fraction(123455, 10**5), 5)) == "1.2346"
    assert str(BigReal.from_fraction(Fraction(123465, 10**5), 5)) == "1.2346"
    assert str(BigReal.from_fraction(Fraction(-1234549999, 10**9), 5)) == "-1.2345"


@given(st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**30),
       st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_from_fraction_is_exact_half_even(num, den, digits):
    q = Fraction(num, den)
    assert BigReal.from_fraction(q, digits).value == _half_even(q, digits)


@given(st.integers(1, 40), st.data())
@settings(max_examples=300, deadline=None)
def test_from_fraction_near_and_exact_ties(digits, data):
    # mantissa + 1/2 in the last place, nudged by +-10^-depth or not at all
    mant = data.draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    nudge = data.draw(st.sampled_from((-1, 0, 1)))
    depth = data.draw(st.integers(1, 40))
    scale = Fraction(10) ** data.draw(st.integers(-60, 60))
    sign = data.draw(st.sampled_from((-1, 1)))
    q = sign * (mant + Fraction(1, 2) + Fraction(nudge, 10**depth)) * scale
    assert BigReal.from_fraction(q, digits).value == _half_even(q, digits)


@st.composite
def rationals_to_round(draw, digits: int) -> Fraction:
    """Either sign at any scale: any quotient, or mantissa + 1/2 in the last
    place -- an exact tie, or one nudged by 10^-depth -- with a random
    mantissa or all nines, which rounding up carries to a new digit."""
    sign = draw(st.sampled_from((-1, 1)))
    scale = Fraction(10) ** draw(st.integers(-80, 80))
    kind = draw(st.sampled_from(("quotient", "tie", "carry")))
    if kind == "quotient":
        q = Fraction(draw(st.integers(1, 10**80)), draw(st.integers(1, 10**80)))
        return sign * q * scale
    if kind == "tie":
        mant = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
    else:
        mant = 10**digits - 1
    nudge = Fraction(draw(st.sampled_from((-1, 0, 1))), 10 ** draw(st.integers(1, 40)))
    return sign * (mant + Fraction(1, 2) + nudge) * scale


@given(st.integers(1, 60), st.data())
@settings(max_examples=500, deadline=None)
def test_from_fraction_equals_the_decimal_division(digits, data):
    q = data.draw(rationals_to_round(digits))
    got, want = BigReal.from_fraction(q, digits), decimal_from_fraction(q, digits)
    assert got.value == want.value
    assert str(got) == str(want)


@st.composite
def common_factors(draw) -> int:
    """A common factor of 1 to 20 001 bits."""
    bits = draw(st.integers(0, 20000))
    return draw(st.integers(1 << bits, (2 << bits) - 1))


@given(st.integers(1, 60), st.data())
@settings(max_examples=300, deadline=None)
def test_an_unreduced_pair_rounds_as_its_lowest_terms(digits, data):
    # sums and coefficients reach the rounding as (n g, d g), g a common
    # factor of thousands of bits; either sign, exact ties and carries
    q = data.draw(rationals_to_round(digits))
    g = data.draw(common_factors())
    got = BigReal.from_fraction((q.numerator * g, q.denominator * g), digits)
    want = BigReal.from_fraction(q, digits)
    assert got.value == want.value and str(got) == str(want)
    assert str(got) == str(decimal_from_fraction(q, digits))


def test_from_fraction_carries_and_long_quotients():
    # 9995/1000 is a tie at 3 digits that carries: 9.995 -> 10.0
    assert str(BigReal.from_fraction(Fraction(9995, 1000), 3)) == "10.0"
    assert str(BigReal.from_fraction(Fraction(-9995, 1000), 3)) == "-10.0"
    # quotients of one digit more than asked: 15 and 25 at one digit are
    # ties (to even), 16/1000 is not
    cases = [Fraction(15), Fraction(25), Fraction(16, 1000), Fraction(95, 10**9),
             Fraction(-35, 7 * 10**6), Fraction(10**40 - 1, 10**40)]
    for q in cases:
        for digits in (1, 2, 3):
            got, want = BigReal.from_fraction(q, digits), decimal_from_fraction(q, digits)
            assert got.value == want.value and str(got) == str(want)
    assert str(BigReal.from_fraction(Fraction(15), 1)) == "2e1"
    assert str(BigReal.from_fraction(Fraction(25), 1)) == "2e1"


def test_from_fraction_at_2000_digits_equals_the_decimal_division():
    rng = random.Random(2000)
    cases = [Fraction(1, 3), Fraction(-2, 3), Fraction(10**2000 - 1, 10**2000)]
    for _ in range(30):
        num = rng.getrandbits(rng.randint(1, 30000)) + 1
        den = rng.getrandbits(rng.randint(1, 30000)) + 1
        cases.append(Fraction(rng.choice((-1, 1)) * num, den))
    mant = rng.randrange(10**1999, 10**2000)
    for m in (mant, mant + 1, 10**2000 - 1):
        for nudge in (-1, 0, 1):
            cases.append((m + Fraction(1, 2) + Fraction(nudge, 10**50)) / 10**1000)
    for q in cases:
        got, want = BigReal.from_fraction(q, 2000), decimal_from_fraction(q, 2000)
        assert got.value == want.value and str(got) == str(want)


# -- the short quotient of long operands -----------------------------------------


def short_cutoff(precision: int) -> int:
    """Bits above which the shorter operand lets ``from_fraction`` try the
    short quotient: ``_SHORT_BITS`` more than the quotient keeps."""
    keep = ((precision + mpnum._SHORT_GUARD_DIGITS + 1) * 3322 // 1000
            + mpnum._KEEP_EXTRA_BITS)
    return mpnum._SHORT_BITS + keep


def spy_on_short_quotient(monkeypatch) -> list:
    """(s passed, result) of every ``mpnum._short_mantissa`` call; the
    result is a (mantissa, s) pair, or None where the exact ``divmod`` had
    to decide."""
    calls = []
    short = mpnum._short_mantissa

    def spy(n, d, cut, keep, s, precision):
        calls.append((s, short(n, d, cut, keep, s, precision)))
        return calls[-1][1]

    monkeypatch.setattr(mpnum, "_short_mantissa", spy)
    return calls


def same_rounding(got: BigReal, want: BigReal) -> bool:
    return got.value == want.value and str(got) == str(want)


@st.composite
def long_pairs(draw, precision: int) -> tuple[int, int]:
    """(n, d) of either sign, the shorter from half to four times the
    short cutoff, and a quotient from far below 1 to past 10^precision,
    where s < 0."""
    bits = draw(st.integers(short_cutoff(precision) // 2, 4 * short_cutoff(precision)))
    gap = draw(st.integers(-4000, 4 * precision + 400))
    n_bits, d_bits = bits + max(gap, 0), bits + max(-gap, 0)
    n = draw(st.integers(1 << (n_bits - 1), (1 << n_bits) - 1))
    d = draw(st.integers(1 << (d_bits - 1), (1 << d_bits) - 1))
    return draw(st.sampled_from((-1, 1))) * n, d


@given(st.sampled_from((50, 300, 2000)), st.data())
@settings(max_examples=150, deadline=None)
def test_the_short_quotient_rounds_as_the_exact_divmod(precision, data):
    n, d = data.draw(long_pairs(precision))
    got = BigReal.from_fraction((n, d), precision)
    assert same_rounding(got, divmod_from_fraction((n, d), precision))


@pytest.mark.parametrize("precision", [50, 300, 2000])
def test_the_short_quotient_settles_random_long_pairs(precision, monkeypatch):
    # every random long pair with s >= 0 is settled by the short path, some
    # with a mantissa of precision + 1 digits, whose extra digit it splits
    # off (the s it returns is one less than the s it was given)
    calls = spy_on_short_quotient(monkeypatch)
    rng = random.Random(precision)
    bits = 2 * short_cutoff(precision)
    for _ in range(40):
        n = rng.getrandbits(bits + rng.randrange(3 * precision)) | 1 << bits
        d = rng.getrandbits(bits) | 1 << (bits - 1)
        q = (rng.choice((-1, 1)) * n, d)
        assert same_rounding(BigReal.from_fraction(q, precision),
                             divmod_from_fraction(q, precision))
    assert len(calls) == 40 and all(result for _, result in calls)
    assert {s - result[1] for s, result in calls} == {0, 1}


@pytest.mark.parametrize("precision", [50, 300, 2000])
def test_ties_and_exact_multiples_take_the_exact_divmod(precision, monkeypatch):
    # n/d = (2m + 1) 5 10^-(s + 1), a tie in the last place, one unit of n
    # off it either way, and m 10^-s, a quotient with nothing below the
    # mantissa, all times a long common factor g
    calls = spy_on_short_quotient(monkeypatch)
    rng = random.Random(precision + 1)
    bits = 2 * short_cutoff(precision)
    cases = []
    for mantissa in (rng.randrange(10 ** (precision - 1), 10**precision),
                     10**precision - 1, 10 ** (precision - 1)):
        for s in (0, precision, 3 * precision):
            g = rng.getrandbits(bits) | 1 << (bits - 1)
            tie = ((2 * mantissa + 1) * 5 * g, 10 ** (s + 1) * g)
            cases += [tie, (tie[0] - 1, tie[1]), (tie[0] + 1, tie[1]),
                      (mantissa * g, 10**s * g)]
    for n, d in cases:
        for sign in (-1, 1):
            got = BigReal.from_fraction((sign * n, d), precision)
            assert same_rounding(got, divmod_from_fraction((sign * n, d), precision))
            assert same_rounding(got, decimal_from_fraction(Fraction(sign * n, d), precision))
    # the short quotient ran on each of them and settled none
    assert len(calls) == 2 * len(cases)
    assert [result for _, result in calls] == [None] * len(calls)


def test_every_long_table_coefficient_takes_the_short_quotient(monkeypatch):
    # the 2000-digit tables of the paper's J0 and of J3 at k = 7/3, L <= 146:
    # each coefficient whose shorter operand is above the cutoff is settled
    # by the short quotient, and every one rounds as the exact divmod does
    calls = spy_on_short_quotient(monkeypatch)
    above = 0
    for kind, N, k in (("J", 0, Fraction(1)), ("J", 3, Fraction(7, 3))):
        for L in range(N % 2, 147, 2):
            pair = series._coeff_rational.__wrapped__(kind, L, N, k, 2000)
            assert 0 < abs(pair[0]) < pair[1]  # below 1, so s > 0
            bits = min(abs(pair[0]).bit_length(), pair[1].bit_length())
            above += bits > short_cutoff(2000)
            assert same_rounding(BigReal.from_fraction(pair, 2000),
                                 divmod_from_fraction(pair, 2000))
    assert above > 100 and len(calls) == above
    assert all(result for _, result in calls)


# -- gamma ---------------------------------------------------------------------


def test_gamma_half_int_values():
    # Gamma(3/2) = sqrt(pi)/2, Gamma(4) = 3!, Gamma(7/2) = 15 sqrt(pi)/8
    assert gamma_half_exact(1) == Fraction(1, 2)
    assert recip_gamma_exact(Fraction(4)) == (Fraction(1, 6), 0)
    assert gamma_half_exact(3) == Fraction(15, 8)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_half_exact(-1)


def test_gamma_recurrence_exact_up_to_200():
    for n in range(2, 201):
        assert recip_gamma_exact(Fraction(n))[0] * (n - 1) == recip_gamma_exact(
            Fraction(n - 1))[0]
        assert gamma_half_exact(n) == Fraction(2 * n - 1, 2) * gamma_half_exact(n - 1)


# -- Pochhammer and binomial --------------------------------------------------


def test_pochhammer_examples():
    assert pochhammer(Fraction(3), 4) == 360
    assert pochhammer(Fraction(-1, 2), 0) == 1
    assert pochhammer(Fraction(-2), 3) == 0


def _naive_pochhammer(a: Fraction, n: int) -> Fraction:
    prod = Fraction(1)
    for i in range(n):
        prod *= a + i
    return prod


@given(st.integers(-150, 150), st.integers(1, 4), st.integers(0, 60))
@settings(max_examples=400, deadline=None)
def test_pochhammer_matches_factor_by_factor_product(num, den, n):
    a = Fraction(num, den)
    expected = _naive_pochhammer(a, n)
    assert pochhammer(a, n) == expected
    if a.denominator == 1:
        got = pochhammer(int(a), n)
        assert got == expected and isinstance(got, Fraction)


def test_pochhammer_reflect_examples():
    assert pochhammer_reflect(Fraction(5, 2), 2) == Fraction(15, 4)
    assert pochhammer_reflect(Fraction(1), 1) == -1
    assert pochhammer_reflect(Fraction(7, 2), 3) == pochhammer(Fraction(-7, 2), 3)


def test_pochhammer_reflection_identity_bulk():
    rng = random.Random(20260810)
    for _ in range(1000):
        a = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        n = rng.randint(0, 50)
        assert pochhammer_reflect(a, n) == pochhammer(-a, n)


@given(st.fractions(min_value=-50, max_value=50), st.integers(0, 30))
@settings(max_examples=120, deadline=None)
def test_pochhammer_reflection_property(a, n):
    assert pochhammer_reflect(a, n) == pochhammer(-a, n)


def test_binomial_against_pascal_triangle():
    row = [1]
    for n in range(60):
        for r, c in enumerate(row):
            assert math.comb(n, r) == c
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    assert math.comb(42, 21) == 538257874440
    assert math.comb(6, 3) == 20


# -- the near-integer factorization witness ------------------------------------


def test_prime_base_is_the_primes_up_to_19():
    primes = tuple(n for n in range(2, 20) if all(n % d for d in range(2, n)))
    assert PRIMES == FACTOR_PRIMES == primes == (2, 3, 5, 7, 11, 13, 17, 19)


def test_factorize_examples():
    got = factorize_reciprocal(BigReal.parse("0.015625"), Fraction(1, 10**6))
    assert got == PrimePowers(exponents=((2, 6),), leftover=1, sign=1)

    got = factorize_reciprocal(BigReal.parse("-0.25"), Fraction(1, 10**6))
    assert got.sign == -1 and got.exponents == ((2, 2),) and got.leftover == 1

    # a reciprocal a hair above the integer: gap must be measured and passed
    near = Fraction(1) / Fraction(
        Decimal("106542032486400.000104784167278249059923631013442"))
    got = factorize_reciprocal(near, Fraction(1, 1000))
    assert got.exponents == ((2, 30), (3, 4), (5, 2), (7, 2))
    assert got.leftover == 1


def test_factorize_not_near_integer():
    off = Fraction(1) / Fraction(Decimal("106542032486495.616348"))
    with pytest.raises(NotNearInteger):
        factorize_reciprocal(off, Fraction(1, 10**6))


def test_factorize_leftover_reported_not_raised():
    got = factorize_reciprocal(Fraction(1, 2**3 * 23), Fraction(1, 10**6))
    assert got.exponents == ((2, 3),) and got.leftover == 23
    assert reconstruct(got) == 2**3 * 23


def test_factorize_rejects_zero_and_bad_tol():
    with pytest.raises(ValueError):
        factorize_reciprocal(Fraction(0), Fraction(1, 10))
    with pytest.raises(ValueError):
        factorize_reciprocal(Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        factorize_reciprocal(Fraction(1, 4), Fraction(0))


def test_factorize_round_trip_500_random_tuples():
    rng = random.Random(917)
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    for _ in range(500):
        exps = {p: rng.randint(0, 8 if p > 2 else 40) for p in primes}
        n = 1
        for p, e in exps.items():
            n *= p**e
        if n == 1:
            continue
        c = BigReal.from_fraction(Fraction(1, n), 60)
        got = factorize_reciprocal(c, Fraction(1, 10**6))
        assert got.leftover == 1 and got.sign == 1
        assert dict(got.exponents) == {p: e for p, e in exps.items() if e}
