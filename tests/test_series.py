"""Expansion coefficients, series assembly/evaluation, references, scans."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbessel import series
from flbessel.mpnum import BigReal
from flbessel.series import (
    DigitsExceedPrecision,
    TruncationCapExceeded,
    accuracy_scan,
    build_series,
    coeff_a,
    coeff_a_modified,
    coeff_rational_general,
    eval_allen,
    eval_series,
    maclaurin_ref,
    _phase_and_argument,
)
from flbessel.series import FLSeries
from oracles import (
    as_fraction,
    coeff_oracle,
    coeff_rational_reduced,
    fraction_coeff_rational,
    fraction_eval_allen,
    fraction_eval_series,
    fraction_maclaurin_series,
)
from refdata import TRUE_VALUES

F = Fraction


def test_coefficient_spot_values():
    assert str(coeff_a(0, 0, 1, 34)) == "0.9197304100897602393144211940806200"
    assert str(coeff_a(2, 0, 1, 34)) == "-0.1579420586258518875737139671443637"
    assert str(coeff_a(1, 1, 1, 34)) == "0.4635981705953810635941110039338702"
    assert str(coeff_a_modified(0, 0, 1, 34)) == "1.086521097023589815837941923492506"
    assert str(coeff_a_modified(3, 1, 1, 34)) == "0.02618069164825977449795296407260333"


def test_high_order_coefficient_earns_every_digit():
    # L = N = 40: the regularized 2F3 sum is far below one, and a stop
    # floored at one ended it with 5 correct digits; mpmath's hyper closed
    # form at 80 digits gives these 50
    assert str(coeff_a(40, 40, 1, 50)) == (
        "1.0691074194105541917843716029014042364485821763258e-71"
    )


@pytest.mark.parametrize("L, N, k", [(0, 0, 600), (20, 0, 600), (4, 0, 1400),
                                     (9, 5, 1400)])
def test_large_scale_coefficients_match_mpmath(L, N, k):
    # the terms at z = -k^2/4 peak near n = k/2, so these sums need more
    # than the 700 terms of a cap blind to k; mpmath's hyper at 700 digits
    # has hundreds of digits left after the series' cancellation
    mpmath = pytest.importorskip("mpmath")
    got = coeff_a(L, N, k, 50).to_fraction()
    with mpmath.workdps(700):
        half = mpmath.mpf(1) / 2
        h = mpmath.hyper([half * (L + 1), half * (L + 2)],
                         [half * (2 * L + 3), (L - N) // 2 + 1, (L + N) // 2 + 1],
                         -mpmath.mpf(k) ** 2 / 4)
        sigma = -1 if ((L - N) // 2) % 2 else 1
        want = (mpmath.sqrt(mpmath.pi) * 2 * (2 * L + 1) * sigma * mpmath.mpf(k) ** L
                * mpmath.factorial(L) * h / mpmath.mpf(2) ** (2 * L + 2)
                / (mpmath.gamma(half * (2 * L + 3)) * mpmath.factorial((L - N) // 2)
                   * mpmath.factorial((L + N) // 2)))
        err = abs(mpmath.mpf(got.numerator) / got.denominator - want)
        assert err <= abs(want) * mpmath.mpf(10) ** -49


@pytest.mark.parametrize("N", [2, 5, 12])
@pytest.mark.parametrize("kind", ["J", "I"])
def test_coefficients_sum_to_the_value_at_one(kind, N):
    # P_L(1) = 1, so sum_L a_L = J_N(k) (or I_N(k)); at k = 1 the terms past
    # L = 80 are far below 1e-70 of it
    total = sum(
        as_fraction(series._coeff_rational(kind, L, N, F(1), 50)) for L in range(81)
    )
    ref = maclaurin_ref(kind, N, 1, 1, 90).to_fraction()
    assert abs(total - ref) <= abs(ref) * F(1, 10**70)


def test_parity_gate_gives_exact_zero():
    for L, N in ((1, 0), (2, 1), (5, 2), (0, 3)):
        assert coeff_a(L, N, 1, 30).is_zero()
        assert coeff_a_modified(L, N, 1, 30).is_zero()


def test_reduced_and_general_routes_agree():
    # at N in {0, 1} the term generator drops the general route's equal
    # parameter pair, leaving the hand-reduced 1F2's ratios; the sums stop
    # at the same index and the prefactors agree, so the values are equal
    grid = [(50, k, range(81)) for k in (F(1), F(7, 3), F(1, 10), F(-3, 2), F(9, 2))]
    grid += [(2000, k, (0, 1, 41, 146)) for k in (F(1), F(3, 4))]
    for precision, k, degrees in grid:
        for kind in ("J", "I"):
            for N in (0, 1):
                for L in (L for L in degrees if (L + N) % 2 == 0):
                    sigma, z = _phase_and_argument(kind, L, N, k)
                    r = coeff_rational_reduced(L, N, k, z, sigma, precision)
                    g = coeff_rational_general(L, N, k, z, sigma, precision)
                    assert as_fraction(r) == as_fraction(g), (kind, N, k, L)


def test_modified_is_argument_flip_of_plain():
    # substituting an imaginary scale flips the series argument and cancels
    # the phase; check the two closed forms against each other directly
    for L, N in ((0, 0), (4, 2), (6, 0), (3, 1), (2, 4)):
        k = F(3, 2)
        sigma_j, z_j = _phase_and_argument("J", L, N, k)
        got = as_fraction(coeff_rational_general(L, N, k, -z_j, sigma_j, 40)) * sigma_j
        want = as_fraction(coeff_rational_general(L, N, k, -z_j, 1, 40))
        assert got == want
        mod = coeff_a_modified(L, N, k, 40)
        assert abs(mod.to_fraction() - want) <= abs(want or F(1)) * F(1, 10**38)


def test_coefficients_give_the_integers_of_the_fraction_products():
    # each prefactor and first term built as one integer pair and normalized
    # once is the lowest-terms pair of the reduced Fraction products, so
    # every coefficient is the same unreduced (n, d)
    for kind in ("J", "I"):
        for N in (0, 1, 2, 3, 5, 12, 40):
            for k in (F(1), F(7, 3), F(1, 10), F(-3, 2), F(9, 2)):
                for L in range(N % 2, 41, 2):
                    got = series._coeff_rational.__wrapped__(kind, L, N, k, 50)
                    assert got == fraction_coeff_rational(kind, L, N, k, 50)


def test_maclaurin_series_is_the_fraction_products(monkeypatch):
    # z and the first term reach plain_terms as Fractions, whose equality
    # is that of their lowest-terms numerators and denominators
    seen = []
    plain_terms = series.plain_terms

    def spy(upper, lower, z, first):
        seen.append((z, first))
        return plain_terms(upper, lower, z, first)

    monkeypatch.setattr(series, "plain_terms", spy)
    for kind in ("J", "I"):
        for N in (0, 1, 2, 5, 12):
            for k in (F(1), F(7, 3), F(1, 10), F(-3, 2), F(9, 2)):
                for x in (F(1), F(-1, 2), F(3, 7), F(0)):
                    maclaurin_ref(kind, N, k, x, 30)
                    assert seen.pop() == fraction_maclaurin_series(kind, N, k, x)


def test_oracle_equivalence_sample():
    for L in range(0, 9, 2):
        for N in range(0, 5, 2):
            for k in (F(1, 2), F(1), F(2)):
                a = coeff_a(L, N, k, 34)
                o = coeff_oracle(L, N, k, L // 2 + 45, 34)
                assert abs(a.value - o.value) <= abs(o.value) * Decimal(10) ** -30


def test_oracle_modified_sample():
    for L, N in ((0, 0), (4, 0), (3, 1), (0, 2)):
        a = coeff_a_modified(L, N, 1, 34)
        o = coeff_oracle(L, N, 1, 60, 34, kind="I")
        assert abs(a.value - o.value) <= abs(o.value) * Decimal(10) ** -30


def test_build_series_l_max_mode(j0_42, i0_46):
    assert len(j0_42.entries) == 22 and j0_42.l_max == 42
    assert len(i0_46.entries) == 24 and i0_46.l_max == 46


def test_build_series_threshold_mode():
    s = build_series("J", 0, 1, threshold=F(1, 10**9), precision=34)
    # entries through P_8 only: the first dropped coefficient is 3.68e-10
    assert s.l_max == 8 and len(s.entries) == 5


def test_build_series_threshold_is_compared_exactly():
    # a threshold a hair above |a_L| drops a_L; rounded to 28 digits, it
    # could fall below a_L's 50-digit value and keep it
    for L in range(2, 60, 2):
        a_L = as_fraction(series._coeff_rational("J", L, 0, F(1), 50))
        s = build_series("J", 0, 1, threshold=abs(a_L) * (1 + F(1, 10**40)),
                         precision=50)
        assert s.l_max == L - 2, L


def test_build_series_default_threshold():
    s = build_series("J", 0, 1, precision=20)
    # stops once two consecutive coefficients fall below 1e-22
    assert all(abs(a.value) >= Decimal(10) ** -22 for _, a in s.entries)
    assert s.l_max >= 16


def test_build_series_rejects_both_modes():
    with pytest.raises(ValueError):
        build_series("J", 0, 1, l_max=10, threshold=F(1, 10), precision=20)


def test_truncation_cap():
    with pytest.raises(TruncationCapExceeded):
        build_series("J", 0, 1, threshold=F(1, 10**4500), precision=5)
    # an l_max beyond the cap is refused before any coefficient is computed
    misses = series._coeff_rational.cache_info().misses
    with pytest.raises(TruncationCapExceeded):
        build_series("J", 0, F(7, 9), l_max=900, precision=5)
    assert series._coeff_rational.cache_info().misses == misses


def test_series_sign_patterns(j0_42, j1_43, i0_46, i1_45):
    for s in (j0_42, j1_43):
        signs = [a.sign for _, a in s.entries]
        assert all(x * y < 0 for x, y in zip(signs, signs[1:]))
        assert signs[0] > 0
    for s in (i0_46, i1_45):
        assert all(a.sign > 0 for _, a in s.entries)


def test_eval_spot_values(j0_42, j1_43, i0_46, i1_45):
    checks = [
        (j0_42, F(3), ("J", 0, "3"), Decimal("2e-35")),
        (j0_42, F(8), ("J", 0, "8"), Decimal("3e-16")),
        (j1_43, F(3), ("J", 1, "3"), Decimal("1e-36")),
        (j1_43, F(8), ("J", 1, "8"), Decimal("5e-17")),
        (i0_46, F(15, 4), ("I", 0, "15/4"), Decimal("2e-35")),
        (i0_46, F(8), ("I", 0, "8"), Decimal("3e-19")),
        (i1_45, F(15, 4), ("I", 1, "15/4"), Decimal("3e-34")),
        (i1_45, F(8), ("I", 1, "8"), Decimal("2e-18")),
    ]
    for s, x, key, tol in checks:
        got = eval_series(s, x, 44)
        assert abs(got.value - TRUE_VALUES[key]) < tol, key


def test_eval_odd_series_at_zero(j1_43):
    assert eval_series(j1_43, 0, 30).is_zero()


def test_eval_empty_series():
    empty = FLSeries("J", 0, F(1), (), 30)
    assert eval_series(empty, F(2), 30).is_zero()


def test_eval_refuses_digits_beyond_the_series(j0_42):
    coarse = build_series("J", 0, 1, l_max=42, precision=20)
    with pytest.raises(DigitsExceedPrecision):
        eval_series(coarse, 1, 60)
    assert eval_series(coarse, 1, 20) == eval_series(j0_42, 1, 20)


def test_maclaurin_reference_against_independent_values():
    for (kind, N, xs), want in TRUE_VALUES.items():
        got = maclaurin_ref(kind, N, 1, F(xs), 40)
        assert abs(got.value - want) < Decimal(10) ** (want.adjusted() - 38)


def test_k_scaling_consistency():
    for k, x in ((F(2), F(1)), (F(1, 2), F(3))):
        for N in (0, 1):
            scaled = build_series("J", N, k, l_max=40 + N, precision=40)
            unit = build_series("J", N, 1, l_max=40 + N, precision=40)
            lhs = eval_series(scaled, x, 40)
            rhs = eval_series(unit, k * x, 40)
            assert abs(lhs.value - rhs.value) < Decimal(10) ** -36


def test_allen_quoted_displays():
    assert eval_allen("J0", 3).render(6) == "-0.260052"
    assert eval_allen("I0", F(15, 4)).render(6) == "9.11895"
    assert eval_allen("J1", 3).render(6) == "0.339059"
    with pytest.raises(ValueError):
        eval_allen("K0", 1)


def test_allen_fit_meets_its_published_bound(j0_42):
    series_rep, fit_rep = accuracy_scan(j0_42, -3, 3, 61, ("J0",), precision=20)
    # the fit is only 5e-8 accurate; the series is far closer to the truth
    assert fit_rep.max_abs_error.value < Decimal("5e-8")
    assert fit_rep.max_abs_error.precision == 8
    assert series_rep.max_abs_error.value < Decimal("1e-19")
    assert series_rep == accuracy_scan(j0_42, -3, 3, 61, precision=20)


def test_accuracy_scan_basics(j0_42):
    rep = accuracy_scan(j0_42, -1, 1, 21, precision=40)
    assert rep.max_abs_error.value < Decimal("1e-34")
    assert -1 <= rep.argmax_x <= 1
    assert rep.grid_points == 21
    with pytest.raises(ValueError):
        accuracy_scan(j0_42, -1, 1, 1)
    with pytest.raises(ValueError):
        accuracy_scan(j0_42, -1, 1, 5, ("K0",))


# -- integer kernels against the Fraction references ---------------------------


@lru_cache(maxsize=None)
def _series_to_60(kind: str, N: int, k: Fraction) -> FLSeries:
    return build_series(kind, N, k, l_max=60, precision=30)


def _same_decimal(got: BigReal, want: BigReal) -> bool:
    """Equal digits, exponent and precision, not just equal value."""
    return got.precision == want.precision and got.value.as_tuple() == want.value.as_tuple()


#: Arguments: 0, the ends +-1, inside and outside [-1, 1], plain integers,
#: and fractions given by a numerator and denominator with a common factor,
#: as the command line's p/q parser receives them.
eval_points = st.one_of(
    st.sampled_from([0, 1, -1, F(1), F(-1)]),
    st.fractions(min_value=-1, max_value=1, max_denominator=60),
    st.fractions(min_value=-9, max_value=9, max_denominator=16).filter(
        lambda x: abs(x) > 1
    ),
    st.integers(-6, 6),
    st.builds(lambda a, b, g: F(a * g, b * g), st.integers(-50, 50),
              st.integers(1, 40), st.integers(2, 12)),
)


@given(st.sampled_from("JI"), st.integers(0, 4), st.sampled_from([F(1), F(7, 4)]),
       st.integers(-1, 60), eval_points, st.integers(1, 30), st.booleans())
@settings(max_examples=300, deadline=None)
def test_eval_series_equals_fraction_bonnet(kind, N, k, l_max, x, precision, exact):
    # with and without the exact values: a series parsed from JSON carries
    # only its rounded entries
    full = _series_to_60(kind, N, k)
    n = sum(1 for L, _ in full.entries if L <= l_max)
    s = FLSeries(kind, N, k, full.entries[:n], 30,
                 exact=full.exact[:n] if exact else ())
    got = eval_series(s, x, precision)
    assert _same_decimal(got, fraction_eval_series(s, x, precision))


@given(st.sampled_from(sorted(series.ALLEN_RANGE)),
       st.one_of(st.sampled_from([0, 3, -3, F(15, 4), F(-15, 4)]),
                 st.fractions(min_value=-40, max_value=40, max_denominator=10**6),
                 st.integers(-10**6, 10**6)),
       st.integers(1, 80))
@settings(max_examples=400, deadline=None)
def test_eval_allen_equals_fraction_horner(which, x, precision):
    got = eval_allen(which, x, precision)
    assert _same_decimal(got, fraction_eval_allen(which, x, precision))
    as_big = BigReal.from_fraction(F(x), 12)
    assert _same_decimal(eval_allen(which, as_big, precision),
                         fraction_eval_allen(which, as_big.to_fraction(), precision))


@pytest.mark.parametrize("kind, N, l_max", [("J", 0, 40), ("J", 1, 41), ("I", 0, 40)])
def test_eval_is_the_correctly_rounded_function_on_the_unit_interval(kind, N, l_max):
    # the truncation error on [-1, 1] is about 2e-64, far below the last of
    # 50 digits; summing the 50-digit rounded coefficients missed 26, 50 and
    # 12 of these 121 points
    s = build_series(kind, N, 1, l_max=l_max, precision=50)
    wrong = []
    for i in range(-60, 61):
        x = F(i, 60)
        want = BigReal.from_fraction(maclaurin_ref(kind, N, 1, x, 90).to_fraction(), 50)
        if str(eval_series(s, x)) != str(want):
            wrong.append(x)
    assert wrong == []


@pytest.mark.parametrize("kind, N", [
    ("J", 0), ("J", 1), ("J", 2), ("J", 5), ("J", 12), ("I", 6),
])
def test_order_ladder_ties_neighbouring_tables(kind, N):
    # 2 J_N' = J_{N-1} - J_{N+1} and 2 I_N' = I_{N-1} + I_{N+1} (DLMF 10.6,
    # 10.29), with J_{-1} = -J_1 and I_{-1} = I_1; the P_j coefficient of a
    # derivative is (2j+1) times the sum of a_L over L > j with L - j odd
    # (DLMF 18.9), so exactly
    #   (2j+1) sum_{L>j, L-j odd} a^N_L = (k/2) (a^{N-1}_j -+ a^{N+1}_j).
    # Past j = 50 the missing tail a_{L>80} dominates.
    k, top = F(1), 80
    sign = -1 if kind == "J" else 1

    def table(n):
        if n < 0:
            return [sign * q for q in table(-n)]
        return [as_fraction(series._coeff_rational(kind, L, n, k, 50))
                for L in range(top + 1)]

    below, here, above = table(N - 1), table(N), table(N + 1)
    lhs = [(2 * j + 1) * sum(here[j + 1::2], F(0)) for j in range(50)]
    rhs = [k / 2 * (below[j] + sign * above[j]) for j in range(50)]
    largest = max(abs(v) for v in lhs + rhs)
    worst = max(abs(a - b) for a, b in zip(lhs, rhs))
    assert worst <= largest * F(1, 10**60)
