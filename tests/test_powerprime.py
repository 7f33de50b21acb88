"""Power-series folding, exact coefficients, prime-structure certification."""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from flbessel.mpnum import BigReal
from flbessel.powerprime import (
    CERTIFY_TOL,
    PowerSeries,
    certify_prime_structure,
    exact_power_series,
    exact_reciprocal,
    maclaurin_exact,
    to_power_series,
)
from flbessel.series import build_series
from oracles import (
    NotNearInteger,
    as_fraction,
    compare_power_series,
    factorize_reciprocal,
    monomial_coefficient,
)
from refdata import J0_EXPONENTS, J1_EXPONENTS, table1_rows, ulp_of

F = Fraction


def test_maclaurin_exact_examples():
    j0 = dict(maclaurin_exact("J", 0, 10))
    assert j0[6] == F(-1, 2304)
    assert j0[0] == 1 and j0[2] == F(-1, 4)

    j1 = dict(maclaurin_exact("J", 1, 43))
    denom = (2**80) * (3**18) * (5**8) * (7**6) * (11**3) * (13**2) * (17**2) * (19**2)
    assert j1[43] == F(-1, denom)

    i0 = dict(maclaurin_exact("I", 0, 44))
    from flbessel.mpnum import BigReal

    assert (
        str(BigReal.from_fraction(i0[44], 38))
        == "4.4993212828093539168451396307446688497e-56"
    )


def test_maclaurin_scale_folds_in():
    base = dict(maclaurin_exact("J", 0, 8))
    scaled = dict(maclaurin_exact("J", 0, 8, k=F(1, 2)))
    for m, c in scaled.items():
        assert c == base[m] * F(1, 2) ** m


def test_i_and_j_coefficients_match_in_magnitude():
    j = maclaurin_exact("J", 0, 46)
    i = maclaurin_exact("I", 0, 46)
    for (mj, cj), (mi, ci) in zip(j, i):
        assert mj == mi and abs(cj) == ci


def test_fold_reproduces_low_powers(j0_74terms, j1_78terms):
    p0 = to_power_series(j0_74terms, 16)
    c4 = dict(p0.coeffs)[4]
    assert abs(c4.value - Decimal("0.015625")) < Decimal(10) ** -38
    p1 = to_power_series(j1_78terms, 5)
    c5 = dict(p1.coeffs)[5]
    with localcontext() as ctx:
        ctx.prec = 60
        want = Decimal(1) / Decimal(384)
        assert abs(c5.value - want) < Decimal(10) ** -39


def test_single_entry_fold_is_first_table_row(j0_42):
    one = build_series("J", 0, 1, l_max=0, precision=50)
    p = to_power_series(one, 0)
    row0 = table1_rows()[0]
    assert abs(dict(p.coeffs)[0].value - Decimal(row0)) <= ulp_of(row0)


def test_fold_ladder_matches_convergence_table(j0_42):
    # folding 1..17 Legendre terms reproduces the published constant-term
    # column to at least 45 digits
    rows = table1_rows()
    for n, row in enumerate(rows, start=1):
        sub = build_series("J", 0, 1, l_max=2 * (n - 1), precision=50)
        p = to_power_series(sub, 0)
        assert abs(dict(p.coeffs)[0].value - Decimal(row)) < Decimal(10) ** -45


def test_compare_power_series(j0_74terms):
    p = to_power_series(j0_74terms, 42)
    errs = dict(compare_power_series(p, maclaurin_exact("J", 0, 42)))
    exact = dict(maclaurin_exact("J", 0, 42))
    for m, err in errs.items():
        assert err.value <= abs(Decimal(exact[m].numerator) / Decimal(exact[m].denominator)) * Decimal(10) ** -36


def test_compare_partial_fold_error_is_the_table_gap():
    one = build_series("J", 0, 1, l_max=0, precision=50)
    p = to_power_series(one, 0)
    errs = dict(compare_power_series(p, maclaurin_exact("J", 0, 0)))
    assert abs(errs[0].value - Decimal("0.0802695899102397606855788059194")) < Decimal(
        "1e-28"
    )


def test_certify_converged_x16(j0_74terms):
    p = to_power_series(j0_74terms, 16)
    rep = certify_prime_structure(p)
    e = rep.entry(16)
    assert e.certified
    assert e.factors.exponents == ((2, 30), (3, 4), (5, 2), (7, 2))
    assert e.factors.leftover == 1
    assert e.gap.value / e.nearest < Decimal("1e-12")


def test_certify_under_truncated_x16_not_near_integer():
    s = build_series("J", 0, 1, l_max=24, precision=48)
    p = to_power_series(s, 16)
    rep = certify_prime_structure(p)
    e = rep.entry(16)
    assert not e.certified
    assert e.nearest == 106542032486496
    with localcontext() as ctx:
        ctx.prec = 60
        recip = Decimal(1) / dict(p.coeffs)[16].value
        assert abs(recip - Decimal("106542032486495.6")) < 1


def test_certify_x0_is_unit(j0_74terms):
    p = to_power_series(j0_74terms, 0)
    e = certify_prime_structure(p).entry(0)
    assert e.certified and e.factors.exponents == () and e.factors.leftover == 1


def test_certify_divides_out_scale():
    s = build_series("J", 0, F(1, 2), l_max=40, precision=50)
    p = to_power_series(s, 8)
    rep = certify_prime_structure(p)
    for m, want in ((4, (2, 6)), (8, (2, 14))):
        e = rep.entry(m)
        assert e.certified and e.factors.exponents[0] == want


def test_exact_series_certifies_every_published_tuple():
    for kind_order, max_power, table in (
        ((0,), 42, J0_EXPONENTS),
        ((1,), 43, J1_EXPONENTS),
    ):
        N = kind_order[0]
        p = exact_power_series("J", N, max_power, precision=70)
        rep = certify_prime_structure(p)
        assert rep.all_certified
        for m, exps in table.items():
            e = rep.entry(m)
            assert dict(e.factors.exponents) == exps, (N, m)
            assert e.factors.leftover == 1
        # x^0 of the even series is 1
        if N == 0:
            assert rep.entry(0).factors.exponents == ()


@pytest.mark.parametrize("terms", [6, 24, 74])
@pytest.mark.parametrize("k", [F(1), F(1, 2), F(7, 3), F(-3, 2)])
@pytest.mark.parametrize("kind", ["J", "I"])
def test_exact_certificate_matches_trial_division_of_the_nearest(kind, k, terms):
    # the witness rounds 1/|c_m| and trial-divides it; the package checks the
    # integer against 2^m j! (j+N)! and factors that by Legendre's formula
    certified = 0
    for N in (0, 1, 2, 5, 12):
        s = build_series(kind, N, k, l_max=N % 2 + 2 * (terms - 1), precision=50)
        p = to_power_series(s, 43)
        for (m, c), e in zip(p.coeffs, certify_prime_structure(p).entries):
            q = c.to_fraction() / k**m
            try:
                want = factorize_reciprocal(q, CERTIFY_TOL) if q else None
            except NotNearInteger:
                want = None
            assert e.factors == want, (N, m)
            assert not (m < N and e.certified), (N, m)
            certified += e.certified
    assert certified


def _hand_built(order: int, coeffs: dict[int, Fraction]) -> PowerSeries:
    return PowerSeries(
        kind="J", order=order, k=F(1),
        coeffs=tuple((m, BigReal.from_fraction(c, 50)) for m, c in coeffs.items()),
        provenance=0, precision=50,
    )


def test_an_integer_reciprocal_other_than_the_exact_one_is_not_certified():
    # 1/|c_4| of J_0 is 2^4 2! 2! = 64; 63 = 3^2 7 is an integer near
    # nothing the series can converge to, and so is 64 at the wrong parity
    assert exact_reciprocal(0, 2) == 64
    p = _hand_built(0, {0: F(1), 4: F(1, 63), 5: F(1, 64), 6: F(-1, 2304)})
    rep = certify_prime_structure(p)
    assert [e.certified for e in rep.entries] == [True, False, False, True]
    assert rep.entry(4).nearest == 63
    assert rep.entry(4).gap.to_fraction() <= CERTIFY_TOL
    assert factorize_reciprocal(F(1, 63), CERTIFY_TOL).exponents == ((3, 2), (7, 1))
    assert rep.entry(6).factors.exponents == ((2, 8), (3, 2))
    assert rep.entry(6).factors.sign == -1


def test_nothing_below_x_to_the_n_is_certified():
    # the exact coefficient below x^N is 0, so no reciprocal exists there,
    # however integer the printed one is
    p = _hand_built(4, {0: F(1), 2: F(1, 8), 4: F(1, 384)})
    rep = certify_prime_structure(p)
    assert [e.certified for e in rep.entries] == [False, False, True]
    assert rep.entry(2).nearest == 8 and rep.entry(2).gap.is_zero()
    for kind in ("J", "I"):
        for N in (2, 5, 12):
            s = build_series(kind, N, 1, l_max=N % 2 + 46, precision=50)
            for e in certify_prime_structure(to_power_series(s, N + 10)).entries:
                assert e.certified == (e.power >= N), (kind, N, e.power)


def test_eight_primes_are_exact_while_j_plus_n_is_at_most_22():
    # the abstract's inverse powers of 2..19: exact up to j+N = 22, and the
    # prime 23 enters the leftover at j+N = 23
    for kind in ("J", "I"):
        for N in range(13):
            rep = certify_prime_structure(exact_power_series(kind, N, 80, precision=200))
            assert rep.all_certified
            for e in rep.entries:
                j = (e.power - N) // 2
                left = e.factors.leftover
                assert (left == 1) == (j + N <= 22), (kind, N, j)
                if j + N == 23:
                    assert left == 23 ** (1 + (j == 23)), (kind, N, j)
                if j + N > 22:
                    assert left % 23 == 0


def test_certified_sign_patterns(j0_74terms):
    p = to_power_series(j0_74terms, 42)
    for m, c in p.coeffs:
        assert c.sign == (1 if (m // 2) % 2 == 0 else -1)
    i = exact_power_series("I", 0, 46)
    assert all(c.sign > 0 for _, c in i.coeffs)


def test_fold_error_non_increasing_with_provenance():
    exact = dict(maclaurin_exact("J", 0, 16))
    with localcontext() as ctx:
        ctx.prec = 70
        want = Decimal(exact[16].numerator) / Decimal(exact[16].denominator)
        last = None
        for lmax in (24, 26, 28, 34, 44, 60):
            s = build_series("J", 0, 1, l_max=lmax, precision=50)
            err = abs(dict(to_power_series(s, 16).coeffs)[16].value - want)
            if last is not None:
                assert err <= last + Decimal(10) ** -64
            last = err


@pytest.mark.parametrize("k", [F(1), F(7, 4)])
@pytest.mark.parametrize("N", [0, 1])
@pytest.mark.parametrize("kind", ["J", "I"])
def test_fold_is_the_correctly_rounded_exact_fold(kind, N, k):
    # 74 terms: the huge alternating [x^m] P_L amplified the 50-digit
    # rounding of each a_L when the fold summed the rounded values
    s = build_series(kind, N, k, l_max=146 + N, precision=50)
    p = to_power_series(s, 45)
    for m, c in p.coeffs:
        exact = sum(
            (as_fraction(q) * monomial_coefficient(L, m)
             for (L, _), q in zip(s.entries, s.exact)),
            F(0),
        )
        assert c == BigReal.from_fraction(exact, 50), m
