"""Summed-series identities, bracket variants, partial sums, Cauchy checks."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from flbessel import sumverify
from flbessel.cli import main
from flbessel.hypergeom import plain_sum_rational
from flbessel.legendre import monomials
from flbessel.mpnum import DEFAULT_GUARD_DIGITS, BigReal
from flbessel.powerprime import to_power_series
from flbessel.series import _coeff_rational, reduced_parameters
from flbessel.sumverify import (
    SumSpec,
    _brackets,
    partial_sums_rational,
    rhs_rational,
    term_rational,
    verify_identity,
)
from oracles import cauchy_check, summed_series_lhs
from refdata import table1_rows, ulp_of

F = Fraction


def spec(family="j0", h=0, k=1, terms=17, precision=50, variant="pochhammer"):
    return SumSpec(family=family, h=h, k=F(k), L_terms=terms,
                   precision=precision, variant=variant)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(family="y0")
    with pytest.raises(ValueError):
        spec(h=3, terms=2)  # fewer terms than the vanished head
    with pytest.raises(ValueError):
        spec(variant="gamma")


def test_bracket_variants_agree_randomly():
    rng = random.Random(1234)
    for _ in range(100):
        h = rng.randint(0, 10)
        fam = rng.choice(("j0", "j1"))
        L = 2 * rng.randint(h, h + 40) + (1 if fam == "j1" else 0)
        m = (L - (1 if fam == "j1" else 0)) // 2 - h
        poch, refl, gamm = _brackets(fam, L, h, m)
        assert poch == refl == gamm


def test_bracket_variants_agree_for_every_L_up_to_200():
    for fam, off in (("j0", 0), ("j1", 1)):
        for L in range(off, 201, 2):
            for h in range((L - off) // 2 + 1):
                m = (L - off) // 2 - h
                poch, refl, gamm = _brackets(fam, L, h, m)
                assert poch == refl == gamm, (fam, L, h)


@pytest.mark.parametrize("fam, h_hi, terms", [("j0", 42, 74), ("j1", 43, 78)])
def test_bracket_variants_agree_on_the_benchmark_sweeps(fam, h_hi, terms):
    # verify --h-range 0..h_hi --terms +terms reaches L = 230 (j0) and 241
    # (j1); a term builds only the variant it is asked for
    off = 1 if fam == "j1" else 0
    for h in range(h_hi + 1):
        for L in range(2 * h + off, off + 2 * (h + terms), 2):
            m = (L - off) // 2 - h
            poch, refl, gamm = _brackets(fam, L, h, m)
            assert poch == refl == gamm, (fam, L, h)
            assert _brackets(fam, L, h, m, ("reflected",)) == (refl,)


@pytest.mark.parametrize("k", [F(1, 2), F(3, 4), F(1), F(3, 2), F(7, 3)])
def test_term_is_the_coefficient_times_the_bonnet_monomial(k):
    # independent witness of the fold: the coefficient of x^(2h+N) in P_L
    # from the Bonnet-recurrence table, not from the closed form T
    table = [monomials(L).coeffs for L in range(161)]
    for fam, N in (("j0", 0), ("j1", 1)):
        for h in range(21):
            sp = spec(family=fam, h=h, k=k, terms=h + 1)
            for L in range(2 * h + N, 161, 2):
                a_L = _coeff_rational("J", L, N, k, 50, DEFAULT_GUARD_DIGITS)
                assert term_rational(sp, L) == a_L * table[L][2 * h + N], (fam, h, L)


@pytest.mark.parametrize("family", ["j0", "j1"])
@pytest.mark.parametrize("variant", ["pochhammer", "reflected", "gammaform"])
def test_a_bracket_off_by_one_part_in_1e60_stops_verify(
    monkeypatch, capsys, family, variant
):
    real = sumverify._brackets

    def perturbed(fam, L, h, m, variants=sumverify.VARIANTS):
        # exact up to L = 20, so the check of every term is what fires
        scale = 1 + F(1, 10**60) if L > 20 else 1
        return tuple(b * scale for b in real(fam, L, h, m, variants))

    monkeypatch.setattr(sumverify, "_brackets", perturbed)
    code = main(["verify", "--family", family, "--h-range", "0..2",
                 "--terms", "+15", "--variant", variant])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
    assert out.err.startswith("computation failed:")


def test_first_h_terms_vanish():
    for fam in ("j0", "j1"):
        off = 1 if fam == "j1" else 0
        for h in range(0, 21, 4):
            sp = spec(family=fam, h=h, terms=h + 5)
            for i in range(h):
                assert term_rational(sp, 2 * i + off) == 0
            assert term_rational(sp, 2 * h + off) != 0


def test_rhs_values():
    assert rhs_rational(spec(family="j0", h=0, k=7)) == 1
    assert rhs_rational(spec(family="j0", h=2, k=1, terms=10)) == F(1, 64)
    assert rhs_rational(spec(family="j1", h=1, k=2, terms=10)) == F(-1, 2)


def test_lhs_reaches_rhs_at_published_truncations():
    r0 = verify_identity(spec(family="j0", h=0, terms=44), F(1, 10**33))
    assert r0.passed

    r1 = verify_identity(spec(family="j0", h=1, terms=47), F(1, 10**30))
    assert r1.passed and r1.rhs.value == Decimal("-0.25")

    r2 = verify_identity(spec(family="j1", h=0, terms=45), F(1, 10**33))
    assert r2.passed and r2.rhs.value == Decimal("0.5")


def test_under_truncation_fails_without_raising():
    r = verify_identity(spec(family="j0", h=0, terms=5), F(1, 10**33))
    assert not r.passed
    assert r.rel_diff.value > Decimal(10) ** -33


def test_partial_sums_match_convergence_table():
    rows = table1_rows()
    parts = partial_sums_rational(spec(terms=17, precision=50))
    assert len(parts) == 17
    for q, row in zip(parts, rows):
        got = BigReal.from_fraction(q, 50)
        assert abs(got.value - Decimal(row)) <= ulp_of(row)


def test_consistency_with_power_series_fold(j0_74terms, j1_78terms):
    # the h-th summed series is the x^(2h) (resp. x^(2h+1)) coefficient
    p0 = to_power_series(j0_74terms, 10)
    for h in (0, 1, 2, 5):
        lhs = summed_series_lhs(spec(family="j0", h=h, terms=74))
        cm = p0.coefficient(2 * h)
        assert abs(lhs.value - cm.value) < Decimal(10) ** -44
    p1 = to_power_series(j1_78terms, 11)
    for h in (0, 3):
        lhs = summed_series_lhs(spec(family="j1", h=h, terms=78))
        cm = p1.coefficient(2 * h + 1)
        assert abs(lhs.value - cm.value) < Decimal(10) ** -44


def test_even_only_display_transcribed_literally_is_half_the_term():
    # The standalone even-only (h=0, k=1) display omits the parity-gate
    # factor of two that its general form carries; transcribed literally it
    # is exactly half of the summand implemented here (which does reach the
    # limit 1).  Pin that relationship so the discrepancy stays visible.
    import math

    from flbessel.mpnum import gamma_half_exact, pochhammer

    sp = spec(h=0, terms=17)
    for L in (0, 2, 4, 10, 16):
        j = L // 2
        literal = (
            F((-1) ** (j % 2))
            * (2 * L + 1)
            * math.comb(L, j)
            * math.comb(2 * L, L)
            * pochhammer(F(1, 2) - F(L, 2), j)
            * pochhammer(-F(L, 2), j)
            / F(2 ** (3 * L + 2))
            / (
                math.factorial(j)
                * pochhammer(F(1, 2) - L, j)
                * gamma_half_exact(L + 1)
            )
        )
        literal *= plain_sum_rational(*reduced_parameters(L, 0), F(-1, 4), 50, 16)
        assert 2 * literal == term_rational(sp, L)


def test_variants_give_identical_sums():
    vals = {
        v: summed_series_lhs(spec(family="j0", h=3, terms=40, variant=v))
        for v in ("pochhammer", "reflected", "gammaform")
    }
    assert vals["pochhammer"] == vals["reflected"] == vals["gammaform"]


def test_identity_suite_small_h_all_scales():
    for fam in ("j0", "j1"):
        for k in (F(1, 2), F(1), F(2)):
            for h in range(0, 21, 5):
                rep = verify_identity(
                    spec(family=fam, h=h, k=k, terms=h + 80), F(1, 10**30)
                )
                assert rep.passed, (fam, k, h, str(rep.rel_diff))


def test_cauchy_check():
    rows = table1_rows()
    parts = partial_sums_rational(spec(terms=17, precision=50))
    assert cauchy_check(parts, 10, 9, F(1, 10**21))
    assert cauchy_check(parts, 16, 15, F(2, 10**46))
    assert cauchy_check([F(1), F(1)], 1, 0, F(1, 10**30))
    with pytest.raises(IndexError):
        cauchy_check(parts, 9, 10, F(1, 10))
    with pytest.raises(IndexError):
        cauchy_check(parts, 40, 2, F(1, 10))
    assert len(rows) == len(parts)
