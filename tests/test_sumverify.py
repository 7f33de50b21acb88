"""Summed-series identities, bracket displays, partial sums, Cauchy checks."""

from __future__ import annotations

import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from flbessel import sumverify
from flbessel.cli import main
from flbessel.hypergeom import plain_sum_rational
from flbessel.legendre import monomials
from flbessel.mpnum import BigReal
from flbessel.powerprime import to_power_series
from flbessel.series import TRUNCATION_CAP, _coeff_rational
from flbessel.sumverify import (
    SumSpec,
    _brackets,
    partial_sums_rational,
    rhs_rational,
    term_rational,
    verify_identity,
)
from oracles import (
    MONOMIAL_TERM,
    affine_at,
    as_fraction,
    bracket_displays,
    bracket_forms,
    cauchy_check,
    display_value,
    fraction_partial_sums,
    gamma_factors_cancel_at_m0,
    reduced_parameters,
    summed_series_lhs,
    term_ratio,
)
from refdata import table1_rows, ulp_of

F = Fraction


DISPLAYS = ("pochhammer", "reflected", "gammaform")


def spec(family="j0", h=0, k=1, terms=17, precision=50):
    return SumSpec(family=family, h=h, k=F(k), L_terms=terms, precision=precision)


def monomial_term(L, m):
    """T m! (L!)^2 / (2L)! with T = 2^L [x^(L-2m)] P_L."""
    T = (-1) ** m * math.comb(L, m) * math.comb(2 * L - 2 * m, L)
    return F(T * math.factorial(m) * math.factorial(L) ** 2, math.factorial(2 * L))


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(family="y0")
    with pytest.raises(ValueError):
        spec(h=3, terms=2)  # fewer terms than the vanished head
    with pytest.raises(TypeError):
        SumSpec(family="j0", h=0, k=F(1), L_terms=1, variant="pochhammer")


def test_bracket_variants_agree_randomly():
    rng = random.Random(1234)
    for _ in range(100):
        h = rng.randint(0, 10)
        fam = rng.choice(("j0", "j1"))
        L = 2 * rng.randint(h, h + 40) + (1 if fam == "j1" else 0)
        m = (L - (1 if fam == "j1" else 0)) // 2 - h
        assert bracket_forms(fam, L, h, m) == (_brackets(L, m),) * 3


def test_bracket_variants_agree_for_every_L_up_to_200():
    for fam, off in (("j0", 0), ("j1", 1)):
        for L in range(off, 201, 2):
            for h in range((L - off) // 2 + 1):
                m = (L - off) // 2 - h
                want = monomial_term(L, m)
                assert bracket_forms(fam, L, h, m) == (want,) * 3, (fam, L, h)


@pytest.mark.parametrize("fam, h_hi, terms", [("j0", 42, 74), ("j1", 43, 78)])
def test_bracket_variants_agree_on_the_benchmark_sweeps(fam, h_hi, terms):
    # verify --h-range 0..h_hi --terms +terms reaches L = 230 (j0) and 241 (j1)
    off = 1 if fam == "j1" else 0
    for h in range(h_hi + 1):
        for L in range(2 * h + off, off + 2 * (h + terms), 2):
            m = (L - off) // 2 - h
            assert bracket_forms(fam, L, h, m) == (_brackets(L, m),) * 3, (fam, L, h)


def _same_on_plane(lhs, rhs, N):
    """Whether two ratios (sign, numerator forms, denominator forms) are the
    same rational function on the plane L = 2h + N + 2m.

    Cross-multiplied, their difference is a polynomial in (h, m) whose degree
    in each variable is at most the number of affine factors in either
    product.  A polynomial of degree at most d in each of two variables that
    vanishes on a (d+1) x (d+1) grid is zero, so the grid check is a proof.
    """
    (s1, num1, den1), (s2, num2, den2) = lhs, rhs
    left, right = num1 + den2, num2 + den1
    degree = max(len(left), len(right))
    for h in range(degree + 1):
        for m in range(degree + 1):
            L = 2 * h + N + 2 * m
            if (s1 * math.prod(affine_at(f, L, h, m) for f in left)
                    != s2 * math.prod(affine_at(f, L, h, m) for f in right)):
                return False
    return True


def _sign_on_domain(form, N):
    """+1 or -1 when the affine form keeps that sign on every step of the
    induction, L = 2h + N + 2m with h >= 1 and m >= 0; 0 when it may not."""
    cL, ch, cm, c0 = form
    dh, dm = 2 * cL + ch, 2 * cL + cm
    corner = dh + N * cL + c0  # the value at h = 1, m = 0
    if dh >= 0 and dm >= 0 and corner > 0:
        return 1
    if dh <= 0 and dm <= 0 and corner < 0:
        return -1
    return 0


@pytest.mark.parametrize("family", ["j0", "j1"])
def test_every_bracket_display_equals_the_monomial_term_for_all_L_h_m(family):
    # A term-ratio certificate (Petkovsek, Wilf & Zeilberger, A = B, 1996):
    # every display F and the monomial term R = T m! (L!)^2 / (2L)! are 1 at
    # m = 0, and F(L, h-1, m+1) / F(L, h, m) is the same rational function
    # as R's, with no factor that vanishes on the plane where h >= 1.  By
    # induction on m at fixed L, F = R for every (L, h, m).
    N = ("j0", "j1").index(family)
    # both ratios are -(L-2m)(L-2m-1) / (2 (2L-2m-1))
    stated = (-1, [(1, 0, -2, 0), (1, 0, -2, -1)], [(0, 0, 0, 2), (2, 0, -2, -1)])
    target = term_ratio(MONOMIAL_TERM)
    assert gamma_factors_cancel_at_m0(MONOMIAL_TERM, N)
    assert _same_on_plane(target, stated, N)
    displays = bracket_displays(N)
    assert tuple(displays) == DISPLAYS
    assert _same_on_plane(term_ratio(displays["pochhammer"]), stated, N)
    for name, display in displays.items():
        assert gamma_factors_cancel_at_m0(display, N), name
        ratio = term_ratio(display)
        assert _same_on_plane(ratio, target, N), name
        for form in ratio[1] + ratio[2] + target[1] + target[2]:
            assert _sign_on_domain(form, N), (name, form)


def test_term_ratio_matches_the_display_values():
    # the certificate's ratios are read off the displays' Gamma factors; a
    # slip in that reading would prove a statement about other displays
    for fam, N in (("j0", 0), ("j1", 1)):
        displays = {**bracket_displays(N), "monomial": MONOMIAL_TERM}
        for name, display in displays.items():
            sign, num, den = term_ratio(display)
            for L in range(N + 2, N + 41, 2):
                for m in range((L - N) // 2):
                    h = (L - N) // 2 - m
                    got = (display_value(display, L, h - 1, m + 1)
                           / display_value(display, L, h, m))
                    want = sign * F(math.prod(affine_at(f, L, h, m) for f in num),
                                    math.prod(affine_at(f, L, h, m) for f in den))
                    assert got == want, (fam, name, L, m)
                    if name == "monomial":
                        assert display_value(display, L, h, m) == monomial_term(L, m)


@pytest.mark.parametrize("k", [F(1, 2), F(3, 4), F(1), F(3, 2), F(7, 3)])
def test_term_is_the_coefficient_times_the_bonnet_monomial(k):
    # independent witness of the fold: the coefficient of x^(2h+N) in P_L
    # from the Bonnet-recurrence table, not from the closed form T
    table = [monomials(L).coeffs for L in range(161)]
    for fam, N in (("j0", 0), ("j1", 1)):
        for h in range(21):
            sp = spec(family=fam, h=h, k=k, terms=h + 1)
            for L in range(2 * h + N, 161, 2):
                a_L = as_fraction(_coeff_rational("J", L, N, k, 50))
                got = as_fraction(term_rational(sp, L))
                assert got == a_L * table[L][2 * h + N], (fam, h, L)


@pytest.mark.parametrize("family", ["j0", "j1"])
@pytest.mark.parametrize("variant", DISPLAYS)
def test_a_bracket_off_by_one_part_in_1e60_stops_verify(
    monkeypatch, capsys, family, variant
):
    # the check against T holds whichever display builds the bracket, and
    # fires on every term once that display is off by one part in 1e60
    N = ("j0", "j1").index(family)
    argv = ["verify", "--family", family, "--h-range", "0..2", "--terms", "+15"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    scale = F(1)

    def display(L, m):
        # exact up to L = 20, so the check of every term is what fires
        value = bracket_forms(family, L, (L - N) // 2 - m, m)[DISPLAYS.index(variant)]
        return value * scale if L > 20 else value

    monkeypatch.setattr(sumverify, "_brackets", display)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    scale = 1 + F(1, 10**60)
    code = main(argv)
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
                assert as_fraction(term_rational(sp, 2 * i + off)) == 0
            assert as_fraction(term_rational(sp, 2 * h + off)) != 0


#: Scales for the accumulator witnesses: the paper's k, others on both
#: sides of it, a negative one, and 0, where every identity but j0 at h = 0
#: has a right side of exactly 0.
ACCUMULATOR_SCALES = (F(1), F(3, 4), F(3, 2), F(-1, 2), F(0))


def verify_and_rounded_values(monkeypatch, sp, tol):
    """``verify_identity``'s report and the exact values it hands to
    ``BigReal.from_fraction``, in order: lhs, rhs and rel_diff."""
    seen = []

    class Spy(BigReal):
        @classmethod
        def from_fraction(cls, q, precision):
            seen.append(q if isinstance(q, F) else as_fraction(q))
            return BigReal.from_fraction(q, precision)

    monkeypatch.setattr(sumverify, "BigReal", Spy)
    return verify_identity(sp, tol), seen


@pytest.mark.parametrize("k", ACCUMULATOR_SCALES)
def test_prefix_sums_equal_the_fraction_accumulator(monkeypatch, k):
    # every prefix of the integer-pair accumulator, and the sum that
    # verify_identity rounds, equal the running sum of reduced Fractions,
    # the vanished head included
    for fam in ("j0", "j1"):
        for h in range(13):
            sp = spec(family=fam, h=h, k=k, terms=h + 6)
            want = fraction_partial_sums(sp)
            assert want[:h] == (0,) * h
            assert partial_sums_rational(sp) == want, (fam, h)
            _, seen = verify_and_rounded_values(monkeypatch, sp, F(1))
            assert seen[0] == want[-1], (fam, h)


@pytest.mark.parametrize("k", ACCUMULATOR_SCALES)
def test_pass_fail_on_the_integers_matches_the_fraction_decision_at_its_edge(
    monkeypatch, k
):
    for fam in ("j0", "j1"):
        for h, terms, precision in ((0, 3, 50), (2, 9, 5), (5, 30, 50), (1, 60, 120)):
            sp = spec(family=fam, h=h, k=k, terms=h + terms, precision=precision)
            lhs = fraction_partial_sums(sp)[-1]
            rhs = rhs_rational(sp)
            rel = abs(lhs - rhs) / abs(rhs) if rhs else abs(lhs)
            assert (rhs == 0) == (k == 0 and (h, fam) != (0, "j0"))
            rep, seen = verify_and_rounded_values(monkeypatch, sp, rel)
            assert rep.passed, (fam, h)
            assert seen == [lhs, rhs, rel], (fam, h)
            want = BigReal.from_fraction(rel, max(precision, 8))
            assert str(rep.rel_diff) == str(want), (fam, h)
            assert str(rep.lhs) == str(BigReal.from_fraction(lhs, precision))
            assert not verify_identity(sp, rel - F(1, 10**300)).passed, (fam, h)


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
        cm = dict(p0.coeffs)[2 * h]
        assert abs(lhs.value - cm.value) < Decimal(10) ** -44
    p1 = to_power_series(j1_78terms, 11)
    for h in (0, 3):
        lhs = summed_series_lhs(spec(family="j1", h=h, terms=78))
        cm = dict(p1.coeffs)[2 * h + 1]
        assert abs(lhs.value - cm.value) < Decimal(10) ** -44


def test_even_only_display_transcribed_literally_is_half_the_term():
    # The standalone even-only (h=0, k=1) display omits the parity-gate
    # factor of two that its general form carries; transcribed literally it
    # is exactly half of the summand implemented here (which does reach the
    # limit 1).  Pin that relationship so the discrepancy stays visible.
    import math

    from flbessel.mpnum import pochhammer
    from oracles import gamma_half_exact

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
        sum_pair = plain_sum_rational(*reduced_parameters(L, 0), F(-1, 4), 50)
        literal *= as_fraction(sum_pair)
        assert 2 * literal == as_fraction(term_rational(sp, L))


def test_variants_give_identical_sums():
    # each display, in place of T m! (L!)^2 / (2L)!, gives the same exact sum
    sp = spec(family="j0", h=3, terms=40)
    want = partial_sums_rational(sp)[-1]
    f = math.factorial
    for index in range(len(DISPLAYS)):
        total = F(0)
        for L in range(6, 80, 2):
            m = L // 2 - 3
            bracket = bracket_forms("j0", L, 3, m)[index]
            a_over_2L = sumverify._f12(0, L, sp.k, sp.precision)
            total += a_over_2L * bracket * f(2 * L) / (f(m) * f(L) ** 2)
        assert total == want, DISPLAYS[index]


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


def test_each_degree_constant_equals_a_freshly_built_one():
    sumverify._degree.cache_clear()
    for L in range(401):
        a, b, c, central, _ = sumverify._degree(L)
        assert (a, b, c) == (F(1 - L, 2), F(-L, 2), F(1 - 2 * L, 2)), L
        assert central == math.factorial(2 * L) // math.factorial(L) ** 2, L


def test_verify_checks_every_term_against_the_cached_central_binomial(
    monkeypatch, capsys
):
    # poison the cached C(2L, L) at one degree, then run with the true one in
    # place: only a command whose sweep reaches that degree must notice
    poisoned = 32
    reaches = ["verify", "--family", "j0", "--h-range", "0..2", "--terms", "+15"]
    stops_short = ["verify", "--family", "j0", "--h-range", "0..1", "--terms", "+15"]
    assert 2 * (1 + 15 - 1) < poisoned == 2 * (2 + 15 - 1)
    sumverify._degree.cache_clear()
    try:
        assert main(stops_short) == 0
        clean = capsys.readouterr()

        class OffByOne:
            @staticmethod
            def comb(n, k):
                return math.comb(n, k) + (n == 2 * poisoned)

        with monkeypatch.context() as patch:
            patch.setattr(sumverify, "math", OffByOne)
            sumverify._degree(poisoned)
        assert sumverify._degree(poisoned)[3] == math.comb(2 * poisoned, poisoned) + 1
        assert main(stops_short) == 0
        assert capsys.readouterr() == clean
        assert main(reaches) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("computation failed:")
    finally:
        sumverify._degree.cache_clear()


def test_a_fraction_scale_is_kept_as_given():
    k = F(7, 3)
    assert SumSpec(family="j0", h=0, k=k, L_terms=1).k is k
    two = SumSpec(family="j0", h=0, k=2, L_terms=1).k
    assert type(two) is Fraction and two == 2
    a = SumSpec(family="j1", h=1, k=F(7, 3), L_terms=5)
    b = SumSpec(family="j1", h=1, k=F(14, 6), L_terms=5)
    assert a.k is not b.k
    assert a == b and hash(a) == hash(b)


def test_a_shared_scale_keeps_the_coefficient_cache_counts(capsys):
    # 6 identities of 20 surviving terms each: 25 distinct degrees 0..48
    sumverify._f12.cache_clear()
    assert main(["verify", "--family", "j0", "--h-range", "0..5", "--terms", "+20"]) == 0
    capsys.readouterr()
    info = sumverify._f12.cache_info()
    assert (info.hits, info.misses) == (95, 25)


# -- the kept bracket of each degree ------------------------------------------


def _recording(monkeypatch):
    """Record every bracket ``_brackets`` returns and count the ``pochhammer``
    calls, with the brackets left to the real function and its memos."""
    seen, calls = [], Counter()
    brackets, pochhammer = sumverify._brackets, sumverify.pochhammer

    def recorded(L, m):
        value = brackets(L, m)
        seen.append((L, m, value))
        return value

    def counted(a, n):
        calls["pochhammer"] += 1
        return pochhammer(a, n)

    monkeypatch.setattr(sumverify, "_brackets", recorded)
    monkeypatch.setattr(sumverify, "pochhammer", counted)
    return seen, calls


@pytest.mark.parametrize("family", ("j0", "j1"))
def test_every_bracket_of_a_sweep_equals_the_pochhammer_display(
    monkeypatch, capsys, family
):
    # a sweep over rising h steps each degree's bracket down from the one of
    # the identity before; a later sweep whose depths are not next to the
    # kept ones, after a table1 run in between, builds them afresh
    seen, calls = _recording(monkeypatch)
    sumverify._degree.cache_clear()
    runs = [(0, 12), None, (5, 9)]
    for h_range in runs:
        seen.clear()
        calls.clear()
        if h_range is None:
            assert main(["table1"]) == 0
        else:
            lo, hi = h_range
            assert main(["verify", "--family", family, "--h-range", f"{lo}..{hi}",
                         "--terms", "+30", "--tol", "1"]) == 0
            # the first identity's 30 brackets and each later identity's
            # new top degree are fresh; every other one takes the step
            assert len(seen) == 30 * (hi - lo + 1)
            assert calls["pochhammer"] == 3 * (30 + hi - lo)
        capsys.readouterr()
        for L, m, value in seen:
            fam = ("j0", "j1")[L % 2]
            assert value == bracket_forms(fam, L, (L - L % 2) // 2 - m, m)[0], (L, m)
    sumverify._degree.cache_clear()


def test_a_kept_bracket_off_by_one_part_in_1e60_stops_the_next_verify(capsys):
    # h = 2 leaves degree 30 at depth 13, and h = 3 steps from there to 12;
    # a command that stops at degree 20 never reads the kept bracket
    def verify(h_range, terms):
        return ["verify", "--family", "j0", "--h-range", h_range, "--terms", terms,
                "--tol", "1"]

    leaves, steps = verify("2..2", "+15"), verify("3..3", "+15")
    stops_short = verify("0..1", "+10")
    sumverify._degree.cache_clear()
    try:
        assert main(stops_short) == 0
        clean = capsys.readouterr()
        assert main(leaves) == 0
        capsys.readouterr()
        last = sumverify._degree(30)[4]
        assert last[0] == 13
        last[1] *= 1 + F(1, 10**60)
        assert main(stops_short) == 0
        assert capsys.readouterr() == clean
        assert main(steps) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("computation failed:")
    finally:
        sumverify._degree.cache_clear()


def test_the_kept_brackets_are_bounded_by_the_degree_cache(monkeypatch):
    # every memo is part of a ``_degree`` entry: no more degrees keep one
    # than that cache holds, and clearing it drops them
    seen, calls = _recording(monkeypatch)
    sumverify._degree.cache_clear()
    bound = 2 * TRUNCATION_CAP
    assert sumverify._degree.cache_info().maxsize == bound
    for L in range(bound + 100):
        sumverify._brackets(L, 0)
    assert sumverify._degree.cache_info().currsize == bound
    sumverify._brackets(40, 5)
    sumverify._brackets(40, 4)
    assert calls["pochhammer"] == 3 * (bound + 101)
    sumverify._brackets(40, 5)
    sumverify._degree.cache_clear()
    sumverify._brackets(40, 4)
    assert calls["pochhammer"] == 3 * (bound + 103)
    sumverify._degree.cache_clear()
