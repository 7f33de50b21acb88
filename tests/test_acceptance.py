"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Desk scale throughout: 50-digit
precision, L <= 80 summation depth for the identities, minutes of runtime.
"""

from __future__ import annotations

import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

from flbessel.emit import (
    EmitTarget,
    PUBLISHED_LISTING_DIGITS,
    default_name,
    emit_json,
    emit_legendre_code,
    emit_power_code,
    parse_json,
)
from flbessel.legendre import monomials
from flbessel.mpnum import BigReal, PrimePowers, pochhammer
from flbessel.powerprime import (
    certify_prime_structure,
    exact_power_series,
    maclaurin_exact,
    to_power_series,
)
from flbessel.series import (
    accuracy_scan,
    build_series,
    coeff_a,
    coeff_a_modified,
    eval_allen,
    eval_series,
    maclaurin_ref,
)
from flbessel.sumverify import SumSpec, _brackets, partial_sums_rational, verify_identity
from oracles import (
    bracket_forms,
    cauchy_check,
    coeff_oracle,
    compare_power_series,
    factorize_reciprocal,
    pochhammer_reflect,
)
from refdata import (
    J0_EXPONENTS,
    J1_EXPONENTS,
    coeff_tables,
    golden,
    table1_rows,
    ulp_of,
)

F = Fraction


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_coefficient_tables():
    tables = coeff_tables()
    start = time.perf_counter()
    worst = Decimal(0)
    count = 0
    for key, rows in tables.items():
        kind, order = key[0], int(key[1])
        fn = coeff_a if kind == "J" else coeff_a_modified
        for L, printed in rows:
            got = fn(L, order, 1, 34)
            gap = abs(got.value - Decimal(printed))
            assert gap <= ulp_of(printed), (key, L, str(got), printed)
            worst = max(worst, gap / abs(Decimal(printed)))
            count += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        count == 91 and elapsed < 10.0,
        f"{count} published coefficients reproduced within 1 ulp at 34 digits "
        f"in {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_02_oracle_equivalence():
    worst = Decimal(0)
    pairs = 0
    for L in range(0, 21):
        for N in range(0, 7):
            if (L + N) % 2:
                continue
            for k in (F(1, 2), F(1), F(2)):
                a = coeff_a(L, N, k, 50)
                o = coeff_oracle(L, N, k, L // 2 + 60, 50)
                rel = abs(a.value - o.value) / abs(o.value)
                worst = max(worst, rel)
                pairs += 1
    report(
        2,
        worst < Decimal(10) ** -30,
        f"{pairs} closed-form/projection pairs agree; worst relative "
        f"gap {worst:.1e} (>= 30 digits)",
    )


def test_criterion_03_spot_values(j0_42, j1_43, i0_46, i1_45):
    checks = []

    v = eval_series(j0_42, 3, 50)
    checks.append(abs(v.value - Decimal("-0.260051954901933437624154695977331"))
                  <= Decimal("1e-33"))

    v = eval_series(j0_42, 8, 50)
    checks.append(abs(v.value - Decimal("0.171650807137560")) <= Decimal("7e-15"))

    v = eval_series(j1_43, 3, 50)
    checks.append(abs(v.value - Decimal("0.33905895852593645892551459720648"))
                  <= Decimal("1e-32"))

    # the published 3.75 spot value corresponds to truncation after P_42
    i0_42 = build_series("I", 0, 1, l_max=42, precision=50)
    v = eval_series(i0_42, F(15, 4), 50)
    checks.append(abs(v.value - Decimal("9.118945860844566690670997606599715"))
                  <= Decimal("1e-33"))

    v = eval_series(i1_45, F(15, 4), 50)
    checks.append(abs(v.value - Decimal("7.780015229824415864988676277516113"))
                  <= Decimal("1e-33"))

    # the 13-digit reference display plus the accuracy claim against the
    # independent ascending-series value
    v = eval_series(i0_46, 8, 50)
    ref = maclaurin_ref("I", 0, 1, 8, 40)
    checks.append(abs(v.value - ref.value) < Decimal("6e-14"))
    checks.append(v.render(13) == "427.5641157218")

    v = eval_series(i1_45, 8, 50)
    target = Decimal("399.873136782560098")
    checks.append(abs(v.value - target) / target <= Decimal("1e-18"))

    report(3, all(checks), f"all {len(checks)} spot-value checks hold")


def test_criterion_04_range_scans(j0_42):
    r1 = accuracy_scan(j0_42, -3, 3, 121)
    r2 = accuracy_scan(j0_42, -8, 8, 161)
    s24 = build_series("J", 0, 1, l_max=24, precision=50)
    r3 = accuracy_scan(s24, -3, 3, 121)
    allen_display = eval_allen("J0", 3).render(6)
    ok = (
        r1.max_abs_error.value < Decimal("1e-34")
        and r2.max_abs_error.value < Decimal("7e-15")
        and r3.max_abs_error.value < Decimal("5e-16")
        and allen_display == "-0.260052"
    )
    report(
        4,
        ok,
        f"[-3,3]: {r1.max_abs_error.render(3)}; [-8,8]: "
        f"{r2.max_abs_error.render(3)}; P24-truncated: "
        f"{r3.max_abs_error.render(3)}; 7-term fit at 3 displays {allen_display}",
    )


def test_criterion_05_power_series_and_primes(j0_74terms):
    p = to_power_series(j0_74terms, 42)
    exact = maclaurin_exact("J", 0, 42)
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 70
        for (m, err), (_, q) in zip(compare_power_series(p, exact), exact):
            rel = err.value / abs(Decimal(q.numerator) / Decimal(q.denominator))
            worst = max(worst, rel)
    ok = worst < Decimal(10) ** -36

    rep = certify_prime_structure(p)
    e16 = rep.entry(16)
    ok &= e16.certified and dict(e16.factors.exponents) == {2: 30, 3: 4, 5: 2, 7: 2}

    # every published tuple, from the exact coefficients (the deep powers
    # need ~60 correct digits, beyond any realistic fold)
    for N, table, mp in ((0, J0_EXPONENTS, 42), (1, J1_EXPONENTS, 43)):
        pe = exact_power_series("J", N, mp, precision=70)
        re_ = certify_prime_structure(pe)
        ok &= re_.all_certified
        for m, exps in table.items():
            entry = re_.entry(m)
            ok &= dict(entry.factors.exponents) == exps and entry.factors.leftover == 1

    # the under-truncated fold refuses to certify, with the published
    # runaway reciprocal
    s13 = build_series("J", 0, 1, l_max=24, precision=48)
    p13 = to_power_series(s13, 16)
    e13 = certify_prime_structure(p13).entry(16)
    with localcontext() as ctx:
        ctx.prec = 60
        recip = Decimal(1) / dict(p13.coeffs)[16].value
    ok &= (not e13.certified) and abs(recip - Decimal("106542032486495.6")) <= 1

    report(
        5,
        ok,
        f"fold matches exact coefficients to >= 36 digits (worst {worst:.1e}); "
        f"all printed exponent tuples recovered; under-truncated x^16 rejected "
        f"at 1/c = {recip:.1f}",
    )


def test_criterion_06_convergence_table():
    spec = SumSpec(family="j0", h=0, k=F(1), L_terms=17, precision=50)
    partials = partial_sums_rational(spec)
    rows = table1_rows()
    ok = len(partials) == 17
    for q, row in zip(partials, rows):
        digits = len(Decimal(row).as_tuple().digits)
        got = BigReal.from_fraction(q, digits)
        ok &= abs(got.value - Decimal(row)) <= ulp_of(row)
    report(6, ok, "all 17 published partial-sum rows reproduced at 48 digits")


def test_criterion_07_summed_series_identities():
    t0 = time.perf_counter()
    ok = True
    for h in range(0, 43):
        spec = SumSpec(family="j0", h=h, k=F(1), L_terms=h + 74, precision=50)
        ok &= verify_identity(spec, F(1, 10**33)).passed
    for h in range(0, 44):
        spec = SumSpec(family="j1", h=h, k=F(1), L_terms=h + 78, precision=50)
        ok &= verify_identity(spec, F(1, 10**33)).passed
    for fam in ("j0", "j1"):
        for k in (F(1, 2), F(2)):
            for h in range(0, 11):
                spec = SumSpec(family=fam, h=h, k=k, L_terms=h + 74, precision=50)
                ok &= verify_identity(spec, F(1, 10**30)).passed
    # the paper's three bracket displays equal the bracket the terms build
    for fam, N in (("j0", 0), ("j1", 1)):
        for L in range(N + 6, N + 80, 2):
            m = (L - N) // 2 - 3
            ok &= bracket_forms(fam, L, 3, m) == (_brackets(L, m),) * 3
    report(
        7,
        ok,
        f"87 + 44 identity instances verified at their stated tolerances "
        f"in {time.perf_counter() - t0:.1f}s; the three bracket displays agree exactly",
    )


def test_criterion_08_cauchy_bounds():
    spec = SumSpec(family="j0", h=0, k=F(1), L_terms=17, precision=50)
    partials = partial_sums_rational(spec)
    ok = cauchy_check(partials, 10, 9, F(1, 10**21))
    ok &= cauchy_check(partials, 16, 15, F(2, 10**46))
    report(8, ok, "|S10-S9| < 1e-21 and |S16-S15| < 2e-46 on the 17 partials")


def test_criterion_09_golden_emission(j0_42, j1_43, i0_46, i1_45,
                                      j0_74terms, j1_78terms):
    blocks = []
    for s, key, fname in (
        (j0_42, "J0", "legendre_J0.txt"),
        (j1_43, "J1", "legendre_J1.txt"),
        (i0_46, "I0", "legendre_I0.txt"),
        (i1_45, "I1", "legendre_I1.txt"),
    ):
        t = EmitTarget("legacy-fixed-form", PUBLISHED_LISTING_DIGITS[key],
                       default_name(s.kind, s.order))
        blocks.append(emit_legendre_code(s, t) == golden(fname))
    for s, key, mp, fname in (
        (j0_74terms, "J0_POWER", 42, "power_J0.txt"),
        (j1_78terms, "J1_POWER", 43, "power_J1.txt"),
    ):
        p = to_power_series(s, mp)
        t = EmitTarget("legacy-fixed-form", PUBLISHED_LISTING_DIGITS[key],
                       default_name("J", s.order))
        blocks.append(emit_power_code(p, t) == golden(fname))
    for order, mp in ((0, 42), (1, 43)):
        pe = exact_power_series("J", order, mp)
        rep = certify_prime_structure(pe)
        t = EmitTarget("integer-power", 1, default_name("J", order))
        blocks.append(emit_power_code(pe, t, rep) == golden(f"intpower_J{order}.txt"))
    report(9, all(blocks), f"all {len(blocks)} listing blocks byte-match their goldens")


def test_criterion_10_property_suites(j0_42, j0_74terms):
    ok = True

    # Legendre orthogonality, exact up to degree 30
    moments = [F(2, m + 1) if m % 2 == 0 else F(0) for m in range(62)]
    for L in range(31):
        cl = monomials(L).coeffs
        for Lp in range(L % 2, L + 1, 2):
            cp = monomials(Lp).coeffs
            integral = sum(
                ci * cj * moments[i + j]
                for i, ci in enumerate(cl) if ci
                for j, cj in enumerate(cp) if cj
            )
            ok &= integral == (F(2, 2 * L + 1) if L == Lp else F(0))

    # parity-gate zeros
    for L in range(0, 9):
        for N in range(0, 9):
            if (L + N) % 2:
                ok &= coeff_a(L, N, 1, 20).is_zero()
                ok &= coeff_a_modified(L, N, 1, 20).is_zero()

    # Pochhammer reflection
    rng = random.Random(4711)
    for _ in range(500):
        a = F(rng.randint(-300, 300), rng.randint(1, 30))
        n = rng.randint(0, 50)
        ok &= pochhammer_reflect(a, n) == pochhammer(-a, n)

    # reciprocal factorization round trip
    rng = random.Random(1847)
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    for _ in range(500):
        exps = {p: rng.randint(0, 7 if p > 2 else 35) for p in primes}
        n = 1
        for p_, e_ in exps.items():
            n *= p_**e_
        if n == 1:
            continue
        got = factorize_reciprocal(BigReal.from_fraction(F(1, n), 60), F(1, 10**6))
        ok &= got.leftover == 1 and dict(got.exponents) == {p_: e_ for p_, e_ in exps.items() if e_}

    # JSON round trip across every emitted object type
    p = to_power_series(j0_74terms, 42)
    rep = certify_prime_structure(p)
    ver = verify_identity(
        SumSpec(family="j1", h=2, k=F(2), L_terms=50, precision=40), F(1, 10**25)
    )
    pp = PrimePowers(exponents=((2, 6),), leftover=1, sign=1)
    scan = accuracy_scan(j0_42, -1, 1, 5, precision=40)
    for obj in (j0_42, p, rep, ver, pp, scan):
        ok &= parse_json(emit_json(obj)) == obj

    report(10, ok, "orthogonality, parity zeros, reflection, factorization "
                   "round-trip, and JSON round-trip all hold")
