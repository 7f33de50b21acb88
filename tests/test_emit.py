"""Code emission against the golden listings, plus the JSON schema."""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from flbessel.cli import main
from flbessel.emit import (
    DigitsExceedPrecision,
    EmitTarget,
    PUBLISHED_LISTING_DIGITS,
    UncertifiedFactorization,
    _parse_int,
    _parse_k,
    default_name,
    emit_json,
    emit_legendre_code,
    emit_power_code,
    parse_json,
)
from flbessel.mpnum import BigReal, PrimePowers
from flbessel.powerprime import (
    FactorReport,
    PowerSeries,
    certify_prime_structure,
    exact_power_series,
    to_power_series,
)
from flbessel.series import FLSeries, accuracy_scan, build_series
from flbessel.sumverify import SumSpec, verify_identity
from refdata import golden

F = Fraction


# -- golden listings ----------------------------------------------------------


@pytest.mark.parametrize(
    "fname,kind,order,key",
    [
        ("legendre_J0.txt", "J", 0, "J0"),
        ("legendre_J1.txt", "J", 1, "J1"),
        ("legendre_I0.txt", "I", 0, "I0"),
        ("legendre_I1.txt", "I", 1, "I1"),
    ],
)
def test_legendre_blocks_byte_match(fname, kind, order, key, request):
    fixture = {"J0": "j0_42", "J1": "j1_43", "I0": "i0_46", "I1": "i1_45"}[key]
    s = request.getfixturevalue(fixture)
    target = EmitTarget(
        "legacy-fixed-form", PUBLISHED_LISTING_DIGITS[key], default_name(kind, order)
    )
    assert emit_legendre_code(s, target) == golden(fname)


@pytest.mark.parametrize(
    "fname,order,key", [("power_J0.txt", 0, "J0_POWER"), ("power_J1.txt", 1, "J1_POWER")]
)
def test_power_blocks_byte_match(fname, order, key, request):
    s = request.getfixturevalue("j0_74terms" if order == 0 else "j1_78terms")
    p = to_power_series(s, 42 if order == 0 else 43)
    target = EmitTarget(
        "legacy-fixed-form", PUBLISHED_LISTING_DIGITS[key], default_name("J", order)
    )
    assert emit_power_code(p, target) == golden(fname)


@pytest.mark.parametrize("order", [0, 1])
def test_integer_power_blocks_byte_match(order):
    p = exact_power_series("J", order, 42 if order == 0 else 43)
    report = certify_prime_structure(p)
    target = EmitTarget("integer-power", 1, default_name("J", order))
    assert emit_power_code(p, target, report) == golden(f"intpower_J{order}.txt")


# -- layout invariants ---------------------------------------------------------


def test_fixed_form_layout_invariants(j0_42):
    target = EmitTarget(
        "legacy-fixed-form", PUBLISHED_LISTING_DIGITS["J0"], "J0(x)"
    )
    text = emit_legendre_code(j0_42, target)
    lines = text.split("\n")
    assert lines[0].startswith(" " * 8 + "J0(x) = ")
    for line in lines[1:]:
        assert line[:8] == "     -  "  # marker in column 6
    for line in lines:
        assert len(line.rstrip()) <= 72


def test_emitted_values_reparse_within_one_ulp(j0_42):
    target = EmitTarget("free-form", 20, "J0(x)")
    text = emit_legendre_code(j0_42, target)
    body = text.split(" = ", 1)[1]
    toks = body.replace(" - ", " + -").split(" + ")
    assert len(toks) == len(j0_42.entries)
    for tok, (L, a) in zip(toks, j0_42.entries):
        coeff = Decimal(tok.split("*P(")[0])
        assert abs(coeff - a.value) <= Decimal(1).scaleb(coeff.adjusted() - 19)


def test_empty_and_single_term_forms():
    empty = FLSeries("J", 0, F(1), (), 30)
    assert emit_legendre_code(empty, EmitTarget("free-form", 10, "J0(x)")) == "J0(x) = 0"
    one = PowerSeries("J", 0, F(1), ((0, BigReal.from_int(1, 10)),), 1, 10)
    assert emit_power_code(one, EmitTarget("free-form", 1, "J0(x)")) == "J0(x) = 1."


def test_cas_dialect_uses_carets():
    s = build_series("J", 0, 1, l_max=4, precision=30)
    p = to_power_series(s, 4)
    text = emit_power_code(p, EmitTarget("cas", 10, "J0(x)"))
    assert "**" not in text and "\n" not in text
    assert "x^2" in text and "x^4" in text


def test_digit_overdraw_rejected(j0_42):
    with pytest.raises(DigitsExceedPrecision):
        emit_legendre_code(j0_42, EmitTarget("free-form", 60, "J0(x)"))


def test_integer_power_requires_certification(j0_74terms):
    p = to_power_series(j0_74terms, 42)
    report = certify_prime_structure(p)
    # the deep powers cannot certify from a 50-digit fold
    assert not report.all_certified
    with pytest.raises(UncertifiedFactorization):
        emit_power_code(p, EmitTarget("integer-power", 1, "J0(x)"), report)
    with pytest.raises(UncertifiedFactorization):
        emit_power_code(p, EmitTarget("integer-power", 1, "J0(x)"), None)


def test_dialect_validation(j0_42):
    with pytest.raises(ValueError):
        emit_legendre_code(j0_42, EmitTarget("integer-power", 10, "J0(x)"))


# -- JSON ----------------------------------------------------------------------


def test_json_round_trip_fl_series(j0_42):
    assert parse_json(emit_json(j0_42)) == j0_42


def test_json_round_trip_power_series(j0_74terms):
    p = to_power_series(j0_74terms, 42)
    assert parse_json(emit_json(p)) == p


def test_json_round_trip_prime_powers():
    pp = PrimePowers(exponents=((2, 6),), leftover=1, sign=1)
    text = emit_json(pp)
    assert '"exponents":{"2":6}' in text and '"leftover":1' in text
    assert parse_json(text) == pp


def test_json_round_trip_factor_report(j0_74terms):
    p = to_power_series(j0_74terms, 42)
    report = certify_prime_structure(p)
    again = parse_json(emit_json(report))
    assert again == report
    # both certified and not-near-integer entries survived
    statuses = {e.certified for e in again.entries}
    assert statuses == {True, False}


def test_json_round_trip_verification_report():
    spec = SumSpec(family="j0", h=1, k=F(1), L_terms=46, precision=40)
    rep = verify_identity(spec, F(1, 10**30))
    assert parse_json(emit_json(rep)) == rep


def test_json_round_trip_empty_factor_report():
    empty = FactorReport(entries=())
    assert parse_json(emit_json(empty)) == empty


def test_json_byte_stability(j0_42):
    assert emit_json(j0_42) == emit_json(j0_42)


def test_json_header_shape(j0_42):
    text = emit_json(j0_42)
    assert text.startswith('{"schema":1,"type":"fl_series","kind":"J","order":0,"k":"1/1"')


def test_json_rejects_unknown():
    with pytest.raises(TypeError):
        emit_json(object())
    with pytest.raises(ValueError):
        parse_json('{"schema":2,"type":"fl_series"}')


#: Python's ``str(int)`` and ``Fraction(str)`` refuse more than 4300 digits.
TINY = F(1, 10**5000)


def _json_lines(capsys, argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    return out.out.splitlines()


def test_json_series_carries_a_scale_of_5000_digits(capsys):
    (line,) = _json_lines(capsys, ["coeffs", "J", "0", "1e-5000", "--lmax", "0"])
    assert parse_json(line).k == TINY


def test_json_verification_carries_a_scale_of_5000_digits(capsys):
    lines = _json_lines(capsys, ["verify", "--family", "j0", "--h-range", "0..1",
                                 "--terms", "+5", "--k=1e-5000"])
    assert [parse_json(line).spec.k for line in lines] == [TINY, TINY]


@pytest.mark.parametrize("k, x", [("1e-5000", "1/2"), ("1", "1e-5000")])
def test_json_evaluation_carries_a_scale_of_5000_digits(capsys, k, x):
    (line,) = _json_lines(capsys, ["eval", "J", "0", k, x, "--lmax", "2"])
    record = json.loads(line, parse_int=_parse_int)
    assert (_parse_k(record["k"]), _parse_k(record["x"])) == (F(k), F(x))


def test_json_accuracy_report_carries_a_range_of_5000_digits(capsys):
    # two grid points: the default 121 would put full 5000-digit rationals
    # inside the range, and their reference sums take about 40 s
    _, fl, allen = _json_lines(capsys, ["bench", "--which", "j0", "--range=-1e-5000..1",
                                        "--grid", "2"])
    want = accuracy_scan(build_series("J", 0, F(1), l_max=12, precision=50),
                         -TINY, F(1), 2, ("J0",), precision=50)
    for line, report in zip((fl, allen), want):
        got = parse_json(line)
        assert got.x_range == (-TINY, F(1))
        assert got.argmax_x == report.argmax_x
