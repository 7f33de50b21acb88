"""CLI surface: flags, exit codes, output formats, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flbessel import series, sumverify
from flbessel.cli import MAX_DIGITS, MAX_GRID, MAX_ORDER, build_parser, main
from flbessel.mpnum import BigReal
from oracles import as_fraction
from refdata import DATA, golden, table1_rows, ulp_of

#: bench, power --factorize and verify outputs, byte for byte, recorded
#: before the summation loops were merged into one.
CLI_GOLDENS = json.loads((DATA / "cli_goldens.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_single_entry(capsys):
    code, out, _ = run(capsys, "--digits", "34", "coeffs", "J", "0", "1", "--lmax", "0")
    assert code == 0
    assert out.split() == ["0", "0.9197304100897602393144211940806200"]


def test_coeffs_at_10000_digits_match_the_decimal_route(capsys):
    # each mantissa has more digits than str() converts (4300 in Python
    # 3.11); the SHA-256 is of the output of the Decimal-division rounding
    code, out, err = run(capsys, "--digits", "10000", "coeffs", "J", "0", "1",
                         "--lmax", "4")
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()] == ["0", "2", "4"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "86057ddee577640b92661882ac16081d529b3de0753118c05d6e0523e898fddb")


def test_coeffs_at_10000_digits_print_the_rounding_of_lowest_terms(capsys):
    # the coefficients reach the rounding as unreduced pairs; what is
    # printed is the rounding of each one's lowest terms
    pairs = [series._coeff_rational("J", L, 0, Fraction(1), 10000) for L in (0, 2, 4)]
    assert any(math.gcd(*pair) > 1 for pair in pairs)
    code, out, err = run(capsys, "--digits", "10000", "coeffs", "J", "0", "1",
                         "--lmax", "4")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{L:4d}  {BigReal.from_fraction(as_fraction(pair), 10000)}"
        for L, pair in zip((0, 2, 4), pairs)
    ]


def test_coeffs_table_row_count(capsys):
    code, out, _ = run(capsys, "--digits", "34", "coeffs", "I", "1", "1", "--lmax", "45")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 23
    assert lines[1].split() == ["3", "0.02618069164825977449795296407260333"]


def test_eval_spot(capsys):
    code, out, _ = run(capsys, "--digits", "36", "eval", "J", "0", "1", "3",
                       "--lmax", "42")
    assert code == 0
    assert out.strip().startswith("-0.2600519549019334376241546959773314")


def test_eval_modified_at_published_truncation(capsys):
    code, out, _ = run(capsys, "--digits", "36", "eval", "I", "0", "1", "3.75",
                       "--lmax", "42")
    assert code == 0
    assert out.strip().startswith("9.11894586084456669067099760659971")


def test_eval_odd_at_zero(capsys):
    code, out, _ = run(capsys, "--digits", "20", "eval", "J", "1", "1", "0",
                       "--lmax", "9")
    assert code == 0
    assert out.strip() == "0"


def test_eval_json_is_byte_stable(capsys):
    args = ("--digits", "30", "--format", "json", "eval", "J", "0", "1", "3/2",
            "--lmax", "20")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert '"type":"evaluation"' in out1 and '"x":"3/2"' in out1


def test_power_with_factorize(capsys):
    code, out, _ = run(capsys, "power", "J", "0", "1", "--max-power", "16",
                       "--terms", "74", "--factorize")
    assert code == 0
    assert "2^30*3^4*5^2*7^2" in out
    assert "x^4" in out and "0.015625" in out


def test_power_table1_last_row(capsys):
    code, out, _ = run(capsys, "--digits", "50", "power", "J", "0", "1",
                       "--max-power", "0", "--terms", "17")
    assert code == 0
    val = Decimal(out.split()[-1])
    assert abs(val - 1) < Decimal("1e-46")


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "j0", "--h-range", "0..2",
                       "--terms", "+44", "--tol", "1e-30")
    assert code == 0
    assert out.count("pass") == 3

    code, out, _ = run(capsys, "verify", "--family", "j0", "--h-range", "0..0",
                       "--terms", "+2", "--tol", "1e-33")
    assert code == 1
    assert "FAIL" in out


def test_table1_rows(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    got = out.split()
    rows = table1_rows()
    assert len(got) == 17
    for g, row in zip(got, rows):
        assert abs(Decimal(g) - Decimal(row)) <= ulp_of(row)


def test_bench_shows_fit_advantage(capsys):
    code, out, _ = run(capsys, "--digits", "20", "bench", "--which", "j0",
                       "--grid", "41")
    assert code == 0
    lines = out.strip().split("\n")
    series_err = Decimal(lines[0].split("=")[1].split("at x")[0].strip())
    fit_err = Decimal(lines[1].split("=")[1].split("at x")[0].strip())
    # the least-maximum fit beats the plain truncation at equal top power
    assert fit_err < series_err
    assert fit_err < Decimal("5e-8")


@pytest.mark.parametrize("pin", CLI_GOLDENS, ids=lambda pin: " ".join(pin["argv"]))
def test_output_matches_cli_golden(capsys, pin):
    code, out, _ = run(capsys, *pin["argv"])
    assert code == pin["exit"]
    assert out == pin["stdout"]


def test_emit_reproduces_goldens(capsys, tmp_path):
    code, out, _ = run(capsys, "emit", "--what", "legendre-j0")
    assert code == 0
    assert out.rstrip("\n") == golden("legendre_J0.txt")

    out_file = tmp_path / "block.txt"
    code, _, _ = run(capsys, "--out", str(out_file), "emit", "--what", "intpower-j1")
    assert code == 0
    assert out_file.read_text().rstrip("\n") == golden("intpower_J1.txt")


def test_emit_uniform_digits(capsys):
    code, out, _ = run(capsys, "emit", "--what", "legendre-j0",
                       "--emit-digits", "20", "--dialect", "free-form")
    assert code == 0
    assert "0.91973041008976023931*P(0,x)" in out


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "coeffs", "Q", "0", "1", "--lmax", "4")[0] == 2
    assert run(capsys, "coeffs", "J", "-1", "1", "--lmax", "4")[0] == 2
    assert run(capsys, "eval", "J", "0", "1x", "3")[0] == 2
    assert run(capsys, "verify", "--family", "j0", "--h-range", "5..1")[0] == 2
    # absolute term count shorter than the vanished head of the sum
    assert run(capsys, "verify", "--family", "j0", "--h-range", "80..80",
               "--terms", "5")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    # every term is checked against the one Pochhammer bracket
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "j0", "--h-range", "0..1", "--variant", "pochhammer"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --variant" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("coeffs", "J", "0", "1", "--lmax", "-3"),
    ("eval", "J", "0", "1", "1/2", "--lmax", "-1"),
    ("power", "J", "0", "1", "--max-power", "-2"),
    ("power", "J", "0", "1", "--max-power", "4", "--terms", "0"),
    ("bench", "--which", "j0", "--range", "3..1"),
    ("coeffs", "J", "0", "1", "--threshold", "0"),
    ("coeffs", "J", "0", "1", "--threshold", "-1"),
    # |k|, or a bench range end, above twice the term cap: the terms still
    # grow when the cap is reached, so the sum could never stop
    ("coeffs", "J", "0", "1e400", "--lmax", "4"),
    ("--digits", "2", "coeffs", "J", "0", "6000", "--lmax", "0"),
    ("eval", "J", "0", "-1401", "1/2", "--lmax", "4"),
    ("power", "I", "1", "2000", "--max-power", "4"),
    ("verify", "--family", "j1", "--h-range", "0..1", "--k", "1e5"),
    ("bench", "--which", "j0", "--range=-1401..3"),
    ("bench", "--which", "i1", "--range", "0..1e9"),
    # precision above MAX_DIGITS, before or after the subcommand
    ("--digits", "200000", "coeffs", "J", "0", "1", "--lmax", "0"),
    ("coeffs", "J", "0", "1", "--lmax", "0", "--digits", "10001"),
    ("--digits", "20000", "verify", "--family", "j0", "--h-range", "0..0"),
    ("table1", "--table-digits", "10001"),
    ("table1", "--table-digits", "0"),
    # more than series.TRUNCATION_CAP terms in some identity, or rows
    ("verify", "--family", "j0", "--h-range", "0..0", "--terms", "3000"),
    ("verify", "--family", "j1", "--h-range", "0..5", "--terms", "401"),
    ("verify", "--family", "j0", "--h-range", "0..330", "--terms", "+71"),
    ("table1", "--rows", "1500"),
    ("table1", "--rows", "401"),
    ("table1", "--rows", "0"),
    # fewer than h+1 terms at the top of the range: refused before h = 0 is
    # summed, and before the weight is added up over a huge range
    ("verify", "--family", "j0", "--h-range", "0..5", "--terms", "3"),
    ("verify", "--family", "j0", "--h-range", "0..1000000000000", "--terms", "400"),
    # more than MAX_VERIFY_WEIGHT, the sum of each identity's terms squared,
    # each identity within the cap: 25 identities of 400 terms ran 5 s
    ("verify", "--family", "j0", "--h-range", "0..399", "--terms", "400"),
    ("verify", "--family", "j1", "--h-range", "0..200", "--terms", "+51"),
    ("verify", "--family", "j0", "--h-range", "0..25", "--terms", "385"),
    ("verify", "--family", "j0", "--h-range", "0..24", "--terms", "400"),
    ("verify", "--family", "j1", "--h-range", "0..6", "--terms", "400"),
    # no terms at all: no identity can be summed, however long the range
    ("verify", "--family", "j0", "--h-range", "0..1000000000000", "--terms", "0"),
    ("verify", "--family", "j0", "--h-range", "0..3", "--terms", "+0"),
    # bench grids outside 2..MAX_GRID
    ("bench", "--which", "j0", "--grid", "20000"),
    ("bench", "--which", "i1", "--grid", "2002"),
    ("bench", "--which", "j1", "--grid", "1"),
    ("bench", "--which", "i0", "--grid", "-5"),
    # a count that is not N or +N: no sign but one leading +, no spaces
    ("verify", "--family", "j0", "--h-range", "0..1", "--terms", "++5"),
    ("verify", "--family", "j0", "--h-range", "0..1", "--terms", " +5"),
    ("verify", "--family", "j0", "--h-range", "0..1", "--terms", "+-5"),
    ("verify", "--family", "j0", "--h-range", "0..1", "--terms", "5x"),
    ("verify", "--family", "j0", "--h-range", "0..1", "--terms", "+"),
    # every count reads N or +N in ASCII digits, not Python's int() grammar
    ("power", "J", "0", "1", "--max-power", "4", "--terms", "1_0"),
    ("power", "J", "0", "1", "--max-power", "4", "--terms", " +3"),
    ("coeffs", "J", "0", "1", "--lmax", "\u0663"),
    ("table1", "--rows", "+0_2"),
    ("--digits", " 1_0", "coeffs", "J", "0", "1", "--lmax", "0"),
    ("verify", "--family", "j0", "--h-range", " 0..1_0"),
    ("--digits", "0", "coeffs", "J", "0", "1", "--lmax", "0"),
    # more listing digits than the 50-digit series carries
    ("emit", "--what", "legendre-j0", "--emit-digits", "60"),
    # more than series.TRUNCATION_CAP entries: 799 is the top degree for
    # even N, 800 for odd N
    ("coeffs", "J", "0", "1", "--lmax", "1000"),
    ("eval", "J", "0", "1", "1/2", "--lmax", "900"),
    ("power", "J", "0", "1", "--max-power", "800"),
    ("power", "J", "1", "1", "--max-power", "801"),
    ("power", "J", "0", "1", "--max-power", "20000", "--terms", "1"),
    ("power", "J", "0", "1", "--max-power", "4", "--terms", "401"),
    # a rational is P/Q or a decimal in ASCII digits, its exponent at most
    # MAX_DIGITS in size
    ("coeffs", "J", "0", "Infinity", "--lmax", "0"),
    ("eval", "J", "0", "1", "NaN", "--lmax", "2"),
    ("verify", "--family", "j0", "--h-range", "0..0", "--k", "1_0/3"),
    ("coeffs", "J", "0", "1", "--threshold", " 3 "),
    ("bench", "--which", "j0", "--range", "0..3/-4"),
    ("coeffs", "J", "0", "1e-999999999", "--lmax", "0"),
    ("verify", "--family", "j0", "--h-range", "0..0", "--tol", "1e-10000000"),
    # argparse gives an option spelled --opt=-- an empty list (Python 3.11,
    # 3.12) or the string '--' (3.13): a number, a choice and the output path
    ("verify", "--family", "j0", "--h-range", "0..0", "--k=--"),
    ("--digits=--", "coeffs", "J", "0", "1", "--lmax", "0"),
    ("verify", "--family=--", "--h-range", "0..0"),
    ("coeffs", "J", "0", "1", "--lmax", "0", "--out=--"),
    # eval's x is a scale like k: b = 10^10000 in the integer recurrence
    # ran 4.9 s
    ("eval", "J", "0", "1", "1e10000", "--lmax", "42"),
    ("eval", "J", "0", "1", "1401", "--lmax", "4"),
    # a second "--" leaves a positional an empty list
    ("eval", "J", "0", "1", "--", "--"),
    # an order above MAX_ORDER: N = 200000 ran past 20 s for one coefficient
    ("coeffs", "J", "200000", "1", "--lmax", "0", "--digits", "5"),
    ("coeffs", "J", "20000", "1", "--lmax", "0", "--digits", "5"),
    ("eval", "I", "1001", "1", "1/2", "--lmax", "4"),
    ("coeffs", "J", "1000000000000", "1", "--lmax", "0", "--digits", "5"),
    ("power", "J", "1001", "1", "--max-power", "4"),
])
def test_out_of_range_input_exits_2_before_any_work(monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a series was built or an identity summed")

    monkeypatch.setattr(sumverify, "verify_identity", no_work)
    monkeypatch.setattr(series, "build_series", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def run_quietly(*argv):
    """(exit code, stdout, stderr) of one in-process call, argparse's exits
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


VERIFY_TERMS = ("verify", "--family", "j0", "--h-range", "0..0", "--terms", "{}",
                "--tol", "1")
#: One cheap command per count input, the count at ``{}``; only
#: ``verify --terms`` gives a leading + a meaning (h + N terms).
COUNT_TEMPLATES = (
    ("--digits", "{}", "coeffs", "J", "0", "1", "--lmax", "2"),
    ("--digits", "5", "coeffs", "J", "{}", "1", "--lmax", "2"),
    ("--digits", "5", "coeffs", "J", "1", "1", "--lmax", "{}"),
    ("--digits", "5", "power", "J", "0", "1", "--max-power", "{}", "--terms", "2"),
    ("--digits", "5", "power", "J", "0", "1", "--max-power", "2", "--terms", "{}"),
    VERIFY_TERMS,
    ("--digits", "5", "verify", "--family", "j0", "--h-range={}..20",
     "--terms", "+1", "--tol", "1"),
    ("--digits", "5", "verify", "--family", "j0", "--h-range=0..{}",
     "--terms", "+1", "--tol", "1"),
    ("table1", "--rows", "{}", "--table-digits", "5"),
    ("table1", "--rows", "2", "--table-digits", "{}"),
    ("--digits", "5", "bench", "--which", "j0", "--grid", "{}"),
    ("emit", "--what", "legendre-j0", "--emit-digits", "{}"),
)
COUNT_GRAMMAR = r"\+?[0-9]+"
#: Counts in the grammar up to 20, leading zeros included, and strings
#: outside it over its own characters and their neighbours.
count_tokens = st.one_of(
    st.builds(lambda plus, zeros, n: plus + "0" * zeros + str(n),
              st.sampled_from(["", "+"]), st.integers(0, 2), st.integers(0, 20)),
    st.text(alphabet="+- _0123456789\u0663", max_size=5).filter(
        lambda tok: not re.fullmatch(COUNT_GRAMMAR, tok)),
)


def fill(template, tok):
    return [arg.replace("{}", tok) for arg in template]


@given(st.sampled_from(COUNT_TEMPLATES), count_tokens)
@settings(max_examples=400, deadline=None)
def test_count_grammar(template, tok):
    got = run_quietly(*fill(template, tok))
    if not re.fullmatch(COUNT_GRAMMAR, tok):
        assert got[:2] == (2, "")
        return
    plus = "+" if tok.startswith("+") and template == VERIFY_TERMS else ""
    assert got == run_quietly(*fill(template, plus + str(int(tok))))


#: Rationals over their own characters: short P/Q and decimal spellings,
#: and strings outside the grammar.
RATIONAL_GRAMMAR = (r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)"
                    r"(?:[eE][+-]?[0-9]+)?)")
rational_tokens = st.one_of(
    st.from_regex(r"[+-]?(?:[0-9]{1,3}/[0-9]{1,3}|(?:[0-9]{1,3}\.?[0-9]{0,3}"
                  r"|\.[0-9]{1,3})(?:[eE][+-]?[0-9]{1,2})?)", fullmatch=True),
    st.text(alphabet="+-./eE_ 0123456789", max_size=5),
)


@given(rational_tokens)
@example("--")
@settings(max_examples=300, deadline=None)
def test_rational_grammar(tok):
    def verify_at(k):
        return run_quietly("--digits", "5", "verify", "--family", "j0",
                           "--h-range", "0..0", "--terms", "1", "--tol", "1",
                           f"--k={k}")

    got = verify_at(tok)
    if not re.fullmatch(RATIONAL_GRAMMAR, tok) or re.search(r"/0+$", tok):
        assert got[:2] == (2, "")
        return
    q = Fraction(tok)
    assert got == verify_at(f"{q.numerator}/{q.denominator}")


def test_precision_at_the_bound_is_accepted(capsys):
    code, out, _ = run(capsys, "--digits", str(MAX_DIGITS), "coeffs", "J", "0",
                       "1/2", "--lmax", "0")
    assert code == 0
    assert len(out.split()[1]) == MAX_DIGITS + 2  # "0." and the digits
    code, out, _ = run(capsys, "table1", "--rows", "2",
                       "--table-digits", str(MAX_DIGITS))
    assert code == 0
    assert len(out.split()) == 2


def test_order_at_the_bound_is_accepted(capsys):
    for kind in ("J", "I"):
        code, out, _ = run(capsys, "--digits", "5", "coeffs", kind,
                           str(MAX_ORDER), "1", "--lmax", "0")
        assert code == 0
        assert out.split()[0] == "0"


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "j0", "--h-range", "0..0", "--terms", "400"),
    ("verify", "--family", "j1", "--h-range", "329..329", "--terms", "+71"),
    ("table1", "--rows", "400"),
])
def test_term_and_row_counts_at_the_cap_are_accepted(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.count("\n") == (400 if argv[0] == "table1" else 1)


def test_totals_at_the_command_bounds_are_accepted(capsys):
    # 125 identities of h + 18 terms, h = 0..124, weigh 962 750
    code, out, _ = run(capsys, "verify", "--family", "j1", "--h-range", "0..124",
                       "--terms", "+18", "--tol", "1")
    assert code == 0
    assert out.count("\n") == 125
    code, out, _ = run(capsys, "--digits", "8", "bench", "--which", "j0",
                       "--grid", str(MAX_GRID))
    assert code == 0
    code, out, _ = run(capsys, "--digits", "8", "bench", "--which", "j0", "--grid", "2")
    assert code == 0 and "at x = -3" in out


def test_one_parser_serves_every_call(capsys, tmp_path):
    # the parser is built once per process; options given to one call must
    # not leak into the next
    a = ("eval", "J", "0", "1", "3/2", "--lmax", "20")
    first = run(capsys, *a)
    assert first[0] == 0
    out_file = tmp_path / "b.json"
    assert run(capsys, "--format", "json", "--out", str(out_file), "--digits", "30",
               "coeffs", "I", "1", "1", "--lmax", "5")[:2] == (0, "")
    assert '"precision":30' in out_file.read_text()
    assert run(capsys, "bench", "--which", "j0", "--grid", "0")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", "J", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *a) == first
    assert build_parser() is build_parser()


def test_verify_at_k_zero(capsys):
    # for h >= 1 the right side is exactly 0; the absolute difference is used
    code, out, _ = run(capsys, "verify", "--family", "j0", "--h-range", "0..1",
                       "--k", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert all(line.endswith(" pass") for line in lines)


def test_computational_error_exit_3(capsys):
    # a scale within the up-front bound (440 at 2 digits) whose series still
    # cannot meet its termination rule in the cap
    code, _, err = run(capsys, "--digits", "2", "coeffs", "J", "0", "400",
                       "--lmax", "0")
    assert code == 3
    assert "computation failed" in err


def test_package_exports_resolve():
    import flbessel

    missing = [name for name in flbessel.__all__ if not hasattr(flbessel, name)]
    assert missing == []
    assert len(set(flbessel.__all__)) == len(flbessel.__all__)
