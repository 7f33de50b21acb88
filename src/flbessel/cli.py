"""Command-line surface for batch reproduction of every published artifact.

Exit codes: 0 success, 1 a verification reported failure, 2 usage error,
3 computational error (term cap, truncation cap, pole, failed certification).
Output is deterministic for a given flag set; JSON output is byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from . import emit as emit_mod
from . import powerprime, series, sumverify
from .hypergeom import LowerParamPole, TermCapExceeded, term_cap
from .mpnum import BigReal
from .series import TruncationCapExceeded

_COMPUTATION_ERRORS = (
    TermCapExceeded,
    TruncationCapExceeded,
    LowerParamPole,
    sumverify.VariantMismatch,
    emit_mod.UncertifiedFactorization,
    ZeroDivisionError,
)


#: Largest accepted ``--digits`` and ``table1 --table-digits``.  Exact sums
#: grow with the precision, so a larger request would run for minutes.
MAX_DIGITS = 10_000


#: Largest weight of one ``verify`` command: the sum over its identities of
#: the square of each one's term count, since a term costs more the higher
#: its degree L.  The j1 sweep over h 0..43 with +78 terms weighs 442 706
#: (0.17 s as one process, 0.10 s of it in ``verify``); h 0..24 with 400
#: terms each weighs 4 000 000 and took 5 s; the heaviest admitted commands,
#: six 400-term identities, take about 0.55 s.
#: With at least h+1 and at most 400 terms per identity, h stays below 400,
#: and the most terms an admitted command sums is 10 296 (h 0..142, +1).
MAX_VERIFY_WEIGHT = 1_000_000

#: Most grid points ``bench --grid`` accepts; 2001 points take about 0.25 s.
MAX_GRID = 2001

#: Largest accepted Bessel order N.  The coefficients' gamma denominators and
#: sums grow with N: a full 400-entry table at 50 digits took 0.12 s at
#: N = 0, 0.40 s at N = 1000, 1.5 s at N = 2000 and 6.4 s at N = 5000.
MAX_ORDER = 1000


class UsageError(ValueError):
    pass


#: The two grammars of every number the command line reads, in ASCII digits:
#: a count N or +N, and a rational P/Q or a decimal whose exponent is group 1.
_COUNT = re.compile(r"\+?[0-9]+")
_RATIONAL = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE]([+-]?[0-9]+))?)")
#: Most digits of a count that ``int()`` converts (Python's default limit on
#: integer strings); every count the commands accept has far fewer.
_MAX_COUNT_DIGITS = 4300


def _count(text: str, name: str, lo: int, hi: int | None = None) -> int:
    """A count spelled N or +N, leading zeros allowed, within lo..hi.

    N of more than ``_MAX_COUNT_DIGITS`` digits is refused before ``int()``,
    which would raise on it.
    """
    if not _COUNT.fullmatch(text):
        raise UsageError(f"{name} must be N or +N with N in ASCII digits")
    bounds = (f"{name} must be at least {lo}" if hi is None
              else f"{name} must be between {lo} and {hi}")
    if len(text.lstrip("+0")) > _MAX_COUNT_DIGITS:
        raise UsageError(f"{name} is too large" if hi is None else bounds)
    value = int(text)
    if value < lo or (hi is not None and value > hi):
        raise UsageError(bounds)
    return value


def _degree(text: str, name: str, order: int) -> int:
    """A top degree L (or power m) whose table, of the parity of ``order``,
    keeps at most ``series.TRUNCATION_CAP`` entries."""
    return _count(text, name, 0, 2 * series.TRUNCATION_CAP - 1 + order % 2)


def _parse_rational(text: str) -> Fraction:
    """'3/2' or an exact decimal like '3.75' or '1e-33'.

    An exponent beyond ``MAX_DIGITS`` is refused before the power of ten
    it names is built.
    """
    match = _RATIONAL.fullmatch(text)
    try:
        if match and abs(int(match[1] or 0)) <= MAX_DIGITS:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"cannot parse {text!r} as a rational number")


def _parse_scale(text: str, digits: int, name: str) -> Fraction:
    """A rational whose series can meet the term cap at ``digits`` digits.

    The terms of the 1F2/2F3 and ascending series in k (or x) grow while
    n < |k|/2, so beyond twice the term cap no sum can ever stop.
    """
    value = _parse_rational(text)
    bound = 2 * term_cap(digits)
    if abs(value) > bound:
        raise UsageError(f"|{name}| must be at most {bound} at {digits} digits")
    return value


def _parse_kind_order(kind: str, order: str) -> tuple[str, int]:
    k = kind.upper()
    if k not in ("J", "I"):
        raise UsageError("kind must be J or I")
    return k, _count(order, "order", 0, MAX_ORDER)


def _parse_range(text: str, digits: int) -> tuple[Fraction, Fraction]:
    if ".." not in text:
        raise UsageError("range must look like LO..HI")
    lo, hi = text.split("..", 1)
    return _parse_scale(lo, digits, "LO"), _parse_scale(hi, digits, "HI")


def _parse_h_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    a = _count(lo, "--h-range A", 0)
    return a, _count(hi if sep else lo, "--h-range B", a)


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def cmd_coeffs(args: argparse.Namespace) -> int:
    kind, order = _parse_kind_order(args.kind, args.order)
    k = _parse_scale(args.k, args.digits, "k")
    lmax = None if args.lmax is None else _degree(args.lmax, "--lmax", order)
    threshold = None if args.threshold is None else _parse_rational(args.threshold)
    if threshold is not None and threshold <= 0:
        raise UsageError("--threshold must be positive")
    s = series.build_series(kind, order, k, l_max=lmax, threshold=threshold,
                            precision=args.digits)
    if args.format == "json":
        _write(args, emit_mod.emit_json(s))
    else:
        lines = [f"{L:4d}  {a}" for L, a in s.entries]
        _write(args, "\n".join(lines) if lines else "(no entries)")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    kind, order = _parse_kind_order(args.kind, args.order)
    k = _parse_scale(args.k, args.digits, "k")
    x = _parse_scale(args.x, args.digits, "x")
    lmax = None if args.lmax is None else _degree(args.lmax, "--lmax", order)
    s = series.build_series(kind, order, k, l_max=lmax, precision=args.digits)
    val = series.eval_series(s, x, args.digits)
    if args.format == "json":
        _write(args, emit_mod.json_line({
            "schema": emit_mod.SCHEMA_VERSION, "type": "evaluation",
            "kind": kind, "order": order,
            "k": emit_mod._k_text(k), "x": emit_mod._k_text(x),
            "l_max": s.l_max, "precision": args.digits, "value": str(val)}))
    else:
        _write(args, str(val))
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    kind, order = _parse_kind_order(args.kind, args.order)
    k = _parse_scale(args.k, args.digits, "k")
    max_power = _degree(args.max_power, "--max-power", order)
    lmax = max_power
    if args.terms is not None:
        terms = _count(args.terms, "--terms", 1, series.TRUNCATION_CAP)
        lmax = order % 2 + 2 * (terms - 1)
    s = series.build_series(kind, order, k, l_max=lmax, precision=args.digits)
    p = powerprime.to_power_series(s, max_power)
    report = powerprime.certify_prime_structure(p) if args.factorize else None
    if args.format == "json":
        out = [emit_mod.emit_json(p)]
        if report is not None:
            out.append(emit_mod.emit_json(report))
        _write(args, "\n".join(out))
        return 0
    lines = [f"x^{m:<3d} {c}" for m, c in p.coeffs]
    if report is not None:
        lines.append("")
        for e in report.entries:
            if e.certified:
                den = emit_mod.denominator_text(e.factors).lstrip("/") or "1"
                lines.append(f"x^{e.power:<3d} 1/{den}  gap {e.gap}")
            else:
                lines.append(
                    f"x^{e.power:<3d} not near an integer "
                    f"(nearest {emit_mod.int_text(e.nearest)}, gap {e.gap})"
                )
    _write(args, "\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    h_lo, h_hi = _parse_h_range(args.h_range)
    k = _parse_scale(args.k, args.digits, "k")
    tol = _parse_rational(args.tol)
    base_terms = _count(args.terms, "--terms", 1)
    plus = args.terms.startswith("+")

    def terms_at(h: int) -> int:
        return h + base_terms if plus else base_terms

    largest = terms_at(h_hi)
    if largest < h_hi + 1:
        raise UsageError(
            f"--terms gives {largest} terms at h={h_hi}; an identity needs at "
            "least h+1, since its first h terms vanish"
        )
    if largest > series.TRUNCATION_CAP:
        raise UsageError(
            f"--terms gives {largest} terms at h={h_hi}; "
            f"at most {series.TRUNCATION_CAP} are summed per identity"
        )
    weight = sum(terms_at(h) ** 2 for h in range(h_lo, h_hi + 1))
    if weight > MAX_VERIFY_WEIGHT:
        raise UsageError(
            f"--h-range and --terms weigh {weight} (each identity's terms, "
            f"squared, summed); at most {MAX_VERIFY_WEIGHT} per command"
        )
    out_lines = []
    worst_fail = False
    for h in range(h_lo, h_hi + 1):
        terms = terms_at(h)
        spec = sumverify.SumSpec(
            family=args.family, h=h, k=k, L_terms=terms,
            precision=args.digits,
        )
        report = sumverify.verify_identity(spec, tol)
        worst_fail = worst_fail or not report.passed
        if args.format == "json":
            out_lines.append(emit_mod.emit_json(report))
        else:
            status = "pass" if report.passed else "FAIL"
            out_lines.append(
                f"h={h:3d} terms={terms:4d} rel_diff={report.rel_diff} {status}"
            )
    _write(args, "\n".join(out_lines))
    return 1 if worst_fail else 0


def cmd_table1(args: argparse.Namespace) -> int:
    digits = _count(args.table_digits, "--table-digits", 1, MAX_DIGITS)
    spec = sumverify.SumSpec(
        family="j0", h=0, k=Fraction(1),
        L_terms=_count(args.rows, "--rows", 1, series.TRUNCATION_CAP),
        precision=max(digits + 4, 50),
    )
    partials = sumverify.partial_sums_rational(spec)
    rows = [str(BigReal.from_fraction(q, digits)) for q in partials]
    if args.format == "json":
        _write(args, emit_mod.json_line({
            "schema": emit_mod.SCHEMA_VERSION, "type": "constant_term_table",
            "rows": rows, "precision": digits}))
    else:
        _write(args, "\n".join(rows))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    grid = _count(args.grid, "--grid", 2, MAX_GRID)
    which = args.which.upper()
    kind, order = which[0], int(which[1])
    if args.range:
        lo, hi = _parse_range(args.range, args.digits)
        if lo > hi:
            raise UsageError("range must satisfy LO <= HI")
    else:
        bound = series.ALLEN_RANGE[which]
        lo, hi = -bound, bound
    lmax = 12 if order == 0 else 13
    s = series.build_series(kind, order, Fraction(1), l_max=lmax,
                            precision=args.digits)
    fl_report, allen_report = series.accuracy_scan(
        s, lo, hi, grid, (which,), precision=args.digits)
    if args.format == "json":
        _write(args, "\n".join([
            emit_mod.json_line({"schema": emit_mod.SCHEMA_VERSION,
                                "type": "bench", "which": args.which,
                                "truncation_l_max": lmax}),
            emit_mod.emit_json(fl_report),
            emit_mod.emit_json(allen_report),
        ]))
        return 0
    lines = [
        f"series truncated at P_{lmax}: max |error| = "
        f"{fl_report.max_abs_error.render(8)} at x = {fl_report.argmax_x}",
        f"optimized 7-term fit:       max |error| = "
        f"{allen_report.max_abs_error.render(8)} at x = {allen_report.argmax_x}",
    ]
    _write(args, "\n".join(lines))
    return 0


_EMIT_WHAT = {
    # what: (kind, order, l_max, digit-spec key)
    "legendre-j0": ("J", 0, 42, "J0"),
    "legendre-j1": ("J", 1, 43, "J1"),
    "legendre-i0": ("I", 0, 46, "I0"),
    "legendre-i1": ("I", 1, 45, "I1"),
    "power-j0": ("J", 0, 146, "J0_POWER"),
    "power-j1": ("J", 1, 155, "J1_POWER"),
    "intpower-j0": ("J", 0, 146, None),
    "intpower-j1": ("J", 1, 155, None),
}


def cmd_emit(args: argparse.Namespace) -> int:
    kind, order, lmax, spec_key = _EMIT_WHAT[args.what]
    precision = max(args.digits, 50)
    name = emit_mod.default_name(kind, order)
    max_power = 42 if order == 0 else 43
    digits = (emit_mod.PUBLISHED_LISTING_DIGITS.get(spec_key)
              if args.emit_digits == "published"
              else _count(args.emit_digits, "--emit-digits", 1, precision))
    if args.what.startswith("intpower-"):
        # the exact inverse-prime realization: reciprocals of the high
        # powers need ~60 correct digits, beyond any realistic fold
        p = powerprime.exact_power_series(kind, order, max_power)
        report = powerprime.certify_prime_structure(p)
        text = emit_mod.emit_power_code(
            p, emit_mod.EmitTarget("integer-power", 1, name), report)
    else:
        s = series.build_series(kind, order, Fraction(1), l_max=lmax,
                                precision=precision)
        if args.what.startswith("legendre-"):
            text = emit_mod.emit_legendre_code(
                s, emit_mod.EmitTarget(args.dialect, digits, name))
        else:
            p = powerprime.to_power_series(s, max_power)
            text = emit_mod.emit_power_code(
                p, emit_mod.EmitTarget(args.dialect, digits, name))
    _write(args, text)
    return 0


def _common_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # the same options are accepted before or after the subcommand; the
    # sub-level copies suppress their defaults so they never clobber values
    # given up front
    suppress = argparse.SUPPRESS
    parser.add_argument("--digits", default="50" if top_level else suppress,
                        help="working/display precision in significant "
                             f"digits, at most {MAX_DIGITS}")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text" if top_level else suppress)
    parser.add_argument("--out", default="-" if top_level else suppress,
                        help="output path, '-' for stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call."""
    ap = argparse.ArgumentParser(
        prog="flbessel",
        description="Legendre-basis expansions of Bessel functions: "
                    "coefficient tables, evaluation, power series, prime "
                    "certification, summed-series verification, and code "
                    "emission.",
    )
    _common_options(ap, top_level=True)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("coeffs", help="expansion coefficient table")
    c.add_argument("kind")
    c.add_argument("order")
    c.add_argument("k")
    g = c.add_mutually_exclusive_group()
    g.add_argument("--lmax")
    g.add_argument("--threshold",
                   help="stop once two successive |a_L| fall below this "
                        "absolute bound (default 10^-(digits+2))")
    _common_options(c, top_level=False)
    c.set_defaults(func=cmd_coeffs)

    e = sub.add_parser("eval", help="evaluate a truncated expansion")
    e.add_argument("kind")
    e.add_argument("order")
    e.add_argument("k")
    e.add_argument("x")
    e.add_argument("--lmax")
    _common_options(e, top_level=False)
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("power", help="fold the expansion into a power series")
    p.add_argument("kind")
    p.add_argument("order")
    p.add_argument("k")
    p.add_argument("--max-power", required=True)
    p.add_argument("--terms",
                   help="number of Legendre terms folded in")
    p.add_argument("--factorize", action="store_true",
                   help="certify inverse-prime-power structure")
    _common_options(p, top_level=False)
    p.set_defaults(func=cmd_power)

    v = sub.add_parser("verify", help="summed-series identity check")
    v.add_argument("--family", choices=["j0", "j1"], required=True)
    v.add_argument("--h-range", required=True, help="A..B inclusive")
    v.add_argument("--k", default="1")
    v.add_argument("--terms", default="+80",
                   help="'+N' means h+N terms, bare N is absolute and at "
                        "least h+1 for every h; at most "
                        f"{series.TRUNCATION_CAP} terms per identity and "
                        f"{MAX_VERIFY_WEIGHT} for the sum of each "
                        "identity's terms squared")
    v.add_argument("--tol", default="1e-33", help="relative tolerance")
    _common_options(v, top_level=False)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table1",
                       help="convergence table of the constant-term partial sums")
    t.add_argument("--rows", default="17",
                   help=f"partial sums listed, 1 to {series.TRUNCATION_CAP}")
    t.add_argument("--table-digits", default="48",
                   help=f"digits per row, at most {MAX_DIGITS}")
    _common_options(t, top_level=False)
    t.set_defaults(func=cmd_table1)

    b = sub.add_parser("bench",
                       help="compare a short truncation against the classic fits")
    b.add_argument("--which", choices=["j0", "j1", "i0", "i1"], required=True)
    b.add_argument("--range", help="LO..HI (default: the fit's nominal range)")
    b.add_argument("--grid", default="121",
                   help=f"grid points, 2 to {MAX_GRID}")
    _common_options(b, top_level=False)
    b.set_defaults(func=cmd_bench)

    m = sub.add_parser("emit", help="emit a code/text artifact")
    m.add_argument("--what", choices=sorted(_EMIT_WHAT), required=True)
    m.add_argument("--dialect", default="legacy-fixed-form",
                   choices=["legacy-fixed-form", "free-form", "cas"])
    m.add_argument("--emit-digits", default="published",
                   help="'published' for the per-term listing digit counts, "
                        "or a uniform integer")
    _common_options(m, top_level=False)
    m.set_defaults(func=cmd_emit)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse reads "--" as the end of options.  It gives "--opt=--" an
    # empty list (Python 3.11, 3.12) or the string '--' (3.13, checked
    # against the option's choices before this function sees it), so such
    # a token is refused unparsed; a second "--" leaves a positional an
    # empty list.
    dashes = any(a.startswith("-") and a.endswith("=--") for a in argv)
    args = None if dashes else build_parser().parse_args(argv)
    try:
        if args is None or [] in vars(args).values():
            raise UsageError("an option's value cannot be '--'")
        args.digits = _count(args.digits, "--digits", 1, MAX_DIGITS)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _COMPUTATION_ERRORS as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
