"""Render series as code/text artifacts and as machine-readable JSON.

The flagship dialect, ``legacy-fixed-form``, reproduces the layout of the
classic fixed-form listings: an 8-space indent on the head line, a
continuation marker ``-`` in column 6 followed by two spaces, terms joined
by `` + `` / `` - `` with the operator left hanging at a line break, and no
line running past 72 meaningful columns.  ``free-form`` emits the same
expression on a single line, ``cas`` additionally swaps ``**`` for ``^``
(computer-algebra input), and ``integer-power`` renders a power series as
exact inverse prime powers, which requires a fully certified factor report.

Displayed digit counts are per-term: the published listings this emitter is
tested against vary between 32 and 35 significant digits from one line to
the next, so ``EmitTarget.digits`` accepts either one uniform count or a
tuple with one count per term (``PUBLISHED_LISTING_DIGITS`` has the counts
used by the golden files).

JSON output is a versioned, stable schema; every numeric value travels as
decimal text, never as a binary float.  ``parse_json`` inverts ``emit_json``
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Sequence

from .mpnum import BigReal, PrimePowers, render_significant
from .powerprime import FactorEntry, FactorReport, PowerSeries
from .series import AccuracyReport, DigitsExceedPrecision, FLSeries
from .sumverify import SumSpec, VerifyReport

SCHEMA_VERSION = 1

LEGENDRE_DIALECTS = ("legacy-fixed-form", "free-form", "cas")
POWER_DIALECTS = ("legacy-fixed-form", "free-form", "cas", "integer-power")

_MAX_COLUMNS = 72
# the published integer-arithmetic blocks wrap a little wider
_INT_POWER_COLUMNS = 75
_HEAD_INDENT = " " * 8
_CONTINUATION = "     -  "


class UncertifiedFactorization(ValueError):
    """integer-power emission without a fully certified factor report."""


@dataclass(frozen=True)
class EmitTarget:
    """Output dialect, display digits (uniform or per-term), and LHS name."""

    dialect: str
    digits: int | tuple[int, ...]
    name: str


def default_name(kind: str, order: int) -> str:
    """LHS spelling used by the published listings."""
    if kind == "J":
        return f"J{order}(x)"
    return f"I({order},x)"


def _digit_list(
    digits: int | tuple[int, ...], n_terms: int, precision: int
) -> list[int]:
    if isinstance(digits, int):
        lst = [digits] * n_terms
    else:
        if len(digits) != n_terms:
            raise ValueError(
                f"digit spec has {len(digits)} entries for {n_terms} terms"
            )
        lst = list(digits)
    for d in lst:
        if d > precision:
            raise DigitsExceedPrecision(
                f"{d} digits requested from a {precision}-digit series"
            )
        if d < 1:
            raise ValueError("digit counts must be >= 1")
    return lst


def _wrap_fixed(head: str, pieces: list[tuple[str, str]]) -> str:
    """Greedy fill to 72 columns; ops hang at line ends, marker in col 6."""
    lines = []
    current = _HEAD_INDENT + head + pieces[0][1]
    for op, text in pieces[1:]:
        candidate = f"{current} {op} {text}"
        if len(candidate) <= _MAX_COLUMNS:
            current = candidate
        else:
            lines.append(f"{current} {op} ")
            current = _CONTINUATION + text
    lines.append(current)
    return "\n".join(lines)


def _join_single_line(head: str, pieces: list[tuple[str, str]]) -> str:
    out = head + pieces[0][1]
    for op, text in pieces[1:]:
        out += f" {op} {text}"
    return out


def _signed_pieces(
    values: Sequence[tuple[str, BigReal]],
    digit_list: list[int],
    finish: Callable[[str], str] = str,
) -> list[tuple[str, str]]:
    """(op, term-text) pairs with each coefficient's sign folded into the op.

    ``finish`` post-processes each rendered magnitude.
    """
    pieces = []
    for (term, v), d in zip(values, digit_list):
        mag = finish(render_significant(v.value.copy_abs(), d))
        text = f"{mag}*{term}" if term else mag
        pieces.append(("-" if v.sign < 0 else "+", text))
    first_op, first_text = pieces[0]
    pieces[0] = ("", ("-" if first_op == "-" else "") + first_text)
    return pieces


def _layout(t: EmitTarget, pieces: list[tuple[str, str]]) -> str:
    head = f"{t.name} = "
    if t.dialect == "legacy-fixed-form":
        return _wrap_fixed(head, pieces)
    return _join_single_line(head, pieces)


def emit_legendre_code(s: FLSeries, t: EmitTarget) -> str:
    """A Legendre expansion as a callable expression block."""
    if t.dialect not in LEGENDRE_DIALECTS:
        raise ValueError(f"dialect for Legendre emission must be in {LEGENDRE_DIALECTS}")
    if not s.entries:
        return f"{t.name} = 0"
    digit_list = _digit_list(t.digits, len(s.entries), s.precision)
    values = [(f"P({L},x)", a) for L, a in s.entries]
    return _layout(t, _signed_pieces(values, digit_list))


def _power_term(m: int, caret: bool) -> str:
    if m == 0:
        return ""
    if m == 1:
        return "x"
    return f"x^{m}" if caret else f"x**{m}"


def _fortran_decimal(text: str) -> str:
    # integer-valued coefficients keep a trailing point, Fortran-style
    if "." not in text and "e" not in text:
        return text + "."
    return text


def emit_power_code(
    p: PowerSeries, t: EmitTarget, factors: FactorReport | None = None
) -> str:
    """A power series as a code block, decimal or exact inverse-prime form."""
    if t.dialect not in POWER_DIALECTS:
        raise ValueError(f"dialect for power emission must be in {POWER_DIALECTS}")
    if not p.coeffs:
        return f"{t.name} = 0"

    if t.dialect == "integer-power":
        return _emit_integer_power(p, t, factors)

    digit_list = _digit_list(t.digits, len(p.coeffs), p.precision)
    caret = t.dialect == "cas"
    values = [(_power_term(m, caret), c) for m, c in p.coeffs]
    return _layout(t, _signed_pieces(values, digit_list, _fortran_decimal))


def denominator_text(pp: PrimePowers) -> str:
    factors = [f"{q}^{e}" if e > 1 else f"{q}" for q, e in pp.exponents]
    if pp.leftover != 1:
        factors.append(str(pp.leftover))
    if not factors:
        return ""
    body = "*".join(factors)
    if len(factors) == 1 and "^" not in body:
        return f"/{body}"
    return f"/({body})"


def _emit_integer_power(
    p: PowerSeries, t: EmitTarget, factors: FactorReport | None
) -> str:
    if p.k != 1:
        raise ValueError("integer-power emission is defined for scale k = 1")
    if factors is None or not factors.all_certified:
        raise UncertifiedFactorization(
            "integer-power emission needs a factor report with every entry certified"
        )
    chunks = []
    for m, _ in p.coeffs:
        entry = factors.entry(m)
        if entry is None or entry.factors is None:
            raise UncertifiedFactorization(f"no certified factorization for x^{m}")
        base = "x" if m == 1 else f"x^{m}"
        term = base + denominator_text(entry.factors)
        sign = "-" if entry.factors.sign < 0 else "+"
        chunks.append((sign, term))

    first_sign, first_term = chunks[0]
    line = f"{t.name}=" + ("-" if first_sign == "-" else "") + first_term
    lines = []
    for sign, term in chunks[1:]:
        candidate = f"{line}{sign}{term}"
        if len(candidate) <= _INT_POWER_COLUMNS:
            line = candidate
        else:
            lines.append(line)
            line = f"{sign}{term}"
    lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-term digit counts of the published listings (used by the golden files).
# ---------------------------------------------------------------------------

PUBLISHED_LISTING_DIGITS: dict[str, tuple[int, ...]] = {
    "J0": (32, 34, 34, 34, 33, 34, 34, 34, 34, 34, 34,
           34, 34, 34, 34, 34, 34, 34, 34, 34, 34, 34),
    "J1": (34,) * 22,
    "I0": (34, 34, 34, 34, 34, 34, 34, 34, 34, 34, 35, 34,
           34, 34, 34, 34, 34, 34, 34, 34, 34, 34, 34, 34),
    "I1": (34,) * 23,
    "J0_POWER": (1, 2, 5, 37, 37, 37, 37, 37, 37, 37, 37,
                 37, 37, 37, 37, 37, 37, 37, 37, 37, 38, 38),
    "J1_POWER": (1, 3, 37, 37, 37, 37, 37, 37, 37, 37, 37,
                 37, 37, 37, 37, 37, 37, 37, 37, 37, 37, 37),
}


# ---------------------------------------------------------------------------
# JSON: one stable, versioned schema per object type
# ---------------------------------------------------------------------------


def _k_text(k: Fraction) -> str:
    """A rational as "n/d", of any length (through ``int_text``)."""
    return f"{int_text(k.numerator)}/{int_text(k.denominator)}"


def _parse_k(text: str) -> Fraction:
    """Inverse of ``_k_text``; ``Fraction(str)`` refuses more than 4300 digits."""
    n, d = text.split("/")
    return Fraction(_parse_int(n), _parse_int(d))


def emit_json(obj) -> str:
    """Serialize a series, report, or factorization; values as decimal text."""
    if isinstance(obj, FLSeries):
        payload = {
            "schema": SCHEMA_VERSION,
            "type": "fl_series",
            "kind": obj.kind,
            "order": obj.order,
            "k": _k_text(obj.k),
            "precision": obj.precision,
            "entries": [[L, str(a)] for L, a in obj.entries],
        }
    elif isinstance(obj, PowerSeries):
        payload = {
            "schema": SCHEMA_VERSION,
            "type": "power_series",
            "kind": obj.kind,
            "order": obj.order,
            "k": _k_text(obj.k),
            "precision": obj.precision,
            "provenance": obj.provenance,
            "coeffs": [[m, str(c)] for m, c in obj.coeffs],
        }
    elif isinstance(obj, PrimePowers):
        payload = {
            "schema": SCHEMA_VERSION,
            "type": "prime_powers",
            "sign": obj.sign,
            "exponents": {str(q): e for q, e in obj.exponents},
            "leftover": obj.leftover,
        }
    elif isinstance(obj, FactorReport):
        entries = []
        for e in obj.entries:
            item: dict = {"power": e.power, "nearest": _NEAREST,
                          "gap": str(e.gap), "gap_precision": e.gap.precision}
            if e.factors is None:
                item["status"] = "not_near_integer"
            else:
                item["status"] = "certified"
                item["sign"] = e.factors.sign
                item["exponents"] = {str(q): ex for q, ex in e.factors.exponents}
                item["leftover"] = e.factors.leftover
            entries.append(item)
        payload = {
            "schema": SCHEMA_VERSION,
            "type": "factor_report",
            "entries": entries,
        }
        head, *rest = json_line(payload).split(json.dumps(_NEAREST))
        return head + "".join(
            int_text(e.nearest) + part for e, part in zip(obj.entries, rest))
    elif isinstance(obj, VerifyReport):
        payload = {
            "schema": SCHEMA_VERSION,
            "type": "sum_verification",
            "family": obj.spec.family,
            "variant": "pochhammer",  # the bracket every term was checked against
            "h": obj.spec.h,
            "k": _k_text(obj.spec.k),
            "terms": obj.spec.L_terms,
            "precision": obj.spec.precision,
            "lhs": str(obj.lhs),
            "rhs": str(obj.rhs),
            "rel_diff": str(obj.rel_diff),
            "rel_diff_precision": obj.rel_diff.precision,
            "passed": obj.passed,
        }
    elif isinstance(obj, AccuracyReport):
        payload = {
            "schema": SCHEMA_VERSION,
            "type": "accuracy_report",
            "x_lo": _k_text(obj.x_range[0]),
            "x_hi": _k_text(obj.x_range[1]),
            "grid_points": obj.grid_points,
            "max_abs_error": str(obj.max_abs_error),
            "precision": obj.max_abs_error.precision,
            "argmax_x": _k_text(obj.argmax_x),
        }
    else:
        raise TypeError(f"no JSON schema for {type(obj).__name__}")
    return json_line(payload)


#: Stands in for each ``nearest`` while ``json.dumps`` runs, since that
#: refuses an int of more than 4300 digits; the digits replace it after.
_NEAREST = "\0nearest"


def int_text(n: int) -> str:
    """The decimal digits of ``n``, of any length: ``str`` refuses an int
    of more than 4300 digits, ``Decimal`` converts one exactly."""
    return str(Decimal(n))


def _parse_int(text: str) -> int:
    """A JSON integer of any length, read back exactly."""
    return int(Decimal(text))


def json_line(payload: dict) -> str:
    """The compact, byte-stable one-line JSON form of every emitted object."""
    return json.dumps(payload, separators=(",", ":"))


def _prime_powers_from(payload: dict) -> PrimePowers:
    exps = tuple(sorted((int(q), e) for q, e in payload["exponents"].items()))
    return PrimePowers(exponents=exps, leftover=payload["leftover"],
                       sign=payload["sign"])


def parse_json(text: str):
    """Inverse of :func:`emit_json`."""
    payload = json.loads(text, parse_int=_parse_int)
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {payload.get('schema')!r}")
    kind = payload["type"]
    if kind == "fl_series":
        p = payload["precision"]
        return FLSeries(
            kind=payload["kind"],
            order=payload["order"],
            k=_parse_k(payload["k"]),
            entries=tuple((L, BigReal.parse(v, p)) for L, v in payload["entries"]),
            precision=p,
        )
    if kind == "power_series":
        p = payload["precision"]
        return PowerSeries(
            kind=payload["kind"],
            order=payload["order"],
            k=_parse_k(payload["k"]),
            coeffs=tuple((m, BigReal.parse(v, p)) for m, v in payload["coeffs"]),
            provenance=payload["provenance"],
            precision=p,
        )
    if kind == "prime_powers":
        return _prime_powers_from(payload)
    if kind == "factor_report":
        entries = []
        for item in payload["entries"]:
            factors = None
            if item["status"] == "certified":
                factors = _prime_powers_from(item)
            entries.append(
                FactorEntry(
                    power=item["power"],
                    factors=factors,
                    nearest=item["nearest"],
                    gap=BigReal.parse(item["gap"], item["gap_precision"]),
                )
            )
        return FactorReport(entries=tuple(entries))
    if kind == "sum_verification":
        spec = SumSpec(
            family=payload["family"],
            h=payload["h"],
            k=_parse_k(payload["k"]),
            L_terms=payload["terms"],
            precision=payload["precision"],
        )
        p = payload["precision"]
        return VerifyReport(
            spec=spec,
            lhs=BigReal.parse(payload["lhs"], p),
            rhs=BigReal.parse(payload["rhs"], p),
            rel_diff=BigReal.parse(payload["rel_diff"], payload["rel_diff_precision"]),
            passed=payload["passed"],
        )
    if kind == "accuracy_report":
        return AccuracyReport(
            x_range=(_parse_k(payload["x_lo"]), _parse_k(payload["x_hi"])),
            grid_points=payload["grid_points"],
            max_abs_error=BigReal.parse(
                payload["max_abs_error"], payload["precision"]
            ),
            argmax_x=_parse_k(payload["argmax_x"]),
        )
    raise ValueError(f"unknown object type {kind!r}")
