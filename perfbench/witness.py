"""Independent witnesses for every output the benchmark's workloads print.

Nothing here imports ``flbessel``.  Coefficients are recomputed with mpmath
from the orthogonality projection of the ascending Bessel series onto P_L,
a different derivation from the package's hypergeometric closed forms.
Power-series coefficients are checked against the exact ascending series,
the accuracy comparisons (``bench``) against mpmath's Bessel functions and
the published seven-term fits, and the listings against the golden files in
``tests/data``, which are only ever read.

Each check returns one boolean per operation (one coefficient, one identity
or one listing), so a wrong digit is counted, not fatal.  ``OutputError``
means an output could not be parsed at all.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath

#: Extra digits the witnesses carry beyond the digits being checked.
GUARD = 30

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


class OutputError(ValueError):
    """An output does not have the shape its command promises."""


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def projection_coeff(kind: str, L: int, N: int, k: Fraction) -> mpmath.mpf:
    """Coefficient of P_L in J_N(kx) or I_N(kx) at the current mpmath precision.

    a_L = (2L+1)/2 * sum_j c_j k^m int_{-1}^{1} x^m P_L(x) dx,  m = 2j + N,
    with c_j = (+-1)^j 2^-m / (j! (j+N)!) from the ascending series and

        int x^m P_L = m! Gamma(s+1/2) / ((m-L)! 2^L Gamma(s+L+3/2)),
        s = (m-L)/2, for m >= L of the same parity (zero otherwise).

    The first nonzero term is exact; each next one follows by the exact
    integer term ratio.
    """
    if (L + N) % 2:
        return mpmath.mpf(0)
    sign = -1 if kind == "J" else 1
    j = max(0, (L - N) // 2)
    m = 2 * j + N
    s = (m - L) // 2
    first = (
        Fraction(sign) ** j * (k / 2) ** m
        / (math.factorial(j) * math.factorial(j + N))
        * Fraction(math.factorial(m), math.factorial(m - L) * 2**L)
        * Fraction(2 ** (L + 1), math.prod(range(2 * s + 1, 2 * s + 2 * L + 3, 2)))
    )
    p2, q2 = sign * k.numerator**2, 4 * k.denominator**2
    term = _mpf(first)
    total = term
    eps = mpmath.mpf(2) ** (-mpmath.mp.prec - 10)
    while abs(term) > eps * abs(total):
        term = term * (p2 * (m + 2) * (m + 1) * (2 * s + 1)) / (
            q2 * (j + 1) * (j + 1 + N) * (m - L + 2) * (m - L + 1) * (2 * s + 2 * L + 3))
        total += term
        j, m, s = j + 1, m + 2, s + 1
    return total * (2 * L + 1) / 2


def _within_one_unit(text: str, digits: int, witness: mpmath.mpf) -> bool:
    """|printed - witness| is at most one unit in the last printed digit."""
    d = Decimal(text)
    if d == 0:
        return abs(witness) <= mpmath.mpf(10) ** (-digits)
    unit = mpmath.mpf(10) ** (d.adjusted() - digits + 1)
    return abs(mpmath.mpf(text) - witness) <= unit


def coeff_entries(stdout: str, fmt: str) -> list[tuple[int, str]]:
    """(L, printed value) pairs of a ``coeffs`` table in text or JSON form."""
    try:
        if fmt == "json":
            return [(int(L), str(v)) for L, v in json.loads(stdout)["entries"]]
        return [(int(L), v) for L, v in (ln.split() for ln in stdout.splitlines())]
    except (ValueError, KeyError, TypeError) as exc:
        raise OutputError(f"unreadable coefficient table: {exc}") from exc


def check_coeffs(stdout: str, op: dict) -> list[bool]:
    """One verdict per expected coefficient L of a ``coeffs`` table."""
    kind, N, k, digits = op["kind"], op["order"], Fraction(op["k"]), op["digits"]
    got = dict(coeff_entries(stdout, op.get("format", "text")))
    verdicts = []
    with mpmath.workdps(digits + GUARD):
        for L in range(N % 2, op["lmax"] + 1, 2):
            text = got.get(L)
            verdicts.append(
                text is not None
                and _within_one_unit(text, digits, projection_coeff(kind, L, N, k))
            )
    return verdicts


def check_verify(stdout: str, op: dict) -> list[bool]:
    """One verdict per identity h: the line for h reports ``pass``."""
    lines = {}
    for ln in stdout.splitlines():
        fields = ln.replace("=", " ").split()
        if len(fields) != 7 or fields[0] != "h":
            raise OutputError(f"unreadable verify line {ln!r}")
        lines[int(fields[1])] = (int(fields[3]), fields[6])
    return [
        lines.get(h) == (h + op["terms"], "pass")
        for h in range(op["h_lo"], op["h_hi"] + 1)
    ]


def check_golden(stdout: str, op: dict) -> list[bool]:
    """A listing is byte-equal to its golden file."""
    return [stdout == (DATA / op["golden"]).read_text()]


def check_table1(stdout: str, op: dict) -> list[bool]:
    """Every row within one unit of the published row's last digit.

    Not byte equality: the published row 7 drops a trailing digit, so it
    carries 47 significant digits where the command prints 48.
    """
    rows = (DATA / op["golden"]).read_text().split()
    got = stdout.split()
    ok = len(got) == len(rows)
    for g, row in zip(got, rows):
        r = Decimal(row)
        unit = Decimal(1).scaleb(r.adjusted() - len(r.as_tuple().digits) + 1)
        ok = ok and abs(Decimal(g) - r) <= unit
    return [ok]


def _ascending_coeff(kind: str, N: int, m: int) -> Fraction:
    """Exact coefficient of x^m in J_N(x) or I_N(x)."""
    if m < N or (m - N) % 2:
        return Fraction(0)
    j = (m - N) // 2
    sign = -1 if kind == "J" and j % 2 else 1
    return Fraction(sign, 2**m * math.factorial(j) * math.factorial(j + N))


def check_power(stdout: str, op: dict) -> list[bool]:
    """One verdict per power x^m of the folded series.

    The printed coefficient must be within one unit of its last digit of the
    exact ascending-series coefficient, and a certified ``1/den`` line for
    x^m must name that coefficient's exact reciprocal.
    """
    kind, N, digits = op["kind"], op["order"], op["digits"]
    head, _, tail = stdout.partition("\n\n")
    try:
        values = {int(p[2:]): v for p, v in (ln.split() for ln in head.splitlines())}
        certified = {int(f[0][2:]): f[1][2:] for f in map(str.split, tail.splitlines())
                     if f[1].startswith("1/")}
    except (ValueError, IndexError) as exc:
        raise OutputError(f"unreadable power listing: {exc}") from exc
    verdicts = []
    with mpmath.workdps(digits + GUARD):
        for m in range(N % 2, op["max_power"] + 1, 2):
            exact = _ascending_coeff(kind, N, m)
            ok = m in values and _within_one_unit(values[m], digits, _mpf(exact))
            if m in certified:
                ok = ok and abs(exact) == Fraction(1, eval_denominator(certified[m]))
            verdicts.append(ok)
    return verdicts


def eval_denominator(text: str) -> int:
    """Value of a printed prime-power product such as ``(2^8*3^2)``."""
    value = 1
    for factor in text.strip("()").split("*"):
        base, _, exp = factor.partition("^")
        value *= int(base) ** int(exp or 1)
    return value


#: The published seven-term least-maximum fits (Abramowitz and Stegun 9.4.1,
#: 9.4.4, 9.8.1 and 9.8.3): scale t = x/scale, and the J1 and I1 forms give
#: f(x)/x.
_FITS = {
    "j0": ("3", ("1", "-2.2499997", "1.2656208", "-0.3163866",
                 "0.0444479", "-0.0039444", "0.0002100")),
    "j1": ("3", ("0.5", "-0.56249985", "0.21093573", "-0.03954289",
                 "0.00443319", "-0.00031761", "0.00001109")),
    "i0": ("3.75", ("1", "3.5156229", "3.0899424", "1.2067492",
                    "0.2659732", "0.0360768", "0.0045813")),
    "i1": ("3.75", ("0.5", "0.87890594", "0.51498869", "0.15084934",
                    "0.02658733", "0.00301532", "0.00032411")),
}


def _legendre_values(lmax: int, x: mpmath.mpf) -> list[mpmath.mpf]:
    """P_0(x) .. P_lmax(x) by the Bonnet recurrence."""
    values = [mpmath.mpf(1), x]
    for n in range(1, lmax):
        values.append(((2 * n + 1) * x * values[n] - n * values[n - 1]) / (n + 1))
    return values


def check_bench(stdout: str, op: dict) -> list[bool]:
    """Both max-error lines of ``bench --which``, recomputed with mpmath.

    J0 and I0 errors are even in x, so the worst grid point can be a tie;
    the printed x passes when its error equals the maximum to 20 digits.
    """
    which = op["which"]
    kind, N = which[0].upper(), int(which[1])
    lmax = 12 if N == 0 else 13
    scale, fit = _FITS[which]
    bound = Fraction(scale)
    grid = 121
    xs = [-bound + i * (2 * bound) / (grid - 1) for i in range(grid)]
    bessel = mpmath.besselj if kind == "J" else mpmath.besseli
    lines = stdout.splitlines()
    if len(lines) != 2:
        raise OutputError("bench prints two lines")
    with mpmath.workdps(op["digits"] + GUARD):
        coeffs = [(L, projection_coeff(kind, L, N, Fraction(1)))
                  for L in range(N % 2, lmax + 1, 2)]
        fit_coeffs = [mpmath.mpf(c) for c in reversed(fit)]
        series_err, fit_err = {}, {}
        for x in xs:
            xm = _mpf(x)
            ref = bessel(N, xm)
            p = _legendre_values(lmax, xm)
            series_err[x] = abs(mpmath.fsum(a * p[L] for L, a in coeffs) - ref)
            f = mpmath.polyval(fit_coeffs, (xm / mpmath.mpf(scale)) ** 2)
            fit_err[x] = abs((f * xm if N == 1 else f) - ref)
        ok = True
        for ln, errors in zip(lines, (series_err, fit_err)):
            worst = max(errors.values())
            _, _, rest = ln.partition("=")
            printed, _, at = rest.partition(" at x = ")
            x = Fraction(at.strip())
            ok = (ok and x in errors and errors[x] >= worst * (1 - mpmath.mpf(10) ** -20)
                  and _within_one_unit(printed.strip(), 8, worst))
    return [ok]


CHECKS = {
    "coeffs": check_coeffs,
    "verify": check_verify,
    "golden": check_golden,
    "table1": check_table1,
    "power": check_power,
    "bench": check_bench,
}
