"""Legendre-basis expansions of J_N(kx) and I_N(kx).

The expansion coefficient of P_L in the J_N(kx) series is, for L + N even
(and exactly zero otherwise),

    a_LN(k) = sqrt(pi) 2^(-2L-2) (2L+1) k^L sigma 2 Gamma(L+1)
              * 2F3~(L/2+1/2, L/2+1; L+3/2, (L-N)/2+1, (L+N)/2+1; -k^2/4)

where 2F3~ is the regularized function and sigma = (-1)^((L-N)/2) is the
real resolution of the quarter-turn phase under the parity gate -- no
complex arithmetic ever happens here.  The regularized form matters as soon
as N exceeds L: one of the plain form's lower parameters walks through a
nonpositive integer, and only the reciprocal-gamma weights keep the value
finite.

Every order takes this one route; at N in {0, 1} an upper parameter equals
a lower one and the term generator drops the pair, leaving a 1F2.  The
coefficient is an exact rational (the sqrt(pi) factors cancel), rounded
once at the end.  It is carried as an unreduced integer pair (n, d), d > 0,
straight from the sum to that rounding: no gcd of the sum's integers is
ever taken.

The modified-function coefficients are the same formula with argument
+k^2/4 and sigma = +1: substituting an imaginary scale into the J series
and unwinding the phases leaves a real series with all-positive entries.

Every printed digit of a truncated series, its value at a point
(``eval_series``) or its fold into powers of x
(``powerprime.to_power_series``), is one rounding of an exact sum over the
series' common denominator (``FLSeries.common_form``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property, lru_cache

from . import mpnum
from .mpnum import BigReal
from .hypergeom import plain_terms, regularized_sum_rational, sum_terms

#: Hard ceiling on stored series entries; reaching it means the tail
#: threshold was never met.
TRUNCATION_CAP = 400


class TruncationCapExceeded(RuntimeError):
    """Series assembly ran past the entry cap without meeting its target."""


class DigitsExceedPrecision(ValueError):
    """Asked to display more digits than the series actually carries."""


@dataclass(frozen=True)
class FLSeries:
    """A truncated Legendre-basis expansion of J_N(kx) or I_N(kx).

    ``entries`` holds (L, a_L) pairs with L = N (mod 2) ascending; the
    opposite parity is absent rather than stored as zero.  ``exact`` holds
    the unrounded value of each entry, in the same order, as the integer
    pair (n, d), d > 0, of ``_coeff_rational``, not in lowest terms, when
    the series was assembled from them; it takes no part in equality, and a
    series without it stands for the rounded values its entries print.
    """

    kind: str
    order: int
    k: Fraction
    entries: tuple[tuple[int, BigReal], ...]
    precision: int
    exact: tuple[tuple[int, int], ...] = field(default=(), compare=False,
                                               repr=False)

    @property
    def l_max(self) -> int:
        return self.entries[-1][0] if self.entries else -1

    @cached_property
    def common_form(self) -> tuple[int, dict[int, int]]:
        """(D, {L: A_L}) with a_L = A_L / D exactly, D a common
        denominator (the lcm of the denominators the entries come with):
        the whole table as integers over one denominator, so that every
        fold over it is an integer sum with one division."""
        values = self.exact or tuple(
            a.to_fraction().as_integer_ratio() for _, a in self.entries)
        den = math.lcm(*(d for _, d in values))
        return den, {
            L: n * (den // d) for (L, _), (n, d) in zip(self.entries, values)
        }


@dataclass(frozen=True)
class AccuracyReport:
    """Worst absolute deviation of a series against a reference on a grid."""

    x_range: tuple[Fraction, Fraction]
    grid_points: int
    max_abs_error: BigReal
    argmax_x: Fraction


def _check_kind(kind: str) -> str:
    if kind not in ("J", "I"):
        raise ValueError(f"kind must be 'J' or 'I', got {kind!r}")
    return kind


def _phase_and_argument(kind: str, L: int, N: int, k: Fraction) -> tuple[int, Fraction]:
    """(sigma, z): the real quarter-turn phase and the series argument -+k^2/4."""
    n, d = k.numerator, k.denominator
    if kind == "J":
        return (-1 if ((L - N) // 2) % 2 else 1), Fraction(-n * n, 4 * d * d)
    return 1, Fraction(n * n, 4 * d * d)


def _scaled(f: Fraction, pair: tuple[int, int]) -> tuple[int, int]:
    """f * n/d as an unreduced pair, after the two cross-cancellations of
    ``Fraction.__mul__``: gcd(f's numerator, d) and gcd(n, f's denominator),
    each of a huge and a small integer, never the gcd of n and d."""
    a, b = f.numerator, f.denominator
    n, d = pair
    g1, g2 = math.gcd(a, d), math.gcd(n, b)
    return (a // g1) * (n // g2), (b // g2) * (d // g1)


def coeff_rational_general(
    L: int, N: int, k: Fraction, z: Fraction, sigma: int, precision: int
) -> tuple[int, int]:
    """The regularized 2F3 route, finite for every N (including N > L),
    as an unreduced pair."""
    upper = (Fraction(L + 1, 2), Fraction(L + 2, 2))
    lower = (Fraction(2 * L + 3, 2), (L - N) // 2 + 1, (L + N) // 2 + 1)
    q, sqrtpi_power = regularized_sum_rational(upper, lower, z, precision)
    # Exactly one lower parameter is half-integer, so the regularized sum
    # carries 1/sqrt(pi) and the prefactor's sqrt(pi) cancels it.
    if q[0] != 0 and sqrtpi_power != -1:
        raise AssertionError("unexpected sqrt(pi) power in regularized sum")
    pref = Fraction(2 * (2 * L + 1) * sigma * math.factorial(L) * k.numerator**L,
                    k.denominator**L * 2 ** (2 * L + 2))
    return _scaled(pref, q)


@lru_cache(maxsize=None)
def _coeff_rational(
    kind: str, L: int, N: int, k: Fraction, precision: int
) -> tuple[int, int]:
    """Exact value of the P_L coefficient as an unreduced pair (n, d),
    d > 0; (0, 1) on parity mismatch."""
    if (L + N) % 2 == 1:
        return 0, 1
    sigma, z = _phase_and_argument(kind, L, N, k)
    return coeff_rational_general(L, N, k, z, sigma, precision)


def coeff_a(L: int, N: int, k: Fraction | int, precision: int) -> BigReal:
    """Coefficient of P_L in the J_N(kx) expansion."""
    q = _coeff_rational("J", L, N, Fraction(k), precision)
    return BigReal.from_fraction(q, precision)


def coeff_a_modified(L: int, N: int, k: Fraction | int, precision: int) -> BigReal:
    """Coefficient of P_L in the I_N(kx) expansion."""
    q = _coeff_rational("I", L, N, Fraction(k), precision)
    return BigReal.from_fraction(q, precision)


def build_series(
    kind: str,
    N: int,
    k: Fraction | int,
    *,
    l_max: int | None = None,
    threshold: Fraction | None = None,
    precision: int = 50,
) -> FLSeries:
    """Assemble the expansion up to L_max or down to a tail threshold.

    Exactly one of ``l_max`` / ``threshold`` selects the mode; with neither
    given, threshold mode runs at the default 10^-(precision+2).  In
    threshold mode assembly stops once two consecutive coefficients fall
    below the threshold, and that trailing run of negligible entries is
    dropped from the result.  Each comparison is exact, on the coefficient's
    unrounded value, in integers.
    """
    _check_kind(kind)
    if N < 0:
        raise ValueError("order must be nonnegative")
    if l_max is not None and threshold is not None:
        raise ValueError("give either l_max or threshold, not both")
    k = Fraction(k)
    coeff = coeff_a if kind == "J" else coeff_a_modified
    start = N % 2

    def entry(L: int) -> tuple[int, BigReal, tuple[int, int]]:
        a = coeff(L, N, k, precision)
        return L, a, _coeff_rational(kind, L, N, k, precision)

    def assemble(rows: list[tuple[int, BigReal, tuple[int, int]]]) -> FLSeries:
        return FLSeries(kind, N, k, tuple((L, a) for L, a, _ in rows), precision,
                        exact=tuple(q for _, _, q in rows))

    if l_max is not None:
        degrees = range(start, l_max + 1, 2)
        if len(degrees) > TRUNCATION_CAP:
            raise TruncationCapExceeded(f"more than {TRUNCATION_CAP} entries")
        return assemble([entry(L) for L in degrees])

    thresh = Fraction(1, 10 ** (precision + 2)) if threshold is None else threshold

    def negligible(row: tuple[int, BigReal, tuple[int, int]]) -> bool:
        n, d = row[2]
        return abs(n) * thresh.denominator < thresh.numerator * d

    rows: list[tuple[int, BigReal, tuple[int, int]]] = []
    small_run = 0
    L = start
    while small_run < 2:
        if len(rows) >= TRUNCATION_CAP:
            raise TruncationCapExceeded(f"more than {TRUNCATION_CAP} entries")
        rows.append(entry(L))
        small_run = small_run + 1 if negligible(rows[-1]) else 0
        L += 2
    while rows and negligible(rows[-1]):
        rows.pop()
    return assemble(rows)


def eval_series(
    s: FLSeries,
    x: Fraction | int,
    precision: int | None = None,
) -> BigReal:
    """Sum a_L P_L(x) exactly and round once.

    With x = a/b, P_L(x) = U_L / (L! b^L) for the integers of the scaled
    Bonnet recurrence U_L = (2L-1) a U_{L-1} - (L-1)^2 b^2 U_{L-2}, and
    a_L = A_L / D over the series' common denominator, so the truncated sum
    is the integer sum of A_L U_L (l! b^l / (L! b^L)) over D l! b^l with
    l = l_max, formed Horner-fashion as L rises.

    Arguments outside [-1, 1] are fine; the polynomial growth there is the
    series' own problem and is what ``accuracy_scan`` quantifies.  Asking
    for more digits than the series carries raises
    :class:`DigitsExceedPrecision`.
    """
    x = Fraction(x)
    p = precision if precision is not None else s.precision
    if p > s.precision:
        raise DigitsExceedPrecision(
            f"{p} digits requested from a {s.precision}-digit series"
        )
    D, coeffs = s.common_form
    a, b = x.numerator, x.denominator
    b2 = b * b
    u_prev, u, den = 0, 1, 1  # U_{L-1}, U_L and L! b^L at L = 0
    total = coeffs.get(0, 0)
    for L in range(1, s.l_max + 1):
        u_prev, u = u, (2 * L - 1) * a * u - (L - 1) ** 2 * b2 * u_prev
        den *= L * b
        total *= L * b  # the partial sum, now over L! b^L like U_L
        if L in coeffs:
            total += coeffs[L] * u
    return BigReal.from_fraction((total, D * den), p)


# ---------------------------------------------------------------------------
# references: ascending series and the classic optimized polynomials
# ---------------------------------------------------------------------------


def maclaurin_ref(
    kind: str,
    N: int,
    k: Fraction | int,
    x: Fraction | int,
    precision: int,
) -> BigReal:
    """Reference value of J_N(kx) or I_N(kx) from the ascending series.

    The series is (kx/2)^N / N! * 0F1(; N+1; -+(kx/2)^2), so the generic
    term recurrence yields it with no upper parameters; with kx/2 = hn/hd
    the argument is -+hn^2/hd^2 and the first term hn^N / (hd^N N!).  The
    terms peak near n = |kx|/2 and fall below the stopping rule about
    e |kx|/2 terms in, which the cap's 3 ceil(|kx|/2) covers.
    """
    _check_kind(kind)
    half = Fraction(k) * Fraction(x) / 2
    hn, hd = half.numerator, half.denominator
    hh = Fraction(-hn * hn if kind == "J" else hn * hn, hd * hd)
    terms = plain_terms((), (Fraction(N + 1),), hh,
                        Fraction(hn**N, hd**N * math.factorial(N)))
    cap = 10 * precision + 501 + 3 * -(-abs(hn) // hd)
    q = sum_terms(terms, precision + mpnum.DEFAULT_GUARD_DIGITS, cap)
    return BigReal.from_fraction(q, precision)


#: Every published fit coefficient is a multiple of 10^-8.
_FIT_SCALE = 10**8

#: Coefficients of the classic least-maximum polynomial fits (E. E. Allen),
#: in the scaled variable t = x/3 (J forms) or t = x/3.75 (I forms).  J1 and
#: I1 list x^-1 J1 and x^-1 I1.
_ALLEN: dict[str, tuple[Fraction, tuple[Fraction, ...]]] = {
    "J0": (Fraction(3), tuple(Fraction(c) for c in (
        "1", "-2.2499997", "1.2656208", "-0.3163866",
        "0.0444479", "-0.0039444", "0.0002100"))),
    "J1": (Fraction(3), tuple(Fraction(c) for c in (
        "0.5", "-0.56249985", "0.21093573", "-0.03954289",
        "0.00443319", "-0.00031761", "0.00001109"))),
    "I0": (Fraction(15, 4), tuple(Fraction(c) for c in (
        "1", "3.5156229", "3.0899424", "1.2067492",
        "0.2659732", "0.0360768", "0.0045813"))),
    "I1": (Fraction(15, 4), tuple(Fraction(c) for c in (
        "0.5", "0.87890594", "0.51498869", "0.15084934",
        "0.02658733", "0.00301532", "0.00032411"))),
}

#: Each fit as (scale numerator, scale denominator, coefficients times
#: 10^8, lowest power first), so that ``eval_allen`` runs in integers.
_ALLEN_INT = {
    which: (scale.numerator, scale.denominator,
            tuple(int(c * _FIT_SCALE) for c in coeffs))
    for which, (scale, coeffs) in _ALLEN.items()
}

#: Nominal validity range of each fit (|x| bound).
ALLEN_RANGE = {"J0": Fraction(3), "J1": Fraction(3),
               "I0": Fraction(15, 4), "I1": Fraction(15, 4)}


def eval_allen(
    which: str, x: BigReal | Fraction | int, precision: int = 16
) -> BigReal:
    """The published seven-term polynomial fits, evaluated exactly.

    Valid inside |x| <= 3 (J forms) or |x| <= 3.75 (I forms); evaluation
    outside that range is allowed and simply means the fit's error bound no
    longer applies.
    """
    if which not in _ALLEN:
        raise ValueError(f"unknown fit {which!r}; expected one of {sorted(_ALLEN)}")
    s_num, s_den, coeffs = _ALLEN_INT[which]
    q = x.to_fraction() if isinstance(x, BigReal) else Fraction(x)
    # t^2 = u/v with t = q/scale; Horner over the integer coefficients C_i
    # gives H = sum C_i u^i v^(6-i), and the fit is H / (10^8 v^6)
    u = (q.numerator * s_den) ** 2
    v = (q.denominator * s_num) ** 2
    total, v_pow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        v_pow *= v
        total = total * u + c * v_pow
    den = _FIT_SCALE * v_pow
    if which in ("J1", "I1"):
        total *= q.numerator
        den *= q.denominator
    return BigReal.from_fraction((total, den), precision)


#: Significant digits of a fit's error report; the fits' own coefficients
#: carry 7 to 8 digits.
FIT_REPORT_DIGITS = 8


def accuracy_scan(
    s: FLSeries,
    x_lo: Fraction | int,
    x_hi: Fraction | int,
    grid: int,
    fits: tuple[str, ...] = (),
    precision: int | None = None,
) -> AccuracyReport | tuple[AccuracyReport, ...]:
    """Max |approximant - reference| over a uniform grid of ``grid`` points.

    The reference is the ascending series, computed once per grid point and
    shared by the series and by every published fit named in ``fits``
    (``eval_allen`` names).  With no fits the series' report is returned;
    otherwise a tuple of reports, the series' first and then one per fit at
    ``FIT_REPORT_DIGITS`` digits.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    x_lo, x_hi = Fraction(x_lo), Fraction(x_hi)
    p = precision if precision is not None else s.precision
    worst = [Decimal(0)] * (1 + len(fits))
    worst_x = [x_lo] * (1 + len(fits))
    step = (x_hi - x_lo) / (grid - 1)
    with localcontext() as ctx:
        ctx.prec = p + mpnum.DEFAULT_GUARD_DIGITS
        for i in range(grid):
            x = x_lo + i * step
            ref = maclaurin_ref(s.kind, s.order, s.k, x, p + 10).value
            got = [eval_series(s, x, p)] + [eval_allen(name, x, p) for name in fits]
            for j, value in enumerate(got):
                err = abs(value.value - ref)
                if err > worst[j]:
                    worst[j], worst_x[j] = err, x
    digits = [p] + [FIT_REPORT_DIGITS] * len(fits)
    reports = tuple(
        AccuracyReport(x_range=(x_lo, x_hi), grid_points=grid,
                       max_abs_error=BigReal(w, d), argmax_x=wx)
        for w, wx, d in zip(worst, worst_x, digits)
    )
    return reports if fits else reports[0]
