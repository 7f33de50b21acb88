"""Reference computations the tests check the package against.

Each one reaches its value by a different route from the package code it
witnesses: the orthogonality projection of the ascending series instead
of the hypergeometric closed form, first-principles Pochhammer products
instead of the term recurrence, closed forms instead of the Bonnet recurrence, the reflection
formula instead of the rising product, reduced ``Fraction`` terms,
Legendre values and fit polynomials instead of unreduced integers, joined
``str`` digits instead of a translated byte string, the paper's other two
bracket displays instead of its Pochhammer one, a ``Decimal`` division
instead of one integer ``divmod``, one exact ``divmod`` of the whole
operands instead of a short quotient of their leading bits, trial division
of the rounded reciprocal instead of Legendre's formula on the exact one,
chains of reduced ``Fraction`` products for each first term and prefactor
instead of one integer pair normalized once, the hand-reduced 1F2 of orders
0 and 1 instead of the regularized 2F3 whose equal parameters the term
generator drops.  None of them is on a runtime path.
"""

from __future__ import annotations

import math
from decimal import ROUND_05UP, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from flbessel.hypergeom import (
    TermCapExceeded,
    plain_sum_rational,
    plain_terms,
    sum_terms,
    term_cap,
)
from flbessel.mpnum import (
    _EXACT,
    DEFAULT_GUARD_DIGITS,
    BigReal,
    PrimePowers,
    _round_sig,
    pochhammer,
)
from flbessel.powerprime import PowerSeries
from flbessel.series import _ALLEN, FLSeries, _phase_and_argument, _scaled
from flbessel.sumverify import SumSpec, partial_sums_rational, term_rational


def as_fraction(pair: tuple[int, int]) -> Fraction:
    """The value n/d of an unreduced pair (n, d) that a sum, a coefficient
    or an ``FLSeries.exact`` entry carries, in lowest terms; d must be
    positive."""
    n, d = pair
    assert d > 0, pair
    return Fraction(n, d)


def pochhammer_reflect(a: Fraction, n: int) -> Fraction:
    """(-a)_n computed through the reflection (-a)_n = (-1)^n (a-n+1)_n."""
    return (-1) ** n * pochhammer(a - n + 1, n)


def gamma_half_exact(m: int) -> Fraction:
    """Gamma(m + 1/2) / sqrt(pi) as an exact rational, m >= 0.

    Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!).
    """
    if m < 0:
        raise ValueError("half-integer gamma below 1/2 is not needed here")
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m))


def recip_gamma_exact(arg: Fraction) -> tuple[Fraction, int]:
    """1 / Gamma(arg) for integer or positive half-integer ``arg``.

    Returns ``(q, s)`` meaning q * pi^(s/2).  At nonpositive integers the
    reciprocal gamma is exactly zero, which is what lets the regularized
    hypergeometric series start cleanly past its vanishing head.
    """
    if arg.denominator == 1:
        n = int(arg)
        if n <= 0:
            return Fraction(0), 0
        return Fraction(1, math.factorial(n - 1)), 0
    if arg.denominator == 2:
        m = (arg.numerator - 1) // 2
        if m < 0:
            raise ValueError("reciprocal gamma below 1/2 not supported")
        return 1 / gamma_half_exact(m), -1
    raise ValueError(f"gamma argument must be integer or half-integer, got {arg}")


def fraction_regularized_sum(
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    z: Fraction,
    precision: int,
) -> tuple[tuple[int, int], int]:
    """``hypergeom.regularized_sum_rational`` with the first term built as
    a chain of reduced ``Fraction`` products of Pochhammer symbols,
    reciprocal gammas and z^n0 / n0!, instead of one integer pair
    normalized once; the sum itself is the package's."""
    n0 = 0
    for b in lower:
        if b.denominator == 1 and b <= 0:
            n0 = max(n0, 1 - int(b))
    for a in upper:
        if a.denominator == 1 and a <= 0 and -int(a) < n0:
            return (0, 1), 0
    first = Fraction(1)
    for a in upper:
        first *= pochhammer(a, n0)
    sqrtpi_power = 0
    for b in lower:
        q, s = recip_gamma_exact(b + n0)
        first *= q
        sqrtpi_power += s
    first *= z**n0 / math.factorial(n0)
    terms = plain_terms(upper, lower, z, first, n0)
    digits = precision + DEFAULT_GUARD_DIGITS
    return sum_terms(terms, digits, term_cap(precision) + 1), sqrtpi_power


def fraction_coeff_rational(
    kind: str, L: int, N: int, k: Fraction, precision: int
) -> tuple[int, int]:
    """``series._coeff_rational`` with the prefactor a chain of reduced
    ``Fraction`` products and the regularized sum's first term from
    :func:`fraction_regularized_sum`, for every N."""
    if (L + N) % 2 == 1:
        return 0, 1
    sigma, z = _phase_and_argument(kind, L, N, k)
    pref = Fraction(2 * (2 * L + 1), 2 ** (2 * L + 2)) * Fraction(k) ** L * sigma
    upper = (Fraction(L + 1, 2), Fraction(L + 2, 2))
    lower = (Fraction(2 * L + 3, 2), Fraction((L - N) // 2 + 1),
             Fraction((L + N) // 2 + 1))
    q, _ = fraction_regularized_sum(upper, lower, z, precision)
    return _scaled(pref * math.factorial(L), q)


def reduced_parameters(
    L: int, N: int
) -> tuple[tuple[Fraction], tuple[Fraction, Fraction]]:
    """Upper and lower parameters of the reduced 1F2, for N in {0, 1}:

    1F2((L+N+1)/2; (L+N+2)/2, L+3/2; z).
    """
    return (Fraction(L + N + 1, 2),), (Fraction(L + N + 2, 2), Fraction(2 * L + 3, 2))


def coeff_rational_reduced(
    L: int, N: int, k: Fraction, z: Fraction, sigma: int, precision: int
) -> tuple[int, int]:
    """The reduced-order 1F2 route for N in {0, 1}, as an unreduced pair.

    The parameter collision of those orders leaves a plain 1F2, and
    sqrt(pi)/Gamma(L+3/2) = 4^(L+1) (L+1)! / (2L+2)! folds into the
    rational prefactor, its 4^(L+1) cancelling the 2^-(2L+2):
    2 (2L+1) sigma C(L, (L-N)/2) (L+1)! k^L / (2L+2)!.
    """
    pref = Fraction(
        2 * (2 * L + 1) * sigma * math.comb(L, (L - N) // 2)
        * math.factorial(L + 1) * k.numerator**L,
        k.denominator**L * math.factorial(2 * L + 2),
    )
    return _scaled(pref, plain_sum_rational(*reduced_parameters(L, N), z, precision))


def fraction_maclaurin_series(
    kind: str, N: int, k: Fraction, x: Fraction
) -> tuple[Fraction, Fraction]:
    """(z, first term) of the ascending series of ``series.maclaurin_ref``
    as reduced ``Fraction`` products: z = -+(kx/2)^2, first (kx/2)^N / N!."""
    half = Fraction(k) * Fraction(x) / 2
    hh = half * half
    return (-hh if kind == "J" else hh), half**N / math.factorial(N)


def term_direct(
    upper: tuple[Fraction, ...], lower: tuple[Fraction, ...], z: Fraction, n: int
) -> Fraction:
    """Term n of the plain series from first principles (no recurrence)."""
    num = Fraction(1)
    for a in upper:
        num *= pochhammer(a, n)
    den = Fraction(1)
    for b in lower:
        den *= pochhammer(b, n)
    return num / den * z**n / math.factorial(n)


def fraction_terms(
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    z: Fraction,
    first: Fraction = Fraction(1),
    start: int = 0,
):
    """Series terms t_start, t_start+1, ... as reduced ``Fraction`` values.

    The term-by-term ``Fraction`` recurrence that ``hypergeom.plain_terms``
    replaced with unreduced integer ratios.
    """
    term = first
    n = start
    while True:
        yield term
        num = Fraction(1)
        for a in upper:
            num *= a + n
        den = Fraction(n + 1)
        for b in lower:
            den *= b + n
        term = term * num / den * z
        n += 1


def fraction_sum_terms(terms, digits: int, cap: int) -> Fraction:
    """The two-small-terms sum on reduced ``Fraction`` terms and partial sums.

    The loop that ``hypergeom.sum_terms`` replaced: the first term is always
    taken, the sum stops after two later terms in a row are zero or fall
    below 10^-digits * |S|, and a term past index ``cap`` raises
    ``TermCapExceeded``.
    """
    floor = Fraction(1, 10**digits)
    total = Fraction(0)
    small_run = 0
    for n, term in enumerate(terms):
        if n > cap:
            raise TermCapExceeded(f"no convergence within {cap} terms")
        total += term
        if n > 0:
            small = term == 0 or abs(term) < floor * abs(total)
            small_run = small_run + 1 if small else 0
            if small_run == 2:
                return total
    return total


def divmod_from_fraction(q: Fraction | tuple[int, int], precision: int) -> BigReal:
    """``q`` rounded half-even to ``precision`` digits through one exact
    ``divmod`` of the whole operands, the route that the short quotient of
    their leading bits in ``BigReal.from_fraction`` replaced for long ones.

    ``q`` is a ``Fraction`` or an unreduced pair (n, d), d > 0.  The
    mantissa floor(|n| 10^s / d) has ``precision`` or ``precision + 1``
    digits; an extra digit moves into the remainder, which then decides
    the rounding and any tie.
    """
    num, d = q if isinstance(q, tuple) else (q.numerator, q.denominator)
    if num == 0:
        return BigReal(Decimal(0), precision)
    n = abs(num)
    j = math.floor((n.bit_length() - d.bit_length() - 1) * math.log10(2) - 1e-6)
    s = precision - 1 - j
    if s >= 0:
        mantissa, r = divmod(n * 10**s, d)
    else:
        d *= 10**-s
        mantissa, r = divmod(n, d)
    while mantissa >= 10**precision:
        mantissa, digit = divmod(mantissa, 10)
        r += digit * d
        d *= 10
        s -= 1
    if 2 * r > d or (2 * r == d and mantissa & 1):
        mantissa += 1
    if num < 0:
        mantissa = -mantissa
    return BigReal(Decimal(mantissa).scaleb(-s, _EXACT), precision)


def decimal_from_fraction(q: Fraction, precision: int) -> BigReal:
    """``q`` rounded half-even to ``precision`` digits through a ``Decimal``
    division, the route ``BigReal.from_fraction`` replaced.

    The division rounds to odd at two guard digits (``ROUND_05UP``): an
    inexact quotient never ends in 0 or 5, so it cannot turn into a false
    tie when ``BigReal`` rounds it half-even to ``precision`` digits.
    """
    if q == 0:
        return BigReal(Decimal(0), precision)
    with localcontext() as ctx:
        ctx.prec = precision + 2
        ctx.rounding = ROUND_05UP
        return BigReal(Decimal(q.numerator) / Decimal(q.denominator), precision)


def leading_coefficient(L: int) -> Fraction:
    """(2L)! / (2^L (L!)^2), the closed form for the x^L coefficient of P_L."""
    return Fraction(math.factorial(2 * L), 2**L * math.factorial(L) ** 2)


def monomial_coefficient(L: int, m: int) -> Fraction:
    """[x^m] P_L from the explicit sum, with m = L - 2j:

    (-1)^j (2L - 2j)! / (2^L j! (L - j)! (L - 2j)!), zero for the other parity.
    """
    if m < 0 or m > L or (L - m) % 2:
        return Fraction(0)
    j = (L - m) // 2
    f = math.factorial
    return Fraction((-1) ** j * f(2 * L - 2 * j), 2**L * f(j) * f(L - j) * f(m))


def eval_P_rational(L: int, x: Fraction) -> Fraction:
    """P_L(x) by the Bonnet recurrence, exact on rationals."""
    if L < 0:
        raise ValueError("degree must be nonnegative")
    if L == 0:
        return Fraction(1)
    pm1, p = Fraction(1), Fraction(x)
    for n in range(1, L):
        pm1, p = p, (Fraction(2 * n + 1) * x * p - n * pm1) / (n + 1)
    return p


def fraction_eval_series(s: FLSeries, x: Fraction | int, precision: int) -> BigReal:
    """Sum a_L P_L(x) in reduced ``Fraction`` values and round once.

    a_L is each entry's exact value (the rounded one when the series carries
    none) and P_L(x) comes from the reduced-``Fraction`` Bonnet loop, where
    ``series.eval_series`` runs an integer recurrence over one common
    denominator.
    """
    x = Fraction(x)
    values = tuple(map(as_fraction, s.exact)) or tuple(
        a.to_fraction() for _, a in s.entries)
    total = sum(
        (q * eval_P_rational(L, x) for (L, _), q in zip(s.entries, values)),
        Fraction(0),
    )
    return BigReal.from_fraction(total, precision)


def monomial_projection(m: int, L: int) -> Fraction:
    """Exact value of the integral of x^m P_L(x) over [-1, 1].

    Zero for m < L or opposite parity.  Rodrigues' formula plus L
    integrations by parts reduces the integral to a Beta function:

        m! Gamma(s + 1/2) / ((m-L)! 2^L Gamma(s + L + 3/2)),  s = (m-L)/2,

    and the gamma ratio is rational because both arguments are
    half-integers.
    """
    if m < L or (m - L) % 2 == 1:
        return Fraction(0)
    s = (m - L) // 2
    return (
        Fraction(math.factorial(m)) * gamma_half_exact(s)
        / (math.factorial(m - L) * 2**L * gamma_half_exact(s + L + 1))
    )


def coeff_oracle(
    L: int,
    N: int,
    k: Fraction | int,
    maclaurin_terms: int,
    precision: int,
    kind: str = "J",
) -> BigReal:
    """Brute-force coefficient from the orthogonality projection.

    Replaces the function under the projection integral with its ascending
    series and integrates term by term, all in exact rationals.  This path
    never touches the hypergeometric machinery, which is the point: it is
    the independent witness the closed form is tested against.  The caller
    picks ``maclaurin_terms`` large enough for the target precision
    (roughly L/2 + precision is comfortable).
    """
    if kind not in ("J", "I"):
        raise ValueError(f"kind must be 'J' or 'I', got {kind!r}")
    if (L + N) % 2 == 1:
        return BigReal.from_int(0, precision)
    k = Fraction(k)
    total = Fraction(0)
    for j in range(maclaurin_terms):
        m = 2 * j + N
        proj = monomial_projection(m, L)
        if proj == 0:
            continue
        mac = Fraction(1, 2 ** (2 * j + N)) / (
            math.factorial(j) * math.factorial(j + N)
        )
        if kind == "J" and j % 2 == 1:
            mac = -mac
        total += mac * k**m * proj
    return BigReal.from_fraction(Fraction(2 * L + 1, 2) * total, precision)


#: The factor base of :func:`factorize_reciprocal`: the primes up to 19.
FACTOR_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class NotNearInteger(ValueError):
    """Reciprocal of a coefficient is not close enough to an integer.

    Raised by :func:`factorize_reciprocal` when the rounding gap exceeds the
    caller's tolerance.
    """


def factorize_reciprocal(c: BigReal | Fraction, tol: Fraction) -> PrimePowers:
    """Round 1/|c| to an integer and trial-divide it over ``FACTOR_PRIMES``.

    ``tol`` bounds the fractional distance between 1/|c| and the nearest
    integer (so it must lie strictly inside (0, 1/2): a gap of 1/2 would make
    "nearest" meaningless).  A gap beyond the tolerance raises
    :class:`NotNearInteger`.  A leftover factor above the primes is not an
    error; it is reported in the result.
    """
    if not (0 < tol < Fraction(1, 2)):
        raise ValueError("tol must lie in (0, 1/2)")
    q = c if isinstance(c, Fraction) else c.to_fraction()
    if q == 0:
        raise ValueError("cannot factorize the reciprocal of zero")
    r = 1 / abs(q)
    nearest = round(r)
    if nearest < 1 or abs(r - nearest) > tol:
        raise NotNearInteger(f"1/|c| is not within {tol} of an integer")
    n = nearest
    exps = []
    for p in FACTOR_PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exps.append((p, e))
    return PrimePowers(exponents=tuple(exps), leftover=n, sign=1 if q > 0 else -1)


def reconstruct(pp: PrimePowers) -> int:
    """The signed integer sign * leftover * prod(p^e) a factorization stands for."""
    n = pp.leftover
    for p, e in pp.exponents:
        n *= p**e
    return pp.sign * n


def fraction_eval_allen(which: str, x: Fraction | int, precision: int) -> BigReal:
    """A published fit by ``Fraction`` Horner in t^2 = (x/scale)^2, the loop
    ``series.eval_allen`` replaced with integer Horner."""
    scale, coeffs = _ALLEN[which]
    q = Fraction(x)
    t2 = (q / scale) ** 2
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * t2 + c
    if which in ("J1", "I1"):
        total *= q
    return BigReal.from_fraction(total, precision)


def join_render_significant(value: Decimal, digits: int) -> str:
    """``mpnum.render_significant`` with the digit string joined from
    ``str`` of each digit, as before it was formed by ``bytes.translate``."""
    r = _round_sig(value, digits)
    if r.is_zero():
        return "0"
    sign, ds, _ = r.as_tuple()
    mant = "".join(map(str, ds)).ljust(digits, "0")
    adj = r.adjusted()
    prefix = "-" if sign else ""
    if -5 <= adj < digits:
        if adj >= 0:
            int_part = mant[: adj + 1]
            frac_part = mant[adj + 1 :]
            body = int_part + ("." + frac_part if frac_part else "")
        else:
            body = "0." + "0" * (-adj - 1) + mant
        return prefix + body
    head = mant[0] + ("." + mant[1:] if len(mant) > 1 else "")
    return f"{prefix}{head}e{adj}"


def eval_P_via_2f1(L: int, x: Fraction) -> Fraction:
    """P_L(x) through the terminating inverse-square-argument 2F1 form.

    P_n(x) = 2^-n C(2n, n) x^n * sum_{m=0}^{floor(n/2)}
             (1/2 - n/2)_m (-n/2)_m / ((1/2 - n)_m m!) x^-2m

    The sum terminates on its own because one of the upper parameters is a
    nonpositive integer or half-integer; x = 0 is outside its domain.
    """
    if L < 0:
        raise ValueError("degree must be nonnegative")
    x = Fraction(x)
    if x == 0:
        raise ValueError("the inverse-argument form needs x != 0")
    a1 = Fraction(1, 2) - Fraction(L, 2)
    a2 = -Fraction(L, 2)
    b = Fraction(1, 2) - L
    inv = 1 / x**2
    total = Fraction(0)
    for m in range(L // 2 + 1):
        total += (
            pochhammer(a1, m)
            * pochhammer(a2, m)
            / (pochhammer(b, m) * math.factorial(m))
            * inv**m
        )
    return Fraction(math.comb(2 * L, L), 2**L) * x**L * total


def compare_power_series(
    p: PowerSeries,
    exact: tuple[tuple[int, Fraction], ...],
    guard: int = DEFAULT_GUARD_DIGITS,
) -> tuple[tuple[int, BigReal], ...]:
    """Absolute deviation |c_m - exact_m| per power."""
    lookup = dict(exact)
    out = []
    with localcontext() as ctx:
        ctx.prec = p.precision + guard
        for m, c in p.coeffs:
            e = lookup.get(m, Fraction(0))
            ed = Decimal(e.numerator) / Decimal(e.denominator)
            out.append((m, BigReal(abs(c.value - ed), p.precision)))
    return tuple(out)


def fraction_partial_sums(spec: SumSpec) -> tuple[Fraction, ...]:
    """Running partial sums S_0, S_1, ... with each term of ``term_rational``
    added as a reduced ``Fraction``, two gcds per addition, instead of the
    package's unreduced integer pairs."""
    N = ("j0", "j1").index(spec.family)
    total = Fraction(0)
    out = []
    for L in range(N, N + 2 * spec.L_terms, 2):
        total += as_fraction(term_rational(spec, L))
        out.append(total)
    return tuple(out)


def summed_series_lhs(spec: SumSpec) -> BigReal:
    """Partial sum of the printed summand over L_terms parity terms."""
    return BigReal.from_fraction(partial_sums_rational(spec)[-1], spec.precision)


def cauchy_check(
    partials: Sequence[BigReal | Fraction],
    m: int,
    n: int,
    epsilon: Fraction | Decimal | BigReal,
) -> bool:
    """|S_m - S_n| < epsilon over a list of partial sums (0-based indices)."""
    if not (m > n >= 0):
        raise IndexError("need m > n >= 0")
    if m >= len(partials):
        raise IndexError("index m beyond the partial-sum list")

    def as_fraction(v: BigReal | Fraction) -> Fraction:
        return v.to_fraction() if isinstance(v, BigReal) else Fraction(v)

    if isinstance(epsilon, BigReal):
        eps = epsilon.to_fraction()
    else:
        eps = Fraction(epsilon)
    return abs(as_fraction(partials[m]) - as_fraction(partials[n])) < eps


# ---------------------------------------------------------------------------
# The paper's three displays of the summed-series bracket
# ---------------------------------------------------------------------------
#
# A display is a hypergeometric term in (L, h, m) on the plane
# L = 2h + N + 2m (N = 0 for j0, 1 for j1), written as the triple
# (alternating, rising, factorials): an optional (-1)^m, rising factorials
# (a)_m and factorials n!, each a pair (affine form, exponent).  An affine
# form is the coefficient tuple (c_L, c_h, c_m, c_0) of
# c_L L + c_h h + c_m m + c_0.

_HALF = Fraction(1, 2)


def bracket_displays(N: int) -> dict[str, tuple]:
    """The Pochhammer, reflected and gamma displays for the family of parity N."""
    return {
        # ((1-L)/2)_m (-L/2)_m / ((1-2L)/2)_m
        "pochhammer": (False, [((-_HALF, 0, 0, _HALF), 1), ((-_HALF, 0, 0, 0), 1),
                               ((-1, 0, 0, _HALF), -1)], []),
        # (-1)^m ((2h+N+1)/2)_m ((2h+N+2)/2)_m / ((2h+L+N+1)/2)_m
        "reflected": (True, [((0, 1, 0, (N + 1) * _HALF), 1),
                             ((0, 1, 0, (N + 2) * _HALF), 1),
                             ((_HALF, 1, 0, (N + 1) * _HALF), -1)], []),
        # (-1)^m (L!)^2 (2h+L+N)! / ((2h+N)! ((2h+L+N)/2)! (2L)!); the powers
        # of two of Gamma(h + L/2 + 1/2) / Gamma(L + 1/2) cancel exactly
        "gammaform": (True, [], [((1, 0, 0, 0), 2), ((1, 2, 0, N), 1),
                                 ((0, 2, 0, N), -1), ((_HALF, 1, 0, N * _HALF), -1),
                                 ((2, 0, 0, 0), -1)]),
    }


#: T m! (L!)^2 / (2L)! with T = (-1)^m C(L, m) C(2L-2m, L) = 2^L [x^(L-2m)] P_L,
#: the integer every bracket is checked against, transcribed factorial by
#: factorial with C(n, r) = n! / (r! (n-r)!).
MONOMIAL_TERM = (True, [], [
    ((1, 0, 0, 0), 1), ((0, 0, 1, 0), -1), ((1, 0, -1, 0), -1),     # C(L, m)
    ((2, 0, -2, 0), 1), ((1, 0, 0, 0), -1), ((1, 0, -2, 0), -1),    # C(2L-2m, L)
    ((0, 0, 1, 0), 1), ((1, 0, 0, 0), 2), ((2, 0, 0, 0), -1),       # m! (L!)^2 / (2L)!
])


def affine_at(form: tuple, L: int, h: int, m: int) -> Fraction:
    cL, ch, cm, c0 = form
    return cL * L + ch * h + cm * m + Fraction(c0)


def display_value(display: tuple, L: int, h: int, m: int) -> Fraction:
    """The display at (L, h, m), from first-principles products.

    With a = p/q, (a)_m = p (p+q) ... (p+(m-1)q) / q^m; the integer products
    above and below are divided once at the end.
    """
    alternating, rising, factorials = display
    parts = [-1 if alternating and m % 2 else 1, 1]  # numerator, denominator
    for form, e in rising:
        a = affine_at(form, L, h, m)
        p, q = a.numerator, a.denominator
        top, bottom = math.prod(range(p, p + m * q, q)), q**m
        for _ in range(abs(e)):
            parts[0] *= top if e > 0 else bottom
            parts[1] *= bottom if e > 0 else top
    for form, e in factorials:
        n = affine_at(form, L, h, m)
        if n.denominator != 1:
            raise ValueError(f"factorial of {n} at L={L}, h={h}, m={m}")
        parts[e < 0] *= math.factorial(int(n)) ** abs(e)
    return Fraction(*parts)


def bracket_forms(family: str, L: int, h: int, m: int) -> tuple[Fraction, ...]:
    """The Pochhammer, reflected and gamma displays at (L, h, m), in that order."""
    N = ("j0", "j1").index(family)
    if L != 2 * h + N + 2 * m:
        raise ValueError(f"L={L}, h={h}, m={m} is off the plane L = 2h + {N} + 2m")
    return tuple(display_value(d, L, h, m) for d in bracket_displays(N).values())


def _gamma_factors(display: tuple) -> list[tuple[tuple, int]]:
    """The display as Gamma factors: (a)_m = G(a+m) / G(a), n! = G(n+1)."""
    _, rising, factorials = display
    out = []
    for (cL, ch, cm, c0), e in rising:
        out += [((cL, ch, cm + 1, c0), e), ((cL, ch, cm, c0), -e)]
    for (cL, ch, cm, c0), e in factorials:
        out.append(((cL, ch, cm, c0 + 1), e))
    return out


def term_ratio(display: tuple) -> tuple[int, list[tuple], list[tuple]]:
    """(sign, numerator forms, denominator forms) of the ratio display(L, h-1, m+1)
    / display(L, h, m), the step in m at fixed L.

    A Gamma factor G(l) whose argument moves by s = c_m - c_h contributes
    G(l+s) / G(l) = l (l+1) ... (l+s-1), or 1 / ((l-1) (l-2) ... (l+s)) when
    s < 0; a negative exponent swaps numerator and denominator.
    """
    num: list[tuple] = []
    den: list[tuple] = []
    for (cL, ch, cm, c0), e in _gamma_factors(display):
        s = Fraction(cm) - ch
        if s.denominator != 1:
            raise ValueError("a Gamma argument moves by a non-integer step")
        up = [(cL, ch, cm, c0 + i) for i in range(int(s))]
        down = [(cL, ch, cm, c0 - i) for i in range(1, 1 - int(s))]
        if e < 0:
            up, down = down, up
        num += up * abs(e)
        den += down * abs(e)
    return (-1 if display[0] else 1), num, den


def gamma_factors_cancel_at_m0(display: tuple, N: int) -> bool:
    """Whether the Gamma factors cancel in pairs on m = 0, L = 2h + N.

    Each argument is then an affine function of h alone; when every one
    appears as often above as below the line, the display is 1 for every h.
    """
    count: dict[tuple, int] = {}
    for (cL, ch, _, c0), e in _gamma_factors(display):
        key = (2 * cL + ch, N * cL + Fraction(c0))
        count[key] = count.get(key, 0) + e
    return not any(count.values())
