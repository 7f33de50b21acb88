"""Monomial conversion of Legendre expansions and prime-structure checks.

Expanding every P_L in a truncated expansion into monomials and gathering
like powers yields a polynomial approximant whose coefficient of x^m is

    c_m = sum_L a_L * [x^m](P_L),

a partial sum that converges (strikingly slowly in L) to the exact
ascending-series coefficient of the underlying function.  The exact
coefficients have known reciprocals: with the scale divided out,
1/|c_m| = 2^m j! (j+N)! for m = 2j+N, whose prime exponents Legendre's
formula gives exactly.  ``certify_prime_structure`` rounds 1/|c_m| to an
integer, demands the rounding gap be small and the integer be that
reciprocal, and factors it with no trial division.  A gap that refuses to
shrink is the footprint of an under-truncated fold, not of a failed
identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .legendre import monomials
from .mpnum import BigReal, PrimePowers
from .series import FLSeries

#: Largest distance between a reciprocal and its nearest integer that
#: ``certify_prime_structure`` accepts.
CERTIFY_TOL = Fraction(1, 10**6)

#: The factor base: the eight primes of the paper's abstract.  They factor
#: 2^m j! (j+N)! completely while j+N <= 22; 23 enters at j+N = 23.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@dataclass(frozen=True)
class PowerSeries:
    """Monomial coefficients folded out of an FLSeries.

    ``provenance`` records how many Legendre terms went into the fold; the
    coefficients are only as converged as that count allows.
    """

    kind: str
    order: int
    k: Fraction
    coeffs: tuple[tuple[int, BigReal], ...]
    provenance: int
    precision: int


@dataclass(frozen=True)
class FactorEntry:
    """Per-power certification outcome.

    ``factors`` is None when the reciprocal was not near an integer at the
    requested tolerance, or when that integer is not the exact reciprocal
    (the report still calls it "not near an integer"); ``gap`` always
    records the fractional distance between 1/|c_m| (scale divided out) and
    ``nearest``.
    """

    power: int
    factors: PrimePowers | None
    nearest: int
    gap: BigReal

    @property
    def certified(self) -> bool:
        return self.factors is not None


@dataclass(frozen=True)
class FactorReport:
    entries: tuple[FactorEntry, ...]

    def entry(self, m: int) -> FactorEntry | None:
        for e in self.entries:
            if e.power == m:
                return e
        return None

    @property
    def all_certified(self) -> bool:
        return all(e.certified for e in self.entries)


def to_power_series(s: FLSeries, max_power: int) -> PowerSeries:
    """Gather like powers of x across the expansion's Legendre terms.

    With a_L = A_L / D over the series' common denominator and C_{L,m} the
    integer coefficients of 2^L P_L, the fold is the integer sum

        c_m = sum_L A_L C_{L,m} 2^(l - L) / (D 2^l),  l = l_max,

    rounded once.  Folding a series whose entries stop short of
    ``max_power`` is allowed on purpose: the partial folds are exactly the
    convergence ladder worth inspecting row by row.
    """
    D, numerators = s.common_form
    top = max(s.l_max, 0)
    rows = [(monomials(L).scaled, A << (top - L)) for L, A in numerators.items()]
    coeffs = []
    for m in range(s.order % 2, max_power + 1, 2):
        total = sum(A * row[m] for row, A in rows if m < len(row))
        coeffs.append(
            (m, BigReal.from_fraction((total, D << top), s.precision))
        )
    return PowerSeries(
        kind=s.kind,
        order=s.order,
        k=s.k,
        coeffs=tuple(coeffs),
        provenance=len(s.entries),
        precision=s.precision,
    )


def maclaurin_coefficient(kind: str, N: int, j: int, k: Fraction | int = 1) -> Fraction:
    """The x^(2j+N) coefficient of J_N(kx) or I_N(kx), exactly.

    It is (+-1)^j k^(2j+N) / (2^(2j+N) j! (j+N)!), alternating for J and all
    positive for I.
    """
    sign = -1 if kind == "J" and j % 2 else 1
    return Fraction(sign, exact_reciprocal(N, j)) * Fraction(k) ** (2 * j + N)


def exact_reciprocal(N: int, j: int) -> int:
    """2^m j! (j+N)!, m = 2j+N: the reciprocal of |c_m| / k^m for the exact
    x^m coefficient c_m of J_N(kx) and of I_N(kx)."""
    return math.factorial(j) * math.factorial(j + N) << (2 * j + N)


def _factor_exact(N: int, j: int, R: int, sign: int) -> PrimePowers:
    """R = ``exact_reciprocal(N, j)`` over ``PRIMES``, by Legendre's formula
    v_p(n!) = sum_i floor(n / p^i); the leftover is the quotient by the
    primes' part."""
    exps = []
    smooth = 1
    for p in PRIMES:
        e = 2 * j + N if p == 2 else 0
        for n in (j, j + N):
            while n:
                n //= p
                e += n
        if e:
            exps.append((p, e))
            smooth *= p**e
    return PrimePowers(tuple(exps), R // smooth, sign)


def maclaurin_exact(
    kind: str, N: int, max_power: int, k: Fraction | int = 1
) -> tuple[tuple[int, Fraction], ...]:
    """Exact ascending-series coefficients (m, c_m), m = N, N+2, ... <= max_power."""
    if kind not in ("J", "I"):
        raise ValueError(f"kind must be 'J' or 'I', got {kind!r}")
    return tuple(
        (2 * j + N, maclaurin_coefficient(kind, N, j, k))
        for j in range((max_power - N) // 2 + 1)
    )


def exact_power_series(
    kind: str,
    N: int,
    max_power: int,
    k: Fraction | int = 1,
    precision: int = 70,
) -> PowerSeries:
    """The exact ascending-series coefficients rendered as a PowerSeries.

    ``provenance`` is 0: nothing was folded, these are the limits the folds
    converge to.  The default 70 digits leaves the reciprocal of the x^43
    coefficient (about 5e53) with room to spare for certification.
    """
    coeffs = tuple(
        (m, BigReal.from_fraction(c, precision))
        for m, c in maclaurin_exact(kind, N, max_power, k)
    )
    return PowerSeries(
        kind=kind, order=N, k=Fraction(k), coeffs=coeffs,
        provenance=0, precision=precision,
    )


def certify_prime_structure(p: PowerSeries) -> FactorReport:
    """Check the reciprocal of every coefficient against the exact one.

    With the scale's k^m divided out, an entry at m = 2j+N is certified when
    its reciprocal lies within ``CERTIFY_TOL`` of an integer and that integer
    is ``exact_reciprocal(N, j)``; its factors then come from Legendre's
    formula.  Below x^N the exact coefficient is 0, so nothing there is
    certified.  Failures are recorded per entry, never raised.
    """
    entries = []
    for m, c in p.coeffs:
        q = c.to_fraction() / Fraction(p.k) ** m
        if q == 0:
            entries.append(
                FactorEntry(m, None, 0, BigReal.from_int(0, p.precision))
            )
            continue
        r = 1 / abs(q)
        nearest = round(r)
        gap = abs(r - nearest)
        j, odd = divmod(m - p.order, 2)
        factors = None
        if (gap <= CERTIFY_TOL and j >= 0 and not odd
                and nearest == exact_reciprocal(p.order, j)):
            factors = _factor_exact(p.order, j, nearest, 1 if q > 0 else -1)
        entries.append(
            FactorEntry(
                power=m,
                factors=factors,
                nearest=nearest,
                gap=BigReal.from_fraction(gap, p.precision),
            )
        )
    return FactorReport(entries=tuple(entries))
