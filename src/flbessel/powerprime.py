"""Monomial conversion of Legendre expansions and prime-structure checks.

Expanding every P_L in a truncated expansion into monomials and gathering
like powers yields a polynomial approximant whose coefficient of x^m is

    c_m = sum_L a_L * [x^m](P_L),

a partial sum that converges (strikingly slowly in L) to the exact
ascending-series coefficient of the underlying function.  The exact
coefficients have reciprocals that are pure products of small primes once
the scale is divided out, and ``certify_prime_structure`` checks exactly
that: round 1/|c_m| to an integer, demand the rounding gap be small, and
trial-divide.  A gap that refuses to shrink is the footprint of an
under-truncated fold, not of a failed identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .legendre import monomials
from .mpnum import (
    BigReal,
    NotNearInteger,
    PrimePowers,
    factorize_reciprocal,
    nearest_integer_gap,
)
from .series import FLSeries

#: Largest distance between a reciprocal and its nearest integer that
#: ``certify_prime_structure`` accepts.
CERTIFY_TOL = Fraction(1, 10**6)


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
    requested tolerance; ``gap`` always records the fractional distance
    between 1/|c_m| (scale divided out) and ``nearest``.
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
    m = 2 * j + N
    sign = -1 if kind == "J" and j % 2 else 1
    c = Fraction(sign, 2**m) / (math.factorial(j) * math.factorial(j + N))
    return c * Fraction(k) ** m


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
    """Factor the reciprocal of every coefficient over small primes.

    An entry is certified when its reciprocal lies within ``CERTIFY_TOL`` of
    an integer.

    The scale's k^m is divided out first so the certificate targets the
    scale-free part.  Failures are recorded per entry, never raised.
    """
    entries = []
    for m, c in p.coeffs:
        q = c.to_fraction() / Fraction(p.k) ** m
        if q == 0:
            entries.append(
                FactorEntry(m, None, 0, BigReal.from_int(0, p.precision))
            )
            continue
        nearest, gap = nearest_integer_gap(q)
        try:
            factors = factorize_reciprocal(q, CERTIFY_TOL)
        except NotNearInteger:
            factors = None
        entries.append(
            FactorEntry(
                power=m,
                factors=factors,
                nearest=nearest,
                gap=BigReal.from_fraction(gap, p.precision),
            )
        )
    return FactorReport(entries=tuple(entries))
