"""Numerical certification of the summed infinite-series identities.

Gathering the x^(2h) (even family) or x^(2h+1) (odd family) contributions
across the Legendre expansion produces, for every h, an infinite series of
1F2 values whose sum collapses to a single inverse-prime-power rational
times k^(2h) (resp. k^(2h+1)):

  even family:  sum over even L of
      sqrt(pi) (-1)^(L/2) 2^(-3L-2) * 2 * (2L+1) C(L, L/2) C(2L, L) k^L
      * 1F2(L/2+1/2; L/2+1, L+3/2; -k^2/4)
      / (Gamma(L+3/2) (L/2-h)!)  *  bracket(L, h)
    = (-1)^h 2^(-2h) k^(2h) / (h! Gamma(h+1))

  odd family:   sum over odd L of
      sqrt(pi) (-1)^((L-1)/2) 2^(-3L-2) * 2 * (2L+1) C(L, (L-1)/2) C(2L, L) k^L
      * 1F2(L/2+1; L/2+3/2, L+3/2; -k^2/4)
      / (Gamma(L+3/2) ((L-1)/2-h)!)  *  bracket(L, h)
    = (-1)^h 2^(-2h-1) k^(2h+1) / (h! Gamma(h+2))

Each term is a_L * [x^(2h+N)] P_L (N = 0 for the even family, 1 for the
odd one).  The coefficient a_L comes from the coefficient route of
``series``, so this module does not restate its prefactor, and
[x^(2h+N)] P_L = T / 2^L with the integer

  T = (-1)^m (2L-2m)! / (m! (L-m)! (L-2m)!),   m = (L-N)/2 - h.

The bracket is the monomial-extraction factor of the displays.  The paper
writes it three algebraically identical ways (Pochhammer, reflected, gamma);
each term builds the Pochhammer display

  ((1-L)/2)_m (-L/2)_m / ((1-2L)/2)_m

in exact rational arithmetic, and refuses to proceed unless
bracket * (2L)! = T * m! * (L!)^2.  That the other two displays equal it for
every (L, h, m) is proved once, in the tests, by a term-ratio certificate.
For the first h candidate terms m is negative (the factorial in the
denominator has a negative argument), which is why those terms vanish
identically.

Everything is exact: each term is an unreduced integer pair (n, d), each
partial sum is one too, added with one gcd of the denominators per term and
never reduced, and the only rounding happens when results are rendered.
``verify_identity`` also compares the relative difference with the tolerance
as integers; ``partial_sums_rational`` builds a ``Fraction`` per prefix for
the callers that ask for one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .mpnum import BigReal, pochhammer
from .powerprime import maclaurin_coefficient
from .series import _coeff_rational

FAMILIES = ("j0", "j1")


class VariantMismatch(ArithmeticError):
    """The Pochhammer bracket disagreed with the Legendre monomial coefficient."""


@dataclass(frozen=True)
class SumSpec:
    """One summed-series instance: family, h, scale, length."""

    family: str
    h: int
    k: Fraction
    L_terms: int
    precision: int = 50

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.h < 0:
            raise ValueError("h must be nonnegative")
        if self.L_terms < self.h + 1:
            raise ValueError("L_terms must be at least h+1: the first h terms vanish")
        object.__setattr__(self, "k", Fraction(self.k))


@dataclass(frozen=True)
class VerifyReport:
    spec: SumSpec
    lhs: BigReal
    rhs: BigReal
    rel_diff: BigReal
    passed: bool


@lru_cache(maxsize=None)
def _f12(N: int, L: int, k: Fraction, precision: int) -> Fraction:
    """a_L / 2^L for J_N(kx), N in {0, 1}: the reduced 1F2 coefficient route.

    ``__wrapped__`` bypasses the coefficient cache of ``series``, which would
    hold every a_L a second time next to this one.  Every identity of a sweep
    multiplies this value by its own monomial coefficient, so it is reduced
    here, once per L, to keep those products and their sums small.
    """
    n, d = _coeff_rational.__wrapped__("J", L, N, k, precision)
    return Fraction(n, d << L)


def _brackets(L: int, m: int) -> Fraction:
    """The bracket ((1-L)/2)_m (-L/2)_m / ((1-2L)/2)_m of degree L at depth m.

    The Pochhammer numerators and denominators are multiplied as integers and
    normalised once, not through a ``Fraction`` product per factor.
    """
    a = pochhammer(Fraction(1 - L, 2), m)
    b = pochhammer(Fraction(-L, 2), m)
    c = pochhammer(Fraction(1 - 2 * L, 2), m)
    return Fraction(a.numerator * b.numerator * c.denominator,
                    a.denominator * b.denominator * c.numerator)


def term_rational(spec: SumSpec, L: int) -> tuple[int, int]:
    """Exact a_L * [x^(2h+N)] P_L at index L as an unreduced pair (n, d), d > 0;
    (0, 1) for the vanished head."""
    N = FAMILIES.index(spec.family)
    if L % 2 != N:
        raise ValueError(f"the {spec.family} family sums L = {N} (mod 2) only")
    h = spec.h
    m = (L - N) // 2 - h
    if m < 0:
        return 0, 1
    # T = 2^L [x^(L-2m)] P_L, an integer
    T = (-1 if m % 2 else 1) * math.comb(L, m) * math.comb(2 * L - 2 * m, L)
    bracket = _brackets(L, m)
    # bracket * (2L)! = T * m! * (L!)^2, divided through by (L!)^2
    if bracket.numerator * math.comb(2 * L, L) != T * math.factorial(m) * bracket.denominator:
        raise VariantMismatch(
            f"Pochhammer bracket disagrees with [x^{L - 2 * m}] P_{L} at h={h}"
        )
    a = _f12(N, L, spec.k, spec.precision)
    return a.numerator * T, a.denominator


def _l_values(spec: SumSpec) -> range:
    start = FAMILIES.index(spec.family)
    return range(start, start + 2 * spec.L_terms, 2)


def _prefix_pairs(spec: SumSpec) -> Iterator[tuple[int, int]]:
    """Running partial sums S_0, S_1, ... as unreduced pairs (n, d), d > 0.

    Each term costs one gcd, of the two denominators, so that d stays the
    least common multiple of the term denominators; n is never reduced.
    """
    num, den = 0, 1
    for L in _l_values(spec):
        n, d = term_rational(spec, L)
        g = math.gcd(den, d)
        num = num * (d // g) + n * (den // g)
        den = den // g * d
        yield num, den


def partial_sums_rational(spec: SumSpec) -> tuple[Fraction, ...]:
    """Running partial sums S_0, S_1, ... over the spec's term list."""
    return tuple(Fraction(n, d) for n, d in _prefix_pairs(spec))


def rhs_rational(spec: SumSpec) -> Fraction:
    """The closed form: the x^(2h+N) coefficient of J_N(kx)."""
    return maclaurin_coefficient("J", FAMILIES.index(spec.family), spec.h, spec.k)


def verify_identity(spec: SumSpec, tol: Fraction) -> VerifyReport:
    """Compare both sides; ``passed`` means the relative difference is at
    most ``tol``.

    "Relative" means |lhs - rhs| / |rhs|, computed exactly before rendering.
    Where the right side is exactly 0 (k = 0, except for j0 at h = 0), there
    is nothing to scale by, and ``rel_diff`` is the absolute difference |lhs|.
    Failure is an outcome, not an exception.  Both the comparison with
    ``tol`` and the rendering read the exact sum and difference as unreduced
    integer pairs.
    """
    ((n, d),) = deque(_prefix_pairs(spec), maxlen=1)
    rhs_q = rhs_rational(spec)
    p, q = rhs_q.numerator, rhs_q.denominator
    rel_n, rel_d = (abs(n * q - p * d), abs(p) * d) if p else (abs(n), d)
    return VerifyReport(
        spec=spec,
        lhs=BigReal.from_fraction((n, d), spec.precision),
        rhs=BigReal.from_fraction(rhs_q, spec.precision),
        rel_diff=BigReal.from_fraction((rel_n, rel_d), max(spec.precision, 8)),
        passed=rel_n * tol.denominator <= tol.numerator * rel_d,
    )
