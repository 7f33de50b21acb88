"""Legendre polynomials: exact monomial expansion.

Everything here is exact rational arithmetic.  The Bonnet recurrence

    (L+1) P_{L+1}(x) = (2L+1) x P_L(x) - L P_{L-1}(x)

builds the coefficient lists; it avoids the huge intermediate factorials of
the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction


@dataclass(frozen=True)
class LegendreMonomials:
    """Exact coefficients of P_L: ``coeffs[m]`` multiplies x^m."""

    degree: int
    coeffs: tuple[Fraction, ...]


@lru_cache(maxsize=None)
def _coeff_table(L: int) -> tuple[Fraction, ...]:
    """Coefficients of P_L, built bottom-up.

    The degrees below L are visited in ascending order first, so each of
    those calls finds its two predecessors cached and nests one level deep:
    a cold cache at a large degree costs no deep recursion.
    """
    if L < 2:
        return (Fraction(1),) if L == 0 else (Fraction(0), Fraction(1))
    for j in range(2, L - 1):
        _coeff_table(j)
    prev2 = _coeff_table(L - 2)
    prev1 = _coeff_table(L - 1)
    n = L - 1
    out = [Fraction(0)] * (L + 1)
    for m, c in enumerate(prev1):
        out[m + 1] += Fraction(2 * n + 1, n + 1) * c
    for m, c in enumerate(prev2):
        out[m] -= Fraction(n, n + 1) * c
    return tuple(out)


def monomials(L: int) -> LegendreMonomials:
    """Monomial expansion of P_L with exact rational coefficients."""
    if L < 0:
        raise ValueError("degree must be nonnegative")
    return LegendreMonomials(degree=L, coeffs=_coeff_table(L))
