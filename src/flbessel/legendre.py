"""Legendre polynomials: exact monomial expansion.

Everything here is exact rational arithmetic.  The Bonnet recurrence

    (L+1) P_{L+1}(x) = (2L+1) x P_L(x) - L P_{L-1}(x)

builds the coefficient lists; it avoids the huge intermediate factorials of
the closed forms.  It runs on Q_L = 2^L P_L, whose coefficients are
integers:

    (L+1) Q_{L+1}(x) = 2 (2L+1) x Q_L(x) - 4L Q_{L-1}(x),

where the division by L+1 is exact, so no gcd is taken at all: callers
fold the integer rows directly, and ``LegendreMonomials.coeffs`` hands out
fractions only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction


@dataclass(frozen=True)
class LegendreMonomials:
    """Exact coefficients of P_L: ``scaled[m]`` is the integer coefficient
    of x^m in 2^L P_L."""

    degree: int
    scaled: tuple[int, ...]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """[x^m] P_L as fractions, lowest power first."""
        scale = 2**self.degree
        return tuple(Fraction(c, scale) for c in self.scaled)


@lru_cache(maxsize=None)
def _coeff_table(L: int) -> tuple[int, ...]:
    """Integer coefficients of 2^L P_L, built bottom-up.

    The degrees below L are visited in ascending order first, so each of
    those calls finds its two predecessors cached and nests one level deep:
    a cold cache at a large degree costs no deep recursion.
    """
    if L < 2:
        return (1,) if L == 0 else (0, 2)
    for j in range(2, L - 1):
        _coeff_table(j)
    prev2 = _coeff_table(L - 2)
    prev1 = _coeff_table(L - 1)
    n = L - 1
    out = [0] * (L + 1)
    for m, c in enumerate(prev1):
        out[m + 1] = 2 * (2 * n + 1) * c
    for m, c in enumerate(prev2):
        out[m] -= 4 * n * c
    return tuple(c // L for c in out)


def monomials(L: int) -> LegendreMonomials:
    """Monomial expansion of P_L with exact coefficients."""
    if L < 0:
        raise ValueError("degree must be nonnegative")
    return LegendreMonomials(degree=L, scaled=_coeff_table(L))
