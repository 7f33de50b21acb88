"""Generalized hypergeometric series 1F2 and 2F3, plain and regularized.

The two shapes this package needs are entire functions of z (more lower than
upper parameters), so a straight term-recurrence sum always converges:

    t_0 = 1,   t_{n+1} = t_n * prod(a_i + n) / prod(b_j + n) * z / (n + 1).

Whenever the argument is rational -- and every argument produced by the
coefficient formulas is, since it has the form -k^2/4 with rational k -- the
sum is exact and only the final value is rounded.  That makes results
deterministic to the last digit and frees the termination rule from
rounding noise.

Every series in the package -- plain, regularized, and the ascending series
of the Bessel functions -- is generated by :func:`plain_terms` and summed by
:func:`sum_terms`.  The generator yields integer pairs: the first term, then
the ratio t_{n+1}/t_n as an unreduced integer numerator and a positive
integer denominator built from the parameters' numerators and denominators.
The sum keeps term n as P/Q and the partial sum as T/Q, with no gcd along
the way (the idea behind binary splitting, Haible & Papanikolaou 1998, used
here term by term); ``Fraction(T, Q)`` at the end is the one reduction.

Termination: stop once two consecutive terms after the first are each below
10^-digits times the current partial-sum magnitude |S|, decided exactly on
the integers, where the callers that start a sum choose digits = precision
+ ``DEFAULT_GUARD_DIGITS``.  The rule is relative to |S| with no floor, so a
sum far below one (the regularized 2F3 of a high order) still gets all its
digits; a zero term is always small.  A single small term is not trusted
because the coefficient-family series alternate in sign and an individual
term can be accidentally tiny.

The regularized variant divides each lower parameter's contribution by a
gamma function instead of a Pochhammer, which keeps the sum finite when a
lower parameter is a nonpositive integer: the reciprocal gamma is exactly
zero there, so the leading terms vanish until the parameter climbs past
zero.  With one half-integer lower parameter the regularized terms share a
common factor 1/sqrt(pi); the rational part is accumulated exactly and the
power of sqrt(pi) is returned beside it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .mpnum import DEFAULT_GUARD_DIGITS, pochhammer, recip_gamma_exact


class LowerParamPole(ValueError):
    """A lower parameter is a nonpositive integer (plain form only)."""


class TermCapExceeded(RuntimeError):
    """The series failed to meet the termination rule within the term cap.

    Each caller's cap is about 10 * precision terms (``term_cap``); hitting
    it means divergence or a bug, never something to truncate silently.
    """


def _is_nonpositive_int(q: Fraction) -> bool:
    return q.denominator == 1 and q <= 0


def term_cap(precision: int) -> int:
    return 10 * precision + 200


def plain_terms(
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    z: Fraction,
    first: Fraction = Fraction(1),
    start: int = 0,
):
    """Integer pairs (p, q), q > 0: term ``start`` as p/q, then each ratio.

    The first pair is ``first`` itself, the value of term ``start`` (the
    default starts the plain series at t_0 = 1).  Every later pair is the
    ratio t_{n+1}/t_n, built from the numerators and denominators of the
    parameters and of z without any gcd, so the running product of the
    pairs is the term.
    """
    ups = [(a.numerator, a.denominator) for a in map(Fraction, upper)]
    lows = [(b.numerator, b.denominator) for b in map(Fraction, lower)]
    z = Fraction(z)
    # the parameter denominators and z are the same in every ratio
    p_const, q_const = z.numerator, z.denominator
    for _, d in lows:
        p_const *= d
    for _, d in ups:
        q_const *= d
    first = Fraction(first)
    yield first.numerator, first.denominator
    n = start
    while True:
        p = p_const
        for a, d in ups:
            p *= a + n * d
        q = q_const * (n + 1)
        for b, d in lows:
            q *= b + n * d
        yield (-p, -q) if q < 0 else (p, q)
        n += 1


def sum_terms(factors: Iterable[tuple[int, int]], digits: int, cap: int) -> Fraction:
    """Exact partial sum of the series ``factors`` describes.

    ``factors`` yields the first term and then the term ratios as integer
    pairs (p, q) with q > 0, as :func:`plain_terms` does.  Term n is kept as
    P/Q and the partial sum as T/Q, all unreduced; ``Fraction(T, Q)`` at the
    end is the only reduction.

    The first term is always taken.  The sum stops after two later terms in
    a row fall below 10^-digits * |S|, that is 10^digits |P| < |T|, or are
    zero; a term past index ``cap`` (counting the first as 0) raises
    :class:`TermCapExceeded`.  Callers pass digits = precision +
    ``DEFAULT_GUARD_DIGITS``.
    """
    scale = 10**digits
    scale_bits = scale.bit_length()
    factors = iter(factors)
    P, Q = next(factors, (0, 1))
    T = P
    small_run = 0
    for n, (p, q) in enumerate(factors, 1):
        if n > cap:
            raise TermCapExceeded(f"no convergence within {cap} terms")
        P *= p
        Q *= q
        T = T * q + P
        small_run = small_run + 1 if _is_small(P, T, scale, scale_bits) else 0
        if small_run == 2:
            break
    return Fraction(T, Q)


def _is_small(P: int, T: int, scale: int, scale_bits: int) -> bool:
    """Exactly whether P == 0 or scale * |P| < |T|: the term P/Q is below
    10^-digits of the partial sum T/Q (Q cancels).

    The bit length of scale * |P| is the sum of the two bit lengths or one
    less, so bit lengths settle every case but a near tie, which is compared
    exactly.
    """
    if P == 0:
        return True
    bound = abs(T)
    gap = abs(P).bit_length() + scale_bits - bound.bit_length()
    if gap < 0:
        return True
    if gap > 1:
        return False
    return scale * abs(P) < bound


def plain_sum_rational(
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    z: Fraction,
    precision: int,
) -> Fraction:
    """Exact partial sum of pFq meeting the two-small-terms rule."""
    for b in lower:
        if _is_nonpositive_int(b):
            raise LowerParamPole(f"lower parameter {b} is a nonpositive integer")
    return sum_terms(plain_terms(upper, lower, z), precision + DEFAULT_GUARD_DIGITS,
                     term_cap(precision))


def regularized_sum_rational(
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    z: Fraction,
    precision: int,
) -> tuple[Fraction, int]:
    """Exact regularized sum as ``(q, s)`` with value q * sqrt(pi)^s.

    Lower parameters must be integers or half-integers so the reciprocal
    gammas stay exact.  Nonpositive-integer lower parameters zero out the
    head of the series; summation starts at the first index where every
    integer lower parameter has climbed to one or above.
    """
    n0 = 0
    for b in lower:
        if _is_nonpositive_int(b):
            n0 = max(n0, 1 - int(b))

    # A terminating numerator that dies before the head vanishes leaves
    # nothing to sum.
    for a in upper:
        if _is_nonpositive_int(a) and -int(a) < n0:
            return Fraction(0), 0

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
