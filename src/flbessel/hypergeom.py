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
The factors every ratio shares (z and the parameters' denominators) are
divided by their gcd once, before the first ratio, and no other gcd is
taken; each factor a + n d is an arithmetic progression, so the ratios
stream from C-level iterators.  An upper parameter equal to a lower one is
dropped with it, so a 2F3 with such a pair sums as the 1F2 it reduces to.
The sum keeps term n as P/Q and the partial sum as T/Q, with no gcd along
the way, and returns the pair (T, Q) as it stands: rounding it needs only
the quotient (``BigReal.from_fraction`` divides T by Q once), never lowest
terms, so no sum is ever reduced.  A long sum is
not multiplied out one pair at a time: past a head of ``_HEAD`` terms, the
stretch of pairs that a float estimate places well above the stopping rule
is multiplied out by binary splitting (Haible & Papanikolaou, "Fast
multiprecision evaluation of series of rational numbers", 1998), one exact
integer test certifies that no term of it could have stopped the sum, and
the plain loop runs on to the stop.  The integers, the stop and the pairs
read are those of the plain loop.

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
power of sqrt(pi) is returned beside it.  The first term, Pochhammer
symbols, reciprocal gammas and z^n0/n0! together, is built as one integer
numerator and one integer denominator and normalized once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, count, islice, repeat
from operator import mul
from typing import Iterable

from . import mpnum


class LowerParamPole(ValueError):
    """A lower parameter is a nonpositive integer (plain form only)."""


class TermCapExceeded(RuntimeError):
    """The series failed to meet the termination rule within the term cap.

    Each caller's cap is about 10 * precision + 3 sqrt|z| terms (``term_cap``,
    :func:`_sum_cap`); hitting it means divergence or a bug, never something
    to truncate silently.
    """


def term_cap(precision: int) -> int:
    return 10 * precision + 200


def _sum_cap(precision: int, z: Fraction) -> int:
    """``term_cap`` plus 3 (isqrt(floor |z|) + 1): the terms peak near sqrt|z|."""
    return term_cap(precision) + 3 * (math.isqrt(abs(z.numerator) // z.denominator) + 1)


def plain_terms(
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction | int, ...],
    z: Fraction,
    first: Fraction = Fraction(1),
    start: int = 0,
):
    """Integer pairs (p, q), q > 0: term ``start`` as p/q, then each ratio.

    The first pair is ``first`` itself, the value of term ``start`` (the
    default starts the plain series at t_0 = 1), already in lowest terms.
    Every later pair is the ratio t_{n+1}/t_n, built from the numerators
    and denominators of the parameters and of z, so the running product of
    the pairs is the term.  The two constant factors, z's numerator times
    the lower denominators and z's denominator times the upper ones, are
    divided by their gcd once; no other gcd is taken.  An upper parameter
    equal to a lower one puts a factor 1 in every ratio, so the two are
    dropped, one for one.  The factors a + n d, n = start, start + 1, ...,
    are ``itertools.count`` progressions multiplied together by ``map``,
    and a pair's signs are flipped to make q > 0 only where a lower factor
    can be negative.
    """
    ups = [(a.numerator, a.denominator) for a in upper]
    lows = [(b.numerator, b.denominator) for b in lower]
    for pair in list(ups):
        if pair in lows:
            ups.remove(pair)
            lows.remove(pair)
    # the parameter denominators and z are the same in every ratio
    p_const, q_const = z.numerator, z.denominator
    for _, d in lows:
        p_const *= d
    for _, d in ups:
        q_const *= d
    g = math.gcd(p_const, q_const)
    p_const, q_const = p_const // g, q_const // g
    yield first.numerator, first.denominator
    # every factor a + n d is an arithmetic progression in n, and so are
    # the constants times the first factor of each side
    if ups:
        (a, d), *rest = ups
        ps = count(p_const * (a + start * d), p_const * d)
    else:
        ps, rest = repeat(p_const), ()
    for a, d in rest:
        ps = map(mul, ps, count(a + start * d, d))
    qs = count(q_const * (start + 1), q_const)
    for b, d in lows:
        qs = map(mul, qs, count(b + start * d, d))
    if any(b + start * d < 0 for b, d in lows):
        yield from ((-p, -q) if q < 0 else (p, q) for p, q in zip(ps, qs))
    else:
        yield from zip(ps, qs)


def sum_terms(
    factors: Iterable[tuple[int, int]], digits: int, cap: int
) -> tuple[int, int]:
    """Exact partial sum of the series ``factors`` describes, as (T, Q).

    ``factors`` yields the first term and then the term ratios as integer
    pairs (p, q) with q > 0, as :func:`plain_terms` does.  Term n is kept as
    P/Q and the partial sum as T/Q, all unreduced, and the sum is returned
    as that pair, Q > 0, without any gcd.

    The first term is always taken.  The sum stops after two later terms in
    a row fall below 10^-digits * |S|, that is 10^digits |P| < |T|, or are
    zero; a term past index ``cap`` (counting the first as 0) raises
    :class:`TermCapExceeded`.  Callers pass digits = precision +
    ``DEFAULT_GUARD_DIGITS``.

    The integers, the stop and the pairs read are those of the plain loop
    over one pair at a time; only the order of the products differs:

    * head: the loop runs the first ``_HEAD`` terms, so a short sum never
      leaves it;
    * stretch: :func:`_pull` reads pairs while a float estimate says the
      term is still far above the rule, and :func:`_split` multiplies them
      out by binary splitting;
    * certificate: every stretch pair has |p| <= q, so the last stretch
      term is the smallest and one exact test proves that no stretch term
      was small (:func:`_certified`); if it fails, the loop redoes the
      stretch from the head's state;
    * tail: the loop runs on, from the pair in hand, to the stop.
    """
    scale = 10**digits
    scale_bits = scale.bit_length()
    factors = iter(factors)
    P, Q = next(factors, (0, 1))
    state = _loop(islice(factors, _HEAD), (0, P, Q, P, 0), scale, scale_bits, cap)
    if state[4] < 2 and state[0] == _HEAD:
        state, pending = _stretch(factors, state, digits, scale, cap)
        state = _loop(chain(pending, factors), state, scale, scale_bits, cap)
    return state[3], state[2]


#: Terms the plain loop always runs before :func:`sum_terms` splits.
_HEAD = 48

#: Natural-log room the float estimate of :func:`_pull` keeps above the
#: stopping rule; it covers the factor 2 of the certificate's room and any
#: rounding of the float sums many times over.
_MARGIN = 2.0

#: Longest run of pairs :func:`_split` multiplies out one at a time.
_LEAF = 32


def _loop(pairs, state, scale: int, scale_bits: int, cap: int):
    """The plain loop over ``pairs`` from ``state`` = (n, P, Q, T, small
    run), one pair at a time, until the pairs run out or two small terms
    in a row end the sum (small run 2); returns the new state.

    Each term is tested as :func:`_is_small` tests it, inline and on bit
    lengths, which ignore the sign, so no copy of |T| is made; only a
    near tie is compared exactly."""
    n, P, Q, T, small_run = state
    for p, q in pairs:
        n += 1
        if n > cap:
            raise TermCapExceeded(f"no convergence within {cap} terms")
        P *= p
        Q *= q
        T = T * q + P
        gap = P.bit_length() + scale_bits - T.bit_length()
        if P and (gap > 1 or gap >= 0 and scale * abs(P) >= abs(T)):
            small_run = 0
        else:
            small_run += 1
            if small_run == 2:
                break
    return n, P, Q, T, small_run


def _stretch(factors, state, digits: int, scale: int, cap: int):
    """The loop's state after the stretch that :func:`_pull` reads past
    the head's ``state``, and the pairs the loop takes next: the pair in
    hand, or the whole stretch again when :func:`_certified` fails."""
    n, P, Q, T, _ = state
    stretch, in_hand = _pull(factors, n, P, T, digits, min(cap, n + scale // 2))
    if stretch:
        m = len(stretch)
        Ps, Qs, Ts = _split(stretch, 0, m)
        joined = (n + m, P * Ps, Q * Qs, T * Qs + P * Ts, 0)
        if _certified(joined, scale - m):
            return joined, in_hand
    return state, chain(stretch, in_hand)


def _pull(factors, n: int, P: int, T: int, digits: int, last: int):
    """The pairs after term ``n`` whose terms the float estimate puts far
    above the rule, and the pair in hand that ended the stretch (empty if
    the pairs ran out).

    The stretch ends at a zero term, a growing one (|p| > q), past index
    ``last``, or where term k could come within ``_MARGIN`` of
    10^-digits times the bound (k - n + 1) * max(|S_n|, |t_n|), which no
    |S_k| of a stretch of shrinking terms exceeds.
    """
    stretch = []
    if P == 0:
        return stretch, ()
    log = math.log
    # log |t_k| - log(10^-digits * max(|S_n|, |t_n|)) - _MARGIN, at k = n
    room = log(abs(P)) - log(max(abs(P), abs(T))) + digits * log(10) - _MARGIN
    # room above this needs no log of k - n + 1
    ample = log(last - n + 1)
    for k, pair in enumerate(factors, n + 1):
        p, q = pair
        a = -p if p < 0 else p
        if a > q or p == 0 or k > last:
            return stretch, (pair,)
        r = a / q  # a float, which loses digits below about 1e-300
        room += log(r) if r > 1e-300 else log(a) - log(q)
        if room < ample and room < log(k - n + 1):
            return stretch, (pair,)
        stretch.append(pair)
    return stretch, ()


def _split(pairs, lo: int, hi: int) -> tuple[int, int, int]:
    """Binary splitting of ``pairs[lo:hi]``: (P, Q, T) with P and Q the
    products of the p and the q, and T/Q the sum of the running products
    of the ratios, so that the loop's state (P0, Q0, T0) becomes
    (P0 * P, Q0 * Q, T0 * Q + P0 * T) after these pairs.  Runs of at most
    ``_LEAF`` pairs are multiplied out one pair at a time."""
    if hi - lo <= _LEAF:
        P, Q = pairs[lo]
        T = P
        for p, q in pairs[lo + 1:hi]:
            P *= p
            Q *= q
            T = T * q + P
        return P, Q, T
    mid = (lo + hi) // 2
    P1, Q1, T1 = _split(pairs, lo, mid)
    P2, Q2, T2 = _split(pairs, mid, hi)
    return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2


def _certified(state, room: int) -> bool:
    """Whether no term of a stretch of m pairs, each with |p| <= q, that
    ends in ``state`` was small, given room = 10^digits - m.

    Each stretch term t_k is at least the last, t_K, and each S_k is
    within (K - k) |t_k| of S_K, so room * |P_K| >= |T_K| with P_K != 0
    gives 10^digits |t_k| >= |S_k| for every k of the stretch.
    """
    _, P, _, T, _ = state
    return not _is_small(P, T, room, room.bit_length())


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
    lower: tuple[Fraction | int, ...],
    z: Fraction,
    precision: int,
) -> tuple[int, int]:
    """Exact partial sum of pFq meeting the two-small-terms rule, as the
    unreduced pair (T, Q) of :func:`sum_terms`."""
    for b in lower:
        if b.denominator == 1 and b <= 0:
            raise LowerParamPole(f"lower parameter {b} is a nonpositive integer")
    return sum_terms(plain_terms(upper, lower, z),
                     precision + mpnum.DEFAULT_GUARD_DIGITS, _sum_cap(precision, z))


def regularized_sum_rational(
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction | int, ...],
    z: Fraction,
    precision: int,
) -> tuple[tuple[int, int], int]:
    """Exact regularized sum as ``((T, Q), s)`` with value T/Q * sqrt(pi)^s,
    the pair unreduced as :func:`sum_terms` returns it.

    Lower parameters must be integers or half-integers (an ``int`` or a
    ``Fraction``) so the reciprocal gammas stay exact.  Nonpositive-integer
    lower parameters zero out the head of the series; summation starts at
    the first index n0 where every integer lower parameter has climbed to
    one or above.

    The first term prod (a)_n0 / prod Gamma(b + n0) * z^n0 / n0! is built
    from the parameters' numerators and denominators as one integer pair
    and normalized once: (p/d)_n0 = p (p+d) ... (p+(n0-1)d) / d^n0,
    1/Gamma(n) = 1/(n-1)! and 1/Gamma(m + 1/2) = 4^m m! / (2m)! times
    1/sqrt(pi).  With n0 = 0 the plain sum's pair is scaled by it, the
    integers the first term folded into the sum would give.
    """
    n0 = max([0] + [1 - b.numerator for b in lower if b.denominator == 1])

    # A terminating numerator that dies before the head vanishes leaves
    # nothing to sum.
    for a in upper:
        if a.denominator == 1 and -n0 < a <= 0:
            return (0, 1), 0

    num = den = 1
    if n0:
        num, den = z.numerator**n0, z.denominator**n0 * math.factorial(n0)
        for a in upper:
            p, d = a.numerator, a.denominator
            num *= math.prod(range(p, p + n0 * d, d))
            den *= d**n0
    sqrtpi_power = 0
    for b in lower:
        d = b.denominator
        p = b.numerator + n0 * d  # b + n0 = p/d, in lowest terms
        if d == 1:
            den *= math.factorial(p - 1)  # p >= 1 by the choice of n0
        elif d == 2 and p > 0:
            m = (p - 1) // 2
            num *= 4**m * math.factorial(m)
            den *= math.factorial(2 * m)
            sqrtpi_power -= 1
        elif d == 2:
            raise ValueError("reciprocal gamma below 1/2 not supported")
        else:
            raise ValueError(
                f"gamma argument must be integer or half-integer, got {Fraction(p, d)}")

    first = Fraction(num, den)
    if n0 == 0:
        T, Q = plain_sum_rational(upper, lower, z, precision)
        return (first.numerator * T, first.denominator * Q), sqrtpi_power
    return sum_terms(plain_terms(upper, lower, z, first, n0),
                     precision + mpnum.DEFAULT_GUARD_DIGITS,
                     _sum_cap(precision, z) + 1), sqrtpi_power
