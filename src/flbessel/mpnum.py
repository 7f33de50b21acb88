"""Exact and arbitrary-precision arithmetic primitives.

Everything downstream computes exact rationals, as ``fractions.Fraction``
values or unreduced integer pairs, and rounds once, into a ``BigReal``: an
immutable arbitrary-precision real, a ``decimal.Decimal`` value that has
been rounded (half-even) to a stated number of significant decimal digits,
together with that digit count.  A
``BigReal`` is canonical -- the stored value carries no hidden digits beyond
``precision`` -- so rendering to text and parsing back is the identity.

On top of those sit the Pochhammer symbol and the record of a
factorization over a small prime base.

All values are immutable and all functions are pure; any of this may be
called concurrently without locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction

#: Extra working digits carried by intermediate computations.  Displayed
#: coefficients converge only when summation runs well past the display
#: precision, so every routine that rounds to ``precision`` digits computes
#: with ``precision + DEFAULT_GUARD_DIGITS`` first, reading it here when the
#: sum starts.
DEFAULT_GUARD_DIGITS = 16

#: log10(2), to turn a bit length into a decimal exponent.
_LOG10_2 = math.log10(2)

#: A context in which scaling an integer by a power of ten is exact and
#: signals nothing, so sharing it between threads is safe; ``BigReal``
#: rounds the result in the caller's context.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

#: Guard digits of the short quotient of ``BigReal.from_fraction``, below
#: the mantissa and its possible extra digit.
_SHORT_GUARD_DIGITS = 23

#: Bits the short quotient keeps beyond those the quotient has, which
#: makes its error at most 2.
_KEEP_EXTRA_BITS = 64

#: The short quotient is taken only when it drops more than this many
#: bits of each operand: below that, one exact ``divmod`` costs no more
#: (on random pairs at 50, 300 and 2000 digits the two cross between 1024
#: and 2048 dropped bits).
_SHORT_BITS = 2048


def _short_mantissa(n: int, d: int, cut: int, keep: int, s: int, precision: int):
    """(mantissa rounded half-even, s) for n * 10^s / d, n, d > 0 and
    s >= 0, from n and d shifted right by ``cut`` bits, which leaves the
    shorter ``keep`` bits; None when that cannot settle the rounding.

    Each shifted operand is within a relative 2^(1 - keep) of the exact
    one, so m = floor(n' 10^t / d'), t = s + _SHORT_GUARD_DIGITS, is within
    (m + 1) 2^(2 - keep) + 1 < (m >> (keep - 3)) + 2 of x = n 10^t / d.
    The mantissa floor(x / 10^_SHORT_GUARD_DIGITS), its extra digit and the
    rounding change only at multiples of 5 * 10^(_SHORT_GUARD_DIGITS - 1); if
    none lies within that bound of m, x is none of them and lies between
    the same two as m, so m gives all three exactly.
    """
    m = (n >> cut) * 10**(s + _SHORT_GUARD_DIGITS) // (d >> cut)
    err = (m >> (keep - 3)) + 2
    half = 5 * 10**(_SHORT_GUARD_DIGITS - 1)
    low = m % half
    if low <= err or half - low <= err:
        return None
    mantissa, rest = divmod(m, 2 * half)
    if mantissa >= 10**precision:
        half *= 10
        mantissa, rest = divmod(m, 2 * half)
        s -= 1
    return mantissa + (rest > half), s


def _round_sig(value: Decimal, digits: int) -> Decimal:
    """Round ``value`` to ``digits`` significant digits, half-even."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if value.is_zero():
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return +value


#: ``bytes.translate`` table taking the digit values 0-9 to ASCII digits.
_DIGIT_TEXT = bytes(range(48, 58)).ljust(256, b"?")


def render_significant(value: Decimal, digits: int) -> str:
    """Render ``value`` with exactly ``digits`` significant digits.

    Plain positional notation is used when the leading digit sits at
    10^-5 or above and the integer part fits inside the significant digits;
    otherwise scientific notation with a lowercase ``e`` and a bare signed
    exponent.  Trailing zeros are kept: the digit count is part of the
    contract.
    """
    r = _round_sig(value, digits)
    if r.is_zero():
        return "0"
    sign, ds, _ = r.as_tuple()
    mant = bytes(ds).translate(_DIGIT_TEXT).decode("ascii").ljust(digits, "0")
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


@dataclass(frozen=True)
class BigReal:
    """An arbitrary-precision real, canonical at ``precision`` digits.

    ``value`` is always the half-even rounding of whatever was computed to
    ``precision`` significant digits, so two ``BigReal`` built from the same
    inputs are bit-identical and ``parse(str(x)) == x``.
    """

    value: Decimal
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        object.__setattr__(self, "value", _round_sig(self.value, self.precision))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_fraction(
        cls, q: Fraction | tuple[int, int], precision: int
    ) -> "BigReal":
        """Exact rational -> BigReal, correctly rounded (half-even).

        ``q`` is a ``Fraction`` or a pair (n, d) with d > 0 standing for
        n/d in any terms: the rounding needs the quotient, not lowest
        terms, so an unreduced sum is rounded as it stands.

        The mantissa is floor(|n| * 10^s / d).  s comes from the bit
        lengths of n and d, so that the mantissa has ``precision`` or
        ``precision + 1`` digits; an extra digit is split off, and the rest
        of the quotient decides the half-even rounding and any tie.

        Only the leading bits of a divisor fix a quotient.  So when s >= 0
        and both operands are more than ``_SHORT_BITS`` bits longer than
        the short quotient keeps (an unreduced sum's denominator is about
        twice as long as the mantissa), :func:`_short_mantissa` divides
        their leading bits only, to ``_SHORT_GUARD_DIGITS`` digits below the
        mantissa with an error of at most 2 units.  The rounding and the
        extra digit change only at multiples of 5 * 10^(_SHORT_GUARD_DIGITS - 1)
        of that quotient, so one farther than the error bound from all of
        them gives the mantissa and its rounding exactly, and no tie is
        possible.  Otherwise, and always for s < 0, one exact ``divmod``
        gives the mantissa and a remainder that decides the rounding and
        any tie.  The mantissa becomes a ``Decimal`` directly, never
        through ``str``, which refuses integers of more than 4300 digits.
        """
        num, d = q if isinstance(q, tuple) else (q.numerator, q.denominator)
        if num == 0:
            return cls(Decimal(0), precision)
        n = abs(num)
        # n / d > 2^(gap - 1) >= 10^j, so the mantissa has at least
        # ``precision`` digits.  The float product is within 10^-6 of the
        # exact one for |gap| < 2^33, and no integer of 2^33 bits fits in
        # memory, so j is the exact floor or, within 10^-6 of an integer,
        # one less; that costs one more digit to split off.
        nb, db = n.bit_length(), d.bit_length()
        gap = nb - db
        j = math.floor((gap - 1) * _LOG10_2 - 1e-6)
        s = precision - 1 - j
        # bits of the shorter operand the short quotient keeps: those of
        # 10^(precision + _SHORT_GUARD_DIGITS + 1) and _KEEP_EXTRA_BITS more
        keep = ((precision + _SHORT_GUARD_DIGITS + 1) * 3322 // 1000
                + _KEEP_EXTRA_BITS)
        cut = (db if db < nb else nb) - keep
        short = (s >= 0 and cut > _SHORT_BITS
                 and _short_mantissa(n, d, cut, keep, s, precision))
        if short:
            mantissa, s = short
        else:
            if s >= 0:
                mantissa, r = divmod(n * 10**s, d)
            else:
                d *= 10**-s
                mantissa, r = divmod(n, d)
            top = 10**precision
            while mantissa >= top:
                mantissa, digit = divmod(mantissa, 10)
                r += digit * d
                d *= 10
                s -= 1
            if 2 * r > d or (2 * r == d and mantissa & 1):
                mantissa += 1
        if num < 0:
            mantissa = -mantissa
        return cls(Decimal(mantissa).scaleb(-s, _EXACT), precision)

    @classmethod
    def from_int(cls, n: int, precision: int) -> "BigReal":
        return cls(Decimal(n), precision)

    @classmethod
    def parse(cls, text: str, precision: int | None = None) -> "BigReal":
        """Parse decimal text; precision defaults to the digits present."""
        d = Decimal(text.strip())
        if precision is None:
            ndigits = len(d.as_tuple().digits)
            precision = max(ndigits, 1)
        return cls(d, precision)

    # -- conversions --------------------------------------------------------

    def to_fraction(self) -> Fraction:
        """Exact value of the stored (already rounded) decimal."""
        return Fraction(self.value)

    def __str__(self) -> str:
        return render_significant(self.value, self.precision)

    def render(self, digits: int | None = None) -> str:
        return render_significant(self.value, digits or self.precision)

    # -- predicates ---------------------------------------------------------

    @property
    def sign(self) -> int:
        if self.value.is_zero():
            return 0
        return -1 if self.value.is_signed() else 1

    def is_zero(self) -> bool:
        return self.value.is_zero()


# ---------------------------------------------------------------------------
# Pochhammer symbols
# ---------------------------------------------------------------------------


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1.

    With a = p/q in lowest terms, (a)_n = p (p+q) ... (p+(n-1)q) / q^n: one
    integer product and a single normalisation, instead of n ``Fraction``
    products with their gcds.
    """
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(range(p, p + n * q, q)), q**n)


@dataclass(frozen=True)
class PrimePowers:
    """Factorization sign * leftover * prod(p^e) of a positive integer.

    ``exponents`` holds only the primes that actually divide the integer;
    ``leftover`` is what is left once the factor base's primes are divided
    out.
    """

    exponents: tuple[tuple[int, int], ...]
    leftover: int
    sign: int
