"""Exact rational plumbing.

Distances are `fractions.Fraction` everywhere. This module only adds the
interchange conventions: "p/q" strings, base-3 exponent search used by
the power-of-three rounding and the symbol-sequence metric, and ratio_window.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import fail


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to Fraction.

    Floats are rejected: their exact binary value is almost never the
    number that was written down, and this toolkit promises exactness.
    """
    if isinstance(value, bool):
        raise fail("MalformedInput", f"boolean is not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise fail("MalformedInput", f"float distances are not exact: {value!r}")
    raise fail("MalformedInput", f"cannot read a rational from {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with integer p, q and q > 0."""
    body = text.strip()
    num, sep, den = body.partition("/")
    try:
        p = int(num)
        q = int(den) if sep else 1
    except ValueError:
        raise fail("MalformedInput", f"not a rational literal: {text!r}") from None
    if q <= 0:
        # covers the non-canonical denominator 0 and negative denominators
        raise fail("MalformedInput", f"denominator must be positive: {text!r}")
    return Fraction(p, q)


def rational_str(q: Fraction) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def ceil_exponent_base3(q: Fraction) -> int:
    """Smallest integer n with q <= 3**n, for q > 0."""
    if q <= 0:
        raise fail("BadParameters", f"need a positive value, got {q}")
    n = 0
    power = Fraction(1)
    if q <= 1:
        while q <= power / 3:
            power /= 3
            n -= 1
    else:
        while q > power:
            power *= 3
            n += 1
    return n


def exact_power_of_three(q: Fraction) -> int | None:
    """Return e with q == 3**e, or None when q is not a power of three."""
    if q <= 0:
        return None
    e = ceil_exponent_base3(q)
    return e if q == Fraction(3) ** e else None


def ratio_window(pairs) -> tuple[Fraction, Fraction] | None:
    """Smallest and largest a/b over pairs (a, b) of ints or Fractions with
    b > 0, as (lo, hi); None when there are no pairs. Each ratio stays the
    ints a.numerator * b.denominator over a.denominator * b.numerator, and
    ratios are compared by cross-multiplying, so only the two extremes
    become Fractions and lattice ints need no conversion."""
    lo = hi = None
    for a, b in pairs:
        p, q = a.numerator * b.denominator, a.denominator * b.numerator
        if lo is None or p * lo[1] < lo[0] * q:
            lo = p, q
        if hi is None or p * hi[1] > hi[0] * q:
            hi = p, q
    return None if lo is None else (Fraction(*lo), Fraction(*hi))
