"""Exact rational parsing and base-three helpers."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultrazero import (
    UltrazeroError,
    as_fraction,
    ceil_exponent_base3,
    exact_power_of_three,
    parse_rational,
    rational_str,
)
from ultrazero.rational import ratio_window

F = Fraction


def err(code):
    return pytest.raises(UltrazeroError, match=rf"^{code}:")


def test_as_fraction_accepts_exact_types():
    assert as_fraction(7) == 7
    assert as_fraction(F(2, 3)) == F(2, 3)
    assert as_fraction("5/4") == F(5, 4)


def test_as_fraction_rejects_floats_and_bools():
    with err("MalformedInput"):
        as_fraction(0.5)
    with err("MalformedInput"):
        as_fraction(True)


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == F(-7, 2)
    with err("MalformedInput"):
        parse_rational("1/0")
    with err("MalformedInput"):
        parse_rational("2.5")
    with err("MalformedInput"):
        parse_rational("")


def test_rational_str_round_trips():
    for q in (F(0), F(5), F(-3, 7), F(22, 6)):
        assert parse_rational(rational_str(q)) == q
    assert rational_str(F(4, 2)) == "2"
    assert rational_str(F(1, 3)) == "1/3"


def test_rational_str_formats_without_rebuilding_a_fraction():
    # ints and Fractions are formatted directly; anything else still goes
    # through Fraction(), so it is read or refused exactly as before
    for value in (7, -12, 0, True, F(6, 4), F(-5), 2.5, "3/9", " 4 "):
        q = F(value)
        assert rational_str(value) == (str(q.numerator) if q.denominator == 1
                                       else f"{q.numerator}/{q.denominator}")
    for bad in (None, [1], "x", float("nan")):
        with pytest.raises((TypeError, ValueError)) as got:
            rational_str(bad)
        with pytest.raises(type(got.value), match=re.escape(str(got.value))):
            F(bad)


def test_ceil_exponent_base3():
    assert ceil_exponent_base3(F(1)) == 0
    assert ceil_exponent_base3(F(2)) == 1
    assert ceil_exponent_base3(F(3)) == 1
    assert ceil_exponent_base3(F(4)) == 2
    assert ceil_exponent_base3(F(1, 5)) == -1
    assert ceil_exponent_base3(F(1, 9)) == -2
    with err("BadParameters"):
        ceil_exponent_base3(F(0))


def test_ceil_exponent_window(make_rng):
    # smallest n with q <= 3**n, so 3**(n-1) < q <= 3**n
    rng = make_rng(601)
    for _ in range(60):
        q = F(rng.randint(1, 500), rng.randint(1, 500))
        n = ceil_exponent_base3(q)
        assert F(3) ** (n - 1) < q <= F(3) ** n


def test_ceil_exponent_at_powers_of_three():
    tiny = F(1, 10**40)  # below the gap between 3**-40 and its neighbours
    for e in range(-40, 41):
        p = F(3) ** e
        assert ceil_exponent_base3(p) == e
        assert ceil_exponent_base3(p - tiny) == e
        assert ceil_exponent_base3(p + tiny) == e + 1


def test_exact_power_of_three():
    assert exact_power_of_three(F(1)) == 0
    assert exact_power_of_three(F(27)) == 3
    assert exact_power_of_three(F(1, 3)) == -1
    assert exact_power_of_three(F(2)) is None
    assert exact_power_of_three(F(6)) is None
    assert exact_power_of_three(F(0)) is None
    assert exact_power_of_three(F(3, 2)) is None


_HUGE = 2**1200  # lattice-sized ints and Fractions, past 1,100 bits


def _rationals(lo):
    """Small ints (for ties, and 0 when lo <= 0), huge ints and Fractions, all >= lo."""
    return st.one_of(
        st.integers(lo, 4),
        st.integers(lo, _HUGE),
        st.builds(F, st.integers(lo, 4), st.integers(1, 4)),
        st.builds(F, st.integers(lo, _HUGE), st.integers(1, _HUGE)),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_rationals(-4), _rationals(1)), max_size=6))
@example([(1, 2), (3, 1)])  # the largest ratio comes last
@example([(1, 1), (2**1100 + 1, 3), (F(1, 2**1100 + 1), 1)])  # so does the smallest
def test_ratio_window_matches_fraction_min_max(pairs):
    ratios = [F(a) / b for a, b in pairs]
    got = ratio_window(iter(pairs))
    assert got == ((min(ratios), max(ratios)) if ratios else None)
    assert got is None or all(type(r) is F for r in got)


def test_ratio_window_edge_cases():
    assert ratio_window([]) is None
    assert ratio_window([(3, 6)]) == (F(1, 2), F(1, 2))
    assert ratio_window([(0, 5), (0, F(1, 3))]) == (0, 0)
    assert ratio_window([(2, 4), (F(1, 2), 1), (1, 2)]) == (F(1, 2), F(1, 2))
