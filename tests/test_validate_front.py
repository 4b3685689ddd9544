"""validate_metric's front end against the per-entry loops it replaced.

The front end parses each distinct entry once and checks symmetry and
positivity a row at a time on the integer lattice. The oracle below is the
per-entry as_fraction and per-pair Fraction loop that ran before; the two
must agree on the space, or on the error code, message and witness, for
every input, including entries that as_fraction rejects.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_kernel import FAMILIES, labels, oracle_validate, outcome
from ultrazero import _linkage, validate_metric
from ultrazero.errors import fail
from ultrazero.rational import as_fraction, rational_str

F = Fraction


def oracle_front(labs, matrix):
    """validate_metric before the memo and the row checks."""
    labs = tuple(labs)
    n = len(labs)
    if n == 0:
        raise fail("MalformedInput", "need at least one point")
    if len(matrix) != n:
        raise fail("MalformedInput", f"need {n} rows, got {len(matrix)}")
    rows = []
    for i, raw in enumerate(matrix):
        if len(raw) != n:
            raise fail("MalformedInput", f"row {i} has {len(raw)} entries, need {n}")
        rows.append(tuple(as_fraction(v) for v in raw))
    for i in range(n):
        if rows[i][i] != 0:
            raise fail("NonZeroDiagonal", f"d({labs[i]},{labs[i]}) = {rows[i][i]}", i)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise fail(
                    "NonSymmetric",
                    f"d({labs[i]},{labs[j]}) = {rows[i][j]} but reversed gives {rows[j][i]}",
                    i, j,
                )
            if rows[i][j] <= 0:
                raise fail(
                    "NegativeOrZeroOffDiagonal",
                    f"d({labs[i]},{labs[j]}) = {rows[i][j]}",
                    i, j,
                )
    return oracle_validate(labs, rows)


# entries that as_fraction rejects; True and 1.0 sit next to a real 1
REJECTED = (True, False, 1.0, 0.5, "1/0", "x", None, [1], {"a": 1})


def spell(rng, v: Fraction):
    """One of the accepted spellings of v: int, "p/q", an unreduced
    "2p/2q", or the Fraction itself."""
    choices = [v, rational_str(v), f"{2 * v.numerator}/{2 * v.denominator}"]
    if v.denominator == 1:
        choices += [int(v), int(v)]
    return rng.choice(choices)


def plant(rng, rows, kind):
    n = len(rows)
    i, j = sorted(rng.sample(range(n), 2))
    if rng.random() < 0.5:
        i, j = j, i  # the lower triangle too
    if kind == "asymmetric":
        rows[i][j] += F(1, rng.choice((1, 3, 7)))
    elif kind == "zero":
        rows[i][j] = rows[j][i] = F(0)
    elif kind == "negative":
        rows[i][j] = rows[j][i] = -rows[i][j]
    elif kind == "half-zero":
        rows[i][j] = F(0)
    elif kind == "diagonal":
        rows[i][i] = F(rng.choice((-1, 1)), rng.choice((1, 2)))
    elif kind == "rejected":
        rows[i][j] = rng.choice(REJECTED)


KINDS = ("asymmetric", "zero", "negative", "half-zero", "diagonal", "rejected")


@st.composite
def inputs(draw):
    n = draw(st.integers(2, 30))
    family = draw(st.sampled_from(("band", "line", "ultra", "loose")))
    rng = draw(st.randoms(use_true_random=False))
    rows = [list(r) for r in FAMILIES[family](rng, n)]
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=3))
    for kind in sorted(kinds, key=lambda kind: kind == "rejected"):  # no sums on those
        plant(rng, rows, kind)
    return [[v if not isinstance(v, Fraction) else spell(rng, v) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(inputs())
def test_front_end_matches_the_pair_loop(matrix):
    labs = labels(len(matrix))
    assert outcome(validate_metric, labs, matrix) == outcome(oracle_front, labs, matrix)


@settings(max_examples=40, deadline=None)
@given(inputs())
def test_front_end_matches_the_pair_loop_on_fractions(matrix):
    labs = labels(len(matrix))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_linkage, "_SCALE_BITS", 0)  # the row checks compare Fractions
        assert outcome(validate_metric, labs, matrix) == outcome(oracle_front, labs, matrix)


@pytest.mark.parametrize("bad", REJECTED)
def test_rejected_entries_never_borrow_a_parsed_value(bad):
    """1 is parsed before bad appears, and bad still fails as it did."""
    matrix = [[0, 1, 1], [1, 0, bad], [1, bad, 0]]
    got = outcome(validate_metric, "abc", matrix)
    assert got == outcome(oracle_front, "abc", matrix)
    assert got[0] == "MalformedInput"


def test_mixed_spellings_of_one_value():
    matrix = [[0, 1, "1/2"], ["1", 0, "2/4"], [F(1, 2), "1/2", 0]]
    space = validate_metric("abc", matrix)
    assert space == oracle_front("abc", matrix)
    assert space.dist == ((0, 1, F(1, 2)), (1, 0, F(1, 2)), (F(1, 2), F(1, 2), 0))


@pytest.mark.parametrize("matrix, code, witness", [
    ([[0, 1, 0], [2, 0, 1], [0, 1, 0]], "NonSymmetric", (0, 1)),  # before the zero at (0, 2)
    ([[0, 0, 1], [1, 0, 1], [1, 1, 0]], "NonSymmetric", (0, 1)),  # both faults on one pair
    ([[0, 0, 2], [0, 0, 1], [1, 1, 0]], "NegativeOrZeroOffDiagonal", (0, 1)),
    ([[0, 1, 1], [1, 0, -1], [1, -1, 0]], "NegativeOrZeroOffDiagonal", (1, 2)),
    ([[0, 1, 2], [3, 0, 1], [2, 1, 5]], "NonZeroDiagonal", (2,)),
])
def test_first_failing_pair_wins(matrix, code, witness):
    got = outcome(validate_metric, "abc", matrix)
    assert got == outcome(oracle_front, "abc", matrix)
    assert (got[0], got[2]) == (code, witness)
