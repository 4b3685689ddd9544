"""The integer triangle kernel against the Fraction loops it replaced.

The oracles below are the triple loops that validate_metric, the
ultrametric scan and apply_gauge ran before the kernel. Every outcome must
agree exactly: the same space, or the same error code, message and
witness, or the same UltraWitness.
"""

from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from ultrazero import (
    FiniteMetricSpace,
    Gauge,
    UltrazeroError,
    UltraWitness,
    apply_gauge,
    is_ultrametric,
    validate_metric,
)
from ultrazero.errors import fail
from ultrazero import _linkage
from ultrazero._linkage import _SCALE_BITS, lattice_rows
from ultrazero.metric_core import _SCAN_LIMIT, _witness_by_scan
from ultrazero.rational import rational_str

F = Fraction

# ---------------------------------------------------------------- oracles


def oracle_validate(labels, matrix) -> FiniteMetricSpace:
    """validate_metric's Fraction triangle loop, for a matrix that already
    has a zero diagonal and symmetric positive entries."""
    labs = tuple(labels)
    rows = [tuple(F(v) for v in raw) for raw in matrix]
    n = len(labs)
    for i in range(n):
        for j in range(i + 1, n):
            dij = rows[i][j]
            for k in range(j + 1, n):
                dik, djk = rows[i][k], rows[j][k]
                if dik > dij + djk or dij > dik + djk or djk > dij + dik:
                    raise fail(
                        "TriangleViolation",
                        f"sides {rational_str(dij)}, {rational_str(dik)}, "
                        f"{rational_str(djk)} on ({labs[i]},{labs[j]},{labs[k]})",
                        i, j, k,
                    )
    return FiniteMetricSpace(labs, tuple(rows))


def oracle_scan(space: FiniteMetricSpace) -> UltraWitness:
    dist = space.dist
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            dij = dist[i][j]
            for k in range(j + 1, n):
                a, b, c = sorted((dij, dist[i][k], dist[j][k]))
                if b != c:
                    return UltraWitness(False, (i, j, k), (a, b, c))
    return UltraWitness(True)


def oracle_gauge(space: FiniteMetricSpace, gauge: Gauge) -> FiniteMetricSpace:
    if not gauge.is_nondecreasing():
        raise fail("GaugeNotMonotone", "gauge values decrease between breakpoints")
    n = space.n
    labs = space.labels
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = space.dist[i][j]
            v = gauge.evaluate(t)
            if v <= 0:
                raise fail(
                    "GaugeNotPositive",
                    f"gauge sends {rational_str(t)} to {rational_str(v)} "
                    f"on ({labs[i]},{labs[j]})",
                    i, j,
                )
            rows[i][j] = rows[j][i] = v
    for i in range(n):
        for j in range(i + 1, n):
            gij = rows[i][j]
            for k in range(j + 1, n):
                gik, gjk = rows[i][k], rows[j][k]
                if gik > gij + gjk or gij > gik + gjk or gjk > gij + gik:
                    raise fail(
                        "ResultNotMetric",
                        f"gauged sides {rational_str(gij)}, {rational_str(gik)}, "
                        f"{rational_str(gjk)} on ({labs[i]},{labs[j]},{labs[k]}) "
                        "break the triangle inequality",
                        i, j, k,
                    )
    return FiniteMetricSpace(labs, tuple(tuple(r) for r in rows))


def outcome(fn, *args):
    """The result, or (code, message, witness) of the rejection."""
    try:
        return fn(*args)
    except UltrazeroError as exc:
        return exc.code, str(exc), exc.witness


# ------------------------------------------------------------- matrices

# small and coprime-prime denominators, so the common scale runs to many bits
DENOMS = (1, 2, 3, 4, 6, 53, 59, 61, 67, 389, 397)


def labels(n):
    return tuple(f"p{i}" for i in range(n))


def value(rng, lo, hi) -> Fraction:
    q = rng.choice(DENOMS)
    return F(rng.randint(lo * q, hi * q), q)


def symmetric(n, entry) -> list[list[Fraction]]:
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = entry(i, j)
    return rows


def band(rng, n):
    """Values in [1, 2]: every triangle holds, few are ultrametric."""
    return symmetric(n, lambda i, j: value(rng, 1, 2))


def loose(rng, n):
    """Values in [1, 6]: some triangle usually fails."""
    return symmetric(n, lambda i, j: value(rng, 1, 6))


def line(rng, n, p=None):
    """Points on a line in index order. With p, d(p, p+2) grows, which
    breaks exactly one triangle: (p, p+1, p+2)."""
    xs = list(accumulate(value(rng, 1, 3) for _ in range(n)))
    rows = symmetric(n, lambda i, j: xs[j] - xs[i])
    if p is not None:
        rows[p][p + 2] = rows[p + 2][p] = rows[p][p + 2] + F(1, rng.choice(DENOMS[1:]))
    return rows


def chain(rng, n, p=None):
    """Ultrametric d(i, j) = h[min(i, j)] for falling heights h. With p,
    d(p, n-1) drops below h[p], which breaks only triangles on p, n-1 and a
    third point after p; the first is (p, p+1, n-1)."""
    hs = sorted((value(rng, 1, 9) for _ in range(n)), reverse=True)
    hs = [h + (n - i) for i, h in enumerate(hs)]  # strictly falling
    rows = symmetric(n, lambda i, j: hs[i])
    if p is not None:
        rows[p][n - 1] = rows[n - 1][p] = hs[p] - F(1, 2)
    return rows


def perturbed_ultra(rng, n):
    rows = [list(r) for r in gen.random_ultrametric(rng, n).dist]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rows[i][j] * value(rng, 1, 2)
    return rows


def planted(family):
    return lambda rng, n: family(rng, n, rng.randrange(n - 2) if n >= 3 else None)


FAMILIES = {
    "band": band,
    "loose": loose,
    "line": line,
    "planted_line": planted(line),
    "chain": chain,
    "planted_chain": planted(chain),
    "ultra": lambda rng, n: [list(r) for r in gen.random_ultrametric(rng, n).dist],
    "perturbed_ultra": perturbed_ultra,
}


METRIC_FAMILIES = ("band", "line", "ultra")


@st.composite
def matrices(draw, families=tuple(FAMILIES)):
    n = draw(st.integers(1, 45))
    family = draw(st.sampled_from(sorted(families)))
    rng = draw(st.randoms(use_true_random=False))
    return FAMILIES[family](rng, n)


def as_space(rows) -> FiniteMetricSpace:
    return FiniteMetricSpace(labels(len(rows)), tuple(map(tuple, rows)))


def scan(space: FiniteMetricSpace) -> UltraWitness:
    """_witness_by_scan on the matrix's lattice scale, which on a symmetric
    matrix is the one is_ultrametric takes from its tree."""
    return _witness_by_scan(space, _linkage.lattice_scale(v for row in space.dist for v in row))


# ---------------------------------------------------------------- tests


def test_int_rows_scale_over_the_lcm():
    assert lattice_rows([[F(0), F(1, 2)], [F(1, 3), F(0)]]) == [[0, 3], [2, 0]]
    assert lattice_rows([[F(0), F(5)], [F(5), F(0)]]) == [[0, 5], [5, 0]]


def test_int_rows_keep_fractions_past_the_scale_bound():
    at = F(1, 2 ** (_SCALE_BITS - 1))  # LCM of _SCALE_BITS bits
    assert lattice_rows([[F(0), at], [at, F(0)]]) == [[0, 1], [1, 0]]
    past = [[F(0), at / 2], [at / 2, F(0)]]
    assert lattice_rows(past) is past


def coprime_band(n, p=None):
    """gen.coprime_metric's rows, whose LCM has thousands of bits; with p,
    d(p, p+2) = 3 breaks triangles."""
    rows = [list(r) for r in gen.coprime_metric(n).dist]
    if p is not None:
        rows[p][p + 2] = rows[p + 2][p] = F(3)
    return rows


@pytest.mark.parametrize("p", [None, 0, 18])
def test_many_coprime_denominators(p):
    rows = coprime_band(_SCAN_LIMIT, p)
    assert lattice_rows(rows) is rows
    labs = labels(len(rows))
    got = outcome(validate_metric, labs, rows)
    assert got == outcome(oracle_validate, labs, rows)
    assert isinstance(got, FiniteMetricSpace) == (p is None)
    space = as_space(rows)
    assert scan(space) == oracle_scan(space)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fraction_scan_matches_oracles(data):
    rows = data.draw(matrices())
    labs, space = labels(len(rows)), as_space(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_linkage, "_SCALE_BITS", 0)  # every matrix stays in Fractions
        got = outcome(validate_metric, labs, rows)
        assert got == outcome(oracle_validate, labs, rows)
        assert_ultrametric_matches_oracle(space)
        if isinstance(got, FiniteMetricSpace):
            gauge = data.draw(gauges(got))
            assert outcome(apply_gauge, got, gauge) == outcome(oracle_gauge, got, gauge)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_validate_matches_oracle(rows):
    labs = labels(len(rows))
    assert outcome(validate_metric, labs, rows) == outcome(oracle_validate, labs, rows)


def assert_ultrametric_matches_oracle(space):
    """The scan gives oracle_scan's witness; is_ultrametric gives it too up
    to _SCAN_LIMIT points, and the same verdict above."""
    want = oracle_scan(space)
    assert scan(space) == want
    if space.n <= _SCAN_LIMIT:
        assert is_ultrametric(space) == want
    else:
        assert is_ultrametric(space).verdict == want.verdict


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_scan_matches_oracle(rows):
    assert_ultrametric_matches_oracle(as_space(rows))


@st.composite
def gauges(draw, space):
    rng = draw(st.randoms(use_true_random=False))
    scales = space.distinct_distances() or (F(1),)
    kind = draw(st.sampled_from(("stretch", "random", "scaling")))
    if kind == "stretch" and len(scales) >= 2:
        b, c = sorted(rng.sample(scales, 2))
        return Gauge.stretch(b, c)
    if kind == "random":
        ts = sorted({rng.choice(scales) * value(rng, 1, 2) for _ in range(3)})
        vs = [value(rng, 0, 6) for _ in ts]  # may fall, or start at 0
        return Gauge.from_points(zip(ts, vs))
    return Gauge.scaling(value(rng, 1, 3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauge_matches_oracle(data):
    rows = data.draw(matrices(families=METRIC_FAMILIES))
    space = validate_metric(labels(len(rows)), rows)
    gauge = data.draw(gauges(space))
    assert outcome(apply_gauge, space, gauge) == outcome(oracle_gauge, space, gauge)


# first, middle and last possible position p of a planted triple
WHERE = {"early": lambda n: 0, "middle": lambda n: (n - 3) // 2, "late": lambda n: n - 3}
SIZES = [3, 4, _SCAN_LIMIT, 45]


@pytest.mark.parametrize("where", sorted(WHERE))
@pytest.mark.parametrize("n", SIZES)
def test_planted_triangle_violation(where, n, make_rng):
    rng = make_rng(901)
    p = WHERE[where](n)
    rows, labs = line(rng, n, p), labels(n)
    got = outcome(validate_metric, labs, rows)
    assert got == outcome(oracle_validate, labs, rows)
    assert got[0] == "TriangleViolation" and got[2] == (p, p + 1, p + 2)
    rows = line(rng, n)
    assert validate_metric(labs, rows) == oracle_validate(labs, rows)


@pytest.mark.parametrize("where", sorted(WHERE))
@pytest.mark.parametrize("n", SIZES)
def test_planted_ultrametric_violation(where, n, make_rng):
    rng = make_rng(902)
    p = WHERE[where](n)
    space = as_space(chain(rng, n, p))
    got = scan(space)
    assert got == oracle_scan(space)
    assert got.triangle == (p, p + 1, n - 1)
    assert scan(as_space(chain(rng, n))) == UltraWitness(True)


def gauge_trap(rng, n, p):
    """A metric whose only side of length 2 closes the triangle
    (p, p+1, p+2) with two sides of length 1; every other distance lies in
    [17/10, 19/10], so a gauge fixing [0, 19/10] and sending 2 to 3 breaks
    exactly that triangle."""
    near = {(p, p + 1), (p + 1, p + 2)}

    def entry(i, j):
        if (i, j) == (p, p + 2):
            return F(2)
        return F(1) if (i, j) in near else F(17, 10) + value(rng, 0, 1) / 5

    return symmetric(n, entry)


@pytest.mark.parametrize("where", sorted(WHERE))
@pytest.mark.parametrize("n", SIZES)
def test_planted_gauge_violation(where, n, make_rng):
    rng = make_rng(903)
    p = WHERE[where](n)
    space = validate_metric(labels(n), gauge_trap(rng, n, p))
    gauge = Gauge.from_points([(F(19, 10), F(19, 10)), (2, 3)])
    got = outcome(apply_gauge, space, gauge)
    assert got == outcome(oracle_gauge, space, gauge)
    assert got[0] == "ResultNotMetric" and got[2] == (p, p + 1, p + 2)
    assert apply_gauge(space, Gauge.identity()) == oracle_gauge(space, Gauge.identity())
