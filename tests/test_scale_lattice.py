"""The scale layer on the integer lattice against the Fraction code it replaced.

The oracles below are the Prim loop and the pair-by-pair bounds audit as
they ran on Fractions. Every outcome must agree exactly: the same spanning
edges in the same order, and the same BoundsReport, violations included.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import chain

import pytest

import gen
from ultrazero import (
    BoundsReport,
    BoundViolation,
    Dim0Certificate,
    FiniteMetricSpace,
    SubdominantResult,
    UltrazeroError,
    dim0_certificate,
    subdominant_ultrametric,
    validate_metric,
    verify_scale_bounds,
)
from ultrazero import _linkage

F = Fraction

# ---------------------------------------------------------------- oracles


def oracle_prim(dist):
    n = len(dist)
    if n <= 1:
        return []
    in_tree = [False] * n
    best = list(dist[0])
    best_from = [0] * n
    in_tree[0] = True
    edges = []
    for _ in range(n - 1):
        v = -1
        for u in range(n):
            if not in_tree[u] and (v == -1 or best[u] < best[v]):
                v = u
        edges.append((best[v], best_from[v], v))
        in_tree[v] = True
        row = dist[v]
        for u in range(n):
            if not in_tree[u] and row[u] < best[u]:
                best[u] = row[u]
                best_from[u] = v
    return edges


def oracle_control_inverse(cert, t):
    ds = [d for _, d in cert.table]
    pos = bisect_left(ds, t)
    if pos == len(ds):
        return None
    return cert.table[pos][0]


def oracle_bounds(space, sub, cert) -> BoundsReport:
    two_m = 2 * cert.m
    violations = []
    for i, j in space.pairs():
        d = space.dist[i][j]
        r = sub.rho.dist[i][j]
        pair = (space.labels[i], space.labels[j])
        lower_nagata = d / two_m
        if not lower_nagata <= r <= d:
            violations.append(BoundViolation(pair, lower_nagata, r, d))
        sinv = oracle_control_inverse(cert, d)
        assert sinv is not None
        lower_uniform = sinv / 2
        if not lower_uniform <= r <= d:
            violations.append(BoundViolation(pair, lower_uniform, r, d))
    return BoundsReport(not violations, tuple(violations))


# ----------------------------------------------------------------- inputs


def spaces(rng):
    """Random metrics, tie-heavy and power-of-three ultrametrics, spaces
    with all distances distinct, and coprime denominators below and past
    the lattice's bit bound."""
    for _ in range(6):
        n = rng.randint(2, 24)
        yield gen.random_metric(rng, n)
        yield gen.random_ultrametric(rng, n)
        yield gen.random_3power_ultrametric(rng, n)
        yield gen.all_distinct_metric(rng, n)
    yield gen.random_metric(rng, 60)
    yield gen.coprime_metric(8)
    yield gen.coprime_metric(40)


def with_rho(sub, i, j, value):
    rows = [list(r) for r in sub.rho.dist]
    rows[i][j] = rows[j][i] = value
    rho = FiniteMetricSpace(sub.rho.labels, tuple(map(tuple, rows)))
    return SubdominantResult(rho, sub.spanning_edges)


def audits(rng, space):
    """(sub, cert) pairs to audit on space: the true ones, a certificate
    with a smaller m, and a chain-infimum result with one entry pushed
    above d, below Sinv/2, or onto either lower bound."""
    sub, cert = subdominant_ultrametric(space), dim0_certificate(space)
    yield sub, cert
    if space.n < 2:
        return
    yield sub, Dim0Certificate(cert.m / rng.choice((2, 3, 5)), cert.table)
    yield sub, Dim0Certificate(F(1), cert.table)
    i, j = sorted(rng.sample(range(space.n), 2))
    d = space.d(i, j)
    half_sinv = cert.control_inverse(d) / 2
    for r in (d + F(1, 7), half_sinv - F(1, 11), half_sinv, d / (2 * cert.m)):
        yield with_rho(sub, i, j, r), cert


@pytest.fixture(params=["lattice", "fractions"])
def path(request, monkeypatch):
    """Run each test on the int lattice, and again with every value left a
    Fraction (no lattice scale fits in 0 bits)."""
    if request.param == "fractions":
        monkeypatch.setattr(_linkage, "_SCALE_BITS", 0)
    return request.param


# ------------------------------------------------------------------ tests


def test_prim_matches_oracle(path, make_rng):
    rng = make_rng(1301)
    for space in spaces(rng):
        got = _linkage.prim_mst(space.dist, _linkage.lattice_scale(chain.from_iterable(space.dist)))
        assert got == oracle_prim(space.dist)
        assert all(type(w) is Fraction for w, _, _ in got)


def test_prim_breaks_ties_by_index():
    # all distances equal: every vertex joins from 0, in index order
    space = validate_metric("abcde", [[0 if i == j else 2 for j in range(5)] for i in range(5)])
    assert _linkage.prim_mst(space.dist, 1) == [(2, 0, v) for v in range(1, 5)]


def test_bounds_match_oracle(path, make_rng):
    rng = make_rng(1303)
    failing = 0
    for space in spaces(rng):
        for sub, cert in audits(rng, space):
            got = verify_scale_bounds(space, sub, cert)
            assert got == oracle_bounds(space, sub, cert)
            failing += not got.passed
    assert failing >= 30  # the forged inputs do produce violations


def test_bounds_report_both_sides_of_a_pushed_entry():
    space = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    sub, cert = subdominant_ultrametric(space), dim0_certificate(space)
    report = verify_scale_bounds(space, with_rho(sub, 0, 2, F(3)), cert)
    assert report == BoundsReport(False, (
        BoundViolation(("a", "c"), F(1, 2), F(3), F(2)),
        BoundViolation(("a", "c"), F(1, 2), F(3), F(2)),
    ))


def test_bounds_reject_forged_certificates():
    space = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    sub, cert = subdominant_ultrametric(space), dim0_certificate(space)
    no_sinv = ((F(1), F(1)), (F(2), F(1)))  # no D reaches the scale 2
    for forged in (Dim0Certificate(F(0), cert.table), Dim0Certificate(F(-1), cert.table),
                   Dim0Certificate(cert.m, no_sinv)):
        with pytest.raises(UltrazeroError, match="^InputMismatch:"):
            verify_scale_bounds(space, sub, forged)
