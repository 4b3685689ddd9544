"""Scale decomposition of finite metric spaces.

S-component partitions, the chain-infimum ultrametric (the largest
ultrametric below the metric, realized along minimum-spanning-tree paths),
an exhaustive chain oracle for cross-checks, dimension-zero certificates
(the scale table S -> D(S) and the expansion constant m), and the
two-sided comparison bounds those certificates guarantee.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import _linkage
from .errors import fail
from .metric_core import FiniteMetricSpace
from .rational import as_fraction, ratio_window

_ORACLE_ENV = "ULTRAZERO_ORACLE_LIMIT"
_ORACLE_DEFAULT = 8


@dataclass(frozen=True)
class Partition:
    """Blocks of points chained together by steps of length <= scale."""

    scale: Fraction
    blocks: tuple[tuple[int, ...], ...]

    def block_of(self, i: int) -> tuple[int, ...]:
        if type(i) is int:  # a partition holds no space, so only the type is checked
            for block in self.blocks:
                if i in block:
                    return block
        raise fail("MalformedInput", f"index {i} not covered by the partition")


@dataclass(frozen=True)
class SubdominantResult:
    """The chain-infimum ultrametric plus the spanning edges realizing it."""

    rho: FiniteMetricSpace
    spanning_edges: tuple[tuple[Fraction, int, int], ...]


@dataclass(frozen=True)
class Dim0Certificate:
    """Scale table and expansion constant.

    ``table`` lists (S, D(S)) over every distinct positive distance S,
    where D(S) is the largest diameter of an S-component; scales strictly
    increase and D is nondecreasing. ``m`` is the maximum of D(S)/S and
    equals 1 exactly on ultrametric inputs (and on spaces with < 2 points,
    where the table is empty).

    On two or more points m is also C, the largest d(x, y)/rho(x, y) over
    pairs x != y, with rho the chain-infimum ultrametric. m <= C: every
    pair in an S-component has rho <= S, so d <= C rho <= C S and
    D(S) <= C S. m >= C: let (x, y) have the largest ratio and
    S = rho(x, y); S is a spanning-tree weight, so a tabulated scale, and x
    and y share an S-component, so D(S) >= d(x, y) = C S. So m is the best
    constant for extending maps into {-1, 1}: given such a map on a subset
    A with both signs, the best extension keeps opposite signs exactly
    delta = min rho apart over A's opposite-sign pairs, and the ratio of
    its Lipschitz constant to the given one, min d / delta over those
    pairs, is at most C, with equality when A is a largest-ratio pair.
    """

    m: Fraction
    table: tuple[tuple[Fraction, Fraction], ...]

    def control(self, scale) -> Fraction:
        """D at a realized scale; exact lookup."""
        s = as_fraction(scale)
        for t, d in self.table:
            if t == s:
                return d
        raise fail("MalformedInput", f"scale {s} is not in the table")

    def control_inverse(self, t) -> Fraction | None:
        """Smallest tabulated S with D(S) >= t, None when t exceeds all D."""
        t = as_fraction(t)
        ds = [d for _, d in self.table]
        pos = bisect_left(ds, t)
        if pos == len(ds):
            return None
        return self.table[pos][0]


@dataclass(frozen=True)
class BoundViolation:
    pair: tuple[str, str]
    lhs: Fraction
    mid: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class BoundsReport:
    passed: bool
    violations: tuple[BoundViolation, ...]


def s_components(space: FiniteMetricSpace, scale) -> Partition:
    """Partition into chain components with steps of length <= scale."""
    s = as_fraction(scale)
    if s < 0:
        raise fail("BadParameters", f"scale must be nonnegative, got {s}")
    n = space.n
    ds = _linkage.DisjointSet(n)
    # a chain of steps <= s between two points has a minimax path of
    # edges <= s inside the spanning tree, so cutting the tree suffices
    for w, i, j in _linkage.spanning_tree(space.dist)[1]:
        if w > s:
            break
        ds.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(ds.find(i), []).append(i)
    # filled in index order: blocks come sorted, and in order of their first point
    return Partition(s, tuple(map(tuple, groups.values())))


def subdominant_ultrametric(space: FiniteMetricSpace) -> SubdominantResult:
    """Largest ultrametric pointwise below the metric.

    For each pair this is the minimum over chains of the largest link, and
    a minimum spanning tree realizes every value at once.
    """
    return _subdominant(space, _linkage.spanning_tree(space.dist)[1])


def _subdominant(space: FiniteMetricSpace, edges) -> SubdominantResult:
    rho_rows = _linkage.bottleneck_matrix(space.n, edges)
    rho = FiniteMetricSpace(space.labels, tuple(map(tuple, rho_rows)))
    return SubdominantResult(rho, tuple(edges))


def _oracle_limit() -> int:
    raw = os.environ.get(_ORACLE_ENV)
    if raw is None:
        return _ORACLE_DEFAULT
    try:
        value = int(raw)
    except ValueError:
        raise fail("BadParameters", f"{_ORACLE_ENV} must be an integer, got {raw!r}") from None
    if value < 2:
        raise fail("BadParameters", f"{_ORACLE_ENV} must be at least 2")
    return value


def chain_minimax_oracle(space: FiniteMetricSpace, x: int, z: int) -> Fraction:
    """Exact minimum over all simple chains of the largest link, by brute force.

    Exists to cross-check subdominant_ultrametric, so it walks every simple
    chain from x depth first instead of being clever: each chain is closed
    to z, and extended by every point it has not visited. A prefix is
    walked once for all the chains that share it, and dropped once its
    largest link reaches the best chain so far, which no extension can
    then beat. Spaces larger than ULTRAZERO_ORACLE_LIMIT points (default 8)
    are refused.
    """
    limit = _oracle_limit()
    if space.n > limit:
        raise fail(
            "OracleSizeExceeded",
            f"{space.n} points exceeds the oracle limit {limit}",
            space.n, limit,
        )
    space.point(x)
    space.point(z)
    if x == z:
        return Fraction(0)
    dist = space.dist
    best = dist[x][z]

    def walk(u: int, top: Fraction, rest: frozenset[int]) -> None:
        nonlocal best
        best = min(best, max(top, dist[u][z]))
        for p in rest:
            link = max(top, dist[u][p])
            if link < best:
                walk(p, link, rest - {p})

    walk(x, Fraction(0), frozenset(range(space.n)) - {x, z})
    return best


def dim0_certificate(space: FiniteMetricSpace) -> Dim0Certificate:
    """Tabulate the largest S-component diameter at every realized scale."""
    return _certificate(space, *_linkage.spanning_tree(space.dist))


def _certificate(space: FiniteMetricSpace, scale, edges, heights) -> Dim0Certificate:
    """dim0_certificate from the space's spanning_tree: scale, edges, heights.

    Components only change at tree merges, and each pair of points crosses
    exactly one merge. So one sweep, on the lattice, collects every
    distance and the largest one across each merge, in O(n^2) overall;
    the table then reports the space's own entries for the lattice values.
    """
    n = space.n
    if n < 2:
        return Dim0Certificate(Fraction(1), ())
    dist = space.dist
    entry = {}  # lattice value -> the space's entry
    tops = []  # largest distance across each merge, in order of height
    for _, side_a, side_b in _linkage.merges(n, edges):
        if len(side_a) > len(side_b):
            side_a, side_b = side_b, side_a
        top = 0
        for a in side_a:
            values = list(map(dist[a].__getitem__, side_b))
            ints = _linkage.lattice(values, scale)
            entry.update(zip(ints, values))
            top = max(top, *ints)
        tops.append(top)
    reach = list(itertools.accumulate(tops, max))  # D at each merge height
    scales = sorted(entry)
    ds = [reach[bisect_right(heights, s) - 1] for s in scales]
    table = tuple((entry[s], entry[d]) for s, d in zip(scales, ds))
    return Dim0Certificate(ratio_window(zip(ds, scales))[1], table)


def certify(space: FiniteMetricSpace) -> tuple[SubdominantResult, Dim0Certificate]:
    """subdominant_ultrametric(space) and dim0_certificate(space), read off
    one spanning tree."""
    scale, edges, heights = _linkage.spanning_tree(space.dist)
    return _subdominant(space, edges), _certificate(space, scale, edges, heights)


def verify_scale_bounds(
    space: FiniteMetricSpace,
    sub: SubdominantResult,
    cert: Dim0Certificate,
) -> BoundsReport:
    """Audit the two-sided comparison bounds pair by pair.

    Checks, for every pair with distance d and chain-infimum value r:
    d/(2m) <= r <= d, and Sinv/2 <= r where Sinv is the smallest tabulated
    scale whose component diameter reaches d. Inputs must have been
    computed from the given space: labels and scales are checked, m must be
    positive and every scale must have a Sinv, as in every certificate.

    Runs in O(n^2): Sinv is looked up once per tabulated scale, and the
    bounds are compared on the integer lattice of d and r as r <= d,
    d * den(2m) <= r * num(2m) and Sinv <= 2r.
    """
    if sub.rho.labels != space.labels:
        raise fail("InputMismatch", "chain-infimum result belongs to a different space")
    dist, rho = space.dist, sub.rho.dist
    # the table's scales and diameters may come from elsewhere: lattice them too
    scale = _linkage.lattice_scale(itertools.chain(*dist, *rho, *cert.table))
    tails = [_linkage.lattice(row[i + 1:], scale) for i, row in enumerate(dist)]
    scales = _linkage.lattice((s for s, _ in cert.table), scale)
    if scales != sorted(set(itertools.chain(*tails))):
        raise fail("InputMismatch", "certificate table does not match the space's scales")
    if cert.m <= 0:
        raise fail("InputMismatch", f"certificate constant m = {cert.m} is not positive")
    # Sinv per tabulated scale: control_inverse's bisect, on the lattice;
    # kept as its lattice value and as the Fraction a violation reports
    diameters = _linkage.lattice((dm for _, dm in cert.table), scale)
    sinv_at = {}
    for s, (t, _) in zip(scales, cert.table):
        pos = bisect_left(diameters, s)
        if pos == len(scales):  # t is realized, so D(t) >= t in a true table
            raise fail("InputMismatch", f"no tabulated diameter reaches the scale {t}")
        sinv_at[s] = (scales[pos], cert.table[pos][0])
    two_m = 2 * cert.m
    num, den = two_m.numerator, two_m.denominator
    violations: list[BoundViolation] = []
    for i, ds in enumerate(tails):
        rs = _linkage.lattice(rho[i][i + 1:], scale)
        for j, d, r in zip(itertools.count(i + 1), ds, rs):
            below = r <= d
            nagata = below and d * den <= r * num
            uniform = below and sinv_at[d][0] <= 2 * r
            if nagata and uniform:
                continue
            pair = (space.labels[i], space.labels[j])
            sinv = sinv_at[d][1]
            d, r = dist[i][j], rho[i][j]
            if not nagata:
                violations.append(BoundViolation(pair, d / two_m, r, d))
            if not uniform:
                violations.append(BoundViolation(pair, sinv / 2, r, d))
    return BoundsReport(not violations, tuple(violations))
