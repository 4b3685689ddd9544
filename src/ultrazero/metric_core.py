"""Finite metric spaces with exact rational distances.

Value types and the operations that stay inside one space's vocabulary:
axiom validation, ultrametricity certification with violating triangles,
monotone gauge transforms, power-of-three rounding, scale truncation, and
the pointed wedge and cone constructions used to assemble larger spaces.

A space is ultrametric when every triangle is isosceles with the two
largest sides equal; equivalently d(x,z) <= max(d(x,y), d(y,z)) for all
triples. All checks here are exact, no floats anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add, itemgetter, ne, sub

from . import _linkage
from .errors import fail
from .rational import as_fraction, ceil_exponent_base3, rational_str

# Up to this size a failed ultrametric check names the lexicographically
# first violating triple, found by the triple scan; above it, a tree-path one.
_SCAN_LIMIT = 40


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Immutable labeled distance matrix that passed validation."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise fail("MalformedInput", f"no point labeled {label!r}") from None

    def point(self, i) -> int:
        """i if it is a point index, an int (not a bool) in range(n)."""
        if type(i) is not int or not 0 <= i < self.n:
            raise fail("MalformedInput", f"{i!r} is not a point index")
        return i

    def diameter(self) -> Fraction:
        return max(map(max, self.dist))  # each row holds its 0 on the diagonal

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield i, j

    def distinct_distances(self) -> tuple[Fraction, ...]:
        return tuple(sorted({self.dist[i][j] for i, j in self.pairs()}))

    def __repr__(self) -> str:  # compact: matrices get huge
        return f"FiniteMetricSpace(n={self.n}, labels={self.labels[:4]}...)"


@dataclass(frozen=True)
class PointedSpace:
    """A space with a distinguished base point (by index)."""

    space: FiniteMetricSpace
    base: int

    def __post_init__(self):
        self.space.point(self.base)

    @property
    def base_label(self) -> str:
        return self.space.labels[self.base]


@dataclass(frozen=True)
class UltraWitness:
    """Outcome of the ultrametric check.

    When verdict is False, ``triangle`` holds a triple of indices whose
    sorted side values ``sides = (a, b, c)`` satisfy a <= b < c, breaking
    the rule that the two largest sides agree.
    """

    verdict: bool
    triangle: tuple[int, int, int] | None = None
    sides: tuple[Fraction, Fraction, Fraction] | None = None

    def __bool__(self) -> bool:
        return self.verdict


# ------------------------------------------------------- integer kernel
#
# Triangle scans run on a transient integer copy of the matrix, on the
# lattice of _linkage (every entry times the LCM of the denominators, or
# the Fractions themselves past its bit bound). Pairs (i, j) are visited in
# lexicographic order and each is checked against every k > j with C-level
# passes over two row tails; only the first failing pair is walked in
# Python to find its k. So the reported triple is the lexicographically
# first failing (i, j, k).


def _metric_pair_ok(dij, xs: Sequence, ys: Sequence) -> bool:
    """Triangle inequality on every (dij, xs[t], ys[t])."""
    return min(map(add, xs, ys)) >= dij and max(map(abs, map(sub, xs, ys))) <= dij


def _ultra_pair_ok(dij, xs: Sequence, ys: Sequence) -> bool:
    """The largest side of every (dij, x, y) occurs twice: max(x, y) >= dij,
    and max(x, y) <= dij (so it equals dij) wherever x != y."""
    tops = list(map(max, xs, ys))
    return min(tops) >= dij and max(compress(tops, map(ne, xs, ys)), default=dij) <= dij


def _first_bad_triple(d: Sequence[Sequence], pair_ok) -> tuple[int, int, int] | None:
    """Lexicographically first i < j < k whose triangle fails pair_ok."""
    n = len(d)
    for i in range(n - 2):
        di = d[i]
        for j in range(i + 1, n - 1):
            dij, xs, ys = di[j], di[j + 1:], d[j][j + 1:]
            if not pair_ok(dij, xs, ys):
                for t in range(len(xs)):
                    if not pair_ok(dij, xs[t:t + 1], ys[t:t + 1]):
                        return i, j, j + 1 + t
    return None


def _require_triangles(labs, rows, ints, code: str, what: str, tail: str = "") -> None:
    """Raise code with the first triple of ints, the lattice of rows, that
    breaks the triangle inequality."""
    bad = _first_bad_triple(ints, _metric_pair_ok)
    if bad is not None:
        i, j, k = bad
        sides = ", ".join(rational_str(v) for v in (rows[i][j], rows[i][k], rows[j][k]))
        raise fail(code, f"{what} {sides} on ({labs[i]},{labs[j]},{labs[k]}){tail}", i, j, k)


def _parse_row(raw: Sequence, parsed: dict) -> tuple[Fraction, ...]:
    """as_fraction of every entry, through parsed, a memo keyed by (type, value).

    Each distinct entry is parsed once. The type is in the key, so True and
    1.0 never meet the entry for 1 and are rejected as as_fraction rejects
    them. New entries are parsed in row order, so the first bad one raises.
    """
    keys = list(zip(map(type, raw), raw))
    try:
        fresh = [key for key in dict.fromkeys(keys) if key not in parsed]
    except TypeError:  # an unhashable entry, which as_fraction rejects in turn
        fresh = keys
    for key in fresh:
        parsed[key] = as_fraction(key[1])
    return tuple(map(parsed.__getitem__, keys))


def validate_metric(labels: Sequence[str], matrix: Sequence[Sequence]) -> FiniteMetricSpace:
    """Check all finite metric axioms and freeze the space.

    Rejections carry stable codes: DuplicateLabel, NonZeroDiagonal,
    NonSymmetric, NegativeOrZeroOffDiagonal, TriangleViolation (with the
    witnessing index triple), MalformedInput for shape problems.
    """
    labs = tuple(labels)
    n = len(labs)
    if n == 0:
        raise fail("MalformedInput", "need at least one point")
    for lab in labs:
        if not isinstance(lab, str):
            raise fail("MalformedInput", f"labels must be strings, got {lab!r}")
    if len(set(labs)) != n:
        seen: set[str] = set()
        for lab in labs:
            if lab in seen:
                raise fail("DuplicateLabel", f"label {lab!r} appears twice", lab)
            seen.add(lab)
    if len(matrix) != n:
        raise fail("MalformedInput", f"need {n} rows, got {len(matrix)}")
    parsed: dict = {}
    rows: list[tuple[Fraction, ...]] = []
    for i, raw in enumerate(matrix):
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise fail("MalformedInput", f"row {i} is not a sequence of numbers: {raw!r}")
        if len(raw) != n:
            raise fail("MalformedInput", f"row {i} has {len(raw)} entries, need {n}")
        rows.append(_parse_row(raw, parsed))
    for i in range(n):
        if rows[i][i] != 0:
            raise fail("NonZeroDiagonal", f"d({labs[i]},{labs[i]}) = {rows[i][i]}", i)
    # a row passes both checks at C level, on the lattice the triangle scan
    # uses; only the first failing row is walked pair by pair, so the
    # witness is still the first failing (i, j)
    ints = _linkage.lattice_rows(rows)
    cols = list(zip(*ints))
    for i in range(n):
        tail = tuple(ints[i][i + 1:])
        if tail == cols[i][i + 1:] and (not tail or min(tail) > 0):
            continue
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
    _require_triangles(labs, rows, ints, "TriangleViolation", "sides")
    return FiniteMetricSpace(labs, tuple(rows))


def _witness_by_scan(space: FiniteMetricSpace, scale: int | None) -> UltraWitness:
    """The first violating triple, scanned on the lattice of the tree's scale."""
    dist = space.dist
    bad = _first_bad_triple([_linkage.lattice(row, scale) for row in dist], _ultra_pair_ok)
    if bad is None:
        return UltraWitness(True)
    i, j, k = bad
    a, b, c = sorted((dist[i][j], dist[i][k], dist[j][k]))
    return UltraWitness(False, bad, (a, b, c))


def is_ultrametric(space: FiniteMetricSpace) -> UltraWitness:
    """Decide ultrametricity, returning a violating triangle on failure.

    The space is ultrametric iff its distance matrix equals the minimax-path
    matrix of its minimum spanning tree, its subdominant ultrametric; one
    comparison on the lattice decides at every size. Up to _SCAN_LIMIT
    points a "no" is then named by the lexicographically first violating
    triple. Above it, on a mismatch pair (x, z) we walk the tree path: the
    first step y with d(y, z) < d(x, z) closes a violating triangle, and one
    always appears before the path runs out because each non-step strictly
    shrinks the remaining path while keeping the mismatch.
    """
    dist = space.dist
    n = space.n
    scale, mst, heights = _linkage.spanning_tree(dist)
    # the minimax matrix on the lattice: the tree with its lattice heights
    rho = _linkage.bottleneck_matrix(n, [(h, i, j) for h, (_, i, j) in zip(heights, mst)])
    for x in range(n):
        got, want = rho[x][x + 1:], _linkage.lattice(dist[x][x + 1:], scale)
        if got != want:
            break
    else:
        return UltraWitness(True)
    if n <= _SCAN_LIMIT:
        return _witness_by_scan(space, scale)
    z = x + 1 + list(map(ne, got, want)).index(True)
    path = _linkage.tree_path(n, mst, x, z)
    for step in range(len(path) - 2):
        y = path[step + 1]
        if dist[y][z] < dist[x][z]:
            a, b, c = sorted((dist[x][y], dist[x][z], dist[y][z]))
            return UltraWitness(False, (x, y, z), (a, b, c))
        x = y
    raise AssertionError("minimax mismatch must yield a violating triangle")


def require_ultrametric(space: FiniteMetricSpace,
                        text: str = "triangle at indices {} has sides {}") -> None:
    """Raise NotUltrametric unless the space is ultrametric; text is the
    message template, given the triangle's indices and its side values."""
    w = is_ultrametric(space)
    if not w.verdict:
        sides = tuple(rational_str(s) for s in w.sides)
        raise fail("NotUltrametric", text.format(w.triangle, sides), *w.triangle)


def _map_pairs(space: FiniteMetricSpace, f) -> list[list]:
    """The matrix of f over the space's distances, 0 on the diagonal.

    f(t, i, j) runs once per distinct distance t, at its first pair (i, j)
    in row order, so an f that raises does so at the first failing pair.
    """
    n = space.n
    memo: dict = {}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(space.dist):
        out = rows[i]
        for j in range(i + 1, n):
            t = row[j]
            v = memo.get(t)
            if v is None:
                v = memo[t] = f(t, i, j)
            out[j] = rows[j][i] = v
    return rows


@dataclass(frozen=True)
class Gauge:
    """Piecewise-linear map on distances, anchored at (0, 0).

    ``breakpoints`` is a strictly increasing sequence of (t, value) knots
    starting at (0, 0); beyond the last knot the final segment's slope
    extends. Interpolation is exact rational arithmetic.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_points(cls, points: Iterable[tuple] ) -> "Gauge":
        knots = [(as_fraction(t), as_fraction(v)) for t, v in points]
        knots.sort(key=lambda p: p[0])
        if not knots or knots[0][0] > 0:
            knots.insert(0, (Fraction(0), Fraction(0)))
        if knots[0][0] < 0:
            raise fail("BadParameters", "gauge breakpoints need t >= 0")
        if knots[0][1] != 0:
            raise fail("BadParameters", "a gauge must send 0 to 0")
        for (t0, _), (t1, _) in zip(knots, knots[1:]):
            if t0 == t1:
                raise fail("BadParameters", f"duplicate breakpoint t = {t0}")
        if len(knots) < 2:
            raise fail("BadParameters", "need a breakpoint above t = 0")
        return cls(tuple(knots))

    @classmethod
    def identity(cls) -> "Gauge":
        return cls.from_points([(1, 1)])

    @classmethod
    def scaling(cls, factor) -> "Gauge":
        return cls.from_points([(1, as_fraction(factor))])

    @classmethod
    def stretch(cls, b, c) -> "Gauge":
        """Linear up to b, then steep so that c lands on 3b.

        Applied to a triple with sides a <= b < c this sends the sides to
        (a, b, 3b), which breaks the triangle inequality since a < 2b.
        """
        b = as_fraction(b)
        c = as_fraction(c)
        if not 0 < b < c:
            raise fail("BadParameters", f"need 0 < b < c, got {b}, {c}")
        return cls.from_points([(b, b), (c, 3 * b)])

    def is_nondecreasing(self) -> bool:
        values = [v for _, v in self.breakpoints]
        return all(v0 <= v1 for v0, v1 in zip(values, values[1:]))

    def evaluate(self, t) -> Fraction:
        t = as_fraction(t)
        if t < 0:
            raise fail("BadParameters", "gauges are defined for t >= 0")
        knots = self.breakpoints
        # the segment whose right knot is the first above t, or the last one
        k = min(bisect_right(knots, t, key=itemgetter(0)), len(knots) - 1)
        (t0, v0), (t1, v1) = knots[k - 1], knots[k]
        return v0 + (t - t0) * (v1 - v0) / (t1 - t0)


def apply_gauge(space: FiniteMetricSpace, gauge: Gauge) -> FiniteMetricSpace:
    """Transform every distance through the gauge, revalidating the result.

    Raises GaugeNotMonotone for a decreasing gauge, GaugeNotPositive when
    some positive distance is crushed to 0, and ResultNotMetric with the
    witnessing triple when the transformed matrix breaks a triangle. On
    ultrametric inputs any nondecreasing positive gauge succeeds, and the
    output is again ultrametric.
    """
    if not gauge.is_nondecreasing():
        raise fail("GaugeNotMonotone", "gauge values decrease between breakpoints")
    labs = space.labels

    def gauged(t: Fraction, i: int, j: int) -> Fraction:
        v = gauge.evaluate(t)
        if v <= 0:
            raise fail(
                "GaugeNotPositive",
                f"gauge sends {rational_str(t)} to {rational_str(v)} "
                f"on ({labs[i]},{labs[j]})",
                i, j,
            )
        return v

    rows = _map_pairs(space, gauged)
    _require_triangles(labs, rows, _linkage.lattice_rows(rows), "ResultNotMetric",
                       "gauged sides", " break the triangle inequality")
    return FiniteMetricSpace(labs, tuple(map(tuple, rows)))


def quantize_3adic(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Round every distance up to the nearest power of three.

    Input must be ultrametric. Each d lands on the unique 3^n with
    3^(n-1) < d <= 3^n, so the output is a power-of-three-valued
    ultrametric with d <= out < 3d pairwise. It needs no recheck: the
    rounding t -> 3^ceil(log_3 t) is nondecreasing, so it carries
    d(x,z) <= max(d(x,y), d(y,z)) over to the rounded values.
    """
    require_ultrametric(space, "violating triangle at indices {} with sides {}")
    return _quantize(space)


def _quantize(space: FiniteMetricSpace, factor=1) -> FiniteMetricSpace:
    """quantize_3adic of the space with every distance times factor, for a
    space known to be ultrametric; each distinct distance is scaled once."""

    def rounded(d: Fraction, i: int, j: int) -> Fraction:
        t = d * factor
        v = Fraction(3) ** ceil_exponent_base3(t)
        if not t <= v < 3 * t:
            raise AssertionError(f"{rational_str(t)} rounded to {rational_str(v)}, "
                                 "outside [t, 3t)")
        return v

    return FiniteMetricSpace(space.labels, tuple(map(tuple, _map_pairs(space, rounded))))


def scale_truncate(space: FiniteMetricSpace, epsilon) -> tuple[FiniteMetricSpace, FiniteMetricSpace]:
    """Split a space at one scale: distances capped at epsilon, and raised to it.

    Returns (small, large) where small has d' = min(d, epsilon) and large
    has d' = max(d, epsilon) off the diagonal. Both are metrics with no
    recheck, for a <= b + c gives min(a, e) <= min(b, e) + min(c, e) (the
    right side is >= e if b or c is, else it is b + c) and
    max(a, e) <= max(b, e) + max(c, e) (the right side is >= b + c and
    >= 2e). Both stay ultrametric when the input is.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise fail("BadParameters", f"epsilon must be positive, got {eps}")
    # the diagonal is the only zero: min keeps it, and large skips it
    small = tuple(tuple(min(t, eps) for t in row) for row in space.dist)
    large = tuple(tuple(max(t, eps) if t else t for t in row) for row in space.dist)
    return FiniteMetricSpace(space.labels, small), FiniteMetricSpace(space.labels, large)


def _fresh_label(candidate: str, taken: set[str], part: int) -> str:
    while candidate in taken:
        candidate = f"{part}:{candidate}"
    return candidate


def metric_wedge(parts: Sequence[PointedSpace]) -> PointedSpace:
    """Glue pointed spaces at their base points.

    Points from different parts sit at the maximum of their distances to
    the shared hub; distances within a part are untouched. One part comes
    back unchanged. Ultrametricity of all parts carries over to the wedge.
    Colliding labels from later parts get a "k:" prefix (parts 1-based).
    """
    if not parts:
        raise fail("BadParameters", "wedge needs at least one part")
    if len(parts) == 1:
        return parts[0]
    hub_label = parts[0].base_label
    labels: list[str] = [hub_label]
    taken = {hub_label}
    part_of: list[int] = [-1]
    local: list[int] = [0]
    to_hub: list[Fraction] = [Fraction(0)]
    for k, part in enumerate(parts):
        sp, base = part.space, part.base
        for i in range(sp.n):
            if i == base:
                continue
            lab = _fresh_label(sp.labels[i], taken, k + 1)
            taken.add(lab)
            labels.append(lab)
            part_of.append(k)
            local.append(i)
            to_hub.append(sp.dist[i][base])
    m = len(labels)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for u in range(m):
        for v in range(u + 1, m):
            if part_of[u] == part_of[v]:
                w = parts[part_of[u]].space.dist[local[u]][local[v]]
            else:
                w = max(to_hub[u], to_hub[v])
            rows[u][v] = rows[v][u] = w
    return PointedSpace(FiniteMetricSpace(tuple(labels), tuple(tuple(r) for r in rows)), 0)


def cone(space: FiniteMetricSpace, height, *, apex_label: str = "apex",
         allow_equal: bool = False) -> PointedSpace:
    """Add an apex at a fixed distance above every point.

    The height must exceed the diameter (equality allowed only with
    allow_equal), which keeps ultrametric inputs ultrametric: every new
    triangle has two sides equal to the height on top.
    """
    height = as_fraction(height)
    diam = space.diameter()
    if height < diam or (height == diam and not allow_equal):
        raise fail(
            "ConeHeightTooSmall",
            f"height {rational_str(height)} does not clear diameter {rational_str(diam)}",
            height, diam,
        )
    if height <= 0:
        raise fail("BadParameters", "cone height must be positive")
    apex = apex_label
    while apex in space.labels:
        apex = apex + "'"
    labels = (apex,) + space.labels
    n = space.n
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        rows[0][i + 1] = rows[i + 1][0] = height
        for j in range(n):
            rows[i + 1][j + 1] = space.dist[i][j]
    return PointedSpace(FiniteMetricSpace(labels, tuple(tuple(r) for r in rows)), 0)
