"""A universal ultrametric target built from symbol sequences.

Points are finitely supported maps from integer indices to nonnegative
symbols (0 means absent). Two distinct points sit at distance 3**(-k)
where k is the smallest index at which they differ, so low indices make
big distances. Every finite ultrametric space whose distances are powers
of three embeds isometrically, one point at a time; general finite
ultrametric spaces embed within a factor of 3 after rounding distances
up to powers of three.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import fail
from .metric_core import FiniteMetricSpace, _map_pairs, _quantize, require_ultrametric
from .rational import as_fraction, exact_power_of_three, ratio_window, rational_str
from .scale_analysis import certify


@functools.total_ordering
@dataclass(frozen=True)
class ThreePower:
    """The value 3**exponent, or 0 when exponent is None.

    Values are kept as exponents so extreme scales never expand into huge
    integers until a caller explicitly asks for a Fraction; 0 sorts below
    every power.
    """

    exponent: int | None

    def _key(self) -> tuple[bool, int]:
        return (self.exponent is not None, self.exponent or 0)

    def __lt__(self, other: "ThreePower") -> bool:
        return self._key() < other._key()

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def as_fraction(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(3) ** self.exponent


ZERO = ThreePower(None)


@dataclass(frozen=True)
class LOmegaPoint:
    """Finitely supported symbol sequence; entries sorted by index, symbols >= 1."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def zero(cls) -> "LOmegaPoint":
        return cls(())

    @classmethod
    def from_support(cls, support: Mapping[int, int] | Iterable[tuple[int, int]]) -> "LOmegaPoint":
        items: dict = {}
        for item in support.items() if isinstance(support, Mapping) else support:
            if not isinstance(item, (tuple, list)) or len(item) != 2:
                raise fail("MalformedInput", f"support item {item!r} is not a pair")
            idx, sym = item
            if type(idx) is not int:
                raise fail("MalformedInput", f"index {idx!r} is not an integer")
            if type(sym) is not int or sym < 0:
                raise fail("MalformedInput", f"symbol {sym!r} at index {idx} is not allowed")
            if idx in items:
                raise fail("MalformedInput", f"index {idx!r} is given twice")
            items[idx] = sym
        return cls(tuple(sorted((idx, sym) for idx, sym in items.items() if sym > 0)))

    def symbol_at(self, index: int) -> int:
        for idx, sym in self.entries:
            if idx == index:
                return sym
            if idx > index:
                break
        return 0

    def truncate_below(self, index: int) -> tuple[tuple[int, int], ...]:
        """Entries with index < the given index."""
        return tuple((i, s) for i, s in self.entries if i < index)


def first_difference(p: LOmegaPoint, q: LOmegaPoint) -> int | None:
    """Smallest index where the sequences disagree, None when equal."""
    a, b = p.entries, q.entries
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        idx_a, sym_a = a[ia]
        idx_b, sym_b = b[ib]
        if idx_a < idx_b:
            return idx_a
        if idx_b < idx_a:
            return idx_b
        if sym_a != sym_b:
            return idx_a
        ia += 1
        ib += 1
    if ia < len(a):
        return a[ia][0]
    if ib < len(b):
        return b[ib][0]
    return None


def mu(p: LOmegaPoint, q: LOmegaPoint) -> ThreePower:
    """Distance in the symbol-sequence space: 3**(-first difference)."""
    k = first_difference(p, q)
    if k is None:
        return ZERO
    return ThreePower(-k)


def _dist_exponent(value: Fraction, where: str) -> int:
    e = exact_power_of_three(value)
    if e is None:
        raise fail(
            "NotThreePowerValued",
            f"{where}: {rational_str(value)} is not a power of three",
        )
    return e


def _extend(images: Sequence[LOmegaPoint], exponents: Sequence[int]) -> LOmegaPoint:
    """One-point extension against trusted, pre-validated data.

    exponents[i] is e with 3**e the required distance to images[i]. The
    new point copies the nearest image below index n = -min(e), takes a
    fresh symbol at n, and is blank above, which reproduces every required
    distance at once.
    """
    e_min = min(exponents)
    n = -e_min
    nearest = [img for img, e in zip(images, exponents) if e == e_min]
    base = nearest[0]
    fresh = 1 + max(img.symbol_at(n) for img in nearest)
    return LOmegaPoint(base.truncate_below(n) + ((n, fresh),))


def extend_one_point(images: Sequence[LOmegaPoint], dists: Sequence) -> LOmegaPoint:
    """Find a new sequence at the prescribed distances from given images.

    The prescribed distances together with the pairwise distances of the
    images must form an ultrametric space with all values powers of three;
    both conditions are checked here. Raises EmptySubset, InputMismatch,
    NotThreePowerValued, or NotUltrametric accordingly.
    """
    images = list(images)
    if not images:
        raise fail("EmptySubset", "need at least one image to extend against")
    if len(images) != len(dists):
        raise fail("InputMismatch", f"{len(images)} images but {len(dists)} distances")
    values = []
    for k, raw in enumerate(dists):
        v = as_fraction(raw)
        if v <= 0:
            raise fail("BadParameters", f"distance {k} must be positive, got {v}")
        values.append(v)
    exponents = [_dist_exponent(v, f"distance {k}") for k, v in enumerate(values)]
    # the enlarged space must still be ultrametric: check every triangle
    # through the new point, and coincident images must share a distance
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            side_ab = mu(images[a], images[b]).as_fraction()
            x, y, z = sorted((side_ab, values[a], values[b]))
            if y != z:
                raise fail(
                    "NotUltrametric",
                    f"images {a},{b} at {rational_str(side_ab)} cannot both sit at "
                    f"{rational_str(values[a])} and {rational_str(values[b])}",
                    a, b,
                )
    return _extend(images, exponents)


@dataclass(frozen=True)
class LOmegaEmbedding:
    """An embedding with its verification digest.

    mode is "isometric" (power-of-three input, distances reproduced
    exactly) or "quantized" (distances rounded up first; ratios stay in
    [1, 3)). min_ratio/max_ratio compare achieved over required distances
    across all pairs; both are 1 for fewer than two points.
    """

    source: FiniteMetricSpace
    images: tuple[LOmegaPoint, ...]
    mode: str
    checked_pairs: int
    min_ratio: Fraction
    max_ratio: Fraction


def _ratio_window(space: FiniteMetricSpace, target: FiniteMetricSpace):
    """Smallest and largest ratio of target distance over space distance
    across all pairs, as (lo, hi); (1, 1) below two points. target is the
    space that _embed_isometric has just audited: each image distance mu
    matched its distance, pair by pair, and that audit is what makes these
    quotients equal to image distance over space distance."""
    tails = (zip(t[i + 1:], s[i + 1:]) for i, (t, s) in enumerate(zip(target.dist, space.dist)))
    return ratio_window(chain.from_iterable(tails)) or (Fraction(1),) * 2


def embed_3n_valued(space: FiniteMetricSpace) -> LOmegaEmbedding:
    """Isometric embedding of a power-of-three-valued ultrametric space.

    Points are inserted in input order, each by the one-point extension;
    all pairwise distances are re-verified exactly before returning.
    """
    require_ultrametric(space)
    return _embed_isometric(space)


def _embed_isometric(space: FiniteMetricSpace) -> LOmegaEmbedding:
    """embed_3n_valued on a space known to be ultrametric."""
    labs, n = space.labels, space.n
    exp = _map_pairs(space, lambda d, i, j: _dist_exponent(d, f"d({labs[i]},{labs[j]})"))
    images = [LOmegaPoint.zero()] if n else []
    for i in range(1, n):
        images.append(_extend(images, exp[i][:i]))
    for i, j in space.pairs():
        if mu(images[i], images[j]).exponent != exp[i][j]:
            raise AssertionError("isometry audit failed")
    one = Fraction(1)
    return LOmegaEmbedding(space, tuple(images), "isometric", n * (n - 1) // 2, one, one)


def embed_ultrametric(space: FiniteMetricSpace) -> LOmegaEmbedding:
    """Embedding of any finite ultrametric space within a factor of 3.

    Distances are rounded up to powers of three (which keeps the space
    ultrametric), the rounded space embeds isometrically, and the digest
    records the achieved-over-required ratios, always inside [1, 3).
    """
    require_ultrametric(space)
    inner = _embed_isometric(_quantize(space))
    lo, hi = _ratio_window(space, inner.source)
    if not (1 <= lo and hi < 3):
        raise AssertionError("quantized embedding left the [1,3) window")
    return LOmegaEmbedding(space, inner.images, "quantized", inner.checked_pairs, lo, hi)


@dataclass(frozen=True)
class UniversalEmbedding:
    """An embedding of any finite metric space, audited against 6m.

    ``inner`` is the isometric embedding of the quantized chain-infimum
    ultrametric scaled by 2m, with m the certificate's constant; the
    ratios compare its distances with the source's, and ``passed`` says
    they lie in [1, bound], bound = 6m.
    """

    inner: LOmegaEmbedding
    m: Fraction
    bound: Fraction
    min_ratio: Fraction
    max_ratio: Fraction
    passed: bool


def embed_universal(space: FiniteMetricSpace) -> UniversalEmbedding:
    """Embed any finite metric space into the symbol-sequence space.

    Since d/(2m) <= rho <= d for the chain-infimum ultrametric rho, the
    scaled 2m * rho lies in [d, 2m d], and rounding it up to powers of
    three keeps it ultrametric and stays below 3 times that. So neither
    step rechecks ultrametricity.
    """
    sub, cert = certify(space)
    inner = _embed_isometric(_quantize(sub.rho, 2 * cert.m))
    lo, hi = _ratio_window(space, inner.source)
    bound = 6 * cert.m
    return UniversalEmbedding(inner, cert.m, bound, lo, hi, lo >= 1 and hi <= bound)
