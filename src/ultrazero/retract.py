"""Lipschitz retractions onto subsets of finite ultrametric spaces.

Given a pointed ultrametric space, a nonempty subset A, and a slack
lambda > 1, a retraction r fixing A with Lipschitz constant at most
lambda always exists: send x to the earliest candidate (in the annulus
order around the base point) among the near-optimal approximations
{a in A : d(x,a) <= delta * dist(x,A)} for any 1 < delta with
delta^2 < lambda. The audit recomputes the achieved constant exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import fail
from .metric_core import FiniteMetricSpace, PointedSpace, require_ultrametric
from .rational import as_fraction, ratio_window, rational_str


@dataclass(frozen=True)
class AnnulusOrder:
    """Points ranked by distance shell around the base, far shells first.

    Shell k holds the points with k <= d(x, base) < k+1 (integer k); ties
    within a shell keep input order. ``ranks[i]`` is the position of point
    i, so smaller rank means earlier in the order.
    """

    order: tuple[int, ...]
    ranks: tuple[int, ...]
    shells: tuple[int, ...]

    def precedes(self, i: int, j: int) -> bool:
        return self.ranks[i] < self.ranks[j]


def annulus_order(pointed: PointedSpace) -> AnnulusOrder:
    space, base = pointed.space, pointed.base
    shells = [d.numerator // d.denominator for d in space.dist[base]]
    order = sorted(range(space.n), key=lambda i: (-shells[i], i))
    ranks = [0] * space.n
    for pos, i in enumerate(order):
        ranks[i] = pos
    return AnnulusOrder(tuple(order), tuple(ranks), tuple(shells))


@dataclass(frozen=True)
class RetractionMap:
    """A retraction onto a subset with its audited Lipschitz constant."""

    pointed: PointedSpace
    subset: frozenset[int]
    lam: Fraction
    delta: Fraction
    assignment: tuple[int, ...]
    audited_constant: Fraction


def default_delta(lam) -> Fraction:
    """A rational delta with 1 < delta and delta^2 < lambda.

    Takes r just below sqrt(lambda) by integer square root at a growing
    scale, then the midpoint (1 + r) / 2; since 1 < delta < r the square
    stays strictly under lambda.
    """
    lam = as_fraction(lam)
    if lam <= 1:
        raise fail("BadParameters", f"need lambda > 1, got {rational_str(lam)}")
    scale = 10**6
    while True:
        root = Fraction(
            math.isqrt(lam.numerator * lam.denominator * scale * scale),
            lam.denominator * scale,
        )
        if root > 1:
            return (1 + root) / 2
        scale *= 1000


def _resolve_subset(space: FiniteMetricSpace, subset: Iterable) -> frozenset[int]:
    indices: set[int] = set()
    for item in subset:
        indices.add(space.index(item) if isinstance(item, str) else space.point(item))
    if not indices:
        raise fail("EmptySubset", "the subset to retract onto is empty")
    return frozenset(indices)


def audit_lipschitz(space: FiniteMetricSpace, assignment: Sequence[int]) -> Fraction:
    """Largest ratio d(f(x), f(y)) / d(x, y) over all pairs, exactly."""
    if len(assignment) != space.n:
        raise fail("InputMismatch", f"assignment covers {len(assignment)} of {space.n} points")
    for target in assignment:
        if type(target) is not int or not 0 <= target < space.n:
            raise fail("InputMismatch", f"assignment entry {target!r} is not a point index")
    rows = space.dist  # a collapsed pair counts, with the ratio 0
    tails = (zip(map(rows[assignment[i]].__getitem__, assignment[i + 1:]), row[i + 1:])
             for i, row in enumerate(rows))
    window = ratio_window(itertools.chain.from_iterable(tails))
    return window[1] if window else Fraction(0)


def lipschitz_retraction(
    pointed: PointedSpace,
    subset: Iterable,
    lam,
    delta=None,
) -> RetractionMap:
    """Build the retraction and audit it.

    Preconditions: the space is ultrametric, the subset is nonempty,
    lambda > 1, and when delta is given, 1 < delta with delta^2 < lambda
    (the default delta is derived from lambda). The audited constant never
    exceeds lambda; that is a theorem, so a higher audit would be a bug.
    """
    space = pointed.space
    lam = as_fraction(lam)
    if lam <= 1:
        raise fail("BadParameters", f"need lambda > 1, got {rational_str(lam)}")
    if delta is None:
        delta = default_delta(lam)
    else:
        delta = as_fraction(delta)
    if not (delta > 1 and delta * delta < lam):
        raise fail(
            "BadParameters",
            f"need 1 < delta with delta^2 < lambda, got delta = {rational_str(delta)}",
        )
    members = _resolve_subset(space, subset)
    require_ultrametric(space)
    order = annulus_order(pointed)
    assignment = list(range(space.n))
    sub = sorted(members)
    for x in range(space.n):
        if x in members:
            continue
        row = space.dist[x]
        nearest = min(row[a] for a in sub)
        cutoff = delta * nearest
        pick = -1
        for a in sub:
            if row[a] <= cutoff and (pick < 0 or order.precedes(a, pick)):
                pick = a
        assignment[x] = pick
    audited = audit_lipschitz(space, assignment)
    if audited > lam:
        raise AssertionError("audit exceeded lambda; construction bug")
    return RetractionMap(pointed, members, lam, delta, tuple(assignment), audited)


def brute_force_min_constant(
    space: FiniteMetricSpace,
    subset: Iterable,
    search_limit: int = 10**7,
) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum audited constant over every retraction fixing the subset.

    Exhaustive over |A| ** |X \\ A| assignments; refuses blowups past
    search_limit with OracleSizeExceeded. Returns (constant, assignment).
    """
    members = _resolve_subset(space, subset)
    free = [x for x in range(space.n) if x not in members]
    sub = sorted(members)
    total = len(sub) ** len(free)
    if total > search_limit:
        raise fail(
            "OracleSizeExceeded",
            f"{total} assignments exceed the search limit {search_limit}",
            total, search_limit,
        )
    base = list(range(space.n))
    best: Fraction | None = None
    best_assignment: tuple[int, ...] = tuple(base)
    for choice in itertools.product(sub, repeat=len(free)):
        for x, a in zip(free, choice):
            base[x] = a
        constant = audit_lipschitz(space, base)
        if best is None or constant < best:
            best = constant
            best_assignment = tuple(base)
    if best is None:  # no free points: the identity is the only retraction
        best = Fraction(0)
    return best, best_assignment
