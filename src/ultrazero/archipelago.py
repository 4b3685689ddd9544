"""Island assemblies: wedges of cones over uniform islands.

An island plan is a list of (size, diameter) pairs with sizes drawn from
an allowed set; island i becomes size_i points pairwise diameter_i apart,
coned at separation k_i = sum of the first i diameters (plus 1 in strict
mode, which keeps every separation strictly above its island's diameter),
and all cones share one hub. Cross-island distances collapse to the larger
separation, so the result is ultrametric with integer distances.

The profile extractor inverts the construction from the bare distance
matrix: points cluster together when they are closer to each other than to
the hub, each cluster reports (size, diameter, separation), and the
cross-distance law is verified. Fingerprints built from realized island
sizes separate assemblies over different allowed sets; ball audits check
the three possible shapes of a closed ball.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _linkage
from .errors import fail
from .metric_core import FiniteMetricSpace, PointedSpace, cone, metric_wedge
from .rational import as_fraction, rational_str


@dataclass(frozen=True)
class IslandSpec:
    """One island's shape: point count, internal diameter, hub separation."""

    size: int
    diameter: Fraction
    separation: Fraction


@dataclass(frozen=True)
class Archipelago:
    """The assembled pointed space plus which points form which island."""

    pointed: PointedSpace
    islands: tuple[tuple[IslandSpec, tuple[int, ...]], ...]

    @property
    def space(self) -> FiniteMetricSpace:
        return self.pointed.space

    @property
    def hub(self) -> int:
        return self.pointed.base


@dataclass(frozen=True)
class ProfileResult:
    """Extracted island triples (size, diameter, separation), sorted by separation."""

    profile: tuple[tuple[int, Fraction, Fraction], ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class FingerprintReport:
    verdict: str  # "distinct" or "indistinguishable"
    size_sets: tuple[tuple[int, ...], tuple[int, ...]]
    size_counts: tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]
    separations: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


@dataclass(frozen=True)
class BallSample:
    center: str
    radius: Fraction
    shape: str  # "singleton", "island", "hub_ball"
    cardinality: int
    consistent: bool


@dataclass(frozen=True)
class BallAuditReport:
    passed: bool
    samples: tuple[BallSample, ...]
    capacity: tuple[tuple[Fraction, int], ...]


def build_archipelago(
    allowed_sizes: Iterable[int],
    plan: Sequence[tuple[int, int]],
    *,
    strict: bool = False,
) -> Archipelago:
    """Assemble islands per the plan over the allowed size set.

    Plan entries are (size, diameter) with an integer size (MalformedInput
    otherwise) in the allowed set (SizeNotInLambda otherwise, 1-based
    index) and diameter >= size (DiameterTooSmall otherwise). Separations
    are the running diameter sums, plus one in strict mode.
    """
    sizes = set()
    for s in allowed_sizes:
        if not isinstance(s, int) or isinstance(s, bool) or s < 2:
            raise fail("MalformedInput", f"allowed size {s!r} must be an integer > 1")
        sizes.add(s)
    if not sizes:
        raise fail("BadParameters", "the allowed size set is empty")
    if not plan:
        raise fail("BadParameters", "the island plan is empty")
    cones: list[PointedSpace] = []
    specs: list[IslandSpec] = []
    running = 0
    for pos, (n_i, m_i) in enumerate(plan, start=1):
        if not isinstance(n_i, int) or isinstance(n_i, bool):
            raise fail("MalformedInput", f"island {pos}: size {n_i!r} is not an integer")
        if n_i not in sizes:
            raise fail(
                "SizeNotInLambda",
                f"island {pos}: size {n_i} is not in the allowed set",
                pos, n_i,
            )
        if not isinstance(m_i, int) or isinstance(m_i, bool) or m_i < n_i:
            raise fail(
                "DiameterTooSmall",
                f"island {pos}: diameter {m_i!r} must be an integer >= size {n_i}",
                pos, m_i,
            )
        running += m_i
        k_i = running + 1 if strict else running
        labels = tuple(f"x{pos}.{j}" for j in range(1, n_i + 1))
        rows = [
            [Fraction(0) if a == b else Fraction(m_i) for b in range(n_i)]
            for a in range(n_i)
        ]
        island = FiniteMetricSpace(labels, tuple(tuple(r) for r in rows))
        cones.append(cone(island, k_i, apex_label="o", allow_equal=not strict))
        specs.append(IslandSpec(n_i, Fraction(m_i), Fraction(k_i)))
    assembled = metric_wedge(cones)
    space = assembled.space
    islands = []
    cursor = 1  # hub sits at index 0
    for spec in specs:
        islands.append((spec, tuple(range(cursor, cursor + spec.size))))
        cursor += spec.size
    return Archipelago(assembled, tuple(islands))


def island_profile(source: PointedSpace | Archipelago) -> ProfileResult:
    """Recover island structure from distances alone.

    Non-hub points x, y belong to one island when d(x, y) < d(x, hub);
    the relation must be symmetric and transitive, every member of a
    cluster must share one hub separation above the cluster diameter, and
    distinct clusters must sit at the larger of their separations
    (NotArchipelagoShaped with a witness otherwise). Clusters that fall
    apart into single points are reported with a warning, since a real
    island of size one is indistinguishable from hub debris.
    """
    pointed = source.pointed if isinstance(source, Archipelago) else source
    space, hub = pointed.space, pointed.base
    others = [i for i in range(space.n) if i != hub]
    if not others:
        raise fail("NotArchipelagoShaped", "no points besides the hub")
    dist = space.dist
    ds = _linkage.DisjointSet(space.n)
    for a, x in enumerate(others):
        for y in others[a + 1:]:
            left = dist[x][y] < dist[x][hub]
            if left != (dist[x][y] < dist[y][hub]):
                raise fail(
                    "NotArchipelagoShaped",
                    f"clustering is one-sided on ({space.labels[x]},{space.labels[y]})",
                    x, y,
                )
            if left:
                ds.union(x, y)
    # filled in index order: clusters come sorted, and in order of their first point
    members: dict[int, list[int]] = {}
    for x in others:
        members.setdefault(ds.find(x), []).append(x)
    clusters = list(members.values())
    for group in clusters:
        for a, x in enumerate(group):
            for y in group[a + 1:]:
                if not dist[x][y] < dist[x][hub]:
                    raise fail(
                        "NotArchipelagoShaped",
                        f"cluster through {space.labels[group[0]]} is not mutually close",
                        x, y,
                    )
    triples: list[tuple[int, Fraction, Fraction]] = []
    separations: list[Fraction] = []
    warnings: list[str] = []
    singles = 0
    for group in clusters:
        sep = dist[group[0]][hub]
        for u in group[1:]:
            if dist[u][hub] != sep:
                raise fail(
                    "NotArchipelagoShaped",
                    f"cluster members {space.labels[group[0]]} and {space.labels[u]} "
                    "sit at different hub separations",
                    group[0], u,
                )
        diam = Fraction(0)
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                diam = max(diam, dist[group[a]][group[b]])
        if len(group) == 1:
            singles += 1
        triples.append((len(group), diam, sep))
        separations.append(sep)
    for ga in range(len(clusters)):
        for gb in range(ga + 1, len(clusters)):
            want = max(separations[ga], separations[gb])
            for u in clusters[ga]:
                for v in clusters[gb]:
                    if dist[u][v] != want:
                        raise fail(
                            "NotArchipelagoShaped",
                            f"cross distance d({space.labels[u]},{space.labels[v]}) = "
                            f"{rational_str(dist[u][v])}, expected {rational_str(want)}",
                            u, v,
                        )
    if singles:
        warnings.append(
            f"{singles} cluster(s) degraded to single points; island structure "
            "at or below the hub separation is not recoverable"
        )
    triples.sort(key=lambda t: (t[2], t[1], t[0]))
    return ProfileResult(tuple(triples), tuple(warnings))


def fingerprint_compare(
    left: ProfileResult | Sequence[tuple[int, Fraction, Fraction]],
    right: ProfileResult | Sequence[tuple[int, Fraction, Fraction]],
) -> FingerprintReport:
    """Compare realized island-size sets; different sets mean the spaces
    cannot be identified island-for-island at any uniform scale change."""

    def triples(p):
        return tuple(p.profile) if isinstance(p, ProfileResult) else tuple(p)

    lt, rt = triples(left), triples(right)
    ls = tuple(sorted({n for n, _, _ in lt}))
    rs = tuple(sorted({n for n, _, _ in rt}))

    def counts(ts):
        return tuple(sorted(Counter(n for n, _, _ in ts).items()))

    verdict = "distinct" if ls != rs else "indistinguishable"
    return FingerprintReport(
        verdict,
        (ls, rs),
        (counts(lt), counts(rt)),
        (tuple(s for _, _, s in lt), tuple(s for _, _, s in rt)),
    )


def _closed_ball(space: FiniteMetricSpace, center: int, radius: Fraction) -> set[int]:
    return {i for i in range(space.n) if space.dist[center][i] <= radius}


def ball_audit(
    arch: Archipelago, samples: Sequence[tuple[int | str, object]]
) -> BallAuditReport:
    """Classify sampled closed balls and verify the three possible shapes.

    Every ball is a single point, exactly one island, or the hub ball
    {hub} + all islands separated by at most the radius. The audit
    computes each ball from the matrix, classifies it from the island
    annotations, and checks the sets agree; island balls also respect the
    cardinality-at-most-radius capacity bound.
    """
    space = arch.space
    hub = arch.hub
    island_of: dict[int, int] = {}
    for pos, (_, members) in enumerate(arch.islands):
        for i in members:
            island_of[i] = pos
    entries: list[BallSample] = []
    capacity: dict[Fraction, int] = {}
    for raw_center, raw_radius in samples:
        center = space.index(raw_center) if isinstance(raw_center, str) else space.point(raw_center)
        radius = as_fraction(raw_radius)
        if radius < 0:
            raise fail("BadParameters", f"radius must be nonnegative, got {radius}")
        ball = _closed_ball(space, center, radius)
        if center == hub:
            shape = "hub_ball"
            expected = {hub}
            for spec, members in arch.islands:
                if spec.separation <= radius:
                    expected |= set(members)
            consistent = ball == expected
        else:
            spec, members = arch.islands[island_of[center]]
            if radius < spec.diameter:
                shape = "singleton"
                consistent = ball == {center}
            elif radius < spec.separation:
                shape = "island"
                consistent = ball == set(members) and len(ball) <= radius
            else:
                shape = "hub_ball"
                consistent = ball == _closed_ball(space, hub, radius)
        entries.append(
            BallSample(space.labels[center], radius, shape, len(ball), consistent)
        )
        capacity[radius] = max(capacity.get(radius, 0), len(ball))
    cap = tuple(sorted(capacity.items()))
    return BallAuditReport(all(e.consistent for e in entries), tuple(entries), cap)
