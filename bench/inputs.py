"""Seeded input generators for the benchmark.

Every generator builds its property in by construction, never by rejection
sampling, so a seed always yields inputs of the intended kind. Matrices are
lists of lists of ``Fraction``; nothing here imports the program under
test, so the benchmark's inputs cannot move when the program changes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)

# About 65 values in a general metric: 61 pool values in [2, 4] plus 5..8
# from the line part.
GENERAL_POOL = tuple(Fraction(k, 30) for k in range(60, 121))
# Six powers of three, 27 down to 1/9.
POW3_LEVELS = tuple(Fraction(3) ** e for e in range(3, -3, -1))
# Primes used as denominators of the coprime family; their product is the
# worst-case common denominator of a matrix.
PRIMES = tuple(p for p in range(53, 400) if all(p % q for q in range(2, int(p**0.5) + 1)))


def labels(n: int, prefix: str = "p") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _square(n: int) -> list[list[Fraction]]:
    return [[ZERO] * n for _ in range(n)]


def ultra_levels(rng, count: int = 20) -> tuple[Fraction, ...]:
    """``count`` strictly decreasing positive levels with denominators 1, 2, 4."""
    return tuple(Fraction(k, 4) for k in sorted(rng.sample(range(8, 400), count), reverse=True))


def ultrametric(rng, n: int, levels) -> list[list[Fraction]]:
    """Ultrametric from a random merge tree whose heights come from ``levels``.

    Cross pairs of a node's children sit at the node's level and children
    take strictly lower levels, so the two largest sides of every triangle
    agree. Groups that reach the last level collapse to it.
    """
    mat = _square(n)
    last = len(levels) - 1

    def build(idx: list[int], k: int) -> None:
        if len(idx) < 2:
            return
        if k == last:
            for i, j in itertools.combinations(idx, 2):
                mat[i][j] = mat[j][i] = levels[k]
            return
        parts = 2 if len(idx) == 2 else rng.randint(2, min(4, len(idx)))
        rng.shuffle(idx)
        cuts = sorted(rng.sample(range(1, len(idx)), parts - 1))
        groups = [idx[a:b] for a, b in zip([0] + cuts, cuts + [len(idx)])]
        for ga, gb in itertools.combinations(groups, 2):
            for i in ga:
                for j in gb:
                    mat[i][j] = mat[j][i] = levels[k]
        for g in groups:
            build(g, min(k + rng.randint(1, 3), last))

    build(list(range(n)), 0)
    return mat


def general_metric(rng, n: int) -> list[list[Fraction]]:
    """Pointwise max of a pool metric and a line metric.

    Any matrix with off-diagonal values in [2, 4] is a metric, a line on
    integer positions 0..8 is one, and the max of two metrics is one.
    """
    pos = [rng.randint(0, 8) for _ in range(n)]
    mat = _square(n)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = max(rng.choice(GENERAL_POOL), Fraction(abs(pos[i] - pos[j])))
    return mat


def coprime_metric(rng, n: int) -> list[list[Fraction]]:
    """Distances 1 + a/p in (1, 2) over many primes p: a metric whose
    common denominator is as large as the primes allow."""
    mat = _square(n)
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.choice(PRIMES)
            mat[i][j] = mat[j][i] = 1 + Fraction(rng.randint(1, p - 1), p)
    return mat


def all_distinct_metric(rng, n: int) -> list[list[Fraction]]:
    """A metric in [2, 3) whose n(n-1)/2 distances are all different."""
    m = n * (n - 1) // 2
    ranks = list(range(m))
    rng.shuffle(ranks)
    mat = _square(n)
    it = iter(ranks)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = 2 + Fraction(next(it), m)
    return mat


def planted_violation(rng, n: int, triple: tuple[int, int, int]) -> list[list[Fraction]]:
    """A matrix in [2, 3] broken at exactly one triangle, the sorted ``triple``.

    Two of its sides are 1 and the third is above 2; every other triangle
    keeps two sides in [2, 3] next to a side of at most 3, so it holds.
    """
    a, b, c = triple
    mat = _square(n)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = Fraction(rng.randint(60, 90), 30)
    apex = rng.choice(triple)
    ends = [v for v in triple if v != apex]
    for v in ends:
        mat[apex][v] = mat[v][apex] = Fraction(1)
    mat[ends[0]][ends[1]] = mat[ends[1]][ends[0]] = Fraction(rng.randint(61, 90), 30)
    return mat


def matrix_value(v: Fraction):
    """The space-file encoding: an int, or a "p/q" string."""
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def space_doc(labs, mat, base: str | None = None) -> dict:
    doc = {"labels": list(labs), "dist": [[matrix_value(v) for v in row] for row in mat]}
    if base is not None:
        doc["base"] = base
    return doc


# ------------------------------------------------------------ archipelagos

def island_plan(rng, allowed: tuple[int, ...], points: int) -> list[tuple[int, int]]:
    """(size, diameter) rows, sizes cycling through ``allowed`` until the
    plan reaches ``points`` points with the hub; the seed shuffles the rows
    and picks the diameters, so the point count does not depend on it."""
    sizes: list[int] = []
    while 1 + sum(sizes) < points:
        sizes.append(allowed[len(sizes) % len(allowed)])
    rng.shuffle(sizes)
    return [(size, size + rng.randint(0, 3)) for size in sizes]


def archipelago(plan, strict: bool):
    """The assembled archipelago by its construction law.

    Returns (labels, matrix, islands) with the hub "o" at index 0 and
    islands as (size, diameter, separation, member indices). Separations
    are running diameter sums, plus one when strict.
    """
    labs = ["o"]
    islands = []
    running = 0
    for pos, (size, diam) in enumerate(plan, start=1):
        running += diam
        sep = running + 1 if strict else running
        members = tuple(range(len(labs), len(labs) + size))
        labs += [f"x{pos}.{j}" for j in range(1, size + 1)]
        islands.append((size, Fraction(diam), Fraction(sep), members))
    mat = _square(len(labs))
    for a, (_, diam, sep, members) in enumerate(islands):
        for u in members:
            mat[0][u] = mat[u][0] = sep
        for u, v in itertools.combinations(members, 2):
            mat[u][v] = mat[v][u] = diam
        for _, _, other_sep, others in islands[:a]:
            for u in others:
                for v in members:
                    mat[u][v] = mat[v][u] = max(other_sep, sep)
    return labs, mat, islands


def archipelago_doc(plan, strict: bool) -> dict:
    labs, mat, islands = archipelago(plan, strict)
    doc = space_doc(labs, mat, base="o")
    doc["islands"] = [
        {
            "size": size,
            "diameter": matrix_value(diam),
            "separation": matrix_value(sep),
            "points": [labs[i] for i in members],
        }
        for size, diam, sep, members in islands
    ]
    return doc
