"""Random and exhaustive input generators shared across the test suite.

Everything here returns plain library objects built from exact rationals.
Generators that promise a property (metric validity, ultrametricity,
power-of-three values) guarantee it by construction, not by rejection
sampling, so the suite never silently narrows its coverage.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ultrazero import FiniteMetricSpace

_F = {k: Fraction(k) for k in range(0, 16)}


def _frac(rng: random.Random, lo: int = 1, hi: int = 12) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.choice((1, 1, 2, 3, 4))
    return Fraction(num, den)


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(n))


def _space(labels, mat) -> FiniteMetricSpace:
    return FiniteMetricSpace(tuple(labels), tuple(tuple(row) for row in mat))


def random_ultrametric(
    rng: random.Random,
    n: int,
    *,
    top: Fraction | None = None,
    labels: tuple[str, ...] | None = None,
) -> FiniteMetricSpace:
    """Ultrametric on n points from a random merge tree.

    Each internal node gets a strictly smaller positive level than its
    parent, so the two-largest-sides-equal property holds exactly.
    """
    if labels is None:
        labels = _labels(n)
    mat = [[Fraction(0)] * n for _ in range(n)]
    if n == 1:
        return _space(labels, mat)
    level0 = top if top is not None else _frac(rng, 2, 12)

    def build(idx: list[int], level: Fraction) -> None:
        if len(idx) == 1:
            return
        k = 2 if len(idx) == 2 else rng.randint(2, min(len(idx), 4))
        rng.shuffle(idx)
        cuts = sorted(rng.sample(range(1, len(idx)), k - 1))
        groups = [idx[a:b] for a, b in zip([0] + cuts, cuts + [len(idx)])]
        for ga, gb in itertools.combinations(groups, 2):
            for i in ga:
                for j in gb:
                    mat[i][j] = mat[j][i] = level
        child = level * Fraction(rng.randint(1, 3), 4)
        for g in groups:
            build(g, child)

    build(list(range(n)), level0)
    return _space(labels, mat)


_POW3: dict[int, Fraction] = {}


def pow3(e: int) -> Fraction:
    v = _POW3.get(e)
    if v is None:
        v = Fraction(3) ** e
        _POW3[e] = v
    return v


def random_3power_ultrametric(
    rng: random.Random, n: int, *, emax: int = 4, emin: int = -3
) -> FiniteMetricSpace:
    """Ultrametric whose distances are all integer powers of three."""
    labels = _labels(n)
    mat = [[Fraction(0)] * n for _ in range(n)]
    if n == 1:
        return _space(labels, mat)

    def build(idx: list[int], e: int) -> None:
        if len(idx) == 1:
            return
        k = 2 if len(idx) == 2 else rng.randint(2, min(len(idx), 4))
        rng.shuffle(idx)
        cuts = sorted(rng.sample(range(1, len(idx)), k - 1))
        groups = [idx[a:b] for a, b in zip([0] + cuts, cuts + [len(idx)])]
        level = pow3(e)
        for ga, gb in itertools.combinations(groups, 2):
            for i in ga:
                for j in gb:
                    mat[i][j] = mat[j][i] = level
        nxt = e - rng.randint(1, 2)
        if nxt < emin:
            nxt = emin
        for g in groups:
            if len(g) > 1 and e == emin:
                # bottomed out: force leaves apart at the floor level
                for i, j in itertools.combinations(g, 2):
                    mat[i][j] = mat[j][i] = pow3(emin)
            else:
                build(g, nxt)

    build(list(range(n)), rng.randint(emax - 1, emax))
    return _space(labels, mat)


def random_metric(rng: random.Random, n: int) -> FiniteMetricSpace:
    """General metric: pointwise max of a star metric, a line metric and
    a scaled random ultrametric.  The max of metrics is a metric, the star
    part keeps every off-diagonal entry strictly positive.
    """
    labels = _labels(n)
    star = [_frac(rng, 1, 6) for _ in range(n)]
    line = [_frac(rng, 0, 9) for _ in range(n)]
    ultra = random_ultrametric(rng, n, top=_frac(rng, 2, 9))
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = max(star[i] + star[j], abs(line[i] - line[j]), ultra.dist[i][j])
            mat[i][j] = mat[j][i] = d
    return _space(labels, mat)


def all_distinct_metric(rng: random.Random, n: int) -> FiniteMetricSpace:
    """Metric in [2, 3) whose n(n-1)/2 distances all differ; every triangle
    holds since any two sides add up to at least 4."""
    m = n * (n - 1) // 2
    ranks = iter(rng.sample(range(m), m))
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = 2 + Fraction(next(ranks), m)
    return _space(_labels(n), mat)


def primes(count: int, start: int) -> list[int]:
    found, q = [], start
    while len(found) < count:
        if all(q % f for f in range(2, int(q**0.5) + 1)):
            found.append(q)
        q += 1
    return found


def coprime_metric(n: int, start: int = 1000) -> FiniteMetricSpace:
    """Distances 1 + 1/q over n(n-1)/2 distinct primes q >= start, in
    (1, 2] so every triangle holds; their common denominator has about
    n(n-1)/2 * log2(start) bits."""
    qs = iter(primes(n * (n - 1) // 2, start))
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = 1 + Fraction(1, next(qs))
    return _space(_labels(n), mat)


def alphabet_metrics(n: int, alphabet: tuple[int, ...] = (1, 2, 3)):
    """Every metric on n labelled points whose distances lie in `alphabet`.

    Enumeration and the triangle filter run on plain ints; surviving
    assignments are materialized as exact spaces.
    """
    labels = tuple("abcdefgh"[:n])
    pairs = list(itertools.combinations(range(n), 2))
    triples = list(itertools.combinations(range(n), 3))
    slot = {p: k for k, p in enumerate(pairs)}
    tri_slots = [(slot[(i, j)], slot[(j, k)], slot[(i, k)]) for i, j, k in triples]
    fr = {a: Fraction(a) for a in alphabet}
    for combo in itertools.product(alphabet, repeat=len(pairs)):
        ok = True
        for a, b, c in tri_slots:
            x, y, z = combo[a], combo[b], combo[c]
            if x + y < z or x + z < y or y + z < x:
                ok = False
                break
        if not ok:
            continue
        mat = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), k in slot.items():
            mat[i][j] = mat[j][i] = fr[combo[k]]
        yield _space(labels, mat)


def example_truncation(n: int) -> FiniteMetricSpace:
    """The convergent-sequence space on points x1..xn:

    d(x1, xk) = 1 + 1/k and d(xj, xk) = max of the two endpoint values
    for 2 <= j < k.  Ultrametric for every n (so it is its own
    subdominant ultrametric): the distances from x1 are distinct, and
    each other distance is the larger of the two from x1.
    """
    labels = tuple(f"x{i}" for i in range(1, n + 1))
    mat = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            j, k = a + 1, b + 1
            if j == 1:
                d = 1 + Fraction(1, k)
            else:
                d = max(1 + Fraction(1, j), 1 + Fraction(1, k))
            mat[a][b] = mat[b][a] = d
    return _space(labels, mat)


def shuffled_copy(rng: random.Random, space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Same space with points presented in a random order."""
    perm = list(range(space.n))
    rng.shuffle(perm)
    labels = tuple(space.labels[p] for p in perm)
    mat = tuple(tuple(space.dist[p][q] for q in perm) for p in perm)
    return FiniteMetricSpace(labels, mat)
