"""The single-linkage merge sweep against the code it replaced.

The oracles below are the bottleneck fill with its own member dict, the
scale table with its own union-find sweep, and the S-component partition
that unions every pair at or below the scale. The library now derives all
three from ``_linkage.merges`` or from a cut of the spanning tree, and
``certify`` reads the subdominant ultrametric and the certificate off one
tree; every outcome must agree exactly, on the integer lattice and on the
Fraction path past its bit bound.
"""

import contextlib
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from ultrazero import (
    Dim0Certificate,
    FiniteMetricSpace,
    Partition,
    certify,
    dim0_certificate,
    s_components,
    subdominant_ultrametric,
)
from ultrazero import _linkage

F = Fraction

# ---------------------------------------------------------------- oracles


def oracle_bottleneck(n, mst_edges):
    zero = F(0)
    rho = [[zero] * n for _ in range(n)]
    members = {i: [i] for i in range(n)}
    ds = _linkage.DisjointSet(n)
    for w, i, j in sorted(mst_edges, key=lambda e: (e[0], e[1], e[2])):
        ra, rb = ds.find(i), ds.find(j)
        if ra == rb:
            continue
        side_a, side_b = members[ra], members[rb]
        for a in side_a:
            for b in side_b:
                rho[a][b] = rho[b][a] = w
        ds.union(ra, rb)
        merged = side_a + side_b
        members.pop(ra, None)
        members.pop(rb, None)
        members[ds.find(ra)] = merged
    return rho


def oracle_dim0(space: FiniteMetricSpace) -> Dim0Certificate:
    n = space.n
    if n < 2:
        return Dim0Certificate(F(1), ())
    dist = space.dist
    scale = _linkage.lattice_scale(c for row in dist for c in row)
    mst = sorted(_linkage.prim_mst(dist, scale), key=lambda e: (e[0], e[1], e[2]))
    ds = _linkage.DisjointSet(n)
    members = {i: [i] for i in range(n)}
    max_diam = F(0)
    table = []
    edge_pos = 0
    for s in space.distinct_distances():
        while edge_pos < len(mst) and mst[edge_pos][0] <= s:
            _, i, j = mst[edge_pos]
            edge_pos += 1
            ra, rb = ds.find(i), ds.find(j)
            if ra == rb:
                continue
            side_a, side_b = members[ra], members[rb]
            for a in side_a:
                for b in side_b:
                    max_diam = max(max_diam, dist[a][b])
            ds.union(ra, rb)
            merged = side_a + side_b
            members.pop(ra, None)
            members.pop(rb, None)
            members[ds.find(ra)] = merged
        table.append((s, max_diam))
    return Dim0Certificate(max(d / s for s, d in table), tuple(table))


def oracle_components(space: FiniteMetricSpace, s: Fraction) -> Partition:
    n = space.n
    ds = _linkage.DisjointSet(n)
    for i in range(n):
        for j in range(i + 1, n):
            if space.dist[i][j] <= s:
                ds.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(ds.find(i), []).append(i)
    blocks = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0])
    return Partition(s, tuple(blocks))


def oracle_change_points(space: FiniteMetricSpace) -> list[Fraction]:
    """The distances at which the all-pairs partition coarsens: Kruskal
    over every pair, keeping the weights of the unions that merge."""
    ds = _linkage.DisjointSet(space.n)
    pairs = sorted((space.dist[i][j], i, j) for i, j in space.pairs())
    return sorted({w for w, i, j in pairs if ds.union(i, j)})


# ---------------------------------------------------------------- inputs

FAMILIES = ("random", "ties", "pow3", "distinct", "coprime")


@functools.cache
def coprime(n: int, start: int) -> FiniteMetricSpace:
    return gen.coprime_metric(n, start)


def tie_heavy(rng: random.Random, n: int) -> FiniteMetricSpace:
    """Values from {2, 3, 4}: a metric, since any two sides add up to 4."""
    mat = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = F(rng.choice((2, 3, 4)))
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, mat)))


@st.composite
def spaces(draw, max_n=60):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, max_n))
    rng = draw(st.randoms(use_true_random=False))
    if family == "random":
        return gen.random_metric(rng, n)
    if family == "ties":
        return tie_heavy(rng, n)
    if family == "pow3":
        return gen.random_3power_ultrametric(rng, n)
    if family == "distinct":
        return gen.all_distinct_metric(rng, n)
    return gen.shuffled_copy(rng, coprime(n, rng.choice((53, 1000))))


def probe_scales(space: FiniteMetricSpace, rng: random.Random, limit: int = 200):
    """0, above the diameter, and distances with the points between them:
    every distinct distance when there are at most ``limit``, otherwise
    every change point of the partition, the distance just below each and
    a random sample of the rest."""
    dists = list(space.distinct_distances())
    if len(dists) > limit:
        keep = set(oracle_change_points(space))
        keep |= {dists[dists.index(w) - 1] for w in keep if dists.index(w) > 0}
        keep |= set(rng.sample(dists, limit // 4))
        dists = sorted(keep)
    between = [(a + b) / 2 for a, b in zip(dists, dists[1:])]
    top = dists[-1] + 1 if dists else F(1)
    return [F(0), *dists, *between, dists[0] / 2 if dists else F(1, 2), top]


@contextlib.contextmanager
def path(fractions: bool):
    """The lattice path, or with its bit bound patched to 0 the Fraction path."""
    with pytest.MonkeyPatch.context() as mp:
        if fractions:
            mp.setattr(_linkage, "_SCALE_BITS", 0)
        yield


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("fractions", [False, True], ids=["lattice", "fractions"])
@settings(max_examples=40, deadline=None)
@given(space=spaces())
def test_sweep_matches_oracles(fractions, space):
    with path(fractions):
        scale, mst, heights = _linkage.spanning_tree(space.dist)
        assert mst == sorted(_linkage.prim_mst(space.dist, scale))  # sorted on the lattice
        assert heights == _linkage.lattice((w for w, _, _ in mst), scale)
        assert _linkage.bottleneck_matrix(space.n, mst) == oracle_bottleneck(space.n, mst)
        sub, cert = certify(space)  # both from one tree, as the separate calls give them
        assert sub == subdominant_ultrametric(space)
        assert cert == dim0_certificate(space) == oracle_dim0(space)


def test_every_pair_is_split_by_exactly_one_merge():
    rng = random.Random(5)
    for n in (1, 2, 7, 30):
        space = gen.random_metric(rng, n)
        mst = _linkage.spanning_tree(space.dist)[1]
        seen = set()
        heights = []
        for w, side_a, side_b in _linkage.merges(n, mst):
            heights.append(w)
            for a in side_a:
                for b in side_b:
                    pair = (min(a, b), max(a, b))
                    assert pair not in seen
                    seen.add(pair)
        assert seen == set(space.pairs())
        assert heights == sorted(w for w, _, _ in mst)


@pytest.mark.parametrize("fractions", [False, True], ids=["lattice", "fractions"])
@settings(max_examples=15, deadline=None)
@given(space=spaces(), rng=st.randoms(use_true_random=False))
def test_components_match_all_pairs_oracle(fractions, space, rng):
    with path(fractions):
        for s in probe_scales(space, rng):
            assert s_components(space, s) == oracle_components(space, s)
