"""Union-find, minimum-spanning-tree machinery and the integer lattice.

Shared by the ultrametric certifier, the chain-infimum metric, and the
scale decomposition. Prim runs in O(n^2), which beats sorting all n^2/2
edges once spaces get into the hundreds of points.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain

# ------------------------------------------------------- integer lattice
#
# Exact comparisons run on integers: every value times the LCM of the
# denominators in play, which preserves all sums and comparisons exactly.
# Many coprime denominators would make that LCM, and so every entry, huge
# (twenty thousand 20-bit primes give about 400,000 bits). Past
# _SCALE_BITS the callers compare the Fractions themselves: the same
# result, slower, in the memory the input already holds.

_SCALE_BITS = 1024


def lattice_scale(values: Iterable[Fraction]) -> int | None:
    """LCM of the values' denominators; None past _SCALE_BITS bits."""
    scale = 1
    for q in {v.denominator for v in values}:
        scale = math.lcm(scale, q)
        if scale.bit_length() > _SCALE_BITS:
            return None
    return scale


def lattice(values: Iterable[Fraction], scale: int | None) -> list:
    """The values times scale, as ints; the values themselves when scale is None."""
    if scale is None:
        return list(values)
    return [v.numerator * (scale // v.denominator) for v in values]


def lattice_rows(rows: Sequence[Sequence[Fraction]]) -> Sequence[Sequence]:
    """rows on the integer lattice; rows itself past its bit bound."""
    scale = lattice_scale(chain.from_iterable(rows))
    if scale is None:
        return rows
    return [lattice(row, scale) for row in rows]


class DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def prim_mst(dist, scale: int | None) -> list[tuple[Fraction, int, int]]:
    """Minimum spanning tree edges of a complete graph given as a matrix.

    Deterministic: ties go to the smallest candidate index. Returns
    (weight, i, j) with i the tree endpoint discovered earlier, and the
    weight dist[i][j]. Comparisons run on the lattice of scale, the
    matrix's lattice_scale; each row is converted once, when its vertex
    joins the tree, and only at the vertices still outside it.
    """
    n = len(dist)
    if n <= 1:
        return []
    rest = list(range(1, n))  # outside the tree, in index order
    best = lattice(dist[0][1:], scale)
    best_from = [0] * (n - 1)
    edges: list[tuple[Fraction, int, int]] = []
    while rest:
        k = best.index(min(best))  # first minimum: the smallest index
        v, i = rest.pop(k), best_from.pop(k)
        del best[k]
        edges.append((dist[i][v], i, v))
        row = dist[v]
        for t, w in enumerate(lattice([row[u] for u in rest], scale)):
            if w < best[t]:
                best[t] = w
                best_from[t] = v
    return edges


def spanning_tree(dist) -> tuple[int | None, list[tuple[Fraction, int, int]], list]:
    """The matrix's lattice scale, its minimum spanning tree and the tree's
    heights: the one tree every scale and ultrametric computation reads.

    The edges come in sorted() order, by (weight, i, j), sorted once on
    the lattice; heights lists their weights on it, in the same order.
    """
    # a symmetric matrix with a zero diagonal: the row tails hold every value
    scale = lattice_scale(chain.from_iterable(row[i + 1:] for i, row in enumerate(dist)))
    edges = prim_mst(dist, scale)
    heights = lattice((w for w, _, _ in edges), scale)
    order = sorted((h, i, j) for h, (_, i, j) in zip(heights, edges))
    return scale, [(dist[i][j], i, j) for _, i, j in order], [h for h, _, _ in order]


def merges(n: int, mst_edges) -> Iterator[tuple[Fraction, list[int], list[int]]]:
    """Single-linkage merges along a spanning tree of the points 0..n-1.

    Takes the edges in sorted() order, by (weight, i, j), as spanning_tree
    gives them, and yields (weight, side_a, side_b) with the members of
    the two clusters each edge joins. Every pair of points is split across
    exactly one merge, at its minimax weight along the tree.
    """
    members = {i: [i] for i in range(n)}
    ds = DisjointSet(n)
    for w, i, j in mst_edges:
        ra, rb = ds.find(i), ds.find(j)
        if ra == rb:
            continue
        side_a, side_b = members.pop(ra), members.pop(rb)
        ds.union(ra, rb)
        members[ds.find(ra)] = side_a + side_b
        yield w, side_a, side_b


def bottleneck_matrix(n: int, mst_edges) -> list[list]:
    """All-pairs minimax edge weight along the tree, as a full matrix;
    each pair is filled once, at its merge, so O(n^2) overall."""
    zero = Fraction(0)
    rho = [[zero] * n for _ in range(n)]
    for w, side_a, side_b in merges(n, mst_edges):
        for a in side_a:
            row = rho[a]
            for b in side_b:
                row[b] = w
                rho[b][a] = w
    return rho


def tree_path(n: int, mst_edges, start: int, goal: int) -> list[int]:
    """Vertex path from start to goal inside the spanning tree."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for _, i, j in mst_edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {start: start}
    stack = [start]
    while goal not in parent:  # a tree has one path, so any search finds it
        u = stack.pop()
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                stack.append(v)
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path
