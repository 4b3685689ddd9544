"""Union-find, minimum-spanning-tree machinery and the integer lattice.

Shared by the ultrametric certifier, the chain-infimum metric, and the
scale decomposition. Prim runs in O(n^2), which beats sorting all n^2/2
edges once spaces get into the hundreds of points.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
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


def prim_mst(dist) -> list[tuple[Fraction, int, int]]:
    """Minimum spanning tree edges of a complete graph given as a matrix.

    Deterministic: ties go to the smallest candidate index. Returns
    (weight, i, j) with i the tree endpoint discovered earlier, and the
    weight dist[i][j]. Comparisons run on the integer lattice; each row is
    converted once, when its vertex joins the tree, and only at the
    vertices still outside it.
    """
    n = len(dist)
    if n <= 1:
        return []
    scale = lattice_scale(chain.from_iterable(dist))
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


def merges(n: int, mst_edges) -> Iterator[tuple[Fraction, list[int], list[int]]]:
    """Single-linkage merges along a spanning tree of the points 0..n-1.

    Takes the edges in sorted() order, by (weight, i, j), and yields
    (weight, side_a, side_b) with the members of the two clusters each
    edge joins. Every pair of points is split across exactly one merge,
    at its minimax weight along the tree.
    """
    members = {i: [i] for i in range(n)}
    ds = DisjointSet(n)
    for w, i, j in sorted(mst_edges):
        ra, rb = ds.find(i), ds.find(j)
        if ra == rb:
            continue
        side_a, side_b = members.pop(ra), members.pop(rb)
        ds.union(ra, rb)
        members[ds.find(ra)] = side_a + side_b
        yield w, side_a, side_b


def bottleneck_matrix(n: int, mst_edges) -> list[list[Fraction]]:
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
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for _, i, j in mst_edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = {start: start}
    queue = [start]
    while queue:
        nxt: list[int] = []
        for u in queue:
            if u == goal:
                queue = []
                break
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        else:
            queue = nxt
            continue
        break
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path
