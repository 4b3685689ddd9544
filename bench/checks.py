"""Independent result checks.

Each check compares an output with facts fixed by how the input was
generated, or with facts the output proves on its own (a spanning tree
that certifies a subdominant, supports that reproduce distances). None of
them calls the program under test. A check raises ``CheckError`` on the
first fact that does not hold.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from inputs import archipelago, archipelago_doc

THREE = Fraction(3)


class CheckError(Exception):
    pass


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def frac(v) -> Fraction:
    need(isinstance(v, (int, str)) and not isinstance(v, bool), f"not a rational: {v!r}")
    return Fraction(v)


def rstr(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def matrix(doc, labs) -> list[list[Fraction]]:
    need(doc.get("labels") == list(labs), "labels differ from the input")
    rows = doc["dist"]
    need(len(rows) == len(labs) and all(len(r) == len(labs) for r in rows), "matrix shape")
    return [[frac(v) for v in row] for row in rows]


def pairs(n: int):
    return itertools.combinations(range(n), 2)


def distinct(mat) -> list[Fraction]:
    return sorted({mat[i][j] for i, j in pairs(len(mat))})


def is_pow3(q: Fraction) -> bool:
    num, den = q.numerator, q.denominator
    if num != 1 and den != 1:
        return False
    k = num * den
    while k % 3 == 0:
        k //= 3
    return k == 1


# --------------------------------------------------------------- metric

def validate_ok(doc, n: int) -> None:
    need(doc == {"valid": True, "points": n}, f"validate report {doc!r}")


def ultra_true(doc) -> None:
    need(doc == {"ultrametric": True, "witness": None}, "ultrametric input not certified")


def triangle(mat, idx, sides) -> None:
    """``idx`` is a triangle of the input whose sorted sides are ``sides``,
    with the two largest different (a <= b < c)."""
    need(len(set(idx)) == 3 and all(0 <= i < len(mat) for i in idx), f"not a triangle: {idx}")
    x, y, z = idx
    got = sorted((mat[x][y], mat[x][z], mat[y][z]))
    need(list(sides) == got, f"witness sides {sides} but the input has {got}")
    need(got[0] <= got[1] < got[2], f"witness {got} is not a violation")


def ultra_witness(doc, labs, mat) -> None:
    need(doc.get("ultrametric") is False, "non-ultrametric input certified")
    w = doc["witness"]
    idx = [labs.index(lab) for lab in w["triangle"]]
    triangle(mat, idx, [frac(s) for s in w["sides"]])


def partition(mat, scale: Fraction, blocks) -> None:
    """Blocks partition the points, no cross-block pair is within the scale,
    and each block is chained by steps within the scale."""
    n = len(mat)
    den, im = ints(mat)
    s = math.floor(scale * den)
    block_of = {}
    for b, block in enumerate(blocks):
        for i in block:
            need(i not in block_of, f"point {i} in two blocks")
            block_of[i] = b
    need(len(block_of) == n, "blocks do not cover the points")
    for i, j in pairs(n):
        if im[i][j] <= s:
            need(block_of[i] == block_of[j], f"pair {i},{j} within the scale is split")
    for block in blocks:
        seen, stack = {block[0]}, [block[0]]
        while stack:
            u = stack.pop()
            for v in block:
                if v not in seen and im[u][v] <= s:
                    seen.add(v)
                    stack.append(v)
        need(len(seen) == len(block), f"block {block[:4]} is not chained")


def components_doc(doc, labs, mat, scale: Fraction) -> None:
    need(doc["scale"] == rstr(scale), "scale echoed wrongly")
    index = {lab: i for i, lab in enumerate(labs)}
    partition(mat, scale, [[index[lab] for lab in block] for block in doc["blocks"]])


def ints(mat) -> tuple[int, list[list[int]]]:
    """(common denominator, the matrix times it as ints): integer
    comparisons keep the checks of large spaces fast."""
    den = 1
    for row in mat:
        for v in row:
            den = den * v.denominator // math.gcd(den, v.denominator)
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in mat]


def _scaled(v: Fraction, den: int) -> int:
    need(den % v.denominator == 0, f"{v} is not on the input's grid")
    return v.numerator * (den // v.denominator)


def subdominant(mat, rho, edges, ultra: bool) -> None:
    """``edges`` (w, i, j) form a spanning tree of input distances and
    ``rho`` is the largest tree weight on each path, never above the input.
    That makes rho the largest ultrametric below the input."""
    n = len(mat)
    den, im = ints(mat)
    need(len(edges) == n - 1, f"{len(edges)} spanning edges for {n} points")
    adj = {i: [] for i in range(n)}
    for w, i, j in edges:
        need(mat[i][j] == w, f"edge {i},{j} weight {w} is not the input distance")
        adj[i].append((j, im[i][j]))
        adj[j].append((i, im[i][j]))
    for s in range(n):
        top = [-1] * n
        top[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if top[v] < 0:
                    top[v] = max(top[u], w)
                    stack.append(v)
        need(min(top) >= 0, "spanning edges do not connect the points")
        row = [_scaled(v, den) for v in rho[s]]
        need(row == top, f"rho row {s} is not the path maxima")
        need(all(r <= d for r, d in zip(row, im[s])), f"rho row {s} exceeds the input")
    if ultra:
        need(rho == mat, "subdominant of an ultrametric differs from the input")


def subdominant_doc(doc, labs, mat, ultra: bool) -> None:
    rho = matrix(doc, labs)
    index = {lab: i for i, lab in enumerate(labs)}
    edges = [(frac(w), index[a], index[b]) for a, b, w in doc["spanning_edges"]]
    subdominant(mat, rho, edges, ultra)


def scale_table(mat) -> list[tuple[Fraction, Fraction]]:
    """(S, largest S-component diameter) at each distinct distance S."""
    n = len(mat)
    den, im = ints(mat)
    order = sorted(pairs(n), key=lambda p: im[p[0]][p[1]])
    root = list(range(n))
    members = {i: [i] for i in range(n)}
    diam = [0] * n

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    best = 0
    table = []
    pos = 0
    for s in sorted({im[i][j] for i, j in pairs(n)}):
        while pos < len(order) and im[order[pos][0]][order[pos][1]] <= s:
            a, b = (find(v) for v in order[pos])
            pos += 1
            if a == b:
                continue
            cross = max(im[u][v] for u in members[a] for v in members[b])
            root[b] = a
            members[a] += members.pop(b)
            diam[a] = max(diam[a], diam[b], cross)
            best = max(best, diam[a])
        table.append((Fraction(s, den), Fraction(best, den)))
    return table


def certificate(mat, m: Fraction, table, ultra: bool) -> None:
    want = scale_table(mat)
    need(list(table) == want, "scale table differs from the input's")
    need(m == max((d / s for s, d in want), default=Fraction(1)), "m is not max D/S")
    if ultra:
        need(m == 1, f"ultrametric input has m = {m}")


def certificate_doc(doc, mat, ultra: bool) -> None:
    table = [(frac(s), frac(d)) for s, d in doc["table"]]
    certificate(mat, frac(doc["m"]), table, ultra)


def bounds_doc(doc) -> None:
    need(doc == {"pass": True, "violations": []}, "scale bounds did not pass")


def quantized(mat, q) -> None:
    for i, j in pairs(len(mat)):
        d, v = mat[i][j], q[i][j]
        need(is_pow3(v) and d <= v < 3 * d, f"{v} is not the power of three above {d}")
        need(q[j][i] == v, "quantized matrix not symmetric")
    need(all(q[i][i] == 0 for i in range(len(mat))), "quantized diagonal")


# --------------------------------------------------------------- lomega

def _first_difference(p: dict, q: dict):
    diff = [i for i in p.keys() | q.keys() if p.get(i, 0) != q.get(i, 0)]
    return min(diff) if diff else None


def image_distances(supports):
    """Pairwise distances 3**(-first difference) between support maps."""
    maps = []
    for sup in supports:
        entries = [(int(i), int(s)) for i, s in sup]
        need(all(s >= 1 for _, s in entries), "support symbol below 1")
        maps.append(dict(entries))
    out = {}
    for i, j in pairs(len(maps)):
        k = _first_difference(maps[i], maps[j])
        out[i, j] = Fraction(0) if k is None else THREE ** (-k)
    return out


def embedding(mat, supports, quantize: bool) -> None:
    """Isometric (power-of-three input) or rounded up to the power of three
    above each distance (any ultrametric input)."""
    need(len(supports) == len(mat), "one image per point")
    for (i, j), got in image_distances(supports).items():
        d = mat[i][j]
        ok = (d <= got < 3 * d and is_pow3(got)) if quantize else got == d
        need(ok, f"images of {i},{j} sit at {got}, input {d}")


def _supports(doc, labs):
    need([p["label"] for p in doc["points"]] == list(labs), "embedding labels")
    return [p["support"] for p in doc["points"]]


def embedding_doc(doc, labs, mat) -> None:
    need(doc["mode"] == "isometric", "mode")
    embedding(mat, _supports(doc, labs), quantize=False)


def universal_doc(doc, labs, mat) -> None:
    """Every ratio of embedded to input distance lies in [1, 6m], with m
    recomputed from the input, and the reported window is the real one."""
    need(doc["mode"] == "universal" and doc["pass"] is True, "universal embedding failed")
    m = max((d / s for s, d in scale_table(mat)), default=Fraction(1))
    need(frac(doc["certificate_m"]) == m and frac(doc["bound"]) == 6 * m, "m or bound")
    ratios = [got / mat[i][j] for (i, j), got in image_distances(_supports(doc, labs)).items()]
    lo, hi = min(ratios), max(ratios)
    need(1 <= lo and hi <= 6 * m, f"ratio window [{lo}, {hi}] outside [1, {6 * m}]")
    need(frac(doc["min_ratio"]) == lo and frac(doc["max_ratio"]) == hi, "reported window")


# --------------------------------------------------------------- retract

def retraction(mat, subset, lam: Fraction, delta: Fraction, assignment, constant: Fraction):
    """The map fixes the subset, lands in it, and its Lipschitz constant,
    recomputed here, is the reported one and at most lambda."""
    need(1 < delta and delta * delta < lam, "delta out of range")
    for x, a in enumerate(assignment):
        need(a in subset, f"point {x} sent outside the subset")
        if x in subset:
            need(a == x, f"subset point {x} moved")
    best = Fraction(0)
    for i, j in pairs(len(mat)):
        best = max(best, mat[assignment[i]][assignment[j]] / mat[i][j])
    need(best == constant, f"audited constant {constant}, recomputed {best}")
    need(best <= lam, f"constant {best} exceeds lambda {lam}")


def retraction_doc(doc, labs, mat, base: str, subset_labels, lam: Fraction) -> None:
    index = {lab: i for i, lab in enumerate(labs)}
    subset = {index[lab] for lab in subset_labels}
    need(doc["base"] == base and doc["lambda"] == rstr(lam), "base or lambda")
    need(doc["subset"] == [labs[i] for i in sorted(subset)], "subset echoed wrongly")
    need(set(doc["assignment"]) == set(labs), "assignment does not cover the space")
    assignment = [index[doc["assignment"][lab]] for lab in labs]
    retraction(mat, subset, lam, frac(doc["delta"]), assignment, frac(doc["audited_constant"]))


def gauged(mat, knots, out) -> None:
    """``out`` is ``mat`` sent through the piecewise-linear gauge ``knots``."""

    def g(t):
        for (t0, v0), (t1, v1) in zip(knots, knots[1:]):
            if t <= t1:
                break
        return v0 + (t - t0) * (v1 - v0) / (t1 - t0)

    for i, j in pairs(len(mat)):
        need(out[i][j] == g(mat[i][j]) == out[j][i], f"gauged value at {i},{j}")


# ---------------------------------------------------------------- errors

def error_doc(doc, code: str, witness=None, message: str | None = None) -> None:
    need(doc.get("error") == code, f"error {doc.get('error')!r}, want {code}")
    if witness is not None:
        need(doc["witness"] == list(witness), f"witness {doc['witness']}, want {list(witness)}")
    if message is not None:
        need(doc["message"] == message, f"message {doc['message']!r}")


def triangle_violation_message(labs, mat, a: int, b: int, c: int) -> str:
    return (
        f"TriangleViolation: sides {rstr(mat[a][b])}, {rstr(mat[a][c])}, "
        f"{rstr(mat[b][c])} on ({labs[a]},{labs[b]},{labs[c]})"
    )


def not_ultrametric_doc(doc, mat) -> None:
    error_doc(doc, "NotUltrametric")
    x, y, z = doc["witness"]
    sides = sorted((mat[x][y], mat[x][z], mat[y][z]))
    triangle(mat, (x, y, z), sides)


# ---------------------------------------------------------------- groups

def ball_digits(orders) -> list[tuple[int, ...]]:
    """Elements of the ball in counter order, first digit fastest, with
    trailing zeros trimmed."""
    out = []
    for combo in itertools.product(*(range(a) for a in reversed(orders))):
        digits = list(reversed(combo))
        while digits and digits[-1] == 0:
            digits.pop()
        out.append(tuple(digits))
    return out


def element_label(digits) -> str:
    return ".".join(map(str, digits)) if digits else "e"


def filtration(p, q) -> int:
    if len(p) != len(q):
        return max(len(p), len(q))
    return max((k + 1 for k in range(len(p)) if p[k] != q[k]), default=0)


def group_ball_doc(doc, orders) -> None:
    elements = ball_digits(orders)
    need(doc["labels"] == [element_label(e) for e in elements], "ball labels")
    rows = doc["dist"]
    for i, p in enumerate(elements):
        row = rows[i]
        need(row[i] == 0, "ball diagonal")
        for j in range(i + 1, len(elements)):
            need(row[j] == filtration(p, elements[j]) == rows[j][i], f"ball distance {i},{j}")


def group_embed_doc(doc, src_orders, dst_orders, depth: int) -> None:
    src = ball_digits(src_orders)
    dst = {element_label(e): e for e in ball_digits(dst_orders)}
    amap = doc["assignment"]
    need(set(amap) == {element_label(e) for e in src}, "assignment domain")
    need(len(set(amap.values())) == len(src), "assignment not injective")
    image = [dst[amap[element_label(e)]] for e in src]
    for i, j in pairs(len(src)):
        need(filtration(src[i], src[j]) == filtration(image[i], image[j]), f"distortion at {i},{j}")
    need(doc["depth"] == depth and doc["bijective"] == (len(src) == len(dst)), "depth or bijective")
    need(doc["checked_pairs"] == len(src) * (len(src) - 1) // 2, "checked pairs")


def m0_encode(digits) -> int:
    return sum(2 * d * 3**k for k, d in enumerate(digits))


def m0_doc(doc, max_len: int) -> None:
    """The doubling map's sharp bound holds; the one-up window fails at a
    pair whose scale and difference are recomputed here."""
    count = 2**max_len
    need(doc["elements"] == count and doc["pairs"] == count * (count - 1) // 2, "counts")
    need(doc["sharp_bound_holds"] is True and doc["sharp_witness"] is None, "sharp bound")
    lo, hi = frac(doc["min_ratio"]), frac(doc["max_ratio"])
    need(Fraction(1, 3) < lo <= hi < 1, "ratio window")
    w = doc["window_witness"]
    need(doc["window_bound_holds"] is False and w is not None, "window witness missing")
    p, q = tuple(w["p"]), tuple(w["q"])
    n = filtration(p, q)
    delta = abs(m0_encode(p) - m0_encode(q))
    need(w["scale"] == n and w["difference"] == delta, "window witness values")
    need(not 3**n <= delta <= 3 ** (n + 1), "window witness is inside the window")


def sylow_value(summands, p: int) -> str:
    exponent = 0
    for order, mult in summands:
        v = 0
        while order % p == 0:
            order //= p
            v += 1
        if v and mult == "inf":
            return "inf"
        exponent += v * (0 if mult == "inf" else mult)
    return str(p**exponent)


def primes_of(summands) -> list[int]:
    out = set()
    for order, _ in summands:
        for p in range(2, order + 1):
            if order % p == 0 and all(p % q for q in range(2, p)):
                out.add(p)
    return sorted(out)


def sylow_doc(doc, summands, p: int) -> None:
    need(doc["prime"] == p and doc["value"] == sylow_value(summands, p), "sylow value")


def sylow_table(left, right) -> list[dict]:
    primes = sorted(set(primes_of(left)) | set(primes_of(right)))
    return [{"prime": p, "left": sylow_value(left, p), "right": sylow_value(right, p)} for p in primes]


def protasov_equivalent(left, right) -> bool:
    return all(t["left"] == t["right"] for t in sylow_table(left, right))


def protasov_doc(doc, left, right) -> None:
    table = sylow_table(left, right)
    need(doc["table"] == table, "sylow table")
    witness = next((t["prime"] for t in table if t["left"] != t["right"]), None)
    need(doc["witness"] == witness and doc["equivalent"] == (witness is None), "verdict")


# ----------------------------------------------------------- archipelago

def arch_build_doc(doc, plan, strict: bool) -> None:
    need(doc == archipelago_doc(plan, strict), "built archipelago differs from its law")


def expected_profile(plan, strict: bool):
    """Islands whose diameter is below their separation show as one
    cluster; the others fall apart into single points."""
    rows = []
    for size, diam, sep, _ in archipelago(plan, strict)[2]:
        rows += [(size, diam, sep)] if diam < sep else [(1, Fraction(0), sep)] * size
    return sorted(rows, key=lambda t: (t[2], t[1], t[0]))


def profile_doc(doc, plan, strict: bool) -> None:
    want = [[n, rstr(d), rstr(s)] for n, d, s in expected_profile(plan, strict)]
    need(doc["islands"] == want, "island profile differs from the plan")
    need(bool(doc["warnings"]) == any(n == 1 for n, _, _ in want), "warnings")


def compare_doc(doc, left, right) -> None:
    sets = [sorted({n for n, _, _ in expected_profile(p, s)}) for p, s in (left, right)]
    need(doc["size_sets"] == sets, "size sets")
    need(doc["verdict"] == ("distinct" if sets[0] != sets[1] else "indistinguishable"), "verdict")


def ball_audit_doc(doc, plan, strict: bool, samples) -> None:
    """Each sampled ball has the shape and size the construction law gives."""
    labs, mat, islands = archipelago(plan, strict)
    island_of = {u: isl for isl in islands for u in isl[3]}
    got = doc["samples"]
    need(doc["pass"] is True and len(got) == len(samples), "ball audit did not pass")
    for entry, (center, radius) in zip(got, samples):
        c = labs.index(center)
        card = sum(1 for v in range(len(labs)) if mat[c][v] <= radius)
        if c == 0:
            shape = "hub_ball"
        else:
            _, diam, sep, _ = island_of[c]
            shape = "singleton" if radius < diam else "island" if radius < sep else "hub_ball"
        want = {"center": center, "radius": rstr(radius), "shape": shape,
                "cardinality": card, "consistent": True}
        need(entry == want, f"ball sample {entry} != {want}")
