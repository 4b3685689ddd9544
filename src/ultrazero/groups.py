"""Direct sums of cyclic groups carried as metric spaces.

A spec lists cyclic summand orders with multiplicities (the last may be
infinite). Elements are finite digit strings, digit i running over
0..order_i-1, trailing zeros trimmed. The distance between two elements
is the smallest filtration stage separating them: the longer length when
lengths differ, otherwise the largest disagreeing position. Balls around
the identity are finite ultrametric spaces with integer distances.

Also here: digitwise isometric embeddings between balls, Sylow counts,
the equal-Sylow equivalence decision, and the doubling map into integers
whose ternary digits avoid 1, with its exact distortion audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import sub
from typing import Sequence

from .errors import fail
from .metric_core import FiniteMetricSpace
from .rational import ratio_window


@dataclass(frozen=True)
class CyclicSumSpec:
    """Cyclic summand orders with multiplicities; None means infinitely many.

    summands is a tuple of (order, multiplicity) with order >= 2; only the
    final multiplicity may be None.
    """

    summands: tuple[tuple[int, int | None], ...]

    @classmethod
    def of(cls, summands: Sequence[tuple[int, int | None]]) -> "CyclicSumSpec":
        items = []
        for pos, (order, mult) in enumerate(summands):
            if not isinstance(order, int) or isinstance(order, bool) or order < 2:
                raise fail("MalformedInput", f"summand {pos}: order must be an integer >= 2")
            if mult is None:
                if pos != len(summands) - 1:
                    raise fail(
                        "MalformedInput",
                        f"summand {pos}: only the last multiplicity may be infinite",
                    )
            elif not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise fail("MalformedInput", f"summand {pos}: multiplicity must be >= 1")
            items.append((order, mult))
        return cls(tuple(items))

    @property
    def is_infinite(self) -> bool:
        return any(mult is None for _, mult in self.summands)

    @property
    def length(self) -> int | None:
        """Number of summands, None when infinite."""
        if self.is_infinite:
            return None
        return sum(mult for _, mult in self.summands)  # type: ignore[misc]

    def orders(self, depth: int) -> tuple[int, ...]:
        """The first ``depth`` summand orders, expanded by multiplicity."""
        if type(depth) is not int:
            raise fail("BadParameters", f"depth must be an integer, got {depth!r}")
        if depth < 0:
            raise fail("BadParameters", f"depth must be nonnegative, got {depth}")
        if depth == 0:
            return ()
        out: list[int] = []
        for order, mult in self.summands:
            take = depth - len(out) if mult is None else min(mult, depth - len(out))
            out.extend([order] * take)
            if len(out) == depth:
                return tuple(out)
        raise fail(
            "RadiusExceedsSpec",
            f"depth {depth} exceeds the {len(out)} available summands",
            depth, len(out),
        )


@dataclass(frozen=True)
class GroupElement:
    """Canonical digit string: trailing zeros trimmed, identity is empty."""

    digits: tuple[int, ...]

    @classmethod
    def of(cls, digits: Sequence[int]) -> "GroupElement":
        ds = list(digits)
        for d in ds:
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise fail("MalformedInput", f"digit {d!r} is not a nonnegative integer")
        while ds and ds[-1] == 0:
            ds.pop()
        return cls(tuple(ds))

    @property
    def length(self) -> int:
        return len(self.digits)

    def digit(self, i: int) -> int:
        """1-based digit access, 0 beyond the length."""
        return self.digits[i - 1] if 1 <= i <= len(self.digits) else 0


def validate_element(spec: CyclicSumSpec, element: GroupElement) -> None:
    """Check digits against the spec's expanded orders."""
    if element.length == 0:
        return
    orders = spec.orders(element.length)
    for i, d in enumerate(element.digits):
        if d >= orders[i]:
            raise fail(
                "DigitOutOfRange",
                f"digit {d} at position {i + 1} exceeds order {orders[i]}",
                i + 1, d, orders[i],
            )


def d_filtration(spec: CyclicSumSpec, p: GroupElement, q: GroupElement) -> int:
    """Smallest filtration stage containing the difference of p and q.

    Equals max(|p|, |q|) when the lengths differ, otherwise the largest
    position where the digits disagree (0 when p = q).
    """
    validate_element(spec, p)
    validate_element(spec, q)
    if p.length != q.length:
        return max(p.length, q.length)
    top = 0
    for i in range(p.length):
        if p.digits[i] != q.digits[i]:
            top = i + 1
    return top


def element_label(element: GroupElement) -> str:
    if element.length == 0:
        return "e"
    return ".".join(str(d) for d in element.digits)


def ball_elements(spec: CyclicSumSpec, radius: int) -> list[GroupElement]:
    """Every element of the radius-th filtration stage, counter order.

    The first digit runs fastest, so index 0 is the identity and the
    enumeration is the mixed-radix counter over the expanded orders.
    """
    orders = spec.orders(radius)
    total = 1
    for a in orders:
        total *= a
    out: list[GroupElement] = []
    for code in range(total):
        digits = []
        rest = code
        for a in orders:
            digits.append(rest % a)
            rest //= a
        out.append(GroupElement.of(digits))
    return out


def _ball(spec: CyclicSumSpec, radius: int) -> tuple[list[GroupElement], FiniteMetricSpace]:
    """The radius-th filtration ball and its elements, in counter order.

    With W_k = order_1 * ... * order_k, the element with digits d_1 d_2 ...
    has code sum d_i * W_(i-1). Two codes agree on every digit past position
    k exactly when they lie in one block of W_k consecutive codes. The
    filtration distance is the most significant position where the digits
    differ: d_filtration takes the larger length when the lengths differ,
    and the shorter element has digit 0 there, or else the largest
    disagreeing position. So it is the first stage k at which the two codes
    share a block of W_k. The stage-k matrix is therefore order_k x order_k
    blocks of width W_(k-1): the stage k-1 matrix on the diagonal and the
    constant k off it. Each row starts as [0] and is widened one stage at a
    time, by the digit of its code at that stage, and all the entries k of
    a stage share one Fraction. Rows are finished one at a time rather than
    as whole stage matrices, so no stage is held beside the next.
    """
    if radius < 0:
        raise fail("BadParameters", f"radius must be nonnegative, got {radius}")
    elements = ball_elements(spec, radius)
    stages = []  # (the entry k, order_k, W_(k-1))
    size = 1
    for k, order in enumerate(spec.orders(radius), 1):
        stages.append(((Fraction(k),), order, size))
        size *= order
    zero = (Fraction(0),)
    rows = []
    for code in range(size):
        row, rest = zero, code
        for fill, order, block in stages:
            rest, pos = divmod(rest, order)
            row = fill * (pos * block) + row + fill * ((order - 1 - pos) * block)
        rows.append(row)
    labels = tuple(element_label(g) for g in elements)
    return elements, FiniteMetricSpace(labels, tuple(rows))


def group_ball(spec: CyclicSumSpec, radius: int) -> FiniteMetricSpace:
    """The filtration ball of the given radius as a finite metric space."""
    return _ball(spec, radius)[1]


@dataclass(frozen=True)
class GroupEmbedding:
    """Digitwise isometric embedding between filtration balls."""

    source: FiniteMetricSpace
    target: FiniteMetricSpace
    depth: int
    assignment: tuple[int, ...]
    bijective: bool
    checked_pairs: int


def group_isometric_embedding(
    g: CyclicSumSpec, h: CyclicSumSpec, depth: int
) -> GroupEmbedding:
    """Embed the depth-ball of g into the depth-ball of h digit by digit.

    Works exactly when every stage of g is no wider than the matching
    stage of h (order_i(g) <= order_i(h) for i <= depth); the offending
    1-based stage is reported otherwise. The isometry is audited over all
    pairs before returning.
    """
    a = g.orders(depth)
    b = h.orders(depth)
    for i in range(depth):
        if a[i] > b[i]:
            raise fail(
                "IndexConditionFails",
                f"stage {i + 1}: source order {a[i]} exceeds target order {b[i]}",
                i + 1, a[i], b[i],
            )
    src_elements, source = _ball(g, depth)
    target = group_ball(h, depth)
    # recompose each digit string in the target's mixed radix
    weights = []
    w = 1
    for order in b:
        weights.append(w)
        w *= order
    assignment = []
    for el in src_elements:
        code = 0
        for pos, d in enumerate(el.digits):
            code += d * weights[pos]
        assignment.append(code)
    checked = 0
    for i, image in enumerate(assignment):
        row = target.dist[image]
        if tuple(map(row.__getitem__, assignment[i + 1:])) != source.dist[i][i + 1:]:
            raise AssertionError("digitwise map failed the isometry audit")
        checked += source.n - 1 - i
    bijective = source.n == target.n
    return GroupEmbedding(source, target, depth, tuple(assignment), bijective, checked)


def _smallest_factor(n: int, start: int = 2) -> int:
    """Smallest prime factor of n > 1, given that n has none below start."""
    k = start
    while k * k <= n:
        if n % k == 0:
            return k
        k += 1 if k == 2 else 2
    return n


def _is_prime(p: int) -> bool:
    return type(p) is int and p >= 2 and _smallest_factor(p) == p


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class SylowNumber:
    """p-part of the group order: p**exponent, infinite when exponent is None."""

    prime: int
    exponent: int | None

    @property
    def is_infinite(self) -> bool:
        return self.exponent is None

    def value(self) -> int | None:
        if self.exponent is None:
            return None
        return self.prime**self.exponent

    def text(self) -> str:
        return "inf" if self.exponent is None else str(self.prime**self.exponent)


def sylow_number(spec: CyclicSumSpec, p: int) -> SylowNumber:
    """Largest p-power order among finite subgroups, possibly infinite."""
    if not _is_prime(p):
        raise fail("NotPrime", f"{p} is not a prime")
    exponent = 0
    for order, mult in spec.summands:
        v = _valuation(order, p)
        if v == 0:
            continue
        if mult is None:
            return SylowNumber(p, None)
        exponent += v * mult
    return SylowNumber(p, exponent)


@dataclass(frozen=True)
class ProtasovReport:
    """Sylow comparison table; equal tables decide coarse equivalence."""

    equivalent: bool
    table: tuple[tuple[int, SylowNumber, SylowNumber], ...]
    witness: int | None


def _prime_factors(n: int) -> set[int]:
    out = set()
    k = 2
    while n > 1:
        k = _smallest_factor(n, k)
        out.add(k)
        while n % k == 0:
            n //= k
    return out


def protasov_equivalent(g: CyclicSumSpec, h: CyclicSumSpec) -> ProtasovReport:
    """Compare Sylow numbers over every prime dividing either group."""
    primes: set[int] = set()
    for spec in (g, h):
        for order, _ in spec.summands:
            primes |= _prime_factors(order)
    table = []
    witness = None
    for p in sorted(primes):
        left = sylow_number(g, p)
        right = sylow_number(h, p)
        table.append((p, left, right))
        if witness is None and left != right:
            witness = p
    return ProtasovReport(witness is None, tuple(table), witness)


def m0_encode(spec: CyclicSumSpec, element: GroupElement) -> int:
    """Map a binary digit string to an integer with ternary digits 0 or 2."""
    for order, _ in spec.summands:
        if order != 2:
            raise fail("NotBinarySpec", f"summand order {order} is not 2")
    validate_element(spec, element)
    value = 0
    power = 1
    for d in element.digits:
        value += 2 * d * power
        power *= 3
    return value


@dataclass(frozen=True)
class M0Report:
    """Exhaustive distortion audit of the doubling map.

    For every pair at filtration distance n the difference of images must
    land strictly inside (3**(n-1), 3**n); min_ratio/max_ratio track
    |difference| / 3**n. window_holds reports whether the one-exponent-up
    window [3**n, 3**(n+1)] also contains every difference (it does not;
    the first failing pair is kept as a witness).
    """

    max_len: int
    element_count: int
    pair_count: int
    sharp_holds: bool
    sharp_witness: tuple[tuple[int, ...], tuple[int, ...], int, int] | None
    min_ratio: Fraction
    max_ratio: Fraction
    window_holds: bool
    window_witness: tuple[tuple[int, ...], tuple[int, ...], int, int] | None


def m0_distortion_check(max_len: int) -> M0Report:
    """Audit the doubling map over all binary strings up to max_len digits.

    The elements are the binary ball in counter order (see ball_elements):
    element i is the string of binary digits of i, lowest first, so index
    i *is* the code of its digits. Two codes i < j first share a block
    of 2**n codes at n = (i ^ j).bit_length(), the position of their most
    significant differing digit, which is d_filtration (see _ball). For a
    fixed i, the j > i at distance n are the upper half of the block of 2**n
    around i when digit n of i is 0, and there are none otherwise; these
    slices run through j in increasing order as n grows. Each slice is
    checked with C-level passes, and walked only on its first failure, so
    the witnesses are the first failing pairs in combinations order. The
    ratio |difference| / 3**n is smallest and largest at the extreme
    differences of some stage, so only those reach ratio_window.
    """
    if not isinstance(max_len, int) or isinstance(max_len, bool) or max_len < 1:
        raise fail("BadParameters", f"max_len must be a positive integer, got {max_len!r}")
    if max_len > 20:
        raise fail("BadParameters", f"max_len {max_len} is past the exhaustive range (20)")
    spec = CyclicSumSpec.of([(2, None)])
    elements = ball_elements(spec, max_len)
    values = [m0_encode(spec, g) for g in elements]
    powers = [3**k for k in range(max_len + 2)]
    stages = range(1, max_len + 1)
    smalls: list[list[int]] = [[] for _ in range(max_len + 1)]
    bigs: list[list[int]] = [[] for _ in range(max_len + 1)]
    pair_count = 0
    sharp_witness = None
    window_witness = None

    def witness(i, start, deltas, n, lo, hi):
        t = next(t for t, delta in enumerate(deltas) if not lo <= delta <= hi)
        return elements[i].digits, elements[start + t].digits, n, deltas[t]

    for i, vi in enumerate(values):
        for n in stages:
            half = 1 << (n - 1)
            if i & half:
                continue
            start = (i >> n << n) | half
            deltas = list(map(abs, map(sub, values[start:start + half], repeat(vi))))
            pair_count += half
            small, big = min(deltas), max(deltas)
            smalls[n].append(small)
            bigs[n].append(big)
            if sharp_witness is None and not powers[n - 1] < small <= big < powers[n]:
                sharp_witness = witness(i, start, deltas, n, powers[n - 1] + 1, powers[n] - 1)
            if window_witness is None and not powers[n] <= small <= big <= powers[n + 1]:
                window_witness = witness(i, start, deltas, n, powers[n], powers[n + 1])
    extremes = ((d, powers[n]) for n in stages for d in (min(smalls[n]), max(bigs[n])))
    return M0Report(
        max_len,
        len(elements),
        pair_count,
        sharp_witness is None,
        sharp_witness,
        *ratio_window(extremes),
        window_witness is None,
        window_witness,
    )
