"""Group balls, the m0 audit and the embedding audit against their oracles.

group_ball and m0_distortion_check build distances from the block
structure of mixed-radix codes instead of comparing digit strings pair by
pair. d_filtration stays the one definition of the distance, so the balls
are checked against it entry by entry, and the m0 audit against the
per-pair Fraction loop it replaced.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrazero import (
    CyclicSumSpec,
    GroupElement,
    d_filtration,
    group_ball,
    group_isometric_embedding,
    m0_distortion_check,
)
from ultrazero import groups
from ultrazero.groups import M0Report, ball_elements, element_label


# ---------------------------------------------------------------- oracles


def oracle_ball(spec: CyclicSumSpec, radius: int):
    elements = ball_elements(spec, radius)
    labels = tuple(element_label(g) for g in elements)
    dist = tuple(tuple(Fraction(d_filtration(spec, p, q)) for q in elements) for p in elements)
    return labels, dist


def oracle_m0(max_len: int) -> M0Report:
    """The per-pair Fraction loop m0_distortion_check ran before."""
    spec = CyclicSumSpec.of([(2, None)])
    elements = [GroupElement.of(())]
    for ln in range(1, max_len + 1):
        for code in range(2 ** (ln - 1)):
            digits = [(code >> k) & 1 for k in range(ln - 1)] + [1]
            elements.append(GroupElement.of(digits))
    values = [groups.m0_encode(spec, g) for g in elements]
    powers = [3**k for k in range(max_len + 2)]
    pair_count = 0
    sharp, sharp_witness = True, None
    window, window_witness = True, None
    min_ratio = max_ratio = None
    for i, j in combinations(range(len(elements)), 2):
        p, q = elements[i], elements[j]
        if p.length != q.length:
            n = max(p.length, q.length)
        else:
            n = 0
            for k in range(p.length):
                if p.digits[k] != q.digits[k]:
                    n = k + 1
        delta = abs(values[i] - values[j])
        pair_count += 1
        if not powers[n - 1] < delta < powers[n]:
            sharp = False
            if sharp_witness is None:
                sharp_witness = (p.digits, q.digits, n, delta)
        ratio = Fraction(delta, powers[n])
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
        if not powers[n] <= delta <= powers[n + 1]:
            window = False
            if window_witness is None:
                window_witness = (p.digits, q.digits, n, delta)
    return M0Report(max_len, len(elements), pair_count, sharp, sharp_witness,
                    min_ratio, max_ratio, window, window_witness)


# ------------------------------------------------------------------ balls

MAX_ELEMENTS = 512


@st.composite
def specs_and_radii(draw):
    count = draw(st.integers(1, 4))
    summands = [(draw(st.integers(2, 7)), draw(st.integers(1, 3))) for _ in range(count)]
    if draw(st.booleans()):
        summands[-1] = (summands[-1][0], None)
    spec = CyclicSumSpec.of(summands)
    reach, size = 0, 1
    for order in spec.orders(spec.length if spec.length is not None else 12):
        if size * order > MAX_ELEMENTS:
            break
        reach, size = reach + 1, size * order
    return spec, draw(st.integers(0, reach))


@settings(max_examples=60, deadline=None)
@given(specs_and_radii())
def test_ball_matches_d_filtration(spec_radius):
    spec, radius = spec_radius
    ball = group_ball(spec, radius)
    assert (ball.labels, ball.dist) == oracle_ball(spec, radius)


def test_ball_at_the_full_length_of_a_finite_spec():
    spec = CyclicSumSpec.of([(3, 1), (2, 2), (5, 1)])
    ball = group_ball(spec, spec.length)
    assert ball.n == 60
    assert (ball.labels, ball.dist) == oracle_ball(spec, spec.length)


def test_ball_rows_share_one_fraction_per_stage():
    ball = group_ball(CyclicSumSpec.of([(2, None)]), 4)
    assert len({id(v) for row in ball.dist for v in row}) <= 5


# --------------------------------------------------------------------- m0


@pytest.mark.parametrize("max_len", range(1, 10))
def test_m0_matches_the_pair_loop(max_len):
    assert m0_distortion_check(max_len) == oracle_m0(max_len)


def _encoder(factor: int = 1, code: int = -1, by: int = 0):
    """factor times m0_encode, plus by on the image of the element coded code."""
    real = groups.m0_encode

    def encode(spec, element):
        value = factor * real(spec, element)
        return value + by if sum(d << k for k, d in enumerate(element.digits)) == code else value

    return encode


@pytest.mark.parametrize("encode", [
    _encoder(code=37, by=3**5),  # breaks the sharp bound in the middle of the scan
    _encoder(code=1, by=7),  # moves the first window witness and the ratios
    _encoder(factor=3),  # every pair leaves the sharp window, none the one-up window
    _encoder(factor=3, code=6, by=5),
], ids=["sharp-middle", "window-moved", "tripled", "tripled-one-off"])
def test_m0_witnesses_follow_combinations_order(encode, monkeypatch):
    monkeypatch.setattr(groups, "m0_encode", encode)
    for max_len in (3, 6):
        assert m0_distortion_check(max_len) == oracle_m0(max_len)


def test_m0_sharp_witness_is_found_past_the_first_row(monkeypatch):
    monkeypatch.setattr(groups, "m0_encode", _encoder(code=37, by=3**5))
    report = m0_distortion_check(6)
    assert not report.sharp_holds
    assert report.sharp_witness == ((), (1, 0, 1, 0, 0, 1), 6, 749)


# -------------------------------------------------------------- embedding

EMBEDS = [([(2, None)], [(3, None)], 4), ([(2, None)], [(2, 2), (3, None)], 5),
          ([(3, 1), (2, None)], [(4, 2), (2, None)], 4), ([(5, 2)], [(5, 2)], 2),
          ([(2, None)], [(2, None)], 0)]


@pytest.mark.parametrize("src, dst, depth", EMBEDS)
def test_embedding_is_an_isometry_of_the_balls(src, dst, depth):
    g, h = CyclicSumSpec.of(src), CyclicSumSpec.of(dst)
    emb = group_isometric_embedding(g, h, depth)
    assert emb.source == group_ball(g, depth)
    assert emb.target == group_ball(h, depth)
    n = emb.source.n
    assert emb.checked_pairs == n * (n - 1) // 2
    for i, j in combinations(range(n), 2):
        assert emb.source.d(i, j) == emb.target.d(emb.assignment[i], emb.assignment[j])


def test_embedding_audit_survives_optimized_mode(run_optimized):
    done = run_optimized("""
        from ultrazero import CyclicSumSpec, FiniteMetricSpace, groups

        real = groups.group_ball

        def bumped(spec, radius):
            ball = real(spec, radius)
            rows = [list(row) for row in ball.dist]
            rows[1][3] = rows[3][1] = rows[1][3] + 1  # images of codes 1 and 2
            return FiniteMetricSpace(ball.labels, tuple(map(tuple, rows)))

        groups.group_ball = bumped
        two, three = CyclicSumSpec.of([(2, None)]), CyclicSumSpec.of([(3, None)])
        try:
            groups.group_isometric_embedding(two, three, 3)
        except AssertionError as exc:
            print("raised:", exc)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: digitwise map failed the isometry audit\n"


def test_quantize_window_check_survives_optimized_mode(run_optimized):
    done = run_optimized("""
        from ultrazero import metric_core, validate_metric

        real = metric_core.ceil_exponent_base3
        metric_core.ceil_exponent_base3 = lambda q: real(q) + 1
        space = validate_metric(["a", "b", "c"], [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
        try:
            metric_core.quantize_3adic(space)
        except AssertionError as exc:
            print("raised:", exc)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: 1 rounded to 3, outside [t, 3t)\n"
