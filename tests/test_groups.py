"""Direct sums of cyclic groups carried as filtration metric spaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrazero import (
    CyclicSumSpec,
    GroupElement,
    UltrazeroError,
    d_filtration,
    group_ball,
    group_isometric_embedding,
    is_ultrametric,
    m0_distortion_check,
    m0_encode,
    protasov_equivalent,
    sylow_number,
    validate_metric,
)
from ultrazero.groups import ball_elements, element_label, validate_element

F = Fraction


def err(code):
    return pytest.raises(UltrazeroError, match=rf"^{code}:")


def spec(*summands):
    return CyclicSumSpec.of(summands)


Z2INF = spec((2, None))
Z4INF = spec((4, None))
MIXED = spec((2, 1), (3, 1), (2, 1))


class TestSpec:
    def test_length_and_infinity(self):
        assert MIXED.length == 3
        assert not MIXED.is_infinite
        assert Z2INF.length is None
        assert Z2INF.is_infinite

    def test_orders_expansion(self):
        assert spec((2, 2), (5, 1)).orders(3) == (2, 2, 5)
        assert Z2INF.orders(4) == (2, 2, 2, 2)
        assert MIXED.orders(0) == ()

    def test_orders_reject_a_depth_that_is_not_an_int(self):
        for depth in (True, 2.0):
            with err("BadParameters"):
                Z2INF.orders(depth)
            with err("BadParameters"):
                group_ball(Z2INF, depth)
            with err("BadParameters"):
                group_isometric_embedding(Z2INF, Z4INF, depth)

    def test_orders_overflow(self):
        with err("RadiusExceedsSpec"):
            MIXED.orders(4)
        with err("BadParameters"):
            MIXED.orders(-1)

    def test_rejects_bad_summands(self):
        with err("MalformedInput"):
            spec((1, 1))
        with err("MalformedInput"):
            spec((2, 0))
        with err("MalformedInput"):
            spec((2, None), (3, 1))


class TestElements:
    def test_canonical_trim(self):
        assert GroupElement.of([1, 0, 2, 0, 0]).digits == (1, 0, 2)
        assert GroupElement.of([0, 0]).digits == ()
        assert GroupElement.of([]).length == 0

    def test_digit_is_one_based(self):
        g = GroupElement.of([1, 0, 2])
        assert g.digit(1) == 1
        assert g.digit(3) == 2
        assert g.digit(7) == 0

    def test_rejects_bad_digits(self):
        with err("MalformedInput"):
            GroupElement.of([-1])
        with err("MalformedInput"):
            GroupElement.of([True])

    def test_validate_against_spec(self):
        validate_element(MIXED, GroupElement.of([1, 2, 1]))
        with err("DigitOutOfRange"):
            validate_element(MIXED, GroupElement.of([1, 3]))


class TestFiltrationDistance:
    def test_frozen_values(self):
        e = GroupElement.of([])
        assert d_filtration(MIXED, GroupElement.of([1, 1, 1]), GroupElement.of([1, 1])) == 3
        assert d_filtration(spec((2, 2)), GroupElement.of([1, 1]), GroupElement.of([0, 1])) == 1
        assert d_filtration(MIXED, e, e) == 0

    def test_equal_length_uses_top_disagreement(self):
        s = spec((5, 4))
        a = GroupElement.of([1, 2, 3, 4])
        b = GroupElement.of([1, 0, 3, 4])
        assert d_filtration(s, a, b) == 2


ORDERS6 = (2, 2, 3, 3, 4, 4)
HSPEC = spec((2, 2), (3, 2), (4, None))


@st.composite
def elements(draw):
    length = draw(st.integers(0, 6))
    digits = [draw(st.integers(0, ORDERS6[i] - 1)) for i in range(length)]
    return GroupElement.of(digits)


def _add(p: GroupElement, q: GroupElement) -> GroupElement:
    n = max(p.length, q.length)
    return GroupElement.of(
        [(p.digit(i + 1) + q.digit(i + 1)) % ORDERS6[i] for i in range(n)]
    )


@settings(max_examples=120, deadline=None)
@given(elements(), elements(), elements())
def test_filtration_distance_is_invariant_ultrametric(p, q, r):
    d_pq = d_filtration(HSPEC, p, q)
    assert d_pq == d_filtration(HSPEC, q, p)
    assert (d_pq == 0) == (p == q)
    # strong triangle inequality
    assert d_pq <= max(d_filtration(HSPEC, p, r), d_filtration(HSPEC, r, q))
    # translating both arguments never changes the distance
    assert d_filtration(HSPEC, _add(r, p), _add(r, q)) == d_pq


class TestBalls:
    def test_counter_order(self):
        ball = group_ball(spec((2, 2)), 2)
        assert ball.labels == ("e", "1", "0.1", "1.1")
        assert ball.d(0, 1) == 1
        assert ball.d(0, 2) == 2
        assert ball.d(1, 3) == 2

    def test_radius_zero(self):
        ball = group_ball(MIXED, 0)
        assert ball.labels == ("e",)

    def test_rejects_negative_radius(self):
        with err("BadParameters"):
            group_ball(MIXED, -1)

    def test_sizes_multiply(self):
        assert group_ball(MIXED, 3).n == 2 * 3 * 2
        assert group_ball(Z2INF, 5).n == 32

    def test_balls_are_ultrametric(self):
        for s, r in ((MIXED, 3), (Z4INF, 3), (spec((5, 1), (2, 2)), 3)):
            ball = group_ball(s, r)
            validate_metric(ball.labels, ball.dist)
            assert is_ultrametric(ball)

    def test_matches_d_filtration(self):
        s = spec((3, 1), (2, None))
        ball = group_ball(s, 3)
        els = ball_elements(s, 3)
        for i in range(ball.n):
            for j in range(i + 1, ball.n):
                assert ball.d(i, j) == d_filtration(s, els[i], els[j])

    def test_labels_match_elements(self):
        els = ball_elements(MIXED, 2)
        assert [element_label(g) for g in els] == list(group_ball(MIXED, 2).labels)


class TestIsometricEmbedding:
    def test_widening_orders(self):
        emb = group_isometric_embedding(spec((2, 2)), spec((4, 1), (2, 1)), 2)
        assert not emb.bijective
        assert emb.checked_pairs == 6
        assert emb.source.n == 4 and emb.target.n == 8
        # spot-check the digitwise recomposition preserves one distance
        assert emb.source.d(1, 2) == emb.target.d(emb.assignment[1], emb.assignment[2])

    def test_equal_specs_bijective(self):
        emb = group_isometric_embedding(MIXED, MIXED, 3)
        assert emb.bijective
        assert sorted(emb.assignment) == list(range(emb.target.n))

    def test_rejects_shrinking_orders(self):
        with err("IndexConditionFails") as exc:
            group_isometric_embedding(spec((4, 1)), spec((2, 2)), 1)
        assert exc.value.witness == (1, 4, 2)

    def test_rejects_depth_past_source(self):
        with err("RadiusExceedsSpec"):
            group_isometric_embedding(spec((2, 1)), spec((2, 2)), 2)


class TestSylow:
    def test_finite_spec(self):
        s = spec((2, 1), (4, 1), (3, 1), (5, 1))
        assert sylow_number(s, 2).value() == 8
        assert sylow_number(s, 3).value() == 3
        assert sylow_number(s, 5).text() == "5"
        assert sylow_number(s, 7).value() == 1

    def test_infinite_spec(self):
        assert sylow_number(Z2INF, 2).is_infinite
        assert sylow_number(Z2INF, 2).text() == "inf"
        assert sylow_number(Z2INF, 3).value() == 1

    def test_rejects_non_prime(self):
        for p in (4, 1, 0, -3, 2.0, True):
            with err("NotPrime"):
                sylow_number(MIXED, p)

    def test_matches_ball_cardinality_valuation(self):
        # for finite specs the Sylow number is exactly the p-part of the
        # full ball size
        for s in (MIXED, spec((6, 2)), spec((8, 1), (9, 1), (10, 1))):
            size = group_ball(s, s.length).n
            for p in (2, 3, 5, 7):
                got = sylow_number(s, p).value()
                part = 1
                while size % (part * p) == 0:
                    part *= p
                assert got == part


class TestProtasov:
    def test_two_and_four_power_sums_agree(self):
        report = protasov_equivalent(Z2INF, Z4INF)
        assert report.equivalent
        assert report.witness is None
        assert [p for p, _, _ in report.table] == [2]

    def test_extra_three_summand_separates(self):
        withthree = spec((3, 1), (2, None))
        report = protasov_equivalent(Z2INF, withthree)
        assert not report.equivalent
        assert report.witness == 3

    def test_finite_regrouping_agrees(self):
        report = protasov_equivalent(spec((4, 1)), spec((2, 2)))
        assert report.equivalent

    def test_finite_size_gap_separates(self):
        report = protasov_equivalent(spec((4, 1)), spec((8, 1)))
        assert not report.equivalent
        assert report.witness == 2


class TestDoublingMap:
    def test_frozen_values(self):
        assert m0_encode(Z2INF, GroupElement.of([])) == 0
        assert m0_encode(Z2INF, GroupElement.of([1])) == 2
        assert m0_encode(Z2INF, GroupElement.of([1, 0, 1])) == 20

    def test_rejects_non_binary_spec(self):
        with err("NotBinarySpec"):
            m0_encode(spec((3, None)), GroupElement.of([1]))

    def test_rejects_bad_digit(self):
        with err("DigitOutOfRange"):
            m0_encode(Z2INF, GroupElement.of([2]))

    def test_distortion_audit_small(self):
        report = m0_distortion_check(4)
        assert report.element_count == 16
        assert report.pair_count == 120
        assert report.sharp_holds
        assert report.sharp_witness is None
        assert not report.window_holds
        assert report.window_witness == ((), (1,), 1, 2)
        assert 0 < report.min_ratio < 1
        assert report.max_ratio < 1

    def test_images_are_injective_with_spread_digits(self):
        seen = set()
        for g in ball_elements(Z2INF, 5):
            v = m0_encode(Z2INF, g)
            assert v not in seen
            seen.add(v)
            while v:
                assert v % 3 in (0, 2)
                v //= 3

    def test_rejects_bad_max_len(self):
        with err("BadParameters"):
            m0_distortion_check(0)
        with err("BadParameters"):
            m0_distortion_check(21)
