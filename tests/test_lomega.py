"""The universal symbol-sequence target and embeddings into it."""

from fractions import Fraction

import pytest

import gen
from ultrazero import (
    LOmegaPoint,
    ThreePower,
    UltrazeroError,
    embed_3n_valued,
    embed_ultrametric,
    embed_universal,
    extend_one_point,
    first_difference,
    is_ultrametric,
    mu,
    validate_metric,
)
from ultrazero.lomega import ZERO

F = Fraction


def err(code):
    return pytest.raises(UltrazeroError, match=rf"^{code}:")


def pt(*entries):
    return LOmegaPoint.from_support(entries)


ZERO_PT = LOmegaPoint.zero()


class TestThreePower:
    def test_zero_sorts_lowest(self):
        assert ZERO == ThreePower(None)
        assert ZERO.is_zero
        assert ZERO < ThreePower(-5) < ThreePower(0) < ThreePower(2)
        assert ThreePower(2) >= ThreePower(2) >= ZERO

    def test_as_fraction(self):
        assert ZERO.as_fraction() == 0
        assert ThreePower(0).as_fraction() == 1
        assert ThreePower(-2).as_fraction() == F(1, 9)
        assert ThreePower(3).as_fraction() == 27


class TestPoints:
    def test_from_support_drops_blanks(self):
        assert pt((0, 1), (3, 0)).entries == ((0, 1),)
        assert LOmegaPoint.from_support({-2: 4, 1: 0, 5: 2}).entries == (
            (-2, 4),
            (5, 2),
        )

    def test_from_support_rejects_junk(self):
        with err("MalformedInput"):
            LOmegaPoint.from_support({0: -1})
        with err("MalformedInput"):
            LOmegaPoint.from_support({F(1, 2): 1})
        with err("MalformedInput"):
            LOmegaPoint.from_support({0: True})
        for repeated in ([(1, 2), (1, 0)], [(1, 2), (1, 3)]):  # an index given twice
            with err("MalformedInput"):
                LOmegaPoint.from_support(repeated)
        for junk in ([1, 2], [([1], 2)], [(1,)]):  # not pairs, or an unhashable index
            with err("MalformedInput"):
                LOmegaPoint.from_support(junk)

    def test_symbol_at(self):
        p = pt((-1, 2), (4, 7))
        assert p.symbol_at(-1) == 2
        assert p.symbol_at(0) == 0
        assert p.symbol_at(4) == 7

    def test_first_difference(self):
        assert first_difference(ZERO_PT, ZERO_PT) is None
        assert first_difference(ZERO_PT, pt((0, 1))) == 0
        assert first_difference(pt((0, 1), (2, 1)), pt((0, 1), (2, 2))) == 2
        assert first_difference(pt((-3, 1)), ZERO_PT) == -3
        assert first_difference(pt((1, 1)), pt((2, 1))) == 1


class TestMu:
    def test_frozen_values(self):
        assert mu(ZERO_PT, pt((0, 1))) == ThreePower(0)
        assert mu(ZERO_PT, ZERO_PT) == ZERO
        assert mu(pt((2, 1)), pt((2, 2))) == ThreePower(-2)

    def test_symmetric_and_definite(self, make_rng):
        rng = make_rng(301)
        pts = [_random_point(rng) for _ in range(30)]
        for p in pts:
            for q in pts:
                assert mu(p, q) == mu(q, p)
                assert mu(p, q).is_zero == (p == q)

    def test_two_largest_sides_agree(self, make_rng):
        rng = make_rng(302)
        pts = [_random_point(rng) for _ in range(24)]
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                for c in range(b + 1, len(pts)):
                    sides = sorted(
                        [
                            mu(pts[a], pts[b]),
                            mu(pts[b], pts[c]),
                            mu(pts[a], pts[c]),
                        ]
                    )
                    assert sides[1] == sides[2]


def _random_point(rng):
    support = {}
    for _ in range(rng.randint(0, 4)):
        support[rng.randint(-4, 5)] = rng.randint(1, 3)
    return LOmegaPoint.from_support(support)


class TestExtendOnePoint:
    def test_basic_extension(self):
        new = extend_one_point([ZERO_PT, pt((0, 1))], (3, 3))
        assert new.entries == ((-1, 1),)
        assert mu(new, ZERO_PT).as_fraction() == 3
        assert mu(new, pt((0, 1))).as_fraction() == 3

    def test_fresh_symbol_avoids_collisions(self):
        new = extend_one_point([pt((-1, 1)), pt((-1, 2))], (3, 3))
        assert new.entries == ((-1, 3),)

    def test_copies_nearest_prefix(self):
        far = ZERO_PT
        near = pt((-1, 1), (0, 2))
        new = extend_one_point([far, near], (3, F(1, 3)))
        # below index 1 the new point must look like `near`
        assert new.truncate_below(1) == near.entries
        assert mu(new, near).as_fraction() == F(1, 3)
        assert mu(new, far).as_fraction() == 3

    def test_rejects_empty(self):
        with err("EmptySubset"):
            extend_one_point([], ())

    def test_rejects_length_mismatch(self):
        with err("InputMismatch"):
            extend_one_point([ZERO_PT], (1, 3))

    def test_rejects_nonpositive_distance(self):
        with err("BadParameters"):
            extend_one_point([ZERO_PT], (0,))

    def test_rejects_non_power_distance(self):
        with err("NotThreePowerValued"):
            extend_one_point([ZERO_PT], (2,))

    def test_rejects_float_distance(self):
        with err("MalformedInput"):
            extend_one_point([ZERO_PT], (3.0,))

    def test_rejects_inconsistent_prescription(self):
        # images sit at distance 1; asking for 1/3 and 9 breaks the
        # two-largest-sides rule on the new triangle
        with err("NotUltrametric"):
            extend_one_point([ZERO_PT, pt((0, 1))], (F(1, 3), 9))

    def test_random_prescriptions_from_spaces(self, make_rng):
        # carve the last point off a generated space and re-extend to it
        rng = make_rng(303)
        for _ in range(20):
            s = gen.random_3power_ultrametric(rng, rng.randint(3, 12))
            emb = embed_3n_valued(s)
            images = emb.images[:-1]
            dists = [s.d(i, s.n - 1) for i in range(s.n - 1)]
            new = extend_one_point(images, dists)
            for img, want in zip(images, dists):
                assert mu(new, img).as_fraction() == want


class TestEmbed3nValued:
    def test_two_points(self):
        s = validate_metric("pq", [[0, 9], [9, 0]])
        emb = embed_3n_valued(s)
        assert emb.images[0] == ZERO_PT
        assert emb.images[1].entries == ((-2, 1),)
        assert emb.mode == "isometric"
        assert emb.min_ratio == emb.max_ratio == 1
        assert emb.checked_pairs == 1

    def test_three_points(self):
        s = validate_metric("abc", [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
        emb = embed_3n_valued(s)
        assert [p.entries for p in emb.images] == [(), ((0, 1),), ((-1, 1),)]

    def test_single_point(self):
        s = validate_metric(["o"], [[0]])
        emb = embed_3n_valued(s)
        assert emb.images == (ZERO_PT,)
        assert emb.checked_pairs == 0

    def test_rejects_non_ultrametric(self):
        line = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with err("NotUltrametric"):
            embed_3n_valued(line)

    def test_rejects_non_power_values(self):
        s = validate_metric("pq", [[0, 2], [2, 0]])
        with err("NotThreePowerValued"):
            embed_3n_valued(s)

    def test_isometric_on_random_spaces(self, make_rng):
        rng = make_rng(304)
        for _ in range(30):
            s = gen.random_3power_ultrametric(rng, rng.randint(2, 24))
            emb = embed_3n_valued(s)
            for i, j in s.pairs():
                assert mu(emb.images[i], emb.images[j]).as_fraction() == s.d(i, j)

    def test_isometric_under_reordering(self, make_rng):
        rng = make_rng(305)
        s = gen.random_3power_ultrametric(rng, 15)
        for _ in range(4):
            t = gen.shuffled_copy(rng, s)
            emb = embed_3n_valued(t)
            assert emb.min_ratio == emb.max_ratio == 1


class TestEmbedUltrametric:
    def test_quantized_ratios(self):
        s = validate_metric("abc", [[0, 2, 5], [2, 0, 5], [5, 5, 0]])
        emb = embed_ultrametric(s)
        assert emb.mode == "quantized"
        assert emb.min_ratio == F(3, 2)
        assert emb.max_ratio == F(9, 5)

    def test_window_on_random_spaces(self, make_rng):
        rng = make_rng(306)
        for _ in range(25):
            s = gen.random_ultrametric(rng, rng.randint(2, 20))
            emb = embed_ultrametric(s)
            assert 1 <= emb.min_ratio <= emb.max_ratio < 3
            ratios = []
            for i, j in s.pairs():
                got = mu(emb.images[i], emb.images[j]).as_fraction()
                assert s.d(i, j) <= got < 3 * s.d(i, j)
                ratios.append(got / s.d(i, j))
            assert (min(ratios), max(ratios)) == (emb.min_ratio, emb.max_ratio)

    def test_power_valued_input_is_isometric(self, make_rng):
        rng = make_rng(307)
        s = gen.random_3power_ultrametric(rng, 10)
        emb = embed_ultrametric(s)
        assert emb.min_ratio == emb.max_ratio == 1

    def test_rejects_non_ultrametric(self):
        line = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with err("NotUltrametric"):
            embed_ultrametric(line)


class TestEmbedUniversal:
    def test_single_point(self):
        emb = embed_universal(validate_metric(["a"], [[0]]))
        assert emb.inner.images == (ZERO_PT,)
        assert (emb.m, emb.bound, emb.min_ratio, emb.max_ratio) == (1, 6, 1, 1)
        assert emb.passed

    def test_two_points(self):
        # 2m * d = 2 rounds up to 3, three times the source distance
        emb = embed_universal(validate_metric("ab", [[0, 1], [1, 0]]))
        assert emb.inner.mode == "isometric"
        assert mu(*emb.inner.images) == ThreePower(1)
        assert (emb.m, emb.bound, emb.min_ratio, emb.max_ratio) == (1, 6, 3, 3)
        assert emb.passed

    def test_window_inside_six_m_on_random_spaces(self, make_rng):
        rng = make_rng(308)
        for make in (gen.random_metric, gen.all_distinct_metric, gen.random_ultrametric):
            for _ in range(8):
                s = make(rng, rng.randint(2, 24))
                emb = embed_universal(s)
                assert emb.bound == 6 * emb.m
                assert 1 <= emb.min_ratio <= emb.max_ratio <= emb.bound
                assert emb.passed
                ratios = [mu(emb.inner.images[i], emb.inner.images[j]).as_fraction() / s.d(i, j)
                          for i, j in s.pairs()]
                assert (min(ratios), max(ratios)) == (emb.min_ratio, emb.max_ratio)


class TestAuditsSurviveOptimizedMode:
    def test_isometry_audit(self, run_optimized):
        done = run_optimized("""
            from ultrazero import lomega, validate_metric

            real = lomega.mu
            lomega.mu = lambda p, q: lomega.ThreePower(real(p, q).exponent - 1)
            space = validate_metric(["a", "b"], [[0, 1], [1, 0]])
            try:
                lomega.embed_3n_valued(space)
            except AssertionError as exc:
                print("raised:", exc)
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: isometry audit failed\n"

    def test_window_audit(self, run_optimized):
        done = run_optimized("""
            from ultrazero import FiniteMetricSpace, lomega, validate_metric

            real = lomega._quantize

            def inflated(space):
                out = real(space)
                return FiniteMetricSpace(out.labels,
                                         tuple(tuple(9 * v for v in row) for row in out.dist))

            lomega._quantize = inflated
            space = validate_metric(["a", "b"], [[0, 2], [2, 0]])
            try:
                lomega.embed_ultrametric(space)
            except AssertionError as exc:
                print("raised:", exc)
        """)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised: quantized embedding left the [1,3) window\n"
