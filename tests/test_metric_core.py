"""Validation, ultrametric certification, gauges and space constructors."""

from fractions import Fraction

import pytest

import gen
from ultrazero import (
    Gauge,
    PointedSpace,
    UltrazeroError,
    apply_gauge,
    cone,
    is_ultrametric,
    metric_wedge,
    quantize_3adic,
    scale_truncate,
    validate_metric,
)
from ultrazero import _linkage
from ultrazero.metric_core import _SCAN_LIMIT, _witness_by_scan

F = Fraction


def space(labels, rows):
    return validate_metric(labels, rows)


LINE3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
ULTRA3 = [[0, 1, 3], [1, 0, 3], [3, 3, 0]]


def err(code):
    return pytest.raises(UltrazeroError, match=rf"^{code}:")


class TestValidateMetric:
    def test_accepts_line(self):
        s = space("abc", LINE3)
        assert s.n == 3
        assert s.d(0, 2) == 2
        assert s.diameter() == 2
        assert s.distinct_distances() == (1, 2)

    def test_accepts_rational_strings_and_ints(self):
        s = validate_metric(["x", "y"], [[0, "3/2"], ["3/2", 0]])
        assert s.d(0, 1) == F(3, 2)

    def test_rejects_floats(self):
        with err("MalformedInput"):
            validate_metric(["x", "y"], [[0, 1.5], [1.5, 0]])

    def test_rejects_bad_shape(self):
        with err("MalformedInput"):
            validate_metric(["x", "y"], [[0, 1]])
        with err("MalformedInput"):
            validate_metric([], [])

    def test_rows_may_be_any_sequence_of_numbers(self):
        s = validate_metric("ab", (range(0, 2), range(1, -1, -1)))
        assert s == validate_metric("ab", [[0, 1], [1, 0]])
        for row in (5, "01", b"\x00\x01", {0: 0, 1: 1}):
            with err("MalformedInput"):
                validate_metric("ab", [row, [1, 0]])

    def test_rejects_duplicate_labels(self):
        with err("DuplicateLabel"):
            validate_metric(["a", "a"], [[0, 1], [1, 0]])

    def test_rejects_asymmetry(self):
        with err("NonSymmetric"):
            validate_metric("ab", [[0, 1], [2, 0]])

    def test_rejects_nonzero_diagonal(self):
        with err("NonZeroDiagonal"):
            validate_metric("ab", [[1, 1], [1, 0]])

    def test_rejects_zero_off_diagonal(self):
        with err("NegativeOrZeroOffDiagonal"):
            validate_metric("ab", [[0, 0], [0, 0]])

    def test_rejects_triangle_violation_with_witness(self):
        try:
            validate_metric("abc", [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        except UltrazeroError as e:
            assert e.code == "TriangleViolation"
            assert e.witness != ()
        else:
            pytest.fail("triangle violation not caught")

    def test_single_point(self):
        s = validate_metric(["only"], [[0]])
        assert s.diameter() == 0
        assert s.distinct_distances() == ()

    def test_index_lookup(self):
        s = space("abc", LINE3)
        assert s.index("c") == 2
        with err("MalformedInput"):
            s.index("zz")

    def test_point_index(self):
        s = space("abc", LINE3)
        assert [s.point(i) for i in range(3)] == [0, 1, 2]
        for bad in (3, -1, True, False, 1.0, "a", None):
            with err("MalformedInput"):
                s.point(bad)


class TestIsUltrametric:
    def test_line_is_not(self):
        w = is_ultrametric(space("abc", LINE3))
        assert not w
        assert w.sides == (1, 1, 2)
        i, j, k = w.triangle
        assert len({i, j, k}) == 3

    def test_isosceles_is(self):
        w = is_ultrametric(space("abc", ULTRA3))
        assert w
        assert w.triangle is None and w.sides is None

    def test_tiny_spaces_are(self):
        assert is_ultrametric(validate_metric(["p"], [[0]]))
        assert is_ultrametric(validate_metric("pq", [[0, 5], [5, 0]]))

    def test_witness_sides_match_matrix(self, make_rng):
        rng = make_rng(101)
        for _ in range(40):
            s = gen.random_metric(rng, rng.randint(3, 12))
            w = is_ultrametric(s)
            if w.verdict:
                continue
            i, j, k = w.triangle
            sides = sorted([s.d(i, j), s.d(j, k), s.d(i, k)])
            assert tuple(sides) == w.sides
            a, b, c = w.sides
            assert a <= b < c

    def test_scan_and_linkage_agree(self, make_rng):
        # the tree decides at every size; straddle the witness cutoff
        rng = make_rng(102)
        sizes = [3, 5, _SCAN_LIMIT - 1, _SCAN_LIMIT, _SCAN_LIMIT + 1]
        for n in sizes:
            for mk in (gen.random_metric, gen.random_ultrametric):
                s = mk(rng, n)
                ws = _witness_by_scan(s, _linkage.spanning_tree(s.dist)[0])
                wl = is_ultrametric(s)
                assert ws.verdict == wl.verdict
                for w in (ws, wl):
                    if not w.verdict:
                        i, j, k = w.triangle
                        a, b, c = sorted([s.d(i, j), s.d(j, k), s.d(i, k)])
                        assert b < c

    def test_generated_ultrametrics_certify(self, make_rng):
        rng = make_rng(103)
        for _ in range(25):
            assert is_ultrametric(gen.random_ultrametric(rng, rng.randint(2, 50)))


class TestGauge:
    def test_identity_and_scaling(self):
        g = Gauge.identity()
        assert g.evaluate(F(7, 3)) == F(7, 3)
        assert Gauge.scaling(F(5, 2)).evaluate(4) == 10

    def test_interpolation_and_extension(self):
        g = Gauge.from_points([(2, 2), (3, 6)])
        assert g.evaluate(1) == 1
        assert g.evaluate(2) == 2
        assert g.evaluate(F(5, 2)) == 4
        assert g.evaluate(3) == 6
        # last slope (4) extends past the final knot
        assert g.evaluate(4) == 10

    def test_evaluate_matches_a_scan_over_the_knots(self, make_rng):
        """The segment is picked by a linear scan here, not by bisect: the
        last knot at or below t, but never the last knot itself."""
        rng = make_rng(161)
        for _ in range(40):
            ts = sorted(rng.sample(range(1, 30), rng.randint(1, 7)))
            g = Gauge.from_points([(F(t, 2), rng.randint(-5, 20)) for t in ts])
            knots = g.breakpoints
            probes = [t for t, _ in knots] + [(a + b) / 2 for (a, _), (b, _) in
                                              zip(knots, knots[1:])]
            probes += [knots[-1][0] + F(1, 3), knots[-1][0] * 2 + 5]
            for t in probes:
                k = max(k for k in range(len(knots) - 1) if knots[k][0] <= t)
                (t0, v0), (t1, v1) = knots[k], knots[k + 1]
                assert g.evaluate(t) == v0 + (t - t0) * (v1 - v0) / (t1 - t0)

    def test_stretch_knots(self):
        g = Gauge.stretch(2, 3)
        assert g.breakpoints == ((0, 0), (2, 2), (3, 6))
        with err("BadParameters"):
            Gauge.stretch(3, 2)

    def test_from_points_validation(self):
        with err("BadParameters"):
            Gauge.from_points([])
        with err("BadParameters"):
            Gauge.from_points([(0, 1), (1, 2)])
        with err("BadParameters"):
            Gauge.from_points([(-1, 0), (1, 1)])
        with err("BadParameters"):
            Gauge.from_points([(1, 1), (1, 2)])

    def test_monotonicity_flag(self):
        assert Gauge.identity().is_nondecreasing()
        assert not Gauge.from_points([(1, 5), (2, 3)]).is_nondecreasing()


class TestApplyGauge:
    def test_scaling_rescales(self):
        out = apply_gauge(space("abc", ULTRA3), Gauge.scaling(3))
        assert out.d(0, 1) == 3
        assert out.d(0, 2) == 9
        assert out.labels == ("a", "b", "c")

    def test_stretch_breaks_uneven_chain(self):
        chain = space("abc", [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        with err("ResultNotMetric") as exc:
            apply_gauge(chain, Gauge.stretch(2, 3))
        assert exc.value.witness != ()

    def test_rejects_nonmonotone(self):
        with err("GaugeNotMonotone"):
            apply_gauge(space("abc", ULTRA3), Gauge.from_points([(1, 5), (2, 3)]))

    def test_rejects_vanishing(self):
        flat_then_up = Gauge.from_points([(1, 0), (2, 5)])
        with err("GaugeNotPositive"):
            apply_gauge(space("abc", ULTRA3), flat_then_up)

    def test_monotone_gauge_preserves_ultrametric(self, make_rng):
        # concave, convex and piecewise gauges all keep the two-max rule
        rng = make_rng(104)
        gauges = [
            Gauge.identity(),
            Gauge.scaling(F(2, 7)),
            Gauge.from_points([(1, 3), (2, 4), (8, 5)]),
            Gauge.from_points([(1, 1), (2, 4), (3, 9), (4, 16)]),
            Gauge.from_points([(F(1, 2), 7), (9, 8)]),
        ]
        for _ in range(20):
            s = gen.random_ultrametric(rng, rng.randint(2, 14))
            for g in gauges:
                out = apply_gauge(s, g)
                assert is_ultrametric(out)

    def test_stretch_on_witness_always_breaks(self, make_rng):
        # stretching at a witness pushes its top side past the triangle
        # bound, so the recheck must reject
        rng = make_rng(105)
        broken = 0
        for _ in range(30):
            s = gen.random_metric(rng, rng.randint(3, 10))
            w = is_ultrametric(s)
            if w.verdict:
                continue
            broken += 1
            _, b, c = w.sides
            with err("ResultNotMetric"):
                apply_gauge(s, Gauge.stretch(b, c))
        assert broken >= 10


class TestQuantize:
    def test_rounds_up_to_powers(self):
        s = space("abc", [[0, 2, 5], [2, 0, 5], [5, 5, 0]])
        q = quantize_3adic(s)
        assert q.d(0, 1) == 3
        assert q.d(0, 2) == 9

    def test_exact_powers_fixed(self):
        s = space("abc", ULTRA3)
        assert quantize_3adic(s).dist == s.dist

    def test_small_values(self):
        s = validate_metric("ab", [[0, "1/5"], ["1/5", 0]])
        assert quantize_3adic(s).d(0, 1) == F(1, 3)

    def test_rejects_non_ultrametric(self):
        with err("NotUltrametric"):
            quantize_3adic(space("abc", LINE3))

    def test_window_on_random_inputs(self, make_rng):
        # past _SCAN_LIMIT the linkage path certifies the output
        rng = make_rng(106)
        for n in [rng.randint(2, 60) for _ in range(20)] + [_SCAN_LIMIT + 1, 60]:
            s = gen.random_ultrametric(rng, n)
            q = quantize_3adic(s)
            assert is_ultrametric(q)
            for i, j in s.pairs():
                assert s.d(i, j) <= q.d(i, j) < 3 * s.d(i, j)


def test_power_of_three_valued_metric_is_ultrametric(make_rng):
    # any valid metric whose distances are all powers of three is
    # automatically ultrametric; freeze the fact on random tiny matrices
    rng = make_rng(107)
    hits = 0
    for _ in range(400):
        n = rng.randint(3, 5)
        vals = [F(3) ** rng.randint(-2, 2) for _ in range(n * (n - 1) // 2)]
        mat = [[F(0)] * n for _ in range(n)]
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                mat[i][j] = mat[j][i] = vals[k]
                k += 1
        try:
            s = validate_metric([f"p{i}" for i in range(n)], mat)
        except UltrazeroError:
            continue
        hits += 1
        assert is_ultrametric(s)
    assert hits > 20


class TestScaleTruncate:
    def test_splits_at_epsilon(self):
        s = space("abc", [[0, 1, 5], [1, 0, 5], [5, 5, 0]])
        small, large = scale_truncate(s, 2)
        assert small.dist == ((0, 1, 2), (1, 0, 2), (2, 2, 0))
        assert large.dist == ((0, 2, 5), (2, 0, 5), (5, 5, 0))

    def test_outputs_pass_full_validation(self, make_rng):
        # scale_truncate skips revalidation; both outputs must still be metrics
        rng = make_rng(109)
        for _ in range(15):
            s = gen.random_metric(rng, rng.randint(2, 16))
            eps = rng.choice(s.distinct_distances()) * F(rng.randint(1, 5), 3)
            for out in scale_truncate(s, eps):
                assert validate_metric(out.labels, out.dist) == out

    def test_rejects_bad_epsilon(self):
        s = space("abc", ULTRA3)
        with err("BadParameters"):
            scale_truncate(s, 0)

    def test_preserves_ultrametricity(self, make_rng):
        rng = make_rng(108)
        for _ in range(15):
            s = gen.random_ultrametric(rng, rng.randint(2, 16))
            eps = rng.choice(s.distinct_distances())
            small, large = scale_truncate(s, eps)
            assert is_ultrametric(small)
            assert is_ultrametric(large)
            assert validate_metric(small.labels, small.dist) == small
            assert validate_metric(large.labels, large.dist) == large


class TestPointed:
    def test_base_must_be_a_point_index(self):
        s = space("ab", [[0, 2], [2, 0]])
        assert PointedSpace(s, 1).base_label == "b"
        for base in (2, -1, True, 1.0):
            with err("MalformedInput"):
                PointedSpace(s, base)


class TestWedge:
    def test_bases_identified(self):
        a = PointedSpace(space("ab", [[0, 2], [2, 0]]), 0)
        b = PointedSpace(space("cd", [[0, 5], [5, 0]]), 0)
        w = metric_wedge([a, b])
        s = w.space
        # both base points collapse onto one hub named after part 0
        assert s.labels == ("a", "b", "d")
        assert w.base == 0
        assert s.d(0, 1) == 2
        assert s.d(0, 2) == 5
        assert s.d(1, 2) == 5  # max of the two hub distances

    def test_single_part_unchanged(self):
        a = PointedSpace(space("ab", [[0, 2], [2, 0]]), 1)
        assert metric_wedge([a]) is a

    def test_rejects_empty(self):
        with err("BadParameters"):
            metric_wedge([])

    def test_label_collision_prefixed(self):
        a = PointedSpace(space("ab", [[0, 2], [2, 0]]), 0)
        b = PointedSpace(space(["x", "b"], [[0, 5], [5, 0]]), 0)
        s = metric_wedge([a, b]).space
        assert s.n == 3
        assert len(set(s.labels)) == 3
        assert "b" in s.labels  # part 0 keeps its name, part 2 got prefixed

    def test_wedge_of_cones_is_ultrametric(self, make_rng):
        rng = make_rng(109)
        for _ in range(10):
            parts = []
            for p in range(rng.randint(2, 4)):
                n = rng.randint(1, 6)
                u = gen.random_ultrametric(
                    rng, n, top=F(2), labels=tuple(f"w{p}x{i}" for i in range(n))
                )
                parts.append(cone(u, F(4), apex_label=f"h{p}"))
            w = metric_wedge(parts)
            validate_metric(w.space.labels, w.space.dist)
            assert is_ultrametric(w.space)


class TestCone:
    def test_heights(self):
        s = space("ab", [[0, 3], [3, 0]])
        c = cone(s, 7)
        assert c.base == 0
        assert c.space.labels[0] == "apex"
        assert c.space.d(0, 1) == 7 and c.space.d(0, 2) == 7
        assert c.space.d(1, 2) == 3

    def test_rejects_low_height(self):
        s = space("ab", [[0, 3], [3, 0]])
        with err("ConeHeightTooSmall"):
            cone(s, 3)
        c = cone(s, 3, allow_equal=True)
        assert c.space.d(0, 1) == 3

    def test_apex_label_collision(self):
        s = space(["apex", "b"], [[0, 1], [1, 0]])
        c = cone(s, 2)
        assert len(set(c.space.labels)) == 3

    def test_cone_over_ultrametric_is_ultrametric(self, make_rng):
        rng = make_rng(110)
        for _ in range(15):
            s = gen.random_ultrametric(rng, rng.randint(1, 12))
            c = cone(s, s.diameter() + 1)
            validate_metric(c.space.labels, c.space.dist)
            assert is_ultrametric(c.space)
