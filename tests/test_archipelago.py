"""Island assemblies: construction, profile recovery, fingerprints, balls."""

from fractions import Fraction

import pytest

import gen
from ultrazero import (
    FiniteMetricSpace,
    PointedSpace,
    UltrazeroError,
    ball_audit,
    build_archipelago,
    fingerprint_compare,
    is_ultrametric,
    island_profile,
    validate_metric,
)

F = Fraction


def err(code):
    return pytest.raises(UltrazeroError, match=rf"^{code}:")


def tampered(space, i, j, value):
    rows = [list(r) for r in space.dist]
    rows[i][j] = rows[j][i] = F(value)
    return FiniteMetricSpace(space.labels, tuple(tuple(r) for r in rows))


class TestBuild:
    def test_non_strict_plan(self):
        arch = build_archipelago([2], [(2, 2), (2, 3), (2, 4)])
        s = arch.space
        assert s.n == 7
        assert s.labels[0] == "o"
        assert arch.hub == 0
        specs = [spec for spec, _ in arch.islands]
        assert [(sp.size, sp.diameter, sp.separation) for sp in specs] == [
            (2, 2, 2),
            (2, 3, 5),
            (2, 4, 9),
        ]
        assert arch.islands[0][1] == (1, 2)
        assert arch.islands[2][1] == (5, 6)
        # cross-island distance is the larger separation
        assert s.d(1, 3) == 5
        assert s.d(3, 5) == 9
        assert s.d(1, 5) == 9

    def test_strict_plan_lifts_separations(self):
        arch = build_archipelago([2], [(2, 2), (2, 3)], strict=True)
        specs = [spec for spec, _ in arch.islands]
        assert [sp.separation for sp in specs] == [3, 6]

    def test_members_partition_points(self):
        arch = build_archipelago([2, 3], [(3, 4), (2, 2), (3, 3)])
        members = [i for _, ms in arch.islands for i in ms]
        assert sorted(members) == list(range(1, arch.space.n))

    def test_label_scheme(self):
        arch = build_archipelago([2], [(2, 2)])
        assert arch.space.labels == ("o", "x1.1", "x1.2")

    def test_rejects_size_outside_allowed(self):
        with err("SizeNotInLambda") as exc:
            build_archipelago([2], [(2, 2), (3, 3)])
        assert exc.value.witness == (2, 3)

    def test_rejects_small_diameter(self):
        with err("DiameterTooSmall") as exc:
            build_archipelago([3], [(3, 2)])
        assert exc.value.witness == (1, 2)

    def test_rejects_empty_inputs(self):
        with err("BadParameters"):
            build_archipelago([2], [])
        with err("BadParameters"):
            build_archipelago([], [(2, 2)])
        with err("MalformedInput"):
            build_archipelago([1], [(2, 2)])

    def test_random_plans_are_valid_ultrametrics(self, make_rng):
        rng = make_rng(501)
        for _ in range(12):
            allowed = sorted(rng.sample(range(2, 8), rng.randint(1, 3)))
            plan = []
            for _ in range(rng.randint(1, 5)):
                size = rng.choice(allowed)
                plan.append((size, size + rng.randint(0, 4)))
            arch = build_archipelago(
                allowed, plan, strict=bool(rng.getrandbits(1))
            )
            validate_metric(arch.space.labels, arch.space.dist)
            assert is_ultrametric(arch.space)


class TestProfile:
    def test_strict_round_trip(self):
        arch = build_archipelago([2], [(2, 2), (2, 3)], strict=True)
        result = island_profile(arch)
        assert result.profile == ((2, 2, 3), (2, 3, 6))
        assert result.warnings == ()

    def test_non_strict_tight_island_degrades(self):
        # island 1 has diameter equal to its separation, so its points
        # cannot be told apart from hub debris
        arch = build_archipelago([2], [(2, 2), (2, 3), (2, 4)])
        result = island_profile(arch)
        assert result.profile == ((1, 0, 2), (1, 0, 2), (2, 3, 5), (2, 4, 9))
        assert len(result.warnings) == 1
        assert "degraded" in result.warnings[0]

    def test_random_strict_round_trip(self, make_rng):
        rng = make_rng(502)
        for _ in range(10):
            plan = []
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(2, 6)
                plan.append((size, size + rng.randint(0, 3)))
            arch = build_archipelago(range(2, 7), plan, strict=True)
            result = island_profile(arch)
            assert result.warnings == ()
            want = sorted(
                (sp.size, sp.diameter, sp.separation) for sp, _ in arch.islands
            )
            assert sorted(result.profile) == want

    def test_rejects_line(self):
        line = validate_metric(
            "abcd",
            [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
        )
        with err("NotArchipelagoShaped"):
            island_profile(PointedSpace(line, 0))

    def test_rejects_one_sided_clustering(self):
        s = validate_metric("oxy", [[0, 3, 2], [3, 0, 2], [2, 2, 0]])
        with err("NotArchipelagoShaped") as exc:
            island_profile(PointedSpace(s, 0))
        assert "one-sided" in str(exc.value)

    def test_rejects_intransitive_clusters(self):
        s = validate_metric(
            "oxyz",
            [[0, 4, 4, 4], [4, 0, 2, 4], [4, 2, 0, 2], [4, 4, 2, 0]],
        )
        with err("NotArchipelagoShaped") as exc:
            island_profile(PointedSpace(s, 0))
        assert "mutually close" in str(exc.value)

    def test_rejects_mixed_separations(self):
        arch = build_archipelago([2], [(2, 2), (2, 3)], strict=True)
        bad = tampered(arch.space, 2, 0, 4)
        with err("NotArchipelagoShaped") as exc:
            island_profile(PointedSpace(bad, 0))
        assert "separations" in str(exc.value)

    def test_rejects_cross_distance_drift(self):
        arch = build_archipelago([2], [(2, 2), (2, 3)], strict=True)
        bad = tampered(arch.space, 1, 3, 7)
        with err("NotArchipelagoShaped") as exc:
            island_profile(PointedSpace(bad, 0))
        assert "cross distance" in str(exc.value)

    def test_rejects_hub_alone(self):
        single = validate_metric(["o"], [[0]])
        with err("NotArchipelagoShaped"):
            island_profile(PointedSpace(single, 0))


class TestFingerprint:
    def test_different_size_sets_distinct(self):
        a = island_profile(build_archipelago([2], [(2, 2), (2, 2)], strict=True))
        b = island_profile(build_archipelago([3], [(3, 3), (3, 3)], strict=True))
        report = fingerprint_compare(a, b)
        assert report.verdict == "distinct"
        assert report.size_sets == ((2,), (3,))

    def test_identical_plans_indistinguishable(self):
        plan = [(2, 3), (4, 5)]
        a = island_profile(build_archipelago([2, 4], plan, strict=True))
        b = island_profile(build_archipelago([2, 4], plan, strict=True))
        report = fingerprint_compare(a, b)
        assert report.verdict == "indistinguishable"
        assert report.size_counts[0] == report.size_counts[1]
        assert report.separations[0] == report.separations[1]

    def test_counts_do_not_flip_verdict(self):
        # same sizes at different multiplicities still overlap island for
        # island after a scale change, so the verdict stays
        a = island_profile(build_archipelago([2], [(2, 2)], strict=True))
        b = island_profile(build_archipelago([2], [(2, 2), (2, 3)], strict=True))
        report = fingerprint_compare(a, b)
        assert report.verdict == "indistinguishable"
        assert report.size_counts[0] != report.size_counts[1]

    def test_accepts_raw_triples(self):
        report = fingerprint_compare(
            [(2, F(2), F(3))], [(2, F(2), F(3)), (5, F(5), F(9))]
        )
        assert report.verdict == "distinct"
        assert report.size_sets == ((2,), (2, 5))


class TestBallAudit:
    def audit_fixture(self):
        return build_archipelago([2], [(2, 2), (2, 3)], strict=True)

    def test_three_shapes(self):
        arch = self.audit_fixture()
        report = ball_audit(
            arch,
            [
                ("x1.1", 1),
                ("x1.1", 2),
                ("x1.1", 3),
                ("x2.1", 4),
                ("o", 3),
                ("o", 0),
            ],
        )
        assert report.passed
        shapes = [s.shape for s in report.samples]
        assert shapes == [
            "singleton",
            "island",
            "hub_ball",
            "island",
            "hub_ball",
            "hub_ball",
        ]
        cards = [s.cardinality for s in report.samples]
        assert cards == [1, 2, 3, 2, 3, 1]

    def test_capacity_tracks_max_cardinality(self):
        arch = self.audit_fixture()
        report = ball_audit(arch, [("x1.1", 2), ("x2.1", 2), ("o", 3)])
        assert dict(report.capacity) == {F(2): 2, F(3): 3}

    def test_island_cardinality_respects_radius(self, make_rng):
        rng = make_rng(503)
        for _ in range(8):
            plan = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(2, 6)
                plan.append((size, size + rng.randint(0, 2)))
            arch = build_archipelago(range(2, 7), plan, strict=True)
            samples = []
            for spec, members in arch.islands:
                samples.append((members[0], spec.diameter))
                samples.append((members[-1], spec.separation))
            samples.append((arch.hub, arch.space.diameter()))
            report = ball_audit(arch, samples)
            assert report.passed
            for sample in report.samples:
                assert sample.shape in ("singleton", "island", "hub_ball")

    def test_integer_center_accepted(self):
        arch = self.audit_fixture()
        report = ball_audit(arch, [(0, 10)])
        assert report.samples[0].shape == "hub_ball"
        assert report.samples[0].cardinality == arch.space.n

    def test_rejects_unknown_center(self):
        for center in ("nope", True):
            with err("MalformedInput"):
                ball_audit(self.audit_fixture(), [(center, 1)])

    def test_rejects_negative_radius(self):
        with err("BadParameters"):
            ball_audit(self.audit_fixture(), [("o", -1)])
