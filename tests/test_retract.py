"""Annulus orders and audited Lipschitz retractions onto subsets."""

from fractions import Fraction

import pytest

import gen
from ultrazero import (
    PointedSpace,
    UltrazeroError,
    annulus_order,
    audit_lipschitz,
    brute_force_min_constant,
    default_delta,
    lipschitz_retraction,
    validate_metric,
)

F = Fraction


def err(code):
    return pytest.raises(UltrazeroError, match=rf"^{code}:")


# p and q close together, r far from both, based at r
TRIPOD = PointedSpace(
    validate_metric("pqr", [[0, 1, 3], [1, 0, 3], [3, 3, 0]]), 2
)


class TestAnnulusOrder:
    def test_far_shells_first(self):
        order = annulus_order(TRIPOD)
        assert order.shells == (3, 3, 0)
        assert order.order == (0, 1, 2)
        assert order.ranks == (0, 1, 2)
        assert order.precedes(0, 1)
        assert not order.precedes(2, 1)

    def test_fractional_distances_floor_into_shells(self):
        s = validate_metric(
            "oxy", [[0, "3/2", 4], ["3/2", 0, 4], [4, 4, 0]]
        )
        order = annulus_order(PointedSpace(s, 0))
        assert order.shells == (0, 1, 4)
        assert order.order == (2, 1, 0)

    def test_ties_keep_input_order(self, make_rng):
        rng = make_rng(401)
        for _ in range(10):
            s = gen.random_ultrametric(rng, rng.randint(2, 12))
            order = annulus_order(PointedSpace(s, 0))
            for a, b in zip(order.order, order.order[1:]):
                sa, sb = order.shells[a], order.shells[b]
                assert sa > sb or (sa == sb and a < b)


class TestDefaultDelta:
    def test_frozen_for_two(self):
        assert default_delta(2) == F(2414213, 2000000)

    def test_square_stays_under_lambda(self):
        for lam in (F(3, 2), 2, 4, F(101, 100), F(10**9)):
            d = default_delta(lam)
            assert 1 < d
            assert d * d < lam

    def test_rejects_lambda_at_most_one(self):
        with err("BadParameters"):
            default_delta(1)
        with err("BadParameters"):
            default_delta(F(1, 2))


class TestLipschitzRetraction:
    def test_moves_to_near_candidate(self):
        rm = lipschitz_retraction(TRIPOD, ["q", "r"], 2)
        assert rm.assignment == (1, 1, 2)
        assert rm.audited_constant == 1
        assert rm.subset == frozenset({1, 2})

    def test_subset_by_index_matches_labels(self):
        by_labels = lipschitz_retraction(TRIPOD, ["q", "r"], 2)
        by_index = lipschitz_retraction(TRIPOD, [1, 2], 2)
        assert by_labels.assignment == by_index.assignment

    def test_identity_on_subset(self, make_rng):
        rng = make_rng(402)
        for _ in range(15):
            s = gen.random_ultrametric(rng, rng.randint(2, 30))
            k = rng.randint(1, s.n)
            subset = rng.sample(range(s.n), k)
            rm = lipschitz_retraction(PointedSpace(s, 0), subset, F(3, 2))
            for a in subset:
                assert rm.assignment[a] == a
            for x in range(s.n):
                assert rm.assignment[x] in rm.subset

    def test_audit_within_lambda(self, make_rng):
        rng = make_rng(403)
        for lam in (F(3, 2), F(2), F(4)):
            for _ in range(10):
                s = gen.random_ultrametric(rng, rng.randint(2, 40))
                subset = rng.sample(range(s.n), rng.randint(1, s.n))
                rm = lipschitz_retraction(PointedSpace(s, 0), subset, lam)
                assert rm.audited_constant <= lam

    def test_rejects_lambda_one(self):
        with err("BadParameters"):
            lipschitz_retraction(TRIPOD, ["q"], 1)

    def test_rejects_bad_delta(self):
        # delta must exceed 1 and its square must stay under lambda
        with err("BadParameters"):
            lipschitz_retraction(TRIPOD, ["q"], F(3, 2), delta=1)
        with err("BadParameters"):
            lipschitz_retraction(TRIPOD, ["q"], F(3, 2), delta=F(5, 4))

    def test_rejects_subset_members_that_are_not_points(self):
        for subset in ([True], [1.0], [3], [-1], ["zz"]):
            with err("MalformedInput"):
                lipschitz_retraction(TRIPOD, subset, 2)

    def test_rejects_empty_subset(self):
        with err("EmptySubset"):
            lipschitz_retraction(TRIPOD, [], 2)

    def test_rejects_non_ultrametric(self):
        line = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with err("NotUltrametric"):
            lipschitz_retraction(PointedSpace(line, 0), ["a"], 2)


class TestConvergentTailExample:
    """A sequence crowding its limit: x1 at 1 + 1/k from each xk."""

    def test_pick_and_audit_at_ten_points(self):
        s = gen.example_truncation(10)
        pointed = PointedSpace(s, 0)
        subset = [f"x{k}" for k in range(2, 11)]
        rm = lipschitz_retraction(pointed, subset, F(3, 2), delta=F(6, 5))
        # cutoff (6/5)(11/10) = 33/25 admits x4 and beyond; x4 is the
        # earliest admitted point in the annulus order
        assert rm.assignment[0] == 3
        assert rm.audited_constant == F(25, 22)

    def test_default_delta_also_lands_within_budget(self):
        s = gen.example_truncation(8)
        rm = lipschitz_retraction(
            PointedSpace(s, 0), [f"x{k}" for k in range(2, 9)], F(3, 2)
        )
        assert rm.audited_constant <= F(3, 2)


class TestAuditLipschitz:
    def test_identity_is_one(self):
        assert audit_lipschitz(TRIPOD.space, (0, 1, 2)) == 1

    def test_collapse_is_zero(self):
        s = validate_metric("ab", [[0, 7], [7, 0]])
        assert audit_lipschitz(s, (0, 0)) == 0

    def test_known_expansion(self):
        # p -> r stretches the (p, q) pair from 1 to 3
        assert audit_lipschitz(TRIPOD.space, (2, 1, 2)) == 3

    def test_rejects_wrong_length(self):
        with err("InputMismatch"):
            audit_lipschitz(TRIPOD.space, (0, 1))

    @pytest.mark.parametrize("assignment", [
        (-1, 0, 1),  # would wrap to the last point
        (True, 0, 1),  # would be read as 1
        (0, 1, 3),
        (0.0, 1, 2),
    ])
    def test_rejects_entries_that_are_not_point_indices(self, assignment):
        with err("InputMismatch"):
            audit_lipschitz(TRIPOD.space, assignment)


class TestBruteForce:
    def test_finds_module_optimum_on_tripod(self):
        best, assignment = brute_force_min_constant(TRIPOD.space, ["q", "r"])
        assert best == 1
        assert assignment == (1, 1, 2)

    def test_full_subset_gives_identity(self):
        best, assignment = brute_force_min_constant(TRIPOD.space, "pqr")
        assert best == 1
        assert assignment == (0, 1, 2)

    def test_never_beaten_by_module(self, make_rng):
        rng = make_rng(404)
        for _ in range(12):
            s = gen.random_ultrametric(rng, rng.randint(3, 8))
            k = rng.randint(1, s.n - 1)
            subset = rng.sample(range(s.n), k)
            best, _ = brute_force_min_constant(s, subset)
            rm = lipschitz_retraction(PointedSpace(s, 0), subset, 4)
            assert best <= rm.audited_constant

    def test_size_guard(self, make_rng):
        rng = make_rng(405)
        s = gen.random_ultrametric(rng, 18)
        with err("OracleSizeExceeded"):
            brute_force_min_constant(s, list(range(10)))


def test_lambda_audit_survives_optimized_mode(run_optimized):
    done = run_optimized("""
        from ultrazero import PointedSpace, retract, validate_metric

        retract.audit_lipschitz = lambda space, assignment: 100
        tripod = PointedSpace(validate_metric("pqr", [[0, 1, 3], [1, 0, 3], [3, 3, 0]]), 2)
        try:
            retract.lipschitz_retraction(tripod, ["q", "r"], 4)
        except AssertionError as exc:
            print("raised:", exc)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: audit exceeded lambda; construction bug\n"
