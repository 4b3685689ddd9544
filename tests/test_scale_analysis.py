"""Scale components, the chain-infimum ultrametric and its certificates."""

import itertools
import time
from fractions import Fraction

import pytest

import gen
from ultrazero import (
    UltrazeroError,
    chain_minimax_oracle,
    dim0_certificate,
    is_ultrametric,
    s_components,
    subdominant_ultrametric,
    validate_metric,
    verify_scale_bounds,
)

F = Fraction

LINE3 = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
LINE4 = validate_metric(
    "abcd",
    [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
)
ULTRA3 = validate_metric("abc", [[0, 1, 3], [1, 0, 3], [3, 3, 0]])


def err(code):
    return pytest.raises(UltrazeroError, match=rf"^{code}:")


class TestComponents:
    def test_line_merges_at_step_scale(self):
        part = s_components(LINE4, 1)
        assert part.blocks == ((0, 1, 2, 3),)

    def test_below_smallest_distance_all_singletons(self):
        part = s_components(LINE4, F(1, 2))
        assert part.blocks == ((0,), (1,), (2,), (3,))

    def test_intermediate_scale(self):
        assert s_components(ULTRA3, 1).blocks == ((0, 1), (2,))
        assert s_components(ULTRA3, 3).blocks == ((0, 1, 2),)

    def test_block_of(self):
        part = s_components(ULTRA3, 1)
        assert part.block_of(1) == (0, 1)
        assert part.block_of(2) == (2,)
        for i in (True, 1.0, 3, -1):
            with err("MalformedInput"):
                part.block_of(i)

    def test_blocks_partition_and_sort(self, make_rng):
        rng = make_rng(201)
        for _ in range(25):
            s = gen.random_metric(rng, rng.randint(2, 14))
            scale = rng.choice(s.distinct_distances())
            part = s_components(s, scale)
            covered = sorted(i for b in part.blocks for i in b)
            assert covered == list(range(s.n))
            assert list(part.blocks) == sorted(part.blocks, key=min)

    def test_ultrametric_blocks_are_closed_balls(self, make_rng):
        # dimension zero at every scale: each component is exactly the
        # closed ball of its radius around any of its members
        rng = make_rng(202)
        for _ in range(15):
            s = gen.random_ultrametric(rng, rng.randint(2, 18))
            for scale in s.distinct_distances():
                part = s_components(s, scale)
                for block in part.blocks:
                    for x in block:
                        ball = {y for y in range(s.n) if s.d(x, y) <= scale}
                        assert ball == set(block)


class TestSubdominant:
    def test_line_collapses_to_unit(self):
        res = subdominant_ultrametric(LINE4)
        for i, j in LINE4.pairs():
            assert res.rho.d(i, j) == 1
        assert res.spanning_edges == ((1, 0, 1), (1, 1, 2), (1, 2, 3))

    def test_ultrametric_is_fixed(self, make_rng):
        rng = make_rng(203)
        for _ in range(15):
            s = gen.random_ultrametric(rng, rng.randint(2, 24))
            assert subdominant_ultrametric(s).rho.dist == s.dist

    def test_dominated_ultrametric_results(self, make_rng):
        rng = make_rng(204)
        for _ in range(25):
            s = gen.random_metric(rng, rng.randint(2, 16))
            res = subdominant_ultrametric(s)
            assert is_ultrametric(res.rho)
            for i, j in s.pairs():
                assert res.rho.d(i, j) <= s.d(i, j)
                assert res.rho.d(i, j) > 0

    def test_idempotent(self, make_rng):
        rng = make_rng(205)
        for _ in range(10):
            s = gen.random_metric(rng, rng.randint(2, 12))
            rho = subdominant_ultrametric(s).rho
            assert subdominant_ultrametric(rho).rho.dist == rho.dist

    def test_edges_realize_values(self, make_rng):
        rng = make_rng(206)
        for _ in range(10):
            s = gen.random_metric(rng, rng.randint(2, 12))
            res = subdominant_ultrametric(s)
            assert len(res.spanning_edges) == s.n - 1
            for w, i, j in res.spanning_edges:
                assert s.d(i, j) == w
                assert res.rho.d(i, j) <= w

    def test_matches_oracle_on_random_spaces(self, make_rng):
        rng = make_rng(207)
        for _ in range(60):
            s = gen.random_metric(rng, rng.randint(2, 7))
            res = subdominant_ultrametric(s)
            for i, j in s.pairs():
                assert res.rho.d(i, j) == chain_minimax_oracle(s, i, j)

    def test_matches_oracle_exhaustively_tiny(self):
        for s in gen.alphabet_metrics(4, alphabet=(1, 2)):
            res = subdominant_ultrametric(s)
            for i, j in s.pairs():
                assert res.rho.d(i, j) == chain_minimax_oracle(s, i, j)


class TestOracle:
    def test_chain_through_middle(self):
        assert chain_minimax_oracle(LINE3, 0, 2) == 1
        assert chain_minimax_oracle(LINE4, 0, 3) == 1

    def test_two_points_direct(self):
        s = validate_metric("pq", [[0, 5], [5, 0]])
        assert chain_minimax_oracle(s, 0, 1) == 5

    def test_rejects_what_is_not_a_point_index(self):
        for bad in (True, 1.0, "a", -1, LINE3.n):
            with err("MalformedInput"):
                chain_minimax_oracle(LINE3, bad, 0)
            with err("MalformedInput"):
                chain_minimax_oracle(LINE3, 0, bad)

    def test_size_guard(self, make_rng):
        rng = make_rng(208)
        s = gen.random_metric(rng, 9)
        with err("OracleSizeExceeded"):
            chain_minimax_oracle(s, 0, 1)

    def test_size_guard_env_override(self, make_rng, monkeypatch):
        rng = make_rng(209)
        s = gen.random_metric(rng, 9)
        monkeypatch.setenv("ULTRAZERO_ORACLE_LIMIT", "9")
        v = chain_minimax_oracle(s, 0, 1)
        assert v == subdominant_ultrametric(s).rho.d(0, 1)


class TestCertificate:
    def test_line4_table(self):
        cert = dim0_certificate(LINE4)
        assert cert.m == 3
        assert cert.table == ((1, 3), (2, 3), (3, 3))

    def test_line3_table(self):
        cert = dim0_certificate(LINE3)
        assert cert.m == 2
        assert cert.table == ((1, 2), (2, 2))

    def test_ultrametric_table(self):
        cert = dim0_certificate(ULTRA3)
        assert cert.m == 1
        assert cert.table == ((1, 1), (3, 3))

    def test_single_point(self):
        cert = dim0_certificate(validate_metric(["p"], [[0]]))
        assert cert.m == 1
        assert cert.table == ()

    def test_control_lookup(self):
        cert = dim0_certificate(LINE3)
        assert cert.control(1) == 2
        assert cert.control(2) == 2
        with err("MalformedInput"):
            cert.control(5)

    def test_control_inverse(self):
        cert = dim0_certificate(LINE3)
        assert cert.control_inverse(1) == 1
        assert cert.control_inverse(2) == 1
        assert cert.control_inverse(F(5, 2)) is None

    def test_expansion_flags_ultrametricity(self, make_rng):
        rng = make_rng(210)
        for _ in range(40):
            n = rng.randint(2, 16)
            s = gen.random_ultrametric(rng, n)
            assert dim0_certificate(s).m == 1
            t = gen.random_metric(rng, n)
            cert = dim0_certificate(t)
            assert (cert.m == 1) == bool(is_ultrametric(t))

    def test_table_shape_invariants(self, make_rng):
        rng = make_rng(211)
        for _ in range(25):
            s = gen.random_metric(rng, rng.randint(2, 14))
            cert = dim0_certificate(s)
            scales = [sc for sc, _ in cert.table]
            diams = [dm for _, dm in cert.table]
            assert scales == sorted(set(scales))
            assert tuple(scales) == s.distinct_distances()
            assert diams == sorted(diams)
            assert all(dm >= sc for sc, dm in cert.table)
            assert cert.m == max(dm / sc for sc, dm in cert.table)
            assert cert.m >= 1

    def test_diameters_match_components(self, make_rng):
        # D(S) really is the max diameter over the S-component blocks
        rng = make_rng(212)
        for _ in range(10):
            s = gen.random_metric(rng, rng.randint(2, 12))
            cert = dim0_certificate(s)
            for scale, diam in cert.table:
                part = s_components(s, scale)
                got = max(
                    (s.d(x, y) for b in part.blocks for x in b for y in b),
                    default=F(0),
                )
                assert got == diam


def _max_d_over_rho(space):
    """The largest d/rho over pairs, by plain Fraction division."""
    rho = subdominant_ultrametric(space).rho
    return max(space.d(i, j) / rho.d(i, j) for i, j in space.pairs())


class TestSphereExtension:
    """m is the best constant for extending maps into S^0 = {-1, 1}; see
    Dim0Certificate for the proofs."""

    def test_m_is_max_d_over_rho(self, make_rng):
        rng = make_rng(230)
        spaces = [family(rng, n) for n in (2, 3, 5, 9, 17, 40)
                  for family in (gen.random_metric, gen.all_distinct_metric,
                                 gen.random_ultrametric, gen.random_3power_ultrametric)]
        spaces += [gen.coprime_metric(12), gen.coprime_metric(40)]  # lattice, Fraction fallback
        spaces += [gen.example_truncation(n) for n in range(2, 9)]
        for space in spaces:
            assert dim0_certificate(space).m == _max_d_over_rho(space)

    def test_best_sign_extension_keeps_min_rho(self, make_rng):
        # brute force over every extension g of f: A -> {-1, 1}; the best
        # separation of opposite signs reads only d, so this checks rho
        rng = make_rng(231)
        for _ in range(60):
            n = rng.randint(2, 8)
            space = rng.choice((gen.random_metric, gen.all_distinct_metric))(rng, n)
            rho = subdominant_ultrametric(space).rho
            subset = rng.sample(range(n), rng.randint(2, n))
            f = dict(zip(subset, [1, -1] + [rng.choice((1, -1)) for _ in subset[2:]]))
            free = [x for x in range(n) if x not in f]
            best = max(
                min(space.d(x, y) for x, y in space.pairs() if g[x] != g[y])
                for signs in itertools.product((1, -1), repeat=len(free))
                for g in [{**f, **dict(zip(free, signs))}]
            )
            opposite = [(a, b) for a, b in itertools.combinations(subset, 2) if f[a] != f[b]]
            assert best == min(rho.d(a, b) for a, b in opposite)


class TestVerifyBounds:
    def frozen_cases(self):
        return (LINE3, LINE4, ULTRA3)

    def test_frozen_spaces_pass(self):
        for s in self.frozen_cases():
            report = verify_scale_bounds(
                s, subdominant_ultrametric(s), dim0_certificate(s)
            )
            assert report.passed
            assert report.violations == ()

    def test_random_spaces_pass(self, make_rng):
        rng = make_rng(213)
        for _ in range(40):
            s = gen.random_metric(rng, rng.randint(2, 16))
            report = verify_scale_bounds(
                s, subdominant_ultrametric(s), dim0_certificate(s)
            )
            assert report.passed

    def test_all_distinct_audit_within_budget(self, make_rng):
        # 19,900 distinct scales: a Sinv lookup that costs O(#scales) per
        # pair makes the audit O(n^4) here
        s = gen.all_distinct_metric(make_rng(214), 200)
        sub, cert = subdominant_ultrametric(s), dim0_certificate(s)
        t0 = time.monotonic()
        report = verify_scale_bounds(s, sub, cert)
        elapsed = time.monotonic() - t0
        assert report.passed
        assert elapsed < 5.0, f"audit took {elapsed:.2f} s, budget 5 s"

    def test_rejects_foreign_subdominant(self):
        other = validate_metric("xyz", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with err("InputMismatch"):
            verify_scale_bounds(
                LINE3, subdominant_ultrametric(other), dim0_certificate(LINE3)
            )

    def test_rejects_foreign_certificate(self):
        with err("InputMismatch"):
            verify_scale_bounds(
                LINE3, subdominant_ultrametric(LINE3), dim0_certificate(ULTRA3)
            )
