"""End to end command line checks, driven in process through run()."""

import argparse
import json
import sys

import pytest

from ultrazero.cli import _PROPERTY_CODES_BY_COMMAND, build_parser, run

ULTRA3 = {"labels": ["a", "b", "c"], "dist": [[0, 1, 3], [1, 0, 3], [3, 3, 0]]}
LINE3 = {"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
BROKEN3 = {"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
TRIPOD = {
    "labels": ["p", "q", "r"],
    "dist": [[0, 1, 3], [1, 0, 3], [3, 3, 0]],
    "base": "r",
}
Z2INF = {"summands": [[2, "inf"]]}
Z4INF = {"summands": [[4, "inf"]]}
SPEC22 = {"summands": [[2, 2]]}
PLAN2 = {"lambda": [2], "plan": [[2, 2], [2, 3]], "strict": True}
PLAN3 = {"lambda": [3], "plan": [[3, 3], [3, 4]], "strict": True}


@pytest.fixture
def doc(tmp_path):
    """Serialize a payload to a throwaway JSON file, returning its path."""

    counter = iter(range(1000))

    def write(payload):
        path = tmp_path / f"doc{next(counter)}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def run_human(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


class TestValidate:
    def test_valid_human(self, doc, capsys):
        code, out = run_human(capsys, ["validate", doc(ULTRA3)])
        assert code == 0
        assert out == "valid metric space with 3 points\n"

    def test_valid_json(self, doc, capsys):
        code, report = run_json(capsys, ["validate", doc(ULTRA3)])
        assert code == 0
        assert report == {"valid": True, "points": 3}

    def test_axiom_failure_exits_1(self, doc, capsys):
        code, out = run_human(capsys, ["validate", doc(BROKEN3)])
        assert code == 1
        assert out.startswith("TriangleViolation:")

    def test_axiom_failure_json_carries_witness(self, doc, capsys):
        code, report = run_json(capsys, ["validate", doc(BROKEN3)])
        assert code == 1
        assert report["error"] == "TriangleViolation"
        assert report["witness"]

    def test_axiom_failure_is_malformed_input_to_other_commands(self, doc, capsys):
        code, report = run_json(capsys, ["ultra-check", doc(BROKEN3)])
        assert code == 2
        assert report["error"] == "TriangleViolation"

    def test_missing_matrix_exits_2(self, doc, capsys):
        code, out = run_human(capsys, ["validate", doc({"labels": ["a"]})])
        assert code == 2
        assert out.startswith("MalformedInput:")

    def test_zero_denominator_exits_2(self, doc, capsys):
        payload = {"labels": ["a", "b"], "dist": [[0, "1/0"], ["1/0", 0]]}
        code, _ = run_human(capsys, ["validate", doc(payload)])
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _ = run_human(capsys, ["validate", str(tmp_path / "nope.json")])
        assert code == 2

    def test_rows_that_are_not_lists_exit_2(self, doc, capsys):
        payload = {"labels": ["a", "b"], "dist": [5, 6]}
        code, report = run_json(capsys, ["validate", doc(payload)])
        assert code == 2
        assert report["error"] == "MalformedInput"
        assert report["message"] == "MalformedInput: row 0 is not a sequence of numbers: 5"

    def test_unparseable_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text("{", encoding="utf-8")
        code, _ = run_human(capsys, ["validate", str(path)])
        assert code == 2
        undecodable = [
            b'\xff\xfe{"labels": ["a"], "dist": [[0]]}',  # not UTF-8
            b"[" * 100_000,  # nested past the recursion limit
        ]
        if hasattr(sys, "get_int_max_str_digits"):  # Python 3.11 on: a digit limit
            undecodable.append(b"[" + b"7" * (sys.get_int_max_str_digits() + 1) + b"]")
        for content in undecodable:
            path.write_bytes(content)
            code, report = run_json(capsys, ["validate", str(path)])
            assert code == 2
            assert report["error"] == "MalformedInput"
            assert report["message"].startswith(f"MalformedInput: {path} is not valid JSON: ")


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_option(self, doc, capsys):
        assert run(["retract", doc(TRIPOD)]) == 2
        capsys.readouterr()

    def test_exit_code_table_names_only_subcommands(self):
        # a misspelt key would silently turn the command's exit 1 into exit 2
        actions = build_parser()._actions
        subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
        assert set(_PROPERTY_CODES_BY_COMMAND) <= set(subparsers.choices)


class TestUltraCheck:
    def test_ultrametric_passes(self, doc, capsys):
        code, out = run_human(capsys, ["ultra-check", doc(ULTRA3)])
        assert code == 0
        assert out == "ultrametric\n"

    def test_failure_reports_triangle(self, doc, capsys):
        code, report = run_json(capsys, ["ultra-check", doc(LINE3)])
        assert code == 1
        assert report["ultrametric"] is False
        assert sorted(report["witness"]["triangle"]) == ["a", "b", "c"]
        assert report["witness"]["sides"] == ["1", "1", "2"]


class TestScaleCommands:
    def test_components_single_block(self, doc, capsys):
        code, out = run_human(capsys, ["components", doc(LINE3), "--scale", "1"])
        assert code == 0
        assert out.splitlines() == ["scale 1: 1 block(s)", "  a b c"]

    def test_components_fractional_scale(self, doc, capsys):
        code, out = run_human(capsys, ["components", doc(LINE3), "--scale", "1/2"])
        assert code == 0
        assert out.splitlines()[0] == "scale 1/2: 3 block(s)"

    def test_subdominant(self, doc, capsys):
        code, out = run_human(capsys, ["subdominant", doc(LINE3)])
        assert code == 0
        assert out == (
            "chain-infimum ultrametric on 3 points; "
            "1 pair(s) strictly below the input\n"
        )

    def test_certificate_doc(self, doc, capsys):
        code, report = run_json(capsys, ["dim0-cert", doc(LINE3)])
        assert code == 0
        assert report == {"m": "2", "table": [["1", "2"], ["2", "2"]]}

    def test_certificate_human(self, doc, capsys):
        code, out = run_human(capsys, ["dim0-cert", doc(LINE3)])
        assert code == 0
        assert out == "m = 2 over 2 scale(s)\n"

    def test_verify_bounds(self, doc, capsys):
        code, out = run_human(capsys, ["verify-bounds", doc(LINE3)])
        assert code == 0
        assert out == "pass: 3 pair(s) inside both two-sided bounds\n"


class TestQuantize:
    def test_rounds_up_to_powers(self, doc, capsys):
        payload = {"labels": ["a", "b", "c"], "dist": [[0, 2, 2], [2, 0, 2], [2, 2, 0]]}
        code, report = run_json(capsys, ["quantize", doc(payload)])
        assert code == 0
        assert report["dist"] == [[0, 3, 3], [3, 0, 3], [3, 3, 0]]

    def test_non_ultrametric_is_a_property_failure(self, doc, capsys):
        code, out = run_human(capsys, ["quantize", doc(LINE3)])
        assert code == 1
        assert out.startswith("NotUltrametric:")


class TestEmbedCommands:
    def test_lomega_human(self, doc, capsys):
        code, out = run_human(capsys, ["embed-lomega", doc(ULTRA3)])
        assert code == 0
        assert out == "isometric embedding of 3 point(s); 3 pair(s) verified\n"

    def test_lomega_doc(self, doc, capsys):
        code, report = run_json(capsys, ["embed-lomega", doc(ULTRA3)])
        assert code == 0
        assert report["mode"] == "isometric"
        assert report["points"] == [
            {"label": "a", "support": []},
            {"label": "b", "support": [[0, 1]]},
            {"label": "c", "support": [[-1, 1]]},
        ]
        assert report["digest"] == {
            "checked_pairs": 3,
            "min_ratio": "1",
            "max_ratio": "1",
        }

    def test_lomega_rejects_non_ultrametric(self, doc, capsys):
        code, out = run_human(capsys, ["embed-lomega", doc(LINE3)])
        assert code == 1
        assert out.startswith("NotUltrametric:")

    def test_lomega_rejects_off_grid_distances(self, doc, capsys):
        payload = {"labels": ["a", "b"], "dist": [[0, 2], [2, 0]]}
        code, out = run_human(capsys, ["embed-lomega", doc(payload)])
        assert code == 1
        assert out.startswith("NotThreePowerValued:")

    def test_universal_human_line(self, doc, capsys):
        code, out = run_human(capsys, ["embed-universal", doc(LINE3)])
        assert code == 0
        assert out == "distortion window [9/2, 9] against allowance [1, 12]: pass\n"

    def test_universal_doc(self, doc, capsys):
        code, report = run_json(capsys, ["embed-universal", doc(LINE3)])
        assert code == 0
        assert report["mode"] == "universal"
        assert report["certificate_m"] == "2"
        assert report["bound"] == "12"
        assert report["min_ratio"] == "9/2"
        assert report["max_ratio"] == "9"
        assert report["pass"] is True


class TestRetract:
    def test_tripod(self, doc, capsys):
        code, report = run_json(
            capsys, ["retract", doc(TRIPOD), "--subset", "q,r", "--lambda", "2"]
        )
        assert code == 0
        assert report == {
            "base": "r",
            "subset": ["q", "r"],
            "lambda": "2",
            "delta": "2414213/2000000",
            "assignment": {"p": "q", "q": "q", "r": "r"},
            "audited_constant": "1",
        }

    def test_tripod_human(self, doc, capsys):
        code, out = run_human(
            capsys, ["retract", doc(TRIPOD), "--subset", "q,r", "--lambda", "2"]
        )
        assert code == 0
        assert out == "retraction onto 2 point(s); audited constant 1 within lambda 2\n"

    def test_base_override(self, doc, capsys):
        argv = ["retract", doc(TRIPOD), "--base", "q", "--subset", "q,r", "--lambda", "2"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["base"] == "q"

    def test_bad_delta_exits_2(self, doc, capsys):
        argv = ["retract", doc(TRIPOD), "--subset", "q,r", "--lambda", "2", "--delta", "1"]
        code, out = run_human(capsys, argv)
        assert code == 2
        assert out.startswith("BadParameters:")

    def test_non_ultrametric_exits_1(self, doc, capsys):
        payload = dict(LINE3, base="a")
        argv = ["retract", doc(payload), "--subset", "a,b", "--lambda", "2"]
        code, out = run_human(capsys, argv)
        assert code == 1
        assert out.startswith("NotUltrametric:")

    def test_subset_names_labels_with_edge_whitespace(self, doc, capsys):
        payload = dict(TRIPOD, labels=["tab\tnl\n", " q", "r"])
        argv = ["retract", doc(payload), "--subset", "tab\tnl\n, q", "--lambda", "2"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["subset"] == ["tab\tnl\n", " q"]

    def test_subset_parts_are_stripped_when_no_label_matches(self, doc, capsys):
        argv = ["retract", doc(TRIPOD), "--subset", " q , r\t,", "--lambda", "2"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["subset"] == ["q", "r"]


class TestGroupCommands:
    def test_dist_length_gap(self, doc, capsys):
        code, out = run_human(capsys, ["group-dist", doc(Z2INF), "1", "e"])
        assert code == 0
        assert out == "distance 1\n"

    def test_dist_doc(self, doc, capsys):
        code, report = run_json(capsys, ["group-dist", doc(Z2INF), "0,1", "e"])
        assert code == 0
        assert report == {"distance": 2}

    def test_dist_equal_elements(self, doc, capsys):
        code, out = run_human(capsys, ["group-dist", doc(Z2INF), "1", "1"])
        assert code == 0
        assert out == "distance 0\n"

    def test_ball(self, doc, capsys):
        code, report = run_json(capsys, ["group-ball", doc(SPEC22), "--depth", "2"])
        assert code == 0
        assert report["labels"] == ["e", "1", "0.1", "1.1"]

    def test_ball_human(self, doc, capsys):
        code, out = run_human(capsys, ["group-ball", doc(SPEC22), "--depth", "2"])
        assert code == 0
        assert out == "ball of radius 2: 4 element(s)\n"

    def test_ball_depth_past_spec_exits_2(self, doc, capsys):
        code, out = run_human(capsys, ["group-ball", doc(SPEC22), "--depth", "3"])
        assert code == 2
        assert out.startswith("RadiusExceedsSpec:")

    def test_embed(self, doc, capsys):
        target = {"summands": [[4, 1], [2, 1]]}
        argv = ["group-embed", doc(SPEC22), doc(target), "--depth", "2"]
        code, out = run_human(capsys, argv)
        assert code == 0
        assert out == "isometric embedding on the radius-2 ball; 6 pair(s) audited\n"

    def test_embed_equal_specs_is_bijective(self, doc, capsys):
        argv = ["group-embed", doc(SPEC22), doc(SPEC22), "--depth", "2"]
        code, out = run_human(capsys, argv)
        assert code == 0
        assert out == "bijective isometry on the radius-2 ball; 6 pair(s) audited\n"

    def test_embed_order_mismatch_exits_1(self, doc, capsys):
        source = {"summands": [[4, 1]]}
        target = {"summands": [[2, 1]]}
        argv = ["group-embed", doc(source), doc(target), "--depth", "1"]
        code, out = run_human(capsys, argv)
        assert code == 1
        assert out.startswith(
            "IndexConditionFails: stage 1: source order 4 exceeds target order 2"
        )

    def test_sylow(self, doc, capsys):
        spec = {"summands": [[2, 2], [3, 1]]}
        code, out = run_human(capsys, ["sylow", doc(spec), "--prime", "2"])
        assert code == 0
        assert out == "2-part: 4\n"

    def test_sylow_infinite(self, doc, capsys):
        code, report = run_json(capsys, ["sylow", doc(Z2INF), "--prime", "2"])
        assert code == 0
        assert report == {"prime": 2, "exponent": "inf", "value": "inf"}

    def test_sylow_composite_prime_exits_2(self, doc, capsys):
        code, out = run_human(capsys, ["sylow", doc(Z2INF), "--prime", "4"])
        assert code == 2
        assert out.startswith("NotPrime:")

    def test_protasov_equivalent(self, doc, capsys):
        code, out = run_human(capsys, ["protasov", doc(Z2INF), doc(Z4INF)])
        assert code == 0
        assert out == "equivalent: all Sylow numbers agree\n"

    def test_protasov_distinct(self, doc, capsys):
        other = {"summands": [[3, 1], [2, "inf"]]}
        code, out = run_human(capsys, ["protasov", doc(Z2INF), doc(other)])
        assert code == 1
        assert out == "distinct: Sylow numbers differ at prime 3\n"

    def test_m0_encode(self, doc, capsys):
        code, out = run_human(capsys, ["m0-encode", doc(Z2INF), "1,0,1"])
        assert code == 0
        assert out == "20 (ternary 202)\n"

    def test_m0_encode_identity(self, doc, capsys):
        code, report = run_json(capsys, ["m0-encode", doc(Z2INF), "e"])
        assert code == 0
        assert report == {"value": 0, "ternary": "0"}

    def test_m0_check(self, capsys):
        code, out = run_human(capsys, ["m0-check", "--max-len", "3"])
        assert code == 0
        assert out == "pairs=28 pass sharp-bound; one-up window: fails (see report)\n"

    def test_m0_check_doc(self, capsys):
        code, report = run_json(capsys, ["m0-check", "--max-len", "3"])
        assert code == 0
        assert report["elements"] == 8
        assert report["pairs"] == 28
        assert report["sharp_bound_holds"] is True
        assert report["window_bound_holds"] is False
        assert report["window_witness"] == {
            "p": [],
            "q": [1],
            "scale": 1,
            "difference": 2,
        }


class TestArchipelagoCommands:
    def test_build(self, doc, capsys):
        code, out = run_human(capsys, ["archipelago-build", doc(PLAN2)])
        assert code == 0
        assert out == "2 island(s), 5 point(s); separations 3, 6\n"

    def test_build_doc(self, doc, capsys):
        code, report = run_json(capsys, ["archipelago-build", doc(PLAN2)])
        assert code == 0
        assert report["base"] == "o"
        assert report["labels"] == ["o", "x1.1", "x1.2", "x2.1", "x2.2"]
        assert report["islands"] == [
            {"size": 2, "diameter": 2, "separation": 3, "points": ["x1.1", "x1.2"]},
            {"size": 2, "diameter": 3, "separation": 6, "points": ["x2.1", "x2.2"]},
        ]

    @pytest.mark.parametrize("size", [[2], {"n": 2}, 2.0, "2", True])
    def test_build_rejects_a_non_integer_size(self, doc, capsys, size):
        plan = {"lambda": [2, 3], "plan": [[size, 2]]}
        code, report = run_json(capsys, ["archipelago-build", doc(plan)])
        assert code == 2
        assert report["error"] == "MalformedInput"
        assert "island 1: size" in report["message"]

    @pytest.mark.parametrize("strict", ["false", 0, 1, None])
    def test_build_rejects_a_non_boolean_strict(self, doc, capsys, strict):
        plan = dict(PLAN2, strict=strict)
        code, report = run_json(capsys, ["archipelago-build", doc(plan)])
        assert code == 2
        assert report["error"] == "MalformedInput"
        assert "'strict'" in report["message"]

    def test_build_without_strict_is_not_strict(self, doc, capsys):
        plan = {"lambda": [2], "plan": [[2, 2], [2, 3]]}
        code, out = run_human(capsys, ["archipelago-build", doc(plan)])
        assert code == 0
        assert out == "2 island(s), 5 point(s); separations 2, 5\n"

    def test_profile_round_trip(self, doc, capsys, tmp_path):
        built = tmp_path / "arch.json"
        assert run(["archipelago-build", doc(PLAN2), "--format", "json",
                    "--output", str(built)]) == 0
        code, report = run_json(capsys, ["archipelago-profile", str(built)])
        assert code == 0
        assert report == {"islands": [[2, "2", "3"], [2, "3", "6"]], "warnings": []}

    def test_profile_rejects_a_line(self, doc, capsys):
        code, out = run_human(capsys, ["archipelago-profile", doc(LINE3)])
        assert code == 1
        assert out.startswith("NotArchipelagoShaped:")

    def test_compare_rejects_a_line(self, doc, capsys):
        code, report = run_json(capsys, ["archipelago-compare", doc(LINE3), doc(LINE3)])
        assert code == 1
        assert report["error"] == "NotArchipelagoShaped"

    def test_compare_same_plan(self, doc, capsys, tmp_path):
        built = tmp_path / "arch.json"
        assert run(["archipelago-build", doc(PLAN2), "--format", "json",
                    "--output", str(built)]) == 0
        code, out = run_human(capsys, ["archipelago-compare", str(built), str(built)])
        assert code == 0
        assert out == "indistinguishable: island size sets [2] vs [2]\n"

    def test_compare_different_sizes(self, doc, capsys, tmp_path):
        left = tmp_path / "left.json"
        right = tmp_path / "right.json"
        assert run(["archipelago-build", doc(PLAN2), "--format", "json",
                    "--output", str(left)]) == 0
        assert run(["archipelago-build", doc(PLAN3), "--format", "json",
                    "--output", str(right)]) == 0
        code, out = run_human(capsys, ["archipelago-compare", str(left), str(right)])
        assert code == 1
        assert out == "distinct: island size sets [2] vs [3]\n"

    def test_ball_audit(self, doc, capsys, tmp_path):
        built = tmp_path / "arch.json"
        assert run(["archipelago-build", doc(PLAN2), "--format", "json",
                    "--output", str(built)]) == 0
        argv = ["ball-audit", str(built), "--sample", "o:1", "--sample", "x1.1:1",
                "--sample", "x1.1:2", "--sample", "x1.1:10"]
        code, out = run_human(capsys, argv)
        assert code == 0
        assert out.splitlines() == [
            "o @ 1: hub_ball (1 point(s))",
            "x1.1 @ 1: singleton (1 point(s))",
            "x1.1 @ 2: island (2 point(s))",
            "x1.1 @ 10: hub_ball (5 point(s))",
            "pass",
        ]

    def test_ball_audit_rejects_boolean_island_size(self, doc, capsys):
        arch = {"labels": ["o", "x1.1"], "dist": [[0, 2], [2, 0]], "base": "o",
                "islands": [{"size": True, "diameter": 1, "separation": 2,
                             "points": ["x1.1"]}]}
        code, report = run_json(capsys, ["ball-audit", doc(arch), "--sample", "o:2"])
        assert code == 2
        assert report["error"] == "MalformedInput"
        assert "'size'" in report["message"]

    def test_ball_audit_bad_sample_exits_2(self, doc, capsys, tmp_path):
        built = tmp_path / "arch.json"
        assert run(["archipelago-build", doc(PLAN2), "--format", "json",
                    "--output", str(built)]) == 0
        code, out = run_human(capsys, ["ball-audit", str(built), "--sample", "o"])
        assert code == 2
        assert out.startswith("MalformedInput:")


class TestOutputFile:
    def test_human_to_file(self, doc, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code = run(["validate", doc(ULTRA3), "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == "valid metric space with 3 points\n"

    def test_json_to_file(self, doc, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = run(["validate", doc(ULTRA3), "--format", "json", "--output", str(target)])
        assert code == 0
        assert json.loads(target.read_text(encoding="utf-8")) == {
            "valid": True,
            "points": 3,
        }

    def test_unwritable_output_exits_2_with_error_on_stderr(self, doc, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code = run(["validate", doc(ULTRA3), "--format", "json", "--output", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["error"] == "BadParameters"
        assert report["message"].startswith(f"BadParameters: cannot write {target}: ")
        assert "Traceback" not in captured.err
