"""JSON documents: byte-stable emission and strict parsing."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
from ultrazero import (
    GroupElement,
    UltrazeroError,
    build_archipelago,
    dim0_certificate,
    is_ultrametric,
    island_profile,
    m0_distortion_check,
    subdominant_ultrametric,
    sylow_number,
    validate_metric,
)
from ultrazero.groups import CyclicSumSpec
from ultrazero.jsonio import (
    archipelago_from_json,
    archipelago_to_json,
    certificate_to_json,
    dump_text,
    element_from_text,
    error_to_json,
    load_document,
    m0_to_json,
    matrix_value,
    plan_from_json,
    pointed_from_json,
    pointed_to_json,
    profile_to_json,
    space_from_json,
    space_to_json,
    spec_from_json,
    subdominant_to_json,
    sylow_to_json,
    witness_to_json,
)

F = Fraction


def err(code):
    return pytest.raises(UltrazeroError, match=rf"^{code}:")


def test_matrix_value_prefers_ints():
    assert matrix_value(F(4)) == 4
    assert matrix_value(F(9, 3)) == 3
    assert matrix_value(F(3, 2)) == "3/2"


class TestLoadDump:
    def test_load_missing_file(self, tmp_path):
        with err("MalformedInput"):
            load_document(str(tmp_path / "nope.json"))

    def test_load_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with err("MalformedInput"):
            load_document(str(p))

    def test_dump_text_shape(self):
        text = dump_text({"a": 1})
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1}

    def test_dump_is_deterministic(self, make_rng):
        rng = make_rng(701)
        s = gen.random_metric(rng, 6)
        assert dump_text(space_to_json(s)) == dump_text(space_to_json(s))


_CHARS = st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "/", "é", "\U0001F600", "\ud800", "\udfff"]))
_TEXT = st.text(_CHARS, max_size=6)
_INTS = st.one_of(st.integers(-300, 300), st.integers(-(10**40), 10**40))
_ATOMS = st.one_of(_TEXT, _INTS, st.booleans(), st.none(), st.floats())
_DOCS = st.recursive(
    _ATOMS,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=40,
)


def _oracle(doc):
    return json.dumps(doc, indent=2) + "\n"


class TestWriterOracle:
    """dump_text must reproduce json.dumps(doc, indent=2) + "\\n" byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(_DOCS)
    @example([[]])
    @example({"a": [], "b": {}, "c": [[], {}, [[]]], "d": [{"e": []}]})
    @example([[1, "x"], [True, 2], [2, False], [None, 1], [1.5, 2]])
    def test_matches_json_dumps(self, doc):
        assert dump_text(doc) == _oracle(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(_INTS, _TEXT, st.booleans()), max_size=6), max_size=6))
    def test_matrix_rows_with_bools_mixed_in(self, rows):
        doc = {"labels": [str(i) for i in range(len(rows))], "dist": rows}
        assert dump_text(doc) == _oracle(doc)

    def test_tuples_and_non_string_keys(self):
        doc = {"t": (1, ("a", [2])), 1: [True], None: {"k": ()}, 2.5: "x", False: 0}
        assert dump_text(doc) == _oracle(doc)
        for bad in ({(1, 2): 0}, [object()], {"a": [1, 2, {3}]}):
            with pytest.raises(TypeError) as got:
                dump_text(bad)
            with pytest.raises(TypeError) as want:
                _oracle(bad)
            assert str(got.value) == str(want.value)

    def test_empty_and_one_point_spaces(self):
        empty = {"labels": [], "dist": []}
        assert dump_text(empty) == _oracle(empty)
        one = space_to_json(validate_metric(["a"], [[0]]))
        assert one == {"labels": ["a"], "dist": [[0]]}
        assert dump_text(one) == _oracle(one)

    def test_matrix_reports(self, make_rng):
        space = gen.random_metric(make_rng(704), 12)
        sub = subdominant_ultrametric(space)
        arch = build_archipelago([2, 3], [(2, 2), (3, 4), (2, 3)], strict=True)
        for doc, dist in ((space_to_json(space), space.dist),
                          (subdominant_to_json(sub), sub.rho.dist),
                          (archipelago_to_json(arch), arch.space.dist)):
            assert doc["dist"] == [[matrix_value(q) for q in row] for row in dist]
            assert dump_text(doc) == _oracle(doc)


class TestSpaceDocs:
    def test_round_trip_bit_exact(self, make_rng, tmp_path):
        rng = make_rng(702)
        for k in range(8):
            s = gen.random_metric(rng, rng.randint(2, 9))
            path = tmp_path / f"s{k}.json"
            path.write_text(dump_text(space_to_json(s)))
            back = space_from_json(load_document(str(path)))
            assert back.labels == s.labels
            assert back.dist == s.dist
            assert dump_text(space_to_json(back)) == path.read_text()

    def test_rejects_zero_denominator(self):
        with err("MalformedInput"):
            space_from_json(
                {"labels": ["a", "b"], "dist": [[0, "1/0"], ["1/0", 0]]}
            )

    def test_rejects_float_entries(self):
        with err("MalformedInput"):
            space_from_json({"labels": ["a", "b"], "dist": [[0, 1.5], [1.5, 0]]})

    def test_rejects_missing_keys(self):
        with err("MalformedInput"):
            space_from_json({"labels": ["a"]})
        with err("MalformedInput"):
            space_from_json([1, 2, 3])

    def test_pointed_base_round_trip(self):
        s = validate_metric("abc", [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
        from ultrazero import PointedSpace

        doc = pointed_to_json(PointedSpace(s, 2))
        assert doc["base"] == "c"
        back = pointed_from_json(doc)
        assert back.base == 2

    def test_pointed_default_first(self):
        doc = space_to_json(validate_metric("ab", [[0, 1], [1, 0]]))
        assert pointed_from_json(doc).base == 0
        with err("MalformedInput"):
            pointed_from_json(doc, default_first=False)


class TestReportDocs:
    def test_certificate_doc_and_round_trip(self):
        line3 = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        cert = dim0_certificate(line3)
        doc = certificate_to_json(cert)
        assert doc == {"m": "2", "table": [["1", "2"], ["2", "2"]]}
        assert (F(doc["m"]), tuple((F(a), F(b)) for a, b in doc["table"])) == (cert.m, cert.table)

    def test_subdominant_doc_all_strings_or_ints(self, make_rng):
        rng = make_rng(703)
        s = gen.random_metric(rng, 6)
        from ultrazero.jsonio import subdominant_to_json

        doc = subdominant_to_json(subdominant_ultrametric(s))
        assert set(doc) == {"labels", "dist", "spanning_edges"}
        assert len(doc["spanning_edges"]) == s.n - 1

    def test_witness_doc(self):
        line3 = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        doc = witness_to_json(line3, is_ultrametric(line3))
        assert doc == {
            "ultrametric": False,
            "witness": {"triangle": ["a", "b", "c"], "sides": ["1", "1", "2"]},
        }

    def test_m0_doc_witness_shape(self):
        doc = m0_to_json(m0_distortion_check(3))
        assert doc["sharp_bound_holds"] is True
        assert doc["window_bound_holds"] is False
        assert doc["window_witness"] == {
            "p": [],
            "q": [1],
            "scale": 1,
            "difference": 2,
        }

    def test_sylow_doc(self):
        s = CyclicSumSpec.of([(2, None)])
        assert sylow_to_json(sylow_number(s, 2)) == {
            "prime": 2,
            "exponent": "inf",
            "value": "inf",
        }


class TestGroupDocs:
    def test_spec_round_trip(self):
        spec = CyclicSumSpec.of([(3, 2), (2, None)])
        assert spec_from_json({"summands": [[3, 2], [2, "inf"]]}) == spec
        assert spec_from_json({"summands": [[3, 2], [2, None]]}) == spec

    def test_spec_rejects_junk(self):
        with err("MalformedInput"):
            spec_from_json({"summands": [[2, "lots"]]})
        with err("MalformedInput"):
            spec_from_json({"summands": [[2]]})
        with err("MalformedInput"):
            spec_from_json({"summands": [["2", 1]]})

    def test_element_from_text(self):
        assert element_from_text("e") == GroupElement.of(())
        assert element_from_text(" 1,0,2 ") == GroupElement.of([1, 0, 2])
        assert element_from_text("") == GroupElement.of(())
        with err("MalformedInput"):
            element_from_text("1,x")


class TestArchipelagoDocs:
    def test_round_trip(self):
        arch = build_archipelago([2, 3], [(2, 2), (3, 4)], strict=True)
        doc = archipelago_to_json(arch)
        back = archipelago_from_json(doc)
        assert back.space.dist == arch.space.dist
        assert back.islands == arch.islands
        assert dump_text(archipelago_to_json(back)) == dump_text(doc)

    def test_rejects_overlap_and_bad_coverage(self):
        arch = build_archipelago([2], [(2, 2), (2, 3)])
        doc = archipelago_to_json(arch)
        twisted = json.loads(dump_text(doc))
        twisted["islands"][0]["points"] = ["x1.1", "x2.1"]
        with err("MalformedInput"):
            archipelago_from_json(twisted)
        hubbed = json.loads(dump_text(doc))
        hubbed["islands"][0]["points"] = ["o", "x1.1"]
        with err("MalformedInput"):
            archipelago_from_json(hubbed)
        short = json.loads(dump_text(doc))
        short["islands"] = short["islands"][:1]
        with err("MalformedInput"):
            archipelago_from_json(short)
        # sizes and coverage add up, but one island names its point twice
        repeated = {
            "labels": ["o", "a", "b"], "base": "o",
            "dist": [[0, 3, 5], [3, 0, 5], [5, 5, 0]],
            "islands": [
                {"size": 2, "diameter": 1, "separation": 3, "points": ["a", "a"]},
                {"size": 1, "diameter": 0, "separation": 5, "points": ["b"]},
            ],
        }
        with err("MalformedInput"):
            archipelago_from_json(repeated)

    def test_rejects_size_mismatch(self):
        arch = build_archipelago([2], [(2, 2)])
        doc = archipelago_to_json(arch)
        doc["islands"][0]["size"] = 3
        with err("MalformedInput"):
            archipelago_from_json(doc)

    def test_plan_round_trip(self):
        doc = {"lambda": [2, 3], "plan": [[2, 2], [3, 5]], "strict": True}
        allowed, plan, strict = plan_from_json(doc)
        assert allowed == [2, 3]
        assert plan == [(2, 2), (3, 5)]
        assert strict is True

    def test_plan_defaults_and_errors(self):
        allowed, plan, strict = plan_from_json({"lambda": [2], "plan": [[2, 4]]})
        assert strict is False
        with err("MalformedInput"):
            plan_from_json({"lambda": [2], "plan": [[2]]})
        with err("MalformedInput"):
            plan_from_json({"plan": []})

    def test_profile_round_trip(self):
        arch = build_archipelago([2], [(2, 2), (2, 3)], strict=True)
        result = island_profile(arch)
        assert result.profile == ((2, F(2), F(3)), (2, F(3), F(6)))
        assert profile_to_json(result) == {
            "islands": [[2, "2", "3"], [2, "3", "6"]],
            "warnings": [],
        }


def test_error_doc_renders_fraction_witnesses():
    exc = UltrazeroError("BadParameters", "nope", (F(3, 2), 4, "x"))
    doc = error_to_json(exc)
    assert doc["error"] == "BadParameters"
    assert doc["witness"] == ["3/2", 4, "x"]
    assert "nope" in doc["message"]
