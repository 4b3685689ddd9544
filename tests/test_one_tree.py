"""One spanning tree per operation, and no recheck of what is ultrametric
by construction.

Every scale and ultrametric command reads the single tree that
``_linkage.spanning_tree`` builds, so each makes exactly one ``prim_mst``
call. ``embed_universal`` rounds and embeds a chain-infimum ultrametric,
which needs no ultrametric check; the public ``quantize_3adic`` and
``embed_3n_valued`` still check their input and reject it as before.
"""

import json
import random

import pytest

import gen
from ultrazero import (
    UltrazeroError,
    cli,
    embed_3n_valued,
    embed_universal,
    jsonio,
    metric_core,
    quantize_3adic,
    validate_metric,
)
from ultrazero import _linkage
from ultrazero.metric_core import _SCAN_LIMIT

N = _SCAN_LIMIT + 1  # ultra-check takes the tree path above the scan limit


@pytest.fixture(scope="module")
def space_file(tmp_path_factory):
    space = gen.random_metric(random.Random(11), N)
    path = tmp_path_factory.mktemp("space") / "space.json"
    path.write_text(json.dumps(jsonio.space_to_json(space)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", [
    ["verify-bounds"], ["embed-universal"], ["dim0-cert"], ["subdominant"],
    ["components", "--scale", "1"], ["ultra-check"],
], ids=lambda argv: argv[0])
def test_each_command_builds_one_tree(monkeypatch, capsys, space_file, command):
    real, calls = _linkage.prim_mst, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_linkage, "prim_mst", counted)
    code = cli.run([command[0], space_file, *command[1:], "--format", "json"])
    capsys.readouterr()
    assert code in (0, 1)
    assert len(calls) == 1


def test_embed_universal_does_not_recheck_ultrametricity(monkeypatch):
    def forbidden(space):
        raise AssertionError("is_ultrametric called")

    monkeypatch.setattr(metric_core, "is_ultrametric", forbidden)
    rng = random.Random(12)
    for make in (gen.random_metric, gen.random_ultrametric, gen.all_distinct_metric):
        assert embed_universal(make(rng, N)).passed


LINE3 = validate_metric("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


@pytest.mark.parametrize("space, where, sides", [
    (LINE3, "(0, 1, 2)", "('1', '1', '2')"),
    (gen.random_metric(random.Random(3), 45), "(3, 5, 1)", "('3/2', '16/3', '6')"),
], ids=["scan", "tree"])
def test_public_entry_points_still_reject(space, where, sides):
    for call, text in ((quantize_3adic, f"violating triangle at indices {where} with sides {sides}"),
                       (embed_3n_valued, f"triangle at indices {where} has sides {sides}")):
        with pytest.raises(UltrazeroError) as info:
            call(space)
        assert info.value.code == "NotUltrametric"
        assert str(info.value) == f"NotUltrametric: {text}"
