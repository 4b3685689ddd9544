"""One spanning tree per operation, and no recheck of what is ultrametric
by construction.

Every scale and ultrametric command reads the single tree that
``_linkage.spanning_tree`` builds, so each makes exactly one ``prim_mst``
call. The tree decides ultrametricity at every size; the triple scan runs
only to name the witness of a "no" up to ``_SCAN_LIMIT`` points.
``embed_universal`` rounds and embeds a chain-infimum ultrametric, which
needs no ultrametric check, and ``embed_ultrametric`` checks its input
once; the public ``quantize_3adic`` and ``embed_3n_valued`` still check
their input and reject it as before.
"""

import json
import random

import pytest

import gen
from ultrazero import (
    UltrazeroError,
    cli,
    embed_3n_valued,
    embed_ultrametric,
    embed_universal,
    jsonio,
    lomega,
    metric_core,
    quantize_3adic,
    validate_metric,
)
from ultrazero import _linkage
from ultrazero.metric_core import _SCAN_LIMIT, _ultra_pair_ok

N = _SCAN_LIMIT + 1  # above the scan limit, ultra-check names a tree-path witness


def write_space(tmp_path_factory, space):
    path = tmp_path_factory.mktemp("space") / "space.json"
    path.write_text(json.dumps(jsonio.space_to_json(space)), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def space_file(tmp_path_factory):
    return write_space(tmp_path_factory, gen.random_metric(random.Random(11), N))


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs each call's arguments."""
    real, calls = getattr(module, name), []

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("command", [
    ["verify-bounds"], ["embed-universal"], ["dim0-cert"], ["subdominant"],
    ["components", "--scale", "1"], ["ultra-check"],
], ids=lambda argv: argv[0])
def test_each_command_builds_one_tree(monkeypatch, capsys, space_file, command):
    calls = counted(monkeypatch, _linkage, "prim_mst")
    code = cli.run([command[0], space_file, *command[1:], "--format", "json"])
    capsys.readouterr()
    assert code in (0, 1)
    assert len(calls) == 1


def test_ultra_check_decides_from_the_tree_at_the_scan_limit(monkeypatch, capsys,
                                                             tmp_path_factory):
    space = gen.random_ultrametric(random.Random(13), _SCAN_LIMIT)
    path = write_space(tmp_path_factory, space)
    trees = counted(monkeypatch, _linkage, "prim_mst")
    scans = counted(monkeypatch, metric_core, "_first_bad_triple")
    assert cli.run(["ultra-check", path, "--format", "json"]) == 0
    capsys.readouterr()
    assert len(trees) == 1
    assert [pair_ok for _, pair_ok in scans if pair_ok is _ultra_pair_ok] == []


@pytest.mark.parametrize("n, scans_run", [(_SCAN_LIMIT, 1), (_SCAN_LIMIT + 1, 0)])
def test_the_scan_only_names_the_witness_of_a_no(monkeypatch, n, scans_run):
    space = gen.random_metric(random.Random(14), n)
    trees = counted(monkeypatch, _linkage, "prim_mst")
    scans = counted(monkeypatch, metric_core, "_first_bad_triple")
    assert not metric_core.is_ultrametric(space)
    assert len(trees) == 1
    assert len(scans) == scans_run


def test_a_no_lattices_the_space_once(monkeypatch):
    # the scan that names the witness reads the lattice scale of the tree
    scales = counted(monkeypatch, _linkage, "lattice_scale")
    assert not metric_core.is_ultrametric(gen.random_metric(random.Random(16), _SCAN_LIMIT))
    assert len(scales) == 1


@pytest.mark.parametrize("embed, make", [
    (embed_universal, gen.random_metric), (embed_ultrametric, gen.random_ultrametric),
], ids=["universal", "ultrametric"])
def test_embeddings_measure_each_image_pair_once(monkeypatch, embed, make):
    # the isometry audit calls mu once per pair; the ratio window reads the
    # quantized distances that audit has just matched
    n = 16
    space = make(random.Random(17), n)
    calls = counted(monkeypatch, lomega, "mu")
    embed(space)
    assert len(calls) == n * (n - 1) // 2


def test_embed_ultrametric_checks_its_input_once(monkeypatch):
    calls = counted(monkeypatch, metric_core, "is_ultrametric")
    embed_ultrametric(gen.random_ultrametric(random.Random(15), N))
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
