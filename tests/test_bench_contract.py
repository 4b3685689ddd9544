"""The names that the traced bench wraps and guards must exist.

``bench/spans.py`` wraps every function named in its ``LAYERS`` table at
its ``ultrazero`` module, and ``bench/design.json`` lists the layers that
each workload must (``zero_call_guard``) or must not (``must_not_call``)
reach. A missing name makes the traced run fail, so these tests read both
files, change neither, and fail first. The smoke tests run the four
workloads traced, briefly and all at once, from a copy of ``bench/`` beside
the package source.
"""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_wrapped_function_exists():
    for metric, (modname, attrs) in _layers().items():
        home = importlib.import_module(f"ultrazero.{modname}")
        if attrs is None:  # every *_to_json emitter of the module
            attrs = [a for a in vars(home) if a.endswith("_to_json")]
            assert attrs, f"{metric}: ultrazero.{modname} has no *_to_json emitter"
        for attr in attrs:
            assert callable(getattr(home, attr, None)), f"{metric}: ultrazero.{modname}.{attr}"


def test_guarded_layers_are_wrapped():
    design = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
    layers = _layers()
    for section in ("zero_call_guard", "must_not_call"):
        for workload, names in design[section].items():
            missing = sorted(set(names) - set(layers))
            assert not missing, f"{section}[{workload}] names unwrapped layers {missing}"


WORKLOADS = ("cli_accept", "cli_reject", "lib_analysis", "groups_islands")


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Every workload run traced, briefly, from a copy of bench/ next to a
    link to src/, so a run writes only in the copy. The runs start together;
    each test waits on its own. Yields workload -> (process, stdout file,
    stderr file); files, not pipes, so no run stalls on a full pipe."""
    root = tmp_path_factory.mktemp("bench_root")
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    runs = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "0.5", "--trace", "1"]
        out, err = root / f"{workload}.out", root / f"{workload}.err"
        with open(out, "w") as fo, open(err, "w") as fe:
            runs[workload] = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env), out, err
    yield runs
    for proc, _, _ in runs.values():
        proc.kill()  # a no-op on the runs that finished
        proc.wait()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(traced_runs, workload):
    proc, out, err = traced_runs[workload]
    code = proc.wait(timeout=600)
    stdout = out.read_text(encoding="utf-8")
    assert code == 0, stdout[-2000:] + err.read_text(encoding="utf-8")[-2000:]
    assert json.loads(stdout.splitlines()[-1])["correct"] is True
