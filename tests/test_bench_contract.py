"""The names that the traced bench wraps and guards must exist.

``bench/spans.py`` wraps every function named in its ``LAYERS`` table at
its ``ultrazero`` module, and ``bench/design.json`` lists the layers that
each workload must (``zero_call_guard``) or must not (``must_not_call``)
reach. A missing name makes the traced run fail, so this test reads both
files, changes neither, and fails first.
"""

import importlib
import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
