"""Span recorder for the traced run.

``Recorder.install`` wraps each layer function listed in ``LAYERS`` at its
defining module and at every ``ultrazero`` module that imported it by name
(the package ``__init__`` included), so calls through any of those names
are seen. A span records its name, start, end and parent span; spans stay
in memory until the run writes them out. Self time is a span's duration
minus the time of the calls made inside it. Times are thread CPU time; the
self times of an operation are held until ``commit`` scales them by the
same host-speed factor as the operation's own time in the untraced run
(see ``run.py``). Spans keep the raw times. Functions called once per matrix entry keep only a
call count and a time sum.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import thread_time_ns

# metric prefix -> (module under ultrazero, function names); a metric name
# must start with a letter, so _linkage reports as linkage
LAYERS = {
    "cli.run": ("cli", ["run"]),
    "jsonio.load_document": ("jsonio", ["load_document"]),
    "jsonio.space_from_json": ("jsonio", ["space_from_json"]),
    "jsonio.pointed_from_json": ("jsonio", ["pointed_from_json"]),
    "jsonio.archipelago_from_json": ("jsonio", ["archipelago_from_json"]),
    "jsonio.to_json": ("jsonio", None),  # every *_to_json emitter
    "jsonio.dump_text": ("jsonio", ["dump_text"]),
    "metric_core.validate_metric": ("metric_core", ["validate_metric"]),
    "metric_core.is_ultrametric": ("metric_core", ["is_ultrametric"]),
    "metric_core.apply_gauge": ("metric_core", ["apply_gauge"]),
    "metric_core.quantize_3adic": ("metric_core", ["quantize_3adic"]),
    "metric_core.metric_wedge": ("metric_core", ["metric_wedge"]),
    "metric_core.cone": ("metric_core", ["cone"]),
    "rational.as_fraction": ("rational", ["as_fraction"]),
    "rational.ceil_exponent_base3": ("rational", ["ceil_exponent_base3"]),
    "linkage.prim_mst": ("_linkage", ["prim_mst"]),
    "linkage.bottleneck_matrix": ("_linkage", ["bottleneck_matrix"]),
    "linkage.tree_path": ("_linkage", ["tree_path"]),
    "scale_analysis.s_components": ("scale_analysis", ["s_components"]),
    "scale_analysis.subdominant_ultrametric": ("scale_analysis", ["subdominant_ultrametric"]),
    "scale_analysis.dim0_certificate": ("scale_analysis", ["dim0_certificate"]),
    "scale_analysis.verify_scale_bounds": ("scale_analysis", ["verify_scale_bounds"]),
    "lomega.embed_3n_valued": ("lomega", ["embed_3n_valued"]),
    "lomega.embed_ultrametric": ("lomega", ["embed_ultrametric"]),
    "lomega.mu": ("lomega", ["mu"]),
    "retract.lipschitz_retraction": ("retract", ["lipschitz_retraction"]),
    "retract.audit_lipschitz": ("retract", ["audit_lipschitz"]),
    "groups.group_ball": ("groups", ["group_ball"]),
    "groups.group_isometric_embedding": ("groups", ["group_isometric_embedding"]),
    "groups.m0_distortion_check": ("groups", ["m0_distortion_check"]),
    "groups.protasov_equivalent": ("groups", ["protasov_equivalent"]),
    "archipelago.build_archipelago": ("archipelago", ["build_archipelago"]),
    "archipelago.island_profile": ("archipelago", ["island_profile"]),
    "archipelago.fingerprint_compare": ("archipelago", ["fingerprint_compare"]),
    "archipelago.ball_audit": ("archipelago", ["ball_audit"]),
}
# Called once per matrix entry: count and time only, no spans.
AGGREGATED = {"rational.as_fraction", "lomega.mu"}

# Work counters; run.py adds jsonio.bytes_out and the cli.* outcome counts.
COUNTERS = [
    "metric_core.validate_metric.triangles",
    "metric_core.validate_metric.errors",
    "scale_analysis.scales",
    "scale_analysis.pairs_audited",
    "groups.elements",
]


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.op_tags: dict[int, str] = {}  # root span index -> operation tag
        self.stack: list[list[int]] = []  # [span index, ns spent in calls inside]
        self.self_ns: dict[str, float] = defaultdict(float)
        self.pending: dict[str, int] = defaultdict(int)  # self times of the last operation
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.deferred: list = []
        self._restore: list = []

    # ----------------------------------------------------------- recording

    def _enter(self, name: str) -> list[int]:
        parent = self.stack[-1][0] if self.stack else -1
        frame = [len(self.spans), 0]
        self.spans.append([name, 0, 0, parent])
        self.stack.append(frame)
        return frame

    def _leave(self, name: str, frame, start: int, end: int) -> None:
        self.stack.pop()
        dur = end - start
        span = self.spans[frame[0]]
        span[1], span[2] = start, end
        self.pending[name] += dur - frame[1]
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def run_op(self, tag: str, call):
        """Run one operation as a root span; returns (outcome, ns)."""
        frame = self._enter("op")
        self.op_tags[frame[0]] = tag
        start = thread_time_ns()
        outcome = call()
        end = thread_time_ns()
        self._leave("op", frame, start, end)
        for job in self.deferred:
            job()
        self.deferred.clear()
        return outcome, end - start

    def commit(self, factor: float) -> None:
        """Add the last operation's self times, scaled by ``factor``."""
        for name, ns in self.pending.items():
            self.self_ns[name] += ns * factor
        self.pending.clear()

    def _span(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            result, ok = None, False
            start = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._leave(name, frame, start, thread_time_ns())
                if hook is not None:
                    hook(self, args, result, ok)

        return wrapper

    def _aggregate(self, name: str, fn):
        pending, calls, stack = self.pending, self.calls, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = thread_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = thread_time_ns() - start
                pending[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur

        return wrapper

    # ------------------------------------------------------------- install

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "ultrazero" or k.startswith("ultrazero.")]
        for metric, (modname, attrs) in LAYERS.items():
            home = sys.modules[f"ultrazero.{modname}"]
            if attrs is None:
                attrs = sorted(a for a in vars(home) if a.endswith("_to_json"))
            for attr in attrs:
                orig = getattr(home, attr)
                if metric in AGGREGATED:
                    wrapped = self._aggregate(metric, orig)
                else:
                    wrapped = self._span(metric, orig, HOOKS.get(metric))
                for mod in mods:
                    if mod.__dict__.get(attr) is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    # ------------------------------------------------------------- summary

    def inclusive_ns(self, name: str, tag_prefix: str = "") -> tuple[int, int]:
        """(time inside spans called ``name``, time of their root
        operations), over operations whose tag starts with ``tag_prefix``.
        ``name`` is assumed not to call itself."""
        root_of: dict[int, int] = {}
        inside = ops = 0
        for idx, (span_name, start, end, parent) in enumerate(self.spans):
            root = idx if parent < 0 else root_of[parent]
            root_of[idx] = root
            if not self.op_tags[root].startswith(tag_prefix):
                continue
            if span_name == name:
                inside += end - start
            elif parent < 0:
                ops += end - start
        return inside, ops

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[code[n], s, e, p] for n, s, e, p in self.spans],
            "op_tags": {str(k): v for k, v in self.op_tags.items()},
            "aggregated": {n: {"calls": self.calls[n], "scaled_ns": self.self_ns[n]}
                           for n in AGGREGATED},
        }


def _validate_hook(rec, args, result, ok):
    if ok:
        n = len(args[0])
        rec.counters["metric_core.validate_metric.triangles"] += n * (n - 1) * (n - 2) // 6
    else:
        rec.counters["metric_core.validate_metric.errors"] += 1


def _scales_hook(rec, args, result, ok):
    space = args[0]

    def count():
        dist, n = space.dist, space.n
        rec.counters["scale_analysis.scales"] += len(
            {dist[i][j] for i in range(n) for j in range(i + 1, n)})

    if ok:
        rec.deferred.append(count)


def _pairs_hook(rec, args, result, ok):
    if ok:
        n = args[0].n
        rec.counters["scale_analysis.pairs_audited"] += n * (n - 1) // 2


def _ball_hook(rec, args, result, ok):
    if ok:
        rec.counters["groups.elements"] += result.n


def _m0_hook(rec, args, result, ok):
    if ok:
        rec.counters["groups.elements"] += 2 ** args[0]


HOOKS = {
    "metric_core.validate_metric": _validate_hook,
    "scale_analysis.dim0_certificate": _scales_hook,
    "scale_analysis.verify_scale_bounds": _pairs_hook,
    "groups.group_ball": _ball_hook,
    "groups.m0_distortion_check": _m0_hook,
}
