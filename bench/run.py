"""Benchmark for the ultrazero toolkit.

    python3 bench/run.py --workload cli_accept --seed 1 --seconds 15 --trace 0

Runs one workload in this process as a closed loop with one client: each
operation starts when the previous one has returned. The program comes
from ``src/`` next to this directory. Inputs are generated from ``--seed``;
the loop runs whole passes over the workload's operations until the timed
operations add up to ``--seconds``, and every result is checked outside the
timed region.

Times are host-speed-normalised CPU time. Each operation's thread CPU time
(user plus system) is scaled by PROBE_REF_NS over the mean time of a fixed
pure-Python probe run just before and just after it, so a reported
millisecond is a millisecond on a CPU on which the probe takes 0.5 ms. On
a shared virtual machine the CPU time of identical work swings up to
twofold for seconds at a time as the host's load changes; the probe swings
with it, and the ratio does not. The probe is the benchmark's own code,
so a change to the program moves the numbers in full. Nothing in the
program waits on anything but the CPU and the page cache.

The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
half the time runs untraced and half with every layer function wrapped in
a span recorder, and the metrics are the per-layer ones, per pass over the
workload's operations.

The seed builds CORPORA corpora of the same operations on different random
inputs, and the passes of the loop take them in turn, so each run averages
over several random instances of every input; otherwise the cost of the few
operations around the 90th percentile, which moves with the random content
of one instance, would move op_p90_ms from seed to seed.

``--workload all`` runs each workload in turn in a child process. See
``design.json`` for the workloads and their metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import spans as T
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
CORPORA = 4
MIN_OPS = 100  # so that at least ten timed operations lie beyond op_p90_ms
PROBE_REF_NS = 500_000  # the probe's time on the reference CPU


def probe_ns() -> int:
    """Thread CPU time of a fixed exact-arithmetic loop, the host-speed
    reference. It uses only the standard library, never the program."""
    start = time.thread_time_ns()
    total, seen = Fraction(0), {}
    for k in range(1, 120):
        total += Fraction(k % 7 + 1, k)
        seen[k] = total > 1
    return time.thread_time_ns() - start


def warm_probe() -> None:
    for _ in range(200):
        probe_ns()


class SetupError(Exception):
    pass


def load_program():
    """Import ultrazero afresh from src/, never from anywhere else."""
    for name in [m for m in sys.modules if m == "ultrazero" or m.startswith("ultrazero.")]:
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "ultrazero", "__init__.py")):
        raise SetupError(f"no ultrazero package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    uz = importlib.import_module("ultrazero")
    cli = importlib.import_module("ultrazero.cli")
    if not os.path.abspath(uz.__file__).startswith(SRC + os.sep):
        raise SetupError(f"ultrazero imported from {uz.__file__}, not {SRC}")
    return uz, cli


def build(workload: str, seed: int, k: int, rundir: str, uz, cli):
    """Generate corpus ``k`` of the seed and write its files; returns the ops."""
    os.makedirs(rundir)
    return W.build(workload, uz, cli, rundir, random.Random(f"{seed}:{k}"))


def timed_setup(workload: str, seed: int, rundir: str):
    """Import the program and build corpus 0, SETUP_REPEATS times, timing
    each; returns corpus 0 and the median time."""
    times = []
    ops = None
    warm_probe()
    for _ in range(SETUP_REPEATS):
        ops = None
        shutil.rmtree(rundir, ignore_errors=True)
        gc.collect()
        before = probe_ns()
        start = time.thread_time_ns()
        ops = build(workload, seed, 0, os.path.join(rundir, "c0"), *load_program())
        ns = time.thread_time_ns() - start
        times.append(ns * 2 * PROBE_REF_NS / (before + probe_ns()) / 1e9)
    return ops, statistics.median(times)


class Tally:
    """Outcomes and latencies of the operations of one measured loop."""

    def __init__(self):
        self.lat_ns: list[float] = []  # normalised, see the module docstring
        self.probe_ns: list[int] = []
        self.status = Counter()
        self.failures: list[str] = []
        self.counters = Counter()
        self.rounds = 0

    def record(self, op: W.Op, outcome, ns: float) -> None:
        self.lat_ns.append(ns)
        if op.out is not None:
            if isinstance(outcome, BaseException):
                self.counters["cli.uncaught"] += 1
            elif outcome in (1, 2):
                self.counters[f"cli.exit_{outcome}"] += 1
            if os.path.exists(op.out):
                self.counters["jsonio.bytes_out"] += os.path.getsize(op.out)
        try:
            self.status[op.verify(outcome)] += 1
        except Exception as exc:  # any error while reading a report means the report is wrong
            self.status["failed"] += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.name} [{op.tag}]: {type(exc).__name__}: {exc}")

    @property
    def ops_per_s(self) -> float:
        return len(self.lat_ns) / (sum(self.lat_ns) / 1e9)


def run_loop(corpora, seconds: float, rec: T.Recorder | None = None) -> Tally:
    """Whole passes, over each corpus in turn, until the operations' CPU
    time reaches ``seconds`` and at least MIN_OPS operations ran."""
    tally = Tally()
    sink = io.StringIO()
    budget = seconds * 1e9
    cpu_ns = 0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        while cpu_ns < budget or len(tally.lat_ns) < MIN_OPS:
            for op in corpora[tally.rounds % len(corpora)]:
                if op.out is not None and os.path.exists(op.out):
                    os.remove(op.out)
                before = probe_ns()
                if rec is None:
                    start = time.thread_time_ns()
                    outcome = op.call()
                    ns = time.thread_time_ns() - start
                else:
                    outcome, ns = rec.run_op(op.tag, op.call)
                after = probe_ns()
                factor = 2 * PROBE_REF_NS / (before + after)
                if rec is not None:
                    rec.commit(factor)
                cpu_ns += ns
                tally.probe_ns += (before, after)
                tally.record(op, outcome, ns * factor)
                sink.seek(0)
                sink.truncate()
            tally.rounds += 1
    return tally


def warm_up(ops) -> None:
    """One untimed, unchecked pass, so lazy set-up is not timed and the
    peak RSS read after it is the program's, not that of the checks."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for op in ops:
            if op.out is not None and os.path.exists(op.out):
                os.remove(op.out)
            op.call()


def self_check(ops) -> str | None:
    op = next((o for o in ops if o.tamper is not None), None)
    if op is None:
        return "self-check: no operation with a tamperable result"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        payload = op.call()
    if op.out is not None:
        with open(op.out, encoding="utf-8") as fh:
            payload = json.load(fh)
    return W.self_check(op, payload)


def heap_pass(ops) -> float:
    """Mean over ``ops`` of the Python heap peak an operation reaches above
    what was allocated when it started, in MiB, from one untimed pass under
    tracemalloc."""
    total = 0
    sink = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for op in ops:
                if op.out is not None and os.path.exists(op.out):
                    os.remove(op.out)
                gc.collect()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                op.call()
                total += tracemalloc.get_traced_memory()[1] - base
                sink.seek(0)
                sink.truncate()
    finally:
        tracemalloc.stop()
    return total / len(ops) / 2**20


def end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict:
    lat_ms = [ns / 1e6 for ns in tally.lat_ns]
    attempted = len(lat_ms)
    ok = tally.status[W.OK]
    return {
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "ok_frac": (ok / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(rec: T.Recorder, traced: Tally, untraced: Tally, heap_mb: float) -> dict:
    rounds = traced.rounds
    out = {}
    for name in T.LAYERS:
        out[f"{name}.self_s"] = (rec.self_ns[name] / 1e9 / rounds, "s")
        out[f"{name}.calls"] = (rec.calls[name] / rounds, "count")
    counts = Counter(rec.counters)
    counts.update(traced.counters)
    for name in T.COUNTERS + ["jsonio.bytes_out", "cli.exit_1", "cli.exit_2", "cli.uncaught"]:
        out[name] = (counts[name] / rounds, "bytes" if name == "jsonio.bytes_out" else "count")
    inside, total = rec.inclusive_ns("metric_core.validate_metric")
    out["metric_core.validate_metric.op_share"] = (inside / total, "ratio")
    inside, total = rec.inclusive_ns("scale_analysis.verify_scale_bounds", "alldistinct")
    out["scale_analysis.verify_scale_bounds.all_distinct_share"] = (
        inside / total if total else 0.0, "ratio")
    out["trace.untraced_ops_per_s"] = (untraced.ops_per_s, "1/s")
    out["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
    out["trace.slowdown"] = (untraced.ops_per_s / traced.ops_per_s, "ratio")
    out["op_heap_mb"] = (heap_mb, "MB")
    out["host.probe_ms"] = (statistics.median(traced.probe_ns + untraced.probe_ns) / 1e6, "ms")
    return out


def zero_call_guard(workload: str, rec: T.Recorder) -> list[str]:
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    problems = [f"{name} recorded zero calls on {workload}"
                for name in design["zero_call_guard"][workload] if rec.calls[name] == 0]
    problems += [f"{name} was called on {workload}, which must not call it"
                 for name in design["must_not_call"].get(workload, []) if rec.calls[name]]
    return problems


def input_summary(ops) -> str:
    kinds = Counter(op.name for op in ops)
    return ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items()))


def run_workload(args) -> int:
    rundir = os.path.join(HERE, "_run", f"{args.workload}-{os.getpid()}")
    try:
        ops, setup_s = timed_setup(args.workload, args.seed, rundir)
        warm_up(ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        uz, cli = sys.modules["ultrazero"], sys.modules["ultrazero.cli"]
        corpora = [ops] + [build(args.workload, args.seed, k, os.path.join(rundir, f"c{k}"), uz, cli)
                           for k in range(1, CORPORA)]
        gc.collect()
        gc.freeze()
        problems = []
        if args.trace:
            untraced = run_loop(corpora, args.seconds / 2)
            rec = T.Recorder()
            rec.install()
            try:
                tally = run_loop(corpora, args.seconds / 2, rec)
            finally:
                rec.uninstall()
            metrics = per_layer(rec, tally, untraced, heap_pass(ops))
            problems += zero_call_guard(args.workload, rec)
            tally.status.update(untraced.status)
            tally.failures += untraced.failures
            os.makedirs(os.path.join(HERE, "_run", "traces"), exist_ok=True)
            path = os.path.join(HERE, "_run", "traces", f"{args.workload}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "rounds": tally.rounds, **rec.dump()}, fh)
        else:
            tally = run_loop(corpora, args.seconds)
            metrics = end_to_end(tally, setup_s, rss_mb)
        problem = self_check(ops)
        if problem:
            problems.append(problem)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(tally.status.values())
    failed = tally.status["failed"]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass "
          f"({input_summary(ops)})")
    print(f"  {tally.rounds} passes, {len(tally.lat_ns)} ops timed; attempted {attempted}, "
          f"known defects {tally.status[W.KNOWN_DEFECT]}, failed {failed}, "
          f"failed_frac {(failed + tally.status[W.KNOWN_DEFECT]) / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:>16.6g} {unit}")
    for line in tally.failures + problems:
        print(f"  FAIL {line}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in W.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
