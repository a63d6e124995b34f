"""End-to-end benchmark of the TUT-Profile toolchain, from the repo root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one closed-loop workload (one caller, serial, one process) against
``src/repro`` for ``S`` seconds and prints, as its last stdout line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced ops and reports per-layer metrics, and
writes the kept spans to ``.perfbench/traces/``.  All timings are
host-normalised (see ``perfbench/host.py``).  Exits non-zero without a
result line when ``src/repro`` is missing or set-up fails.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import host, spans, workloads  # noqa: E402
from perfbench.spans import COUNTERS, LAYERS  # noqa: E402

#: Per-run work directories and kept traces; inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Fresh-interpreter starts per run; ``setup_s`` is their median.
SETUP_STARTS = 11
#: Traced ops whose full span records go into the Chrome trace.
KEEP_OPS = 2
#: Failure messages echoed to stderr per run.
MAX_REPORTED = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the workload, print 'ready' and exit (setup_s child)",
    )
    return parser.parse_args(argv)


class Tally:
    """Attempted/failed op accounting; echoes the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, index: int, error) -> bool:
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        if self.failed <= MAX_REPORTED:
            print(f"op {index} failed: {error}", file=sys.stderr)
        return False


def _run_op(workload, index, workdir):
    """Run one op; returns (wall seconds, result, error or None)."""
    start = perf_counter()
    try:
        result = workload.op(index, workdir)
    except Exception:  # noqa: BLE001 - a raising op is a failed op
        return perf_counter() - start, None, traceback.format_exc()
    return perf_counter() - start, result, None


def _check(workload, index, result, error):
    """The op's output check plus the clean-op guard."""
    if error is not None:
        return error
    try:
        error = workload.check(index, result)
    except Exception:  # noqa: BLE001 - a raising check is a failed op
        return traceback.format_exc()
    if error is not None:
        return error
    # a surviving thread or child would steal CPU from the reference loop
    if threading.active_count() != 1:
        return f"{threading.active_count() - 1} thread(s) survived the op"
    children = multiprocessing.active_children()
    if children:
        return f"{len(children)} child process(es) survived the op"
    return None


def _traced_op(workload, index, workdir, recorder):
    recorder.install()
    try:
        recorder.begin_op(index)
        try:
            return _run_op(workload, index, workdir)
        finally:
            recorder.end_op()
    finally:
        recorder.uninstall()


def warm_up(workload, workdir, recorder, counter, tally):
    """Untimed op 0 under the recorder: warms caches, gives the fingerprint.

    Every count in the fingerprint is simulated behaviour or an output
    digest, so it repeats exactly for a given workload and seed.
    """
    _, result, error = _traced_op(workload, 0, workdir, recorder)
    tally.record(0, _check(workload, 0, result, error))
    counts = recorder.counts
    fingerprint = {
        "simulations": counter.simulations,
        "events": counts["simulation.kernel.events"],
        "executor_steps": counts["simulation.executor.steps"],
        "statements": counts["simulation.executor.statements"],
        "bus_transfers": recorder.calls[LAYERS.index("simulation.bus")],
        "bus_bytes": counts["simulation.bus.bytes"],
        "simulated_cycles": counts["simulation.logfile.cycles"],
        "dropped_signals": counts["simulation.kernel.dropped"],
    }
    fingerprint.update(workload.digests())
    recorder.reset()
    return fingerprint


def measure(workload, workdir, seconds, counter, tally):
    """Untimed-check, timed-op loop: the end-to-end figures."""
    normaliser = host.Normaliser()
    times = []
    events = simulations = 0
    deadline = perf_counter() + seconds
    index = 1
    while True:
        events_before, simulations_before = counter.events, counter.simulations
        wall, result, error = _run_op(workload, index, workdir)
        factor = normaliser.factor()
        if tally.record(index, _check(workload, index, result, error)):
            times.append(wall * factor)
            events += counter.events - events_before
            simulations += counter.simulations - simulations_before
        index += 1
        if perf_counter() >= deadline:
            break
    if not times:
        raise RuntimeError("no op succeeded")
    op_time = sum(times)
    print(
        f"ops {len(times)}  raw ref loop {normaliser.median_s() * 1e3:.3f} ms",
        file=sys.stderr,
    )
    return {
        "op_p50_s": (statistics.median(times), "s"),
        "sim_events_per_s": (events / op_time, "1/s"),
        "candidates_per_s": (simulations / op_time, "1/s"),
    }


def measure_traced(workload, workdir, seconds, recorder, tally, trace_path):
    """Each input runs untraced and traced, in alternating order.

    The Chrome trace's metadata carries the recorder's raw per-layer self
    times and call counts over the kept ops, the same aggregates the
    per-layer metrics come from, so that a reader can check them against
    the kept span records.
    """
    normaliser = host.Normaliser()
    plain, traced = [], []
    self_s = [0.0] * len(LAYERS)
    kept_self_s = [0.0] * len(LAYERS)
    kept_calls = [0] * len(LAYERS)
    deadline = perf_counter() + seconds
    index = 1
    while perf_counter() < deadline:
        for tracing in (False, True) if index % 2 else (True, False):
            if tracing:
                recorder.keep = len(traced) < KEEP_OPS
                before = list(recorder.self_s)
                calls_before = list(recorder.calls)
                wall, result, error = _traced_op(workload, index, workdir, recorder)
            else:
                wall, result, error = _run_op(workload, index, workdir)
            factor = normaliser.factor()
            ok = tally.record(index, _check(workload, index, result, error))
            if tracing:
                for layer, (now, then) in enumerate(zip(recorder.self_s, before)):
                    self_s[layer] += (now - then) * factor
                    if recorder.keep:
                        kept_self_s[layer] += now - then
                        kept_calls[layer] += recorder.calls[layer] - calls_before[layer]
            if ok:
                (traced if tracing else plain).append(wall * factor)
        index += 1
    recorder.keep = False
    if not plain or not traced:
        raise RuntimeError("no op succeeded")
    ops = recorder.calls[0]
    metrics = {}
    for layer, name in enumerate(LAYERS):
        if name != "op":
            metrics[f"{name}.calls"] = (recorder.calls[layer] / ops, "count/op")
        metrics[f"{name}.self_s"] = (self_s[layer] / ops, "s/op")
    for name in COUNTERS:
        metrics[name] = (recorder.counts[name] / ops, "count/op")
    metrics["host.ref_loop_s"] = (normaliser.median_s(), "s")
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0,
        "ratio",
    )
    simulated = sum(recorder.sim_self_s)
    split = {
        name: round(recorder.sim_self_s[layer] / simulated, 4)
        for layer, name in enumerate(LAYERS)
        if recorder.sim_self_s[layer]
    }
    print("simulate-split " + json.dumps(split, sort_keys=True))
    spans.write_chrome_trace(
        recorder.spans,
        trace_path,
        {
            "workload": workload.name,
            "ref_nominal_s": host.REF_NOMINAL_S,
            "kept_self_s": dict(zip(LAYERS, kept_self_s)),
            "kept_calls": dict(zip(LAYERS, kept_calls)),
        },
    )
    print("trace " + os.path.relpath(trace_path, ROOT))
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    import repro  # noqa: F401 - fails fast outside a full checkout

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workload_cls(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    metrics = {}
    if not args.trace:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--setup-only",
        ]
        metrics["setup_s"] = (host.cold_start_s(command, SETUP_STARTS), "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    counter = workloads.SimCounter()
    recorder = spans.SpanRecorder()
    tally = Tally()
    counter.install()
    try:
        fingerprint = warm_up(workload, workdir, recorder, counter, tally)
        print(f"fingerprint {args.workload} " + json.dumps(fingerprint, sort_keys=True))
        if args.trace:
            trace_path = os.path.join(
                OUT_DIR, "traces", f"{args.workload}-seed{args.seed}.json"
            )
            metrics.update(
                measure_traced(workload, workdir, args.seconds, recorder, tally, trace_path)
            )
        else:
            metrics.update(measure(workload, workdir, args.seconds, counter, tally))
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    finally:
        counter.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
