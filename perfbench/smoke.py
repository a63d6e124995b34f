"""Smoke test of the benchmark itself, from the repo root:

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` briefly, untraced and traced,
and checks the output contract: the result line's keys, zero failed ops,
every metric ``BENCHMARK.json`` names printed with its unit, and a
well-formed span tree (children inside their parents, self times >= 0).
The recorder's per-layer self times and call counts, which the per-layer
metrics come from, must equal the same figures re-derived from the kept
span records, and those self times must sum to the ops' time.  It also
checks the measured split the benchmark was built to show: the
action-language interpreter has the largest self-time share of the
simulation on ``tutwlan-flow`` and a minority share on
``genmodel-corpus``, and ``exploration.*`` spans appear on
``tutmac-sweep`` only.  Finally it checks that a directory holding only
the benchmark fails without a result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
#: Measured seconds per run.
SECONDS = 2.0
#: Float slack when re-deriving span times (microseconds).
SLACK_US = 0.05


def _fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def _run(cwd, workload, seconds, trace):
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, lines, completed.stderr


def check_result(workload, trace, lines, expected):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        _fail(f"{workload} trace={trace}: {result['failed']} of "
              f"{result['attempted']} ops failed")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        _fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            _fail(f"{workload}: {name} unit {metrics[name]['unit']!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            _fail(f"{workload}: {name} = {value!r}")
    return metrics


def _close(derived_us, recorded_s):
    recorded_us = recorded_s * 1e6
    return abs(derived_us - recorded_us) <= SLACK_US + 1e-9 * abs(recorded_us)


def check_span_tree(workload, path):
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    events = trace["traceEvents"]
    spans = {event["args"]["id"]: event for event in events}
    children = defaultdict(list)
    for event in events:
        parent = event["args"]["parent"]
        if parent:
            if parent not in spans:
                _fail(f"{workload}: span {event['name']} has no parent span")
            children[parent].append(event)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    op_time = 0.0
    for span_id, event in spans.items():
        start, end = event["ts"], event["ts"] + event["dur"]
        inner = 0.0
        for child in children[span_id]:
            if (child["ts"] < start - SLACK_US
                    or child["ts"] + child["dur"] > end + SLACK_US
                    or child["args"]["op"] != event["args"]["op"]):
                _fail(f"{workload}: {child['name']} lies outside {event['name']}")
            inner += child["dur"]
        own = event["dur"] - inner
        if own < -SLACK_US:
            _fail(f"{workload}: {event['name']} self time {own} us < 0")
        layer_self[event["cat"]] += own
        layer_calls[event["cat"]] += 1
        if event["args"]["parent"] == 0:
            if event["name"] != "op":
                _fail(f"{workload}: top-level span {event['name']} is no op")
            op_time += event["dur"]
    if not op_time:
        _fail(f"{workload}: trace holds no op span")
    # the per-layer metrics come from the recorder's running totals, not
    # from these records: both must agree on the kept ops
    recorded_self = trace["metadata"]["kept_self_s"]
    recorded_calls = trace["metadata"]["kept_calls"]
    for layer, seconds in recorded_self.items():
        if recorded_calls[layer] != layer_calls[layer]:
            _fail(f"{workload}: {layer} recorded {recorded_calls[layer]} calls, "
                  f"trace holds {layer_calls[layer]}")
        if not _close(layer_self[layer], seconds):
            _fail(f"{workload}: {layer} recorded self time {seconds * 1e6} us, "
                  f"spans give {layer_self[layer]} us")
    if not _close(op_time, sum(recorded_self.values())):
        _fail(f"{workload}: recorded self times sum to "
              f"{sum(recorded_self.values()) * 1e6} us, ops took {op_time} us")
    return {event["name"] for event in events}


def check_split(workload, lines, names):
    split = json.loads(
        next(line for line in lines if line.startswith("simulate-split "))
        .split(" ", 1)[1]
    )
    actions = split.get("uml.actions", 0.0)
    if workload == "tutwlan-flow" and actions < max(split.values()):
        _fail(f"{workload}: interpreter is not the largest simulate share {split}")
    if workload == "genmodel-corpus" and actions >= 0.5:
        _fail(f"{workload}: interpreter holds a majority of simulate {split}")
    explored = any(name.startswith("exploration.") for name in names)
    if explored != (workload == "tutmac-sweep"):
        _fail(f"{workload}: exploration spans present = {explored}")
    print(f"  simulate split {split}")


def check_bare_directory():
    """Outside a checkout (no src/repro) the benchmark fails, no result."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code, lines, _ = _run(bare, "tutwlan-flow", 1, 0)
    finally:
        shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        _fail(f"bare directory: exit {code}, output {lines[-1:]}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, lines, stderr = _run(ROOT, workload, SECONDS, trace)
            if code != 0 or not lines:
                _fail(f"{workload} trace={trace}: exit {code}\n{stderr}")
            check_result(workload, trace, lines, expected)
            if trace:
                path = next(line for line in lines if line.startswith("trace "))
                names = check_span_tree(workload, os.path.join(ROOT, path[6:]))
                check_split(workload, lines, names)
            print(f"ok {workload} trace={trace}")
    check_bare_directory()
    print("ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
