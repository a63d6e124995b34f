"""Chrome-trace (Perfetto-loadable) export of a trace stream.

The exporter emits the JSON *Trace Event Format* understood by
``ui.perfetto.dev`` and ``chrome://tracing``:

* spans become complete events (``ph="X"``) with microsecond ``ts`` and
  ``dur``;
* instants become thread-scoped instant events (``ph="i"``, ``s="t"``);
* counter samples become counter events (``ph="C"``);
* every track group/lane is announced with ``process_name`` /
  ``thread_name`` metadata events (``ph="M"``) so Perfetto labels rows.

``pid``/``tid`` numbers are assigned deterministically (sorted track
names, starting at 1) and the payload is serialised with sorted keys and
no whitespace, so **the same trace always renders to byte-identical
JSON** — the property the determinism regression tests pin down.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.observability.tracer import (
    CounterEvent,
    InstantEvent,
    SpanEvent,
    Tracer,
    Track,
)

#: Chrome-trace timestamps are microseconds; the kernel clock is integer
#: picoseconds, so one trace-µs tick is 1e6 kernel ticks.
_PS_PER_TRACE_US = 1_000_000


def _ts(time_ps: int) -> float:
    """A picosecond instant as a (fractional) trace-event microsecond."""
    return time_ps / _PS_PER_TRACE_US


def _assign_ids(tracer: Tracer) -> Dict[Track, Tuple[int, int]]:
    """Deterministic (pid, tid) per track: sorted groups, sorted lanes."""
    lanes: Dict[str, set] = {}
    for event in tracer.events:
        group, lane = event.track
        lanes.setdefault(group, set()).add(lane)
    ids: Dict[Track, Tuple[int, int]] = {}
    for pid, group in enumerate(sorted(lanes), start=1):
        for tid, lane in enumerate(sorted(lanes[group]), start=1):
            ids[(group, lane)] = (pid, tid)
    return ids


def to_chrome_trace(
    tracer: Tracer, metadata: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """The trace as a Chrome-trace JSON object (``traceEvents`` container).

    ``metadata`` lands in the container's ``metadata`` field (Perfetto
    shows it in the trace-info dialog).  Events keep the tracer's order:
    for a simulation, the live events in emission order, then the exec,
    signal, drop and fault events derived from the log's records, in log
    order; the deterministic kernel makes both reproducible.
    """
    ids = _assign_ids(tracer)
    events: List[Dict[str, object]] = []
    for (group, lane), (pid, tid) in sorted(ids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "name": "process_name",
                "args": {"name": group},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "name": "thread_name",
                "args": {"name": lane},
            }
        )
    for event in tracer.events:
        pid, tid = ids[event.track]
        if isinstance(event, SpanEvent):
            record: Dict[str, object] = {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": _ts(event.start_ps),
                "dur": _ts(event.duration_ps),
                "name": event.name,
            }
            if event.category:
                record["cat"] = event.category
            if event.args:
                record["args"] = event.args
        elif isinstance(event, InstantEvent):
            record = {
                "ph": "i",
                "pid": pid,
                "tid": tid,
                "ts": _ts(event.time_ps),
                "s": "t",
                "name": event.name,
            }
            if event.category:
                record["cat"] = event.category
            if event.args:
                record["args"] = event.args
        else:
            assert isinstance(event, CounterEvent)
            record = {
                "ph": "C",
                "pid": pid,
                "tid": tid,
                "ts": _ts(event.time_ps),
                "name": event.name,
                "args": dict(event.values),
            }
        events.append(record)
    payload: Dict[str, object] = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
    }
    if metadata:
        payload["metadata"] = dict(metadata)
    return payload


def render_chrome_trace(
    tracer: Tracer, metadata: Optional[Dict[str, object]] = None
) -> str:
    """The Chrome-trace JSON as a canonical (byte-reproducible) string."""
    return json.dumps(
        to_chrome_trace(tracer, metadata), sort_keys=True, separators=(",", ":")
    )


def write_chrome_trace(
    tracer: Tracer, path: str, metadata: Optional[Dict[str, object]] = None
) -> None:
    """Write the Chrome-trace JSON to ``path`` (open it in ui.perfetto.dev)."""
    from repro.util.fsio import ensure_parent

    with open(ensure_parent(path), "w", encoding="utf-8") as handle:
        handle.write(render_chrome_trace(tracer, metadata))
        handle.write("\n")


def render_metrics_text(report) -> str:
    """A terminal-friendly rendering of a :class:`MetricsReport`."""
    from repro.util.tables import render_table

    lines: List[str] = []
    data = report.to_dict()
    pe_rows = [
        [
            name,
            f"{pe['utilization']:.1%}",
            pe["busy_ps"],
            pe["idle_ps"],
            pe["stall_ps"],
            pe["steps"],
            pe["ready_queue_peak"],
        ]
        for name, pe in data["pes"].items()
    ]
    lines.append(
        render_table(
            ["PE", "Util", "Busy ps", "Idle ps", "Stall ps", "Steps", "Queue peak"],
            pe_rows,
            title=f"Per-PE execution ({data['end_time_ps']} ps simulated)",
        )
    )
    if data["segments"]:
        segment_rows = [
            [
                name,
                f"{seg['occupancy']:.1%}",
                seg["busy_ps"],
                seg["wait_ps"],
                seg["transfers"],
                seg["queue_peak"],
            ]
            for name, seg in data["segments"].items()
        ]
        lines.append("")
        lines.append(
            render_table(
                ["Segment", "Occupancy", "Busy ps", "Wait ps", "Transfers", "Queue peak"],
                segment_rows,
                title="HIBI segment occupancy and contention",
            )
        )
    if data["latency"]:
        latency_rows = [
            [key, h["count"], f"{h['mean_ps']:.0f}", h["max_ps"]]
            for key, h in data["latency"].items()
        ]
        lines.append("")
        lines.append(
            render_table(
                ["Flow", "Signals", "Mean ps", "Max ps"],
                latency_rows,
                title="Signal delivery latency",
            )
        )
    lines.append("")
    lines.append(
        f"signals: {data['dispatched_signals']} dispatched, "
        f"{data['delivered_signals']} delivered, "
        f"{data['dropped_signals']} dropped; "
        f"transitions: {data['transitions']}; "
        f"kernel queue peak: {data['kernel_queue_peak']}"
    )
    if data["faults_by_kind"]:
        kinds = ", ".join(
            f"{kind}:{count}" for kind, count in data["faults_by_kind"].items()
        )
        lines.append(f"faults injected: {kinds}")
    return "\n".join(lines)
