"""Simulation observability: structured tracing, metrics, Perfetto export.

The subsystem the paper defers to its tool flow — "execution monitoring
of the physical implementation" — reproduced for the simulated platform:
a :class:`Tracer` threaded through the kernel, the HIBI bus and the
system simulator collects spans, instants and counters, and takes the
exec, signal, drop and fault events from the simulation log's records;
:func:`collect_metrics` joins the stream with the run's log account
into per-PE/bus metrics; the export helpers write Chrome-trace JSON that
loads in ``ui.perfetto.dev``.

See ``docs/observability.md`` for the metric definitions and a Perfetto
walkthrough.
"""

from repro.observability.tracer import (
    CounterEvent,
    GROUP_BUS,
    GROUP_EFSM,
    GROUP_KERNEL,
    GROUP_PE,
    GROUP_SYSTEM,
    InstantEvent,
    KERNEL_TRACK,
    SYSTEM_TRACK,
    SpanEvent,
    TraceEvent,
    Tracer,
    bus_track,
    efsm_track,
    pe_track,
)
from repro.observability.metrics import (
    LatencyHistogram,
    MetricsReport,
    PEMetrics,
    SegmentMetrics,
    collect_metrics,
    summarize_result,
)
from repro.observability.export import (
    render_chrome_trace,
    render_metrics_text,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "CounterEvent",
    "GROUP_BUS",
    "GROUP_EFSM",
    "GROUP_KERNEL",
    "GROUP_PE",
    "GROUP_SYSTEM",
    "InstantEvent",
    "KERNEL_TRACK",
    "LatencyHistogram",
    "MetricsReport",
    "PEMetrics",
    "SYSTEM_TRACK",
    "SegmentMetrics",
    "SpanEvent",
    "TraceEvent",
    "Tracer",
    "bus_track",
    "collect_metrics",
    "efsm_track",
    "pe_track",
    "render_chrome_trace",
    "render_metrics_text",
    "summarize_result",
    "to_chrome_trace",
    "write_chrome_trace",
]
