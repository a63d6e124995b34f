"""Metrics aggregation over the trace stream.

Where :mod:`repro.profiling` answers the paper's Table 4 questions (group
execution shares, signal-count matrix), this module answers the
*designer's why*: why is a mapping slow?  Which PE idles, which stalls,
which bus segment saturates, where do signals queue?

Every metric is a pure function of the trace event stream plus the run's
end time, so the numbers are as deterministic as the simulation itself.
Definitions (``T`` = simulated end time in ps):

* **PE utilisation** — ``busy / T`` where ``busy`` is the sum of the PE's
  EXEC span durations.  ``idle = T - busy``.
* **PE stall time** — the extra picoseconds injected ``pe-stall`` windows
  added to steps on that PE (the ``extra_ps`` argument of ``pe-stall``
  instants); part of ``busy``, broken out separately.
* **Bus segment occupancy** — ``busy / T`` over the segment's grant
  spans; **contention wait** is the sum of each transfer's
  enqueue→grant delay (the span's ``wait_ps`` argument).
* **Queue high-water marks** — the maximum sampled depth of each PE
  ready queue, each segment request queue (the wrapper FIFO), and the
  kernel scheduler queue.  Kernel samples are matched by track, not by
  counter name, so older traces (counter ``events``) aggregate
  identically to current ones (``queue_depth``).
* **Signal latency histograms** — send→delivery latency, bucketed by
  powers of two (bucket key ``2**k`` holds latencies in
  ``(2**(k-1), 2**k]`` ps), keyed by sender→receiver process group when
  group information is available, by transport otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.observability.tracer import (
    CounterEvent,
    GROUP_BUS,
    GROUP_PE,
    InstantEvent,
    KERNEL_TRACK,
    SpanEvent,
    Tracer,
)


@dataclass
class LatencyHistogram:
    """Power-of-two latency histogram of one signal population."""

    count: int = 0
    total_ps: int = 0
    max_ps: int = 0
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, latency_ps: int) -> None:
        """Add one latency sample."""
        self.count += 1
        self.total_ps += latency_ps
        if latency_ps > self.max_ps:
            self.max_ps = latency_ps
        bucket = 0 if latency_ps <= 0 else 1 << (latency_ps - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean_ps(self) -> float:
        """Arithmetic mean latency (0.0 on an empty population)."""
        return self.total_ps / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A plain-JSON encoding with string bucket keys."""
        return {
            "count": self.count,
            "mean_ps": self.mean_ps,
            "max_ps": self.max_ps,
            "buckets": {str(bound): n for bound, n in sorted(self.buckets.items())},
        }


@dataclass
class PEMetrics:
    """One processing element's execution breakdown."""

    busy_ps: int = 0
    stall_ps: int = 0
    steps: int = 0
    ready_queue_peak: int = 0

    def utilization(self, end_time_ps: int) -> float:
        """Busy fraction of the simulated interval (0.0 for an empty run)."""
        if end_time_ps <= 0:
            return 0.0
        return min(1.0, self.busy_ps / end_time_ps)

    def idle_ps(self, end_time_ps: int) -> int:
        """Picoseconds the PE spent with no step in flight."""
        return max(0, end_time_ps - self.busy_ps)


@dataclass
class SegmentMetrics:
    """One HIBI segment's occupancy and contention breakdown."""

    busy_ps: int = 0
    wait_ps: int = 0
    transfers: int = 0
    bytes: int = 0
    queue_peak: int = 0
    faulted_transfers: int = 0

    def occupancy(self, end_time_ps: int) -> float:
        """Granted fraction of the simulated interval."""
        if end_time_ps <= 0:
            return 0.0
        return min(1.0, self.busy_ps / end_time_ps)


@dataclass
class MetricsReport:
    """Everything the aggregator computed from one trace."""

    end_time_ps: int = 0
    pes: Dict[str, PEMetrics] = field(default_factory=dict)
    segments: Dict[str, SegmentMetrics] = field(default_factory=dict)
    latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    kernel_queue_peak: int = 0
    dispatched_signals: int = 0
    delivered_signals: int = 0
    dropped_signals: int = 0
    transitions: int = 0
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    # exploration-campaign fault-tolerance counters (timeouts, crashes,
    # errors, retries, quarantined) — empty unless a supervised campaign
    # attached its ledger totals, see ExplorationRun.supervisor_counters()
    campaign: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The metrics JSON body (wrapped in the shared envelope by callers)."""
        return {
            "end_time_ps": self.end_time_ps,
            "pes": {
                name: {
                    "busy_ps": pe.busy_ps,
                    "idle_ps": pe.idle_ps(self.end_time_ps),
                    "stall_ps": pe.stall_ps,
                    "steps": pe.steps,
                    "utilization": pe.utilization(self.end_time_ps),
                    "ready_queue_peak": pe.ready_queue_peak,
                }
                for name, pe in sorted(self.pes.items())
            },
            "segments": {
                name: {
                    "busy_ps": seg.busy_ps,
                    "wait_ps": seg.wait_ps,
                    "transfers": seg.transfers,
                    "bytes": seg.bytes,
                    "occupancy": seg.occupancy(self.end_time_ps),
                    "queue_peak": seg.queue_peak,
                    "faulted_transfers": seg.faulted_transfers,
                }
                for name, seg in sorted(self.segments.items())
            },
            "latency": {
                key: histogram.to_dict()
                for key, histogram in sorted(self.latency.items())
            },
            "kernel_queue_peak": self.kernel_queue_peak,
            "dispatched_signals": self.dispatched_signals,
            "delivered_signals": self.delivered_signals,
            "dropped_signals": self.dropped_signals,
            "transitions": self.transitions,
            "faults_by_kind": dict(sorted(self.faults_by_kind.items())),
            "campaign": dict(sorted(self.campaign.items())),
        }


def collect_metrics(
    tracer: Tracer,
    end_time_ps: int,
    group_of: Optional[Dict[str, str]] = None,
) -> MetricsReport:
    """Aggregate one run's trace into a :class:`MetricsReport`.

    ``group_of`` maps process names to process-group names; with it,
    latency histograms are keyed ``sender_group->receiver_group``, without
    it by transport.  Unknown processes fall back to their own name.
    """
    report = MetricsReport(end_time_ps=end_time_ps)
    for event in tracer.events:
        if isinstance(event, SpanEvent):
            if event.track[0] == GROUP_PE:
                pe = report.pes.setdefault(event.track[1], PEMetrics())
                pe.busy_ps += event.duration_ps
                pe.steps += 1
            elif event.track[0] == GROUP_BUS:
                segment = report.segments.setdefault(
                    event.track[1], SegmentMetrics()
                )
                segment.busy_ps += event.duration_ps
                segment.transfers += 1
                segment.wait_ps += int(event.args.get("wait_ps", 0))
                segment.bytes += int(event.args.get("bytes", 0))
                if event.args.get("fault"):
                    segment.faulted_transfers += 1
        elif isinstance(event, InstantEvent):
            if event.category == "signal":
                report.delivered_signals += 1
                if group_of is not None:
                    sender = str(event.args.get("sender", "-"))
                    receiver = str(event.args.get("receiver", "-"))
                    key = (
                        f"{group_of.get(sender, sender)}->"
                        f"{group_of.get(receiver, receiver)}"
                    )
                else:
                    key = str(event.args.get("transport", "-"))
                report.latency.setdefault(key, LatencyHistogram()).observe(
                    int(event.args.get("latency_ps", 0))
                )
            elif event.category == "dispatch":
                report.dispatched_signals += 1
            elif event.category == "drop":
                report.dropped_signals += 1
            elif event.category == "fault":
                report.faults_by_kind[event.name] = (
                    report.faults_by_kind.get(event.name, 0) + 1
                )
                if event.name == "pe-stall" and event.track[0] == GROUP_PE:
                    pe = report.pes.setdefault(event.track[1], PEMetrics())
                    pe.stall_ps += int(event.args.get("extra_ps", 0))
            elif event.category == "efsm":
                report.transitions += 1
        elif isinstance(event, CounterEvent):
            depth = int(event.values.get("depth", 0))
            if event.track == KERNEL_TRACK:
                if depth > report.kernel_queue_peak:
                    report.kernel_queue_peak = depth
            elif event.track[0] == GROUP_PE:
                pe = report.pes.setdefault(event.track[1], PEMetrics())
                if depth > pe.ready_queue_peak:
                    pe.ready_queue_peak = depth
            elif event.track[0] == GROUP_BUS:
                segment = report.segments.setdefault(
                    event.track[1], SegmentMetrics()
                )
                if depth > segment.queue_peak:
                    segment.queue_peak = depth
    return report


def summarize_result(result) -> Dict[str, object]:
    """A compact, JSON-able observability summary of a simulation result.

    Computed from :class:`~repro.simulation.system.SimulationResult`
    aggregates alone — no tracer required — so the exploration engine can
    attach it to every :class:`~repro.exploration.objectives
    .EvaluationResult` at zero additional simulation cost and rankings can
    be explained per candidate.
    """
    return {
        "end_time_ps": result.end_time_ps,
        "pe_utilization": {
            name: utilization
            for name, utilization in sorted(result.pe_utilization().items())
        },
        "pe_busy_ps": dict(sorted(result.pe_busy_ps.items())),
        "bus": {
            name: {
                "busy_ps": stats.busy_ps,
                "wait_ps": stats.wait_ps,
                "transfers": stats.transfers,
                "words": stats.words,
            }
            for name, stats in sorted(result.bus_stats.items())
        },
        "dropped_signals": result.dropped_signals,
    }
