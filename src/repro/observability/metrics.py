"""Metrics of one run: its run account plus what only the trace holds.

Where :mod:`repro.profiling` answers the paper's Table 4 questions (group
execution shares, signal-count matrix), this module answers the
*designer's why*: why is a mapping slow?  Which PE idles, which stalls,
which bus segment saturates, where do signals queue?  Every metric is a
pure function of the run's log and trace, so the numbers are as
deterministic as the simulation itself; ``docs/observability.md``
defines each one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Optional

from repro.observability.tracer import (
    CounterEvent,
    GROUP_BUS,
    GROUP_PE,
    InstantEvent,
    KERNEL_TRACK,
    SpanEvent,
    Tracer,
)

if TYPE_CHECKING:  # the log module imports this one
    from repro.simulation.logfile import RunAccount


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

    def merge(self, other: "LatencyHistogram") -> None:
        """Add every sample of ``other``."""
        self.count += other.count
        self.total_ps += other.total_ps
        if other.max_ps > self.max_ps:
            self.max_ps = other.max_ps
        for bucket, n in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n

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
    transitions: int = 0  # the log's EXEC records: the steps that completed
    faults_by_kind: Dict[str, int] = field(default_factory=dict)

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
        }


def collect_metrics(
    tracer: Tracer,
    account: "RunAccount",
    group_of: Optional[Dict[str, str]] = None,
) -> MetricsReport:
    """One run's :class:`MetricsReport`.

    What a log record holds comes from ``account``, the run's
    :class:`~repro.simulation.logfile.RunAccount`, and each PE it lists
    gets a row; the trace adds the rest (bus spans, queue peaks,
    ``pe-stall`` extra time, dispatches).  With ``group_of``
    (process -> group; unknown processes keep their own name) latency is
    keyed ``sender_group->receiver_group``, without it by transport.
    """
    if group_of is None:
        key = itemgetter(3)  # a flow's transport
    else:

        def key(flow):
            """A flow's ``sender_group->receiver_group``."""
            return "->".join(group_of.get(name, name) for name in flow[:2])

    report = MetricsReport(
        end_time_ps=account.end_time_ps,
        pes={
            pe: PEMetrics(busy_ps=busy, steps=account.pe_steps[pe])
            for pe, busy in account.pe_busy_ps.items()
        },
        latency=account.latency_by(key),
        delivered_signals=sum(h.count for h in account.flow_latency.values()),
        dropped_signals=account.dropped,
        transitions=sum(account.process_steps.values()),
        faults_by_kind=dict(account.faults_by_kind),
    )
    for event in tracer.events:
        if isinstance(event, SpanEvent):
            if event.track[0] == GROUP_BUS:
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
            if event.category == "dispatch":
                report.dispatched_signals += 1
            elif (
                event.category == "fault"
                and event.name == "pe-stall"
                and event.track[0] == GROUP_PE
            ):
                pe = report.pes.setdefault(event.track[1], PEMetrics())
                pe.stall_ps += int(event.args.get("extra_ps", 0))
        elif isinstance(event, CounterEvent):
            depth = int(event.values.get("depth", 0))
            # by track, not counter name: older traces name it "events"
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

    Computed from the run account and bus statistics alone — no tracer
    required — so the exploration engine can attach it to every
    :class:`~repro.exploration.objectives.EvaluationResult` at no extra
    simulation cost and rankings can be explained per candidate.
    """
    account = result.account
    return {
        "end_time_ps": result.end_time_ps,
        "pe_utilization": dict(sorted(account.pe_utilization().items())),
        "pe_busy_ps": dict(sorted(account.pe_busy_ps.items())),
        "bus": {
            name: {
                "busy_ps": stats.busy_ps,
                "wait_ps": stats.wait_ps,
                "transfers": stats.transfers,
                "words": stats.words,
            }
            for name, stats in sorted(result.bus_stats.items())
        },
        "dropped_signals": account.dropped,
    }
