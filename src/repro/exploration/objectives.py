"""Evaluation objectives for architecture exploration.

The paper's profiling report "is used for improving the application.  The
process groups and mapping are modified to improve performance including
amount of communication and the division of workload between application
processes" (Section 4.4).  This module turns one simulation run into the
numbers those decisions need.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional

from repro.application.model import ApplicationModel
from repro.faults.plan import FaultPlan
from repro.mapping.model import MappingModel
from repro.observability.metrics import LatencyHistogram, summarize_result
from repro.platform.model import PlatformModel
from repro.profiling.analysis import analyze
from repro.profiling.groupinfo import group_info_from_model
from repro.simulation.executor import MachineTable
from repro.simulation.logfile import TRANSPORT_BUS
from repro.simulation.system import SimulationResult, SystemSimulation
from repro.uml.statemachine import StateMachine


def encoding_hash(encoding: Dict[str, object]) -> str:
    """:meth:`EvaluationResult.stable_hash` of a ``to_dict()`` encoding."""
    canonical = json.dumps(encoding, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class EvaluationResult:
    """Metrics of one simulated (application, platform, mapping) point."""

    bus_signals: int          # signals that crossed the bus
    bus_bytes: int            # bytes that crossed the bus
    bus_busy_ps: int          # total segment occupancy
    max_pe_utilization: float
    mean_latency_ps: float    # mean delivery latency of bus signals
    delivered_msdus: int      # end-to-end throughput proxy (if 'user' exists)
    dropped_signals: int
    group_cycles: Dict[str, int]
    # fault-campaign ledger (zero when the point ran fault-free)
    fault_injected: int = 0
    fault_detected: int = 0
    fault_recovered: int = 0
    # per-PE/bus observability summary (repro.observability.summarize_result)
    observability: Dict[str, object] = field(default_factory=dict)

    @property
    def fault_residual(self) -> int:
        return self.fault_detected - self.fault_recovered

    def to_dict(self) -> Dict[str, object]:
        """A plain-JSON encoding (the cache's on-disk form)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EvaluationResult":
        names = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in names}
        kwargs["group_cycles"] = dict(kwargs.get("group_cycles") or {})
        kwargs["observability"] = dict(kwargs.get("observability") or {})
        return cls(**kwargs)

    def stable_hash(self) -> str:
        """SHA-256 of the canonical JSON encoding.

        Identical metric values — including float bit patterns, which the
        deterministic simulator guarantees for a fixed seed — yield the
        identical hash in every process, interpreter and worker count.
        """
        return encoding_hash(self.to_dict())

    def cost(self) -> float:
        """Scalar cost: bus traffic dominates, utilisation imbalance tie-breaks.

        Lower is better.  The weights only order candidate designs — they
        are not calibrated to anything physical.
        """
        return (
            self.bus_bytes
            + 1000.0 * self.max_pe_utilization
            + 1_000_000.0 * self.dropped_signals
        )


def evaluate(
    application: ApplicationModel,
    platform: PlatformModel,
    mapping: MappingModel,
    duration_us: int = 50_000,
    faults: Optional[FaultPlan] = None,
    checkpointer: Optional[object] = None,
    machine_tables: Optional[Dict[StateMachine, MachineTable]] = None,
) -> EvaluationResult:
    """Simulate one design point and compute its metrics.

    ``faults`` is an optional fault plan; when it injects anything, the
    result carries the run's injection/recovery ledger.

    ``checkpointer`` is an optional
    :class:`repro.checkpoint.Checkpointer`; when its store already holds
    a snapshot for its tag the run *resumes* from the latest one instead
    of starting over, and the continued run's metrics are byte-identical
    to an uninterrupted evaluation (the simulator's resume guarantee).

    ``machine_tables`` holds the machine tables earlier runs of the same
    application already built (see :class:`repro.exploration.spec
    .DesignView`); without it each executor builds its own, for this run
    only.
    """
    simulation = SystemSimulation(
        application,
        platform,
        mapping,
        faults=faults,
        machine_tables=machine_tables,
    )
    if checkpointer is None:
        result = simulation.run(duration_us)
    else:
        result = checkpointer.run(simulation, duration_us)
    metrics = summarize(result, application)
    delivered = 0
    if "user" in simulation.executors:
        delivered = simulation.executors["user"].variables.get("delivered", 0)
    metrics.delivered_msdus = delivered
    stats = result.fault_stats
    if stats is not None:
        metrics.fault_injected = stats.injected
        metrics.fault_detected = stats.detected
        metrics.fault_recovered = stats.recovered
    return metrics


def summarize(result: SimulationResult, application: ApplicationModel) -> EvaluationResult:
    """Metrics from an existing simulation result."""
    account = result.account
    data = analyze(result.log, group_info_from_model(application.model))
    bus = data.transport_latency.get(TRANSPORT_BUS, LatencyHistogram())
    utilization = account.pe_utilization()
    return EvaluationResult(
        bus_signals=bus.count,
        bus_bytes=sum(
            n for flow, n in account.flow_bytes.items() if flow[3] == TRANSPORT_BUS
        ),
        bus_busy_ps=sum(s.busy_ps for s in result.bus_stats.values()),
        max_pe_utilization=max(utilization.values()) if utilization else 0.0,
        mean_latency_ps=bus.mean_ps,
        delivered_msdus=0,
        dropped_signals=account.dropped,
        group_cycles=dict(data.group_cycles),
        observability=summarize_result(result),
    )
