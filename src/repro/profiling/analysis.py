"""Profiling stage 3: combine the simulation log with group information.

Paper Section 4.4: "after simulation, the profiling data in the simulation
log-file and the process group information are combined and analyzed.  The
results are gathered to a profiling report."

:class:`ProfilingData` is the analysed result: execution time per process
group (Table 4a), the number of signals between groups (Table 4b), and the
finer-grained metrics the paper mentions ("other metrics, such as
transfers between individual application processes, are also available").
Every figure is a view of the log's
:class:`~repro.simulation.logfile.RunAccount` through the group info.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultStats
from repro.observability.metrics import LatencyHistogram
from repro.simulation.logfile import LogFile
from repro.profiling.groupinfo import ENVIRONMENT_GROUP, ProcessGroupInfo


@dataclass
class ProfilingData:
    """Joined and aggregated profiling metrics."""

    group_info: ProcessGroupInfo
    group_cycles: Dict[str, int] = field(default_factory=dict)
    process_cycles: Dict[str, int] = field(default_factory=dict)
    group_signals: Dict[Tuple[str, str], int] = field(default_factory=dict)
    process_signals: Dict[Tuple[str, str], int] = field(default_factory=dict)
    group_bytes: Dict[Tuple[str, str], int] = field(default_factory=dict)
    group_steps: Dict[str, int] = field(default_factory=dict)
    signal_latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    transport_latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    dropped_signals: int = 0
    end_time_ps: int = 0
    # the run's fault ledger, read back from the log's META entries
    fault_stats: Optional[FaultStats] = None

    # -- Table 4(a) ----------------------------------------------------------

    def total_cycles(self) -> int:
        """Total charged cycles across all groups."""
        return sum(self.group_cycles.values())

    def group_share(self, group_name: str) -> float:
        """Execution-time proportion of one group (0..1)."""
        total = self.total_cycles()
        if total == 0:
            return 0.0
        return self.group_cycles.get(group_name, 0) / total

    def shares(self) -> Dict[str, float]:
        """Execution-time proportion per group, Table 4(a)'s column."""
        return {
            group: self.group_share(group)
            for group in self.group_info.all_groups()
        }

    # -- Table 4(b) ----------------------------------------------------------

    def signal_matrix(self) -> List[List[int]]:
        """Square matrix of signal counts, rows=senders, cols=receivers,
        over ``group_info.all_groups()`` order."""
        groups = self.group_info.all_groups()
        return [
            [self.group_signals.get((sender, receiver), 0) for receiver in groups]
            for sender in groups
        ]

    def signals_between(self, sender_group: str, receiver_group: str) -> int:
        """Delivered signal count of one sender->receiver group pair."""
        return self.group_signals.get((sender_group, receiver_group), 0)

    # -- optimisation objectives ------------------------------------------------

    def external_signals(self) -> int:
        """Signals crossing group boundaries (the quantity the paper's
        grouping objective minimises)."""
        return _crossing(self.group_signals, True)

    def internal_signals(self) -> int:
        """Signals delivered within a single group."""
        return _crossing(self.group_signals, False)

    def external_bytes(self) -> int:
        """Bytes carried by group-crossing signals."""
        return _crossing(self.group_bytes, True)

    def busiest_group(self) -> str:
        """The group with the most charged cycles (name breaks ties)."""
        if not self.group_cycles:
            return ENVIRONMENT_GROUP
        return max(self.group_cycles, key=lambda g: (self.group_cycles[g], g))


def _crossing(by_pair: Dict[Tuple[str, str], int], crossing: bool) -> int:
    """Sum of the pairs whose sender and receiver groups differ (or not)."""
    return sum(n for (a, b), n in by_pair.items() if (a != b) == crossing)


def _add(counts: dict, key, amount: int) -> None:
    counts[key] = counts.get(key, 0) + amount


def analyze(log: LogFile, group_info: ProcessGroupInfo) -> ProfilingData:
    """Join a parsed log-file with group info (profiling stage 3): the
    log's run account, viewed per process group."""
    account = log.account
    group_of = group_info.group_of
    groups = group_info.all_groups()
    data = ProfilingData(
        group_info=group_info,
        group_cycles=dict.fromkeys(groups, 0),
        process_cycles=dict(account.process_cycles),
        group_steps=dict.fromkeys(groups, 0),
        signal_latency=account.latency_by(itemgetter(2)),
        transport_latency=account.latency_by(itemgetter(3)),
        dropped_signals=account.dropped,
        end_time_ps=log.end_time_ps,
        fault_stats=FaultStats.from_meta(log.meta),
    )
    for process, cycles in account.process_cycles.items():
        _add(data.group_cycles, group_of(process), cycles)
        _add(data.group_steps, group_of(process), account.process_steps[process])
    for flow, histogram in account.flow_latency.items():
        sender, receiver = flow[0], flow[1]
        pair = (group_of(sender), group_of(receiver))
        _add(data.group_signals, pair, histogram.count)
        _add(data.group_bytes, pair, account.flow_bytes[flow])
        _add(data.process_signals, (sender, receiver), histogram.count)
    return data
