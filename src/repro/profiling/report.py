"""Profiling report rendering, in the layout of the paper's Table 4.

Part (a): total execution time and proportion per process group.
Part (b): number of signals between groups (senders as rows).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.util.tables import render_percentage, render_table
from repro.profiling.analysis import ProfilingData


def execution_time_rows(data: ProfilingData) -> List[Tuple[str, str, str]]:
    """Rows of Table 4(a), largest share first, Environment last."""
    groups = data.group_info.all_groups(include_environment=False)
    ordered = sorted(
        groups, key=lambda g: (-data.group_cycles.get(g, 0), g)
    )
    rows = []
    for group in ordered + ["Environment"]:
        cycles = data.group_cycles.get(group, 0)
        rows.append(
            (group, f"{cycles} cycles", render_percentage(data.group_share(group)))
        )
    return rows


def render_table4a(data: ProfilingData) -> str:
    """Table 4(a): process-group execution times and proportions."""
    return render_table(
        ("Process group", "Total execution time", "Proportion"),
        execution_time_rows(data),
        title="(a) Process group execution times",
    )


def signal_matrix_rows(data: ProfilingData) -> List[List[object]]:
    """Table 4(b) body rows: one row of signal counts per sender group."""
    groups = data.group_info.all_groups()
    matrix = data.signal_matrix()
    rows: List[List[object]] = []
    for group, counts in zip(groups, matrix):
        rows.append([group] + list(counts))
    return rows


def render_table4b(data: ProfilingData) -> str:
    """Table 4(b): the group-to-group signal-count matrix."""
    groups = data.group_info.all_groups()
    return render_table(
        ["Sender/Receiver"] + groups,
        signal_matrix_rows(data),
        title="(b) Number of signals between groups",
    )


def render_process_detail(data: ProfilingData) -> str:
    """The finer metrics the paper mentions: per-process cycles & transfers."""
    cycle_rows = [
        (process, data.process_cycles[process])
        for process in sorted(
            data.process_cycles, key=lambda p: (-data.process_cycles[p], p)
        )
    ]
    transfer_rows = [
        (f"{sender} -> {receiver}", count)
        for (sender, receiver), count in sorted(
            data.process_signals.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    parts = [
        render_table(
            ("Process", "Cycles"), cycle_rows, title="Per-process execution"
        ),
        render_table(
            ("Transfer", "Signals"),
            transfer_rows,
            title="Transfers between individual application processes",
        ),
    ]
    return "\n\n".join(parts)


def render_latency_detail(data: ProfilingData) -> str:
    """Delivery latency per transport and per signal type."""

    def rows(items):
        """One table row per ``(name, histogram)``: count, mean and max in ns."""
        return [
            (name, h.count, round(h.mean_ps / 1000.0, 1), h.max_ps // 1000)
            for name, h in items
        ]

    signals = sorted(
        data.signal_latency.items(), key=lambda item: (-item[1].count, item[0])
    )
    parts = [
        render_table(
            ("Transport", "Signals", "Mean latency (ns)", "Max latency (ns)"),
            rows(sorted(data.transport_latency.items())),
            title="Delivery latency by transport",
        ),
        render_table(
            ("Signal", "Count", "Mean latency (ns)", "Max latency (ns)"),
            rows(signals),
            title="Delivery latency by signal type",
        ),
    ]
    return "\n\n".join(parts)


def render_fault_section(data: ProfilingData) -> str:
    """Fault-injection ledger: what was injected, detected and repaired.

    :func:`render_report` adds it only for runs that carried an enabled
    fault plan, so fault-free reports keep the pre-fault-injection layout.
    For a fault-free run the section says that no fault was injected.
    """
    stats = data.fault_stats
    lines = ["Fault injection", "---------------"]
    if stats is None:
        return "\n".join(lines + ["no fault was injected (no enabled fault plan)"])
    kind_rows = sorted(stats.injected_by_kind.items())
    lines += [
        f"seed: {stats.seed}",
        f"injected faults: {stats.injected}",
        f"detected (CRC-protected): {stats.detected}",
        f"recovered by retransmission: {stats.recovered}",
        f"residual losses: {stats.residual}",
        f"recovery ratio: {render_percentage(stats.recovery_ratio)}",
    ]
    if kind_rows:
        lines += [
            "",
            render_table(
                ("Fault kind", "Injected"), kind_rows, title="Injections by kind"
            ),
        ]
    return "\n".join(lines)


def render_report(data: ProfilingData, title: str = "Profiling report") -> str:
    """The full profiling report (Table 4 plus detail sections)."""
    summary_lines = [
        title,
        "=" * len(title),
        f"simulated time: {data.end_time_ps / 1e9:.3f} ms",
        f"total cycles: {data.total_cycles()}",
        f"signals across group boundaries: {data.external_signals()}",
        f"signals within groups: {data.internal_signals()}",
        f"dropped signals: {data.dropped_signals}",
        "",
        render_table4a(data),
        "",
        render_table4b(data),
        "",
        render_process_detail(data),
        "",
        render_latency_detail(data),
    ]
    if data.fault_stats is not None:
        summary_lines += ["", render_fault_section(data)]
    return "\n".join(summary_lines)
