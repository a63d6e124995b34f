"""Execution timeline rendering: a text Gantt chart from a simulation log.

Each processing element gets one track; every run-to-completion step is a
span labelled by its process.  Useful for eyeballing scheduling decisions
(who held the PE, how bus waits delayed deliveries) without a waveform
viewer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.simulation.logfile import ExecRecord, LogFile


def timeline_text(
    log: LogFile,
    width: int = 100,
    start_ps: int = 0,
    end_ps: Optional[int] = None,
    pes: Optional[Sequence[str]] = None,
) -> str:
    """Render per-PE execution as fixed-width text tracks.

    Each column represents ``(end-start)/width`` picoseconds; a column shows
    the initial of the process that was executing (``.`` for idle, ``*``
    when several processes ran within one column).
    """
    if end_ps is None:
        end_ps = log.end_time_ps
    if end_ps <= start_ps:
        raise ValueError("empty time window")
    records = [
        r
        for r in log.exec_records
        if r.pe != "-" and r.time_ps < end_ps and r.time_ps + r.duration_ps > start_ps
    ]
    track_names = sorted({r.pe for r in records}) if pes is None else list(pes)
    span_ps = end_ps - start_ps
    column_ps = max(1, span_ps // width)

    legend: Dict[str, str] = {}

    def symbol(process: str) -> str:
        if process not in legend:
            letters = [c for c in process if c.isalnum()]
            base = letters[0] if letters else "?"
            candidate = base.lower()
            used = set(legend.values())
            if candidate in used:
                candidate = base.upper()
            index = 0
            while candidate in used and index < len(process):
                candidate = process[index].lower()
                index += 1
            while candidate in used:
                candidate = chr(ord("0") + len(legend) % 10)
                break
            legend[process] = candidate
        return legend[process]

    lines: List[str] = [
        f"timeline {start_ps / 1e6:.3f} .. {end_ps / 1e6:.3f} us "
        f"({column_ps / 1e6:.3f} us/column)"
    ]
    for pe in track_names:
        columns = ["."] * width
        for record in records:
            if record.pe != pe:
                continue
            first = max(0, (record.time_ps - start_ps) // column_ps)
            last = min(
                width - 1,
                (record.time_ps + max(record.duration_ps, 1) - 1 - start_ps)
                // column_ps,
            )
            mark = symbol(record.process)
            for column in range(int(first), int(last) + 1):
                if columns[column] == ".":
                    columns[column] = mark
                elif columns[column] != mark:
                    columns[column] = "*"
        lines.append(f"{pe:>14} |{''.join(columns)}|")
    if legend:
        lines.append(
            "legend: "
            + ", ".join(
                f"{mark}={process}"
                for process, mark in sorted(legend.items(), key=lambda i: i[1])
            )
            + ", .=idle, *=multiple"
        )
    return "\n".join(lines)


def utilization_summary(log: LogFile) -> str:
    """One line per PE of the log's account: steps, busy time and share
    of the horizon (a PE that never ran shows 0 steps)."""
    account = log.account
    utilization = account.pe_utilization()
    return "\n".join(
        f"{pe:>14}: {account.pe_steps[pe]:>6} steps, "
        f"busy {account.pe_busy_ps[pe] / 1e6:10.1f} us ({utilization[pe]:6.1%})"
        for pe in sorted(account.pe_busy_ps)
    )
