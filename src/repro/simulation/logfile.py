"""The simulation log-file: the artefact joining simulation and profiling.

Paper Figure 2: code generation inserts "custom C functions to create
simulation log-file during simulations"; the profiling tool later combines
"the profiling data in the simulation log-file and the process group
information".  This module defines that interchange format.

The format is line-oriented text (one record per line, ``key=value``
fields), so it diffs well and any log line can be grepped:

    TUTLOG 1
    META key=<value: the rest of the line>
    EXEC time=<ps> process=<name> pe=<pe> cycles=<n> duration=<ps> \
         from=<state> to=<state> trigger=<desc>
    SIG time=<ps> signal=<name> sender=<proc> receiver=<proc> bytes=<n> \
        latency=<ps> transport=<local|bus|env> [corrupt=1]
    DROP time=<ps> process=<name> signal=<name> reason=<text>
    FAULT time=<ps> kind=<kind> signal=<name|-> source=<name|-> target=<name|->
    END time=<ps> events=<n>

``FAULT`` records and the optional ``corrupt`` flag appear only in runs
with fault injection enabled (see ``docs/fault_injection.md``); fault-free
logs are byte-identical to the pre-fault format.
"""

from __future__ import annotations

from sys import intern as _intern
from typing import Dict, List, NamedTuple, Optional, Union

from repro.errors import SimulationError
from repro.util.fsio import ensure_parent

MAGIC = "TUTLOG 1"

TRANSPORT_LOCAL = "local"
TRANSPORT_BUS = "bus"
TRANSPORT_ENV = "env"


class ExecRecord(NamedTuple):
    """One run-to-completion step of a process on a PE."""

    time_ps: int
    process: str
    pe: str
    cycles: int
    duration_ps: int
    from_state: str
    to_state: str
    trigger: str

    def render(self) -> str:
        """The record as one EXEC log line."""
        return (
            f"EXEC time={self.time_ps} process={self.process} pe={self.pe} "
            f"cycles={self.cycles} duration={self.duration_ps} "
            f"from={self.from_state} to={self.to_state} trigger={self.trigger}"
        )


class SignalRecord(NamedTuple):
    """One delivered signal instance."""

    time_ps: int
    signal: str
    sender: str
    receiver: str
    bytes: int
    latency_ps: int
    transport: str
    corrupt: int = 0

    def render(self) -> str:
        """The record as one SIG log line (corrupt flag only when set)."""
        line = (
            f"SIG time={self.time_ps} signal={self.signal} sender={self.sender} "
            f"receiver={self.receiver} bytes={self.bytes} "
            f"latency={self.latency_ps} transport={self.transport}"
        )
        if self.corrupt:
            line += " corrupt=1"
        return line


class DropRecord(NamedTuple):
    """A signal consumed without firing any transition."""

    time_ps: int
    process: str
    signal: str
    reason: str

    def render(self) -> str:
        """The record as one DROP log line."""
        return (
            f"DROP time={self.time_ps} process={self.process} "
            f"signal={self.signal} reason={self.reason}"
        )


class FaultRecord(NamedTuple):
    """One injected fault (only present with fault injection enabled)."""

    time_ps: int
    kind: str
    signal: str = "-"
    source: str = "-"
    target: str = "-"

    def render(self) -> str:
        """The record as one FAULT log line."""
        return (
            f"FAULT time={self.time_ps} kind={self.kind} signal={self.signal} "
            f"source={self.source} target={self.target}"
        )


LogRecord = Union[ExecRecord, SignalRecord, DropRecord, FaultRecord]


def meta_value(value) -> str:
    """How a META value is spelled in the log, and so how it reads back.

    The value is the rest of its META line, so line breaks become spaces
    and trailing whitespace (which the reader strips) is dropped; any
    other text, spaces and ``=`` included, survives the round trip.
    """
    return " ".join(str(value).splitlines()).rstrip()


class LogWriter:
    """Accumulates records and renders/writes the log file.

    Each record method takes its record's fields (callers pass them by
    keyword) and appends one immutable record tuple.
    """

    def __init__(self, meta: Optional[Dict[str, str]] = None) -> None:
        self.meta: Dict[str, str] = dict(meta or {})
        self.records: List[LogRecord] = []
        self.end_time_ps = 0

    def exec_step(
        self,
        time_ps: int,
        process: str,
        pe: str,
        cycles: int,
        duration_ps: int,
        from_state: str,
        to_state: str,
        trigger: str,
    ) -> None:
        """Record one executed run-to-completion step (EXEC line)."""
        self.records.append(
            ExecRecord(
                time_ps, process, pe, cycles, duration_ps, from_state, to_state, trigger
            )
        )

    def signal(
        self,
        time_ps: int,
        signal: str,
        sender: str,
        receiver: str,
        bytes: int,
        latency_ps: int,
        transport: str,
        corrupt: int = 0,
    ) -> None:
        """Record one delivered signal instance (SIG line)."""
        self.records.append(
            SignalRecord(
                time_ps, signal, sender, receiver, bytes, latency_ps, transport, corrupt
            )
        )

    def drop(self, time_ps: int, process: str, signal: str, reason: str) -> None:
        """Record a signal consumed without firing a transition (DROP)."""
        self.records.append(DropRecord(time_ps, process, signal, reason))

    def fault(
        self,
        time_ps: int,
        kind: str,
        signal: str = "-",
        source: str = "-",
        target: str = "-",
    ) -> None:
        """Record one injected fault (FAULT line)."""
        self.records.append(FaultRecord(time_ps, kind, signal, source, target))

    def finish(self, end_time_ps: int) -> None:
        """Fix the log horizon written into the END line."""
        self.end_time_ps = end_time_ps

    def render(self) -> str:
        """The complete log text: MAGIC, META, records, END trailer."""
        lines = [MAGIC]
        for key in sorted(self.meta):
            lines.append(f"META {key}={meta_value(self.meta[key])}")
        lines.extend(record.render() for record in self.records)
        lines.append(f"END time={self.end_time_ps} events={len(self.records)}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        """Render and write the log to ``path``, creating parent dirs."""
        with open(ensure_parent(path), "w", encoding="utf-8") as handle:
            handle.write(self.render())

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    _RECORD_KINDS = {
        "EXEC": ExecRecord,
        "SIG": SignalRecord,
        "DROP": DropRecord,
        "FAULT": FaultRecord,
    }
    _TAGS = {cls: tag for tag, cls in _RECORD_KINDS.items()}

    def state_dict(self) -> dict:
        """Meta plus every accumulated record, JSON-safe.

        Restoring this onto a fresh writer makes a resumed run's rendered
        log byte-identical to an uninterrupted run's.
        """
        tags = self._TAGS
        # "record" tags the line type; it cannot collide with the record
        # fields (FaultRecord already claims "kind")
        encoded = [
            {"record": tags[type(record)], **record._asdict()}
            for record in self.records
        ]
        return {
            "meta": dict(self.meta),
            "records": encoded,
            "end_time_ps": self.end_time_ps,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this (fresh) writer.

        The restored meta replaces what the constructor seeded — the
        snapshot's run is the authoritative one being continued.
        """
        if self.records:
            raise SimulationError(
                "load_state_dict needs a fresh log writer (records already "
                "accumulated)"
            )
        self.meta = dict(state["meta"])
        for data in state["records"]:
            fields = {
                # intern restored names for the same reason parse_log
                # does: a resumed run re-materializes millions of records
                # drawn from a tiny name vocabulary
                key: _intern(value) if isinstance(value, str) else value
                for key, value in data.items()
            }
            cls = self._RECORD_KINDS[fields.pop("record")]
            self.records.append(cls(**fields))
        self.end_time_ps = int(state["end_time_ps"])


class LogFile:
    """A parsed simulation log."""

    def __init__(
        self,
        meta: Dict[str, str],
        records: List[LogRecord],
        end_time_ps: int,
    ) -> None:
        self.meta = meta
        self.records = records
        self.end_time_ps = end_time_ps

    @property
    def exec_records(self) -> List[ExecRecord]:
        """All EXEC records, in log order."""
        return [r for r in self.records if isinstance(r, ExecRecord)]

    @property
    def signal_records(self) -> List[SignalRecord]:
        """All SIG records, in log order."""
        return [r for r in self.records if isinstance(r, SignalRecord)]

    @property
    def drop_records(self) -> List[DropRecord]:
        """All DROP records, in log order."""
        return [r for r in self.records if isinstance(r, DropRecord)]

    @property
    def fault_records(self) -> List[FaultRecord]:
        """All FAULT records, in log order."""
        return [r for r in self.records if isinstance(r, FaultRecord)]

    def faults_by_kind(self) -> Dict[str, int]:
        """Injected-fault counts keyed by fault kind."""
        counts: Dict[str, int] = {}
        for record in self.fault_records:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def cycles_by_process(self) -> Dict[str, int]:
        """Total charged PE cycles per process, over all EXEC records."""
        totals: Dict[str, int] = {}
        for record in self.exec_records:
            totals[record.process] = totals.get(record.process, 0) + record.cycles
        return totals

    def signal_counts(self) -> Dict[tuple, int]:
        """(sender, receiver) -> number of delivered signals."""
        counts: Dict[tuple, int] = {}
        for record in self.signal_records:
            key = (record.sender, record.receiver)
            counts[key] = counts.get(key, 0) + 1
        return counts


def _parse_fields(line: str, start: int) -> Dict[str, str]:
    # intern both keys and values: a log holds a handful of distinct
    # field names, process/PE/signal/state names and transports repeated
    # across millions of lines, so interning collapses them to shared
    # objects — dict lookups and downstream grouping become identity
    # comparisons, and parsed-log memory stays proportional to the name
    # vocabulary instead of the record count (output bytes unchanged)
    fields: Dict[str, str] = {}
    for token in line.split()[start:]:
        key, _, value = token.partition("=")
        fields[_intern(key)] = _intern(value)
    return fields


def parse_log(text: str) -> LogFile:
    """Parse a log file's text; raises :class:`SimulationError` on bad input."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise SimulationError(f"not a simulation log (expected {MAGIC!r} header)")
    meta: Dict[str, str] = {}
    records: List[LogRecord] = []
    end_time_ps = 0
    saw_end = False
    for number, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind = line.split(None, 1)[0]
        try:
            if kind == "META":
                # one key=value pair per line; the value runs to the end
                # of the line, so it may hold spaces and "="
                pair = line[len(kind):].strip()
                if pair:
                    key, _, value = pair.partition("=")
                    meta[key] = value
            elif kind == "EXEC":
                f = _parse_fields(line, 1)
                records.append(
                    ExecRecord(
                        time_ps=int(f["time"]),
                        process=f["process"],
                        pe=f["pe"],
                        cycles=int(f["cycles"]),
                        duration_ps=int(f["duration"]),
                        from_state=f["from"],
                        to_state=f["to"],
                        trigger=f["trigger"],
                    )
                )
            elif kind == "SIG":
                f = _parse_fields(line, 1)
                records.append(
                    SignalRecord(
                        time_ps=int(f["time"]),
                        signal=f["signal"],
                        sender=f["sender"],
                        receiver=f["receiver"],
                        bytes=int(f["bytes"]),
                        latency_ps=int(f["latency"]),
                        transport=f["transport"],
                        corrupt=int(f.get("corrupt", "0")),
                    )
                )
            elif kind == "DROP":
                f = _parse_fields(line, 1)
                records.append(
                    DropRecord(
                        time_ps=int(f["time"]),
                        process=f["process"],
                        signal=f["signal"],
                        reason=f["reason"],
                    )
                )
            elif kind == "FAULT":
                f = _parse_fields(line, 1)
                records.append(
                    FaultRecord(
                        time_ps=int(f["time"]),
                        kind=f["kind"],
                        signal=f.get("signal", "-"),
                        source=f.get("source", "-"),
                        target=f.get("target", "-"),
                    )
                )
            elif kind == "END":
                f = _parse_fields(line, 1)
                end_time_ps = int(f["time"])
                saw_end = True
            else:
                raise SimulationError(f"unknown record kind {kind!r}")
        except (KeyError, ValueError) as exc:
            raise SimulationError(
                f"malformed log line {number}: {line!r} ({exc})"
            ) from exc
    if not saw_end:
        raise SimulationError("log file is truncated (no END record)")
    return LogFile(meta, records, end_time_ps)


def read_log(path) -> LogFile:
    """Read and parse a simulation log file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_log(handle.read())
