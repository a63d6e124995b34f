"""Structured tracing for the system simulator.

The paper's Figure 2 loop hinges on *observing* the executing model: the
instrumented run emits a log the profiling tool aggregates.  The tracer is
the fine-grained counterpart of that log-file — a stream of **spans**
(named intervals on a track), **instant events** (points in time) and
**counter samples** (numeric time series) that the simulator's hot paths
emit while running.  The stream feeds two consumers:

* :mod:`repro.observability.metrics` — per-PE utilisation and stall
  breakdown, bus occupancy and contention, latency histograms;
* :mod:`repro.observability.export` — a Chrome-trace JSON file that opens
  directly in ``ui.perfetto.dev``.

Design constraints (mirroring :mod:`repro.faults`):

* **Zero overhead when disabled.**  Every simulator hook is gated on
  ``tracer is not None``; an untraced run executes not a single extra
  instruction beyond that check, and its outputs are byte-identical to a
  pre-observability run.
* **Deterministic.**  Events are appended in execution order, which the
  kernel makes reproducible; two traced runs of the same seeded system
  produce byte-identical event streams (and therefore byte-identical
  exported JSON).

Tracks
------

A *track* is a ``(group, lane)`` pair of strings: the group becomes the
Perfetto process row, the lane its thread row.  The simulator uses:

==========  =======================  ===================================
group       lane                     carries
==========  =======================  ===================================
``pe``      processing element       EXEC step spans, ready-queue depth
``bus``     HIBI segment             occupancy spans, request-queue depth
``efsm``    application process      transition instants
``system``  ``dispatch``             send/deliver/drop/fault instants
``kernel``  ``scheduler``            scheduler queue-depth samples (the
                                     ``queue_depth`` counter; older
                                     traces named it ``events``)
==========  =======================  ===================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError

Track = Tuple[str, str]

#: Well-known track groups (see the module docstring table).
GROUP_PE = "pe"
GROUP_BUS = "bus"
GROUP_EFSM = "efsm"
GROUP_SYSTEM = "system"
GROUP_KERNEL = "kernel"

KERNEL_TRACK: Track = (GROUP_KERNEL, "scheduler")
SYSTEM_TRACK: Track = (GROUP_SYSTEM, "dispatch")


def pe_track(name: str) -> Track:
    """The track of one processing element."""
    return (GROUP_PE, name)


def bus_track(segment: str) -> Track:
    """The track of one HIBI segment."""
    return (GROUP_BUS, segment)


def efsm_track(process: str) -> Track:
    """The track of one application process's EFSM."""
    return (GROUP_EFSM, process)


@dataclass(frozen=True)
class SpanEvent:
    """A named interval on a track (Chrome-trace ``ph=X``)."""

    name: str
    track: Track
    start_ps: int
    duration_ps: int
    category: str = ""
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end_ps(self) -> int:
        """The instant the span closed."""
        return self.start_ps + self.duration_ps


@dataclass(frozen=True)
class InstantEvent:
    """A point event on a track (Chrome-trace ``ph=i``)."""

    name: str
    track: Track
    time_ps: int
    category: str = ""
    args: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterEvent:
    """One sample of a numeric time series (Chrome-trace ``ph=C``)."""

    name: str
    track: Track
    time_ps: int
    values: Dict[str, int] = field(default_factory=dict)


TraceEvent = Union[SpanEvent, InstantEvent, CounterEvent]


class _OpenSpan:
    """Book-keeping for a span opened with :meth:`Tracer.begin`."""

    __slots__ = ("name", "track", "category", "start_ps", "args", "closed")

    def __init__(self, name, track, category, start_ps, args) -> None:
        self.name = name
        self.track = track
        self.category = category
        self.start_ps = start_ps
        self.args = args
        self.closed = False


class Tracer:
    """Collects the trace event stream of one simulation run.

    The tracer never inspects the clock itself: hooks either pass an
    explicit ``time_ps`` or the tracer asks the ``clock`` callable bound
    by the simulator (:meth:`bind_clock`).  Before a clock is bound, the
    implicit time is 0 — which keeps the tracer usable in clock-free unit
    tests of the executor.
    """

    __slots__ = ("events", "_clock", "_open")

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self.events: List[TraceEvent] = []
        self._clock = clock
        self._open: List[_OpenSpan] = []

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Install the simulation clock used when no explicit time is given."""
        self._clock = clock

    def now_ps(self) -> int:
        """The current implicit timestamp (0 before a clock is bound)."""
        return self._clock() if self._clock is not None else 0

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def begin(
        self,
        name: str,
        track: Track,
        category: str = "",
        time_ps: Optional[int] = None,
        **args: object,
    ) -> int:
        """Open a span; returns a handle for :meth:`end`.

        Handles nest freely (the bus opens one span per in-flight segment
        grant); unmatched handles are caught by :meth:`end`.
        """
        start = self.now_ps() if time_ps is None else time_ps
        self._open.append(_OpenSpan(name, track, category, start, dict(args)))
        return len(self._open) - 1

    def end(
        self, handle: int, time_ps: Optional[int] = None, **args: object
    ) -> SpanEvent:
        """Close the span ``handle`` and append the completed event."""
        if not 0 <= handle < len(self._open) or self._open[handle].closed:
            raise SimulationError(f"no open span for handle {handle}")
        pending = self._open[handle]
        pending.closed = True
        # drop fully-closed spans from the tail so handles stay small
        while self._open and self._open[-1].closed:
            self._open.pop()
        end = self.now_ps() if time_ps is None else time_ps
        if end < pending.start_ps:
            raise SimulationError(
                f"span {pending.name!r} ends before it starts "
                f"({end} < {pending.start_ps})"
            )
        merged = dict(pending.args)
        merged.update(args)
        event = SpanEvent(
            name=pending.name,
            track=pending.track,
            start_ps=pending.start_ps,
            duration_ps=end - pending.start_ps,
            category=pending.category,
            args=merged,
        )
        self.events.append(event)
        return event

    def span(
        self,
        name: str,
        track: Track,
        start_ps: int,
        duration_ps: int,
        category: str = "",
        **args: object,
    ) -> None:
        """Append a completed span in one call (start and end both known)."""
        if duration_ps < 0:
            raise SimulationError(f"span duration must be >= 0, got {duration_ps}")
        self.events.append(
            SpanEvent(
                name=name,
                track=track,
                start_ps=start_ps,
                duration_ps=duration_ps,
                category=category,
                args=dict(args),
            )
        )

    # ------------------------------------------------------------------
    # instants and counters
    # ------------------------------------------------------------------

    def instant(
        self,
        name: str,
        track: Track,
        category: str = "",
        time_ps: Optional[int] = None,
        **args: object,
    ) -> None:
        """Append a point event."""
        time = self.now_ps() if time_ps is None else time_ps
        self.events.append(
            InstantEvent(
                name=name,
                track=track,
                time_ps=time,
                category=category,
                args=dict(args),
            )
        )

    def counter(
        self,
        name: str,
        track: Track,
        values: Dict[str, int],
        time_ps: Optional[int] = None,
    ) -> None:
        """Append one sample of the counter series ``name``."""
        time = self.now_ps() if time_ps is None else time_ps
        self.events.append(
            CounterEvent(name=name, track=track, time_ps=time, values=dict(values))
        )

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The full event stream plus open-span book-keeping, JSON-safe.

        Restoring this onto a fresh tracer makes a resumed simulation's
        trace (and every metric derived from it) byte-identical to an
        uninterrupted run's.  Span handles are indices into the open-span
        list, so the list is serialized in order, closed entries included.
        """
        encoded = []
        for event in self.events:
            if isinstance(event, SpanEvent):
                encoded.append(
                    {
                        "kind": "span",
                        "name": event.name,
                        "track": list(event.track),
                        "start_ps": event.start_ps,
                        "duration_ps": event.duration_ps,
                        "category": event.category,
                        "args": dict(event.args),
                    }
                )
            elif isinstance(event, InstantEvent):
                encoded.append(
                    {
                        "kind": "instant",
                        "name": event.name,
                        "track": list(event.track),
                        "time_ps": event.time_ps,
                        "category": event.category,
                        "args": dict(event.args),
                    }
                )
            else:
                encoded.append(
                    {
                        "kind": "counter",
                        "name": event.name,
                        "track": list(event.track),
                        "time_ps": event.time_ps,
                        "values": dict(event.values),
                    }
                )
        return {
            "events": encoded,
            "open": [
                {
                    "name": span.name,
                    "track": list(span.track),
                    "category": span.category,
                    "start_ps": span.start_ps,
                    "args": dict(span.args),
                    "closed": span.closed,
                }
                for span in self._open
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this (fresh) tracer."""
        if self.events or self._open:
            raise SimulationError(
                "load_state_dict needs a fresh tracer (events already "
                "recorded)"
            )
        for data in state["events"]:
            track = tuple(data["track"])
            if data["kind"] == "span":
                self.events.append(
                    SpanEvent(
                        name=data["name"],
                        track=track,
                        start_ps=data["start_ps"],
                        duration_ps=data["duration_ps"],
                        category=data["category"],
                        args=dict(data["args"]),
                    )
                )
            elif data["kind"] == "instant":
                self.events.append(
                    InstantEvent(
                        name=data["name"],
                        track=track,
                        time_ps=data["time_ps"],
                        category=data["category"],
                        args=dict(data["args"]),
                    )
                )
            else:
                self.events.append(
                    CounterEvent(
                        name=data["name"],
                        track=track,
                        time_ps=data["time_ps"],
                        values=dict(data["values"]),
                    )
                )
        for data in state["open"]:
            span = _OpenSpan(
                data["name"],
                tuple(data["track"]),
                data["category"],
                data["start_ps"],
                dict(data["args"]),
            )
            span.closed = data["closed"]
            self._open.append(span)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (0 after a clean run)."""
        return sum(1 for span in self._open if not span.closed)

    def spans(self) -> List[SpanEvent]:
        """All completed spans, in emission order."""
        return [e for e in self.events if isinstance(e, SpanEvent)]

    def instants(self) -> List[InstantEvent]:
        """All instant events, in emission order."""
        return [e for e in self.events if isinstance(e, InstantEvent)]

    def counters(self) -> List[CounterEvent]:
        """All counter samples, in emission order."""
        return [e for e in self.events if isinstance(e, CounterEvent)]
