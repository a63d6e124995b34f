"""Structured tracing for the system simulator.

The paper's Figure 2 loop hinges on *observing* the executing model: the
instrumented run emits a log the profiling tool aggregates.  The tracer is
the fine-grained counterpart of that log-file — a stream of **spans**
(named intervals on a track), **instant events** (points in time) and
**counter samples** (numeric time series).  The simulator's hot paths
emit live only what no log record holds (bus grants, dispatches, queue
depths, stall times); the exec, efsm, signal, drop and fault events are
derived from the log's records when the run finishes (each record's
``trace_events()``).  The stream feeds two consumers:

* :mod:`repro.observability.metrics` — per-PE utilisation and stall
  breakdown, bus occupancy and contention, latency histograms;
* :mod:`repro.observability.export` — a Chrome-trace JSON file that opens
  directly in ``ui.perfetto.dev``.

Design constraints (mirroring :mod:`repro.faults`):

* **Zero overhead when disabled.**  Every simulator hook is gated on
  ``tracer is not None``; an untraced run executes not a single extra
  instruction beyond that check, and its outputs are byte-identical to a
  pre-observability run.
* **Deterministic.**  Live events are appended in execution order and
  derived events in log order, both of which the kernel makes
  reproducible; two traced runs of the same seeded system produce
  byte-identical event streams (and therefore byte-identical exported
  JSON).

Tracks
------

A *track* is a ``(group, lane)`` pair of strings: the group becomes the
Perfetto process row, the lane its thread row.  The simulator uses:

==========  =======================  ===================================
group       lane                     carries
==========  =======================  ===================================
``pe``      processing element       EXEC step spans, ready-queue depth,
                                     pe-stall/pe-crash instants
``bus``     HIBI segment             occupancy spans, request-queue depth
``efsm``    application process      transition instants
``system``  ``dispatch``             send/deliver/drop/fault instants
``kernel``  ``scheduler``            scheduler queue-depth samples (the
                                     ``queue_depth`` counter; older
                                     traces named it ``events``)
==========  =======================  ===================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

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


class SpanEvent(NamedTuple):
    """A named interval on a track (Chrome-trace ``ph=X``)."""

    name: str
    track: Track
    start_ps: int
    duration_ps: int
    category: str
    args: Dict[str, object]

    @property
    def end_ps(self) -> int:
        """The instant the span closed."""
        return self.start_ps + self.duration_ps


class InstantEvent(NamedTuple):
    """A point event on a track (Chrome-trace ``ph=i``)."""

    name: str
    track: Track
    time_ps: int
    category: str
    args: Dict[str, object]


class CounterEvent(NamedTuple):
    """One sample of a numeric time series (Chrome-trace ``ph=C``)."""

    name: str
    track: Track
    time_ps: int
    values: Dict[str, int]


TraceEvent = Union[SpanEvent, InstantEvent, CounterEvent]

#: Snapshot tag of each event type (the ``kind`` of an encoded event).
_EVENT_KINDS = {"span": SpanEvent, "instant": InstantEvent, "counter": CounterEvent}
_KIND_TAGS = {cls: tag for tag, cls in _EVENT_KINDS.items()}


class Tracer:
    """Collects the trace event stream of one simulation run.

    The tracer never inspects the clock itself: hooks either pass an
    explicit ``time_ps`` or the tracer asks the ``clock`` callable bound
    by the simulator (:meth:`bind_clock`).  Before a clock is bound, the
    implicit time is 0 — which keeps the tracer usable in clock-free unit
    tests.
    """

    __slots__ = ("events", "_clock")

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self.events: List[TraceEvent] = []
        self._clock = clock

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

    def span(
        self,
        name: str,
        track: Track,
        start_ps: int,
        duration_ps: int,
        category: str = "",
        **args: object,
    ) -> None:
        """Append a completed span (its start and end both known).

        A span is recorded once it has ended: the bus appends each
        segment grant's span at release, from the grant time it kept.
        """
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
        """The event stream, JSON-safe.

        Restoring this onto a fresh tracer makes a resumed simulation's
        trace (and every metric derived from it) byte-identical to an
        uninterrupted run's.  Nothing is open between events: a span in
        progress (a bus grant) is appended only when it ends.
        """
        encoded = []
        for event in self.events:
            # "kind" tags the event type; no event field is named "kind"
            data = {"kind": _KIND_TAGS[type(event)], **event._asdict()}
            data["track"] = list(event.track)
            payload = event._fields[-1]  # "args", or a counter's "values"
            data[payload] = dict(data[payload])
            encoded.append(data)
        return {"events": encoded}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this (fresh) tracer."""
        if self.events:
            raise SimulationError(
                "load_state_dict needs a fresh tracer (events already "
                "recorded)"
            )
        for data in state["events"]:
            fields = dict(data)
            cls = _EVENT_KINDS[fields.pop("kind")]
            fields["track"] = tuple(fields["track"])
            payload = cls._fields[-1]
            fields[payload] = dict(fields[payload])
            self.events.append(cls(**fields))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def spans(self) -> List[SpanEvent]:
        """All completed spans, in emission order."""
        return [e for e in self.events if isinstance(e, SpanEvent)]

    def instants(self) -> List[InstantEvent]:
        """All instant events, in emission order."""
        return [e for e in self.events if isinstance(e, InstantEvent)]

    def counters(self) -> List[CounterEvent]:
        """All counter samples, in emission order."""
        return [e for e in self.events if isinstance(e, CounterEvent)]
