"""Deterministic discrete-event kernel.

Time is integer **picoseconds** so all PE/bus clock periods divide evenly
(a 50 MHz cycle is exactly 20 000 ps).  Events at equal times fire in
scheduling order (a monotonic sequence number breaks ties), which makes
every simulation run bit-reproducible.  ``docs/kernel.md`` documents the
ordering and checkpoint contract.

Events are plain lists (``[time_ps, sequence, callback, cancelled,
dispatched, args]`` — see the ``EV_*`` index constants) kept in one binary
heap, so creating one costs a single C-level allocation and ordering them
uses C list comparison instead of a Python ``__lt__`` call per compare.
An event carries its callback's arguments, so callers schedule a bound
method plus arguments instead of building a closure per event.

Hook dispatch is gated: a tracer (fixed at construction) or an
``after_event`` hook sets one fused ``_hooks_active`` flag (recomputed
only when ``after_event`` is reassigned), and the run loop checks that
single flag per event.
"""

from __future__ import annotations

from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from operator import itemgetter
from typing import Callable, List, Optional

from repro.errors import InvalidScheduleError, SimulationError
from repro.observability.tracer import KERNEL_TRACK, Tracer

PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000

#: Event-list layout: index of the absolute dispatch time in picoseconds.
EV_TIME = 0
#: Index of the global monotonic sequence number (same-time tie-breaker).
EV_SEQ = 1
#: Index of the callback invoked at dispatch as ``callback(*args)``.
EV_CALLBACK = 2
#: Index of the cancellation flag (tombstone; skipped at dispatch).
EV_CANCELLED = 3
#: Index of the dispatched flag (set just before the callback runs).
EV_DISPATCHED = 4
#: Index of the tuple of arguments the callback is called with.
EV_ARGS = 5

#: An event handle as returned by :meth:`Kernel.schedule` — a plain
#: 6-slot list indexed by the ``EV_*`` constants above.
Event = List

#: Counter name for the scheduler-queue-depth series in trace exports.
#: Traces recorded by older versions named this series ``events``;
#: readers should treat that name as an alias of this one.
QUEUE_DEPTH_COUNTER = "queue_depth"

#: A traced kernel samples its queue depth every this many dispatches.
TRACE_STRIDE = 64

_BUDGET_MESSAGE = "event budget exceeded ({limit} events); runaway model?"


def cycles_to_ps(cycles: int, frequency_hz: int) -> int:
    """Duration of ``cycles`` clock cycles, in picoseconds."""
    if frequency_hz <= 0:
        raise SimulationError("frequency must be positive")
    if cycles < 0:
        # catch this here: a negative duration would otherwise surface
        # later as schedule()'s baffling "cannot schedule into the past"
        raise SimulationError(f"cycle count must be non-negative, got {cycles}")
    return (cycles * 1_000_000_000_000) // frequency_hz


def event_pending(event: Event) -> bool:
    """True while ``event`` awaits dispatch (not fired, not cancelled)."""
    return not event[EV_CANCELLED] and not event[EV_DISPATCHED]


class Kernel:
    """Binary-heap scheduler with a current time and a hard event budget.

    With a :class:`~repro.observability.tracer.Tracer` installed the run
    loop samples the scheduler queue depth every :data:`TRACE_STRIDE`
    dispatches (the ``queue_depth`` counter series in trace exports).
    """

    __slots__ = (
        "now_ps",
        "max_events",
        "_heap",
        "_sequence",
        "_dispatched",
        "_tombstones",
        "_tracer",
        "_after_event",
        "_hooks_active",
    )

    def __init__(
        self, max_events: int = 5_000_000, tracer: Optional[Tracer] = None
    ) -> None:
        self.now_ps: int = 0
        self.max_events = max_events
        self._heap: list = []
        self._sequence = 0
        self._dispatched = 0
        self._tombstones = 0  # cancelled events still in the heap
        self._tracer = tracer
        self._after_event: Optional[Callable[[], None]] = None
        self._hooks_active = tracer is not None

    # ------------------------------------------------------------------
    # fused hook gate
    # ------------------------------------------------------------------

    @property
    def after_event(self) -> Optional[Callable[[], None]]:
        """Hook called between dispatches (the queue is quiescent there).

        The checkpoint subsystem snapshots from this hook.  Assigning
        ``None`` unregisters it; (un)registration recomputes the fused
        hook gate, so an unhooked kernel skips the per-event hook phase.
        """
        return self._after_event

    @after_event.setter
    def after_event(self, value: Optional[Callable[[], None]]) -> None:
        self._after_event = value
        self._hooks_active = value is not None or self._tracer is not None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay_ps: int, callback: Callable[..., None], *args) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ps`` after the current time."""
        if delay_ps < 0:
            # InvalidScheduleError is a ValueError: negative delays are a
            # caller bug (mirrors the cycles_to_ps negative guard above)
            raise InvalidScheduleError(
                f"cannot schedule into the past ({delay_ps} ps)"
            )
        self._sequence = sequence = self._sequence + 1
        event = [self.now_ps + delay_ps, sequence, callback, False, False, args]
        _heappush(self._heap, event)
        return event

    def schedule_at(
        self, time_ps: int, callback: Callable[..., None], *args
    ) -> Event:
        """Schedule ``callback(*args)`` at the absolute instant ``time_ps``."""
        return self.schedule(time_ps - self.now_ps, callback, *args)

    def cancel(self, event: Event) -> None:
        """Mark ``event`` cancelled; it is skipped (and dropped) at dispatch.

        Cancelled events stay queued as tombstones; once tombstones
        outnumber live events the heap is compacted in one O(n) pass, so
        cancel-heavy models (timer resets) keep the queue proportional to
        the live event count.
        """
        if event[EV_CANCELLED] or event[EV_DISPATCHED]:
            return
        event[EV_CANCELLED] = True
        self._tombstones += 1
        heap = self._heap
        if self._tombstones > len(heap) // 2 and len(heap) > 8:
            # in place: run() holds a reference to the heap while a
            # callback may cancel
            heap[:] = [e for e in heap if not e[EV_CANCELLED]]
            _heapify(heap)
            self._tombstones = 0

    @property
    def pending(self) -> int:
        """Scheduled events not yet dispatched or cancelled (O(1))."""
        return len(self._heap) - self._tombstones

    def pending_events(self) -> List[Event]:
        """The live events, in sequence order (cancelled tombstones skipped).

        The heap is the one record of outstanding work: a checkpoint
        reads each owner's in-flight events from here, picking them out
        by callback.  A dispatched event has left the heap already.
        """
        return sorted(
            (event for event in self._heap if not event[EV_CANCELLED]),
            key=itemgetter(EV_SEQ),
        )

    @property
    def dispatched(self) -> int:
        """Events dispatched over the kernel's whole life (survives restore).

        Coherent at every quiescent point: before :meth:`run`, after it
        returns or raises, and inside any tracer/``after_event`` hook.
        """
        return self._dispatched

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self, until_ps: Optional[int] = None) -> int:
        """Dispatch events in order until the queue drains or ``until_ps``.

        Returns the number of dispatched events.  The kernel clock is left
        at ``until_ps`` (if given) or at the last event time.
        """
        heap = self._heap
        heappop = _heappop
        limit = self.max_events
        until = until_ps if until_ps is not None else float("inf")
        start = self._dispatched
        # literal event indices below: EV_* are module globals, and a
        # global lookup per event access shows in the dispatch rate
        while heap:
            event = heappop(heap)
            if event[3]:
                self._tombstones -= 1
                continue
            time_ps = event[0]
            if time_ps > until:
                _heappush(heap, event)
                break
            event[4] = True
            self.now_ps = time_ps
            event[2](*event[5])
            self._dispatched = dispatched = self._dispatched + 1
            if self._hooks_active:
                self._post_dispatch_hooks()
            elif dispatched > limit:
                raise SimulationError(_BUDGET_MESSAGE.format(limit=limit))
        if until_ps is not None and until_ps > self.now_ps:
            self.now_ps = until_ps
        return self._dispatched - start

    def _post_dispatch_hooks(self) -> None:
        """The per-event hook phase: depth sample, budget, after_event."""
        tracer = self._tracer
        if tracer is not None and self._dispatched % TRACE_STRIDE == 0:
            # sample the live count, not the heap length: tombstones are
            # an implementation detail and would make a restored run's
            # samples (tombstone-free queue) diverge
            tracer.counter(
                QUEUE_DEPTH_COUNTER,
                KERNEL_TRACK,
                {"depth": len(self._heap) - self._tombstones},
                time_ps=self.now_ps,
            )
        if self._dispatched > self.max_events:
            raise SimulationError(_BUDGET_MESSAGE.format(limit=self.max_events))
        hook = self._after_event
        if hook is not None:
            # quiescent point: the event completed, the next has not
            # started — the checkpoint subsystem snapshots from here
            hook()

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The kernel's serializable state (clock, sequence, dispatch count).

        Pending queue events are *not* serialized — they hold bound
        methods and live arguments.  Each owning component encodes its
        own events from :meth:`pending_events` and re-materializes them
        on restore via :meth:`restore_event`.
        """
        return {
            "now_ps": self.now_ps,
            "sequence": self._sequence,
            "dispatched": self._dispatched,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore clock/counters; the queue must be empty (fresh kernel)."""
        if self._heap or self._dispatched:
            raise SimulationError(
                "load_state_dict needs a fresh kernel (events already "
                "scheduled or dispatched)"
            )
        self.now_ps = int(state["now_ps"])
        self._sequence = int(state["sequence"])
        self._dispatched = int(state["dispatched"])

    def restore_event(
        self, time_ps: int, sequence: int, callback: Callable[..., None], *args
    ) -> Event:
        """Re-materialize a checkpointed event with its *original* sequence.

        Keeping the original sequence number reproduces same-time dispatch
        order exactly, so a resumed run replays byte-identically.  Only
        valid for events from a snapshot: the sequence must already be
        accounted for by the restored sequence counter.
        """
        if sequence > self._sequence:
            raise SimulationError(
                f"restored event sequence {sequence} is ahead of the "
                f"kernel's counter {self._sequence}"
            )
        if time_ps < self.now_ps:
            raise SimulationError(
                f"restored event at {time_ps} ps is before the restored "
                f"clock ({self.now_ps} ps)"
            )
        event = [time_ps, sequence, callback, False, False, args]
        _heappush(self._heap, event)
        return event
