"""Attaching checkpointing to a simulation, and restoring from a snapshot.

The :class:`Checkpointer` hangs off the kernel's ``after_event`` hook — a
quiescent point between dispatches where no callback is half-executed, so
``SystemSimulation.state_dict()`` captures a consistent world.  A run
without a checkpointer pays nothing beyond the hook's ``None`` check
(the same zero-cost contract the tracer and fault plan follow).

For tests and the CI resume-smoke job the checkpointer can also *cause*
the interruption it exists to survive: give it an event budget and it
takes a final snapshot when the budget runs out, then raises
:class:`~repro.errors.SimulationInterrupted` carrying that snapshot.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import CheckpointError, SimulationInterrupted
from repro.checkpoint.policy import EveryEvents
from repro.checkpoint.state import diff_states, state_hash
from repro.checkpoint.store import CheckpointStore, Snapshot
from repro.observability.tracer import KERNEL_TRACK


class Checkpointer:
    """Takes policy-driven snapshots of one simulation while it runs."""

    def __init__(
        self,
        store: CheckpointStore,
        policy: Optional[EveryEvents] = None,
        tag: str = "run",
        interrupt_after_events: Optional[int] = None,
    ) -> None:
        if interrupt_after_events is not None and interrupt_after_events <= 0:
            raise CheckpointError(
                "interrupt budget must be positive, got "
                f"{interrupt_after_events}"
            )
        self.store = store
        self.policy = policy
        self.tag = tag
        self.interrupt_after_events = interrupt_after_events
        self.simulation = None
        self.taken = 0
        self.paths: List = []
        self._events_since_attach = 0

    @property
    def events_seen(self) -> int:
        """Events dispatched since :meth:`attach` (the interrupt budget's
        unit, so callers can carry a cumulative budget across runs)."""
        return self._events_since_attach

    def attach(self, simulation) -> None:
        """Install this checkpointer on ``simulation``'s kernel hook."""
        if simulation.kernel.after_event is not None:
            raise CheckpointError(
                "the simulation kernel already has an after_event consumer"
            )
        self.simulation = simulation
        self._events_since_attach = 0
        simulation.kernel.after_event = self._after_event

    def detach(self) -> None:
        """Remove the kernel hook (the simulation runs on unobserved)."""
        if self.simulation is not None:
            self.simulation.kernel.after_event = None
            self.simulation = None

    def run(self, simulation, duration_us: int):
        """Run ``simulation`` to ``duration_us`` under this checkpointer.

        When the store already holds a snapshot for this checkpointer's
        tag, the run resumes from the latest one first, so the continued
        run's artefacts are byte-identical to an uninterrupted run's.
        The hook is removed afterwards, also when the run raises.
        """
        snapshot = self.store.latest(self.tag)
        if snapshot is not None:
            resume_simulation(simulation, snapshot)
        self.attach(simulation)
        try:
            return simulation.run(duration_us)
        finally:
            self.detach()

    def take(self, mark: bool = True) -> Snapshot:
        """Snapshot the attached simulation now and persist it.

        With ``mark`` (the default) a ``checkpoint`` trace instant is
        emitted *before* capturing, so the snapshot itself contains the
        mark — an uninterrupted run and a run resumed from this snapshot
        then carry identical trace streams.  Interrupt-budget snapshots
        pass ``mark=False``: the reference run never checkpoints there,
        so a mark would break byte-identity of the resumed trace."""
        if self.simulation is None:
            raise CheckpointError("checkpointer is not attached")
        tracer = self.simulation.tracer
        if mark and tracer is not None:
            tracer.instant(
                "checkpoint",
                KERNEL_TRACK,
                category="checkpoint",
                dispatched=self.simulation.kernel.dispatched,
            )
        snapshot = Snapshot.capture(self.tag, self.simulation)
        self.paths.append(self.store.save(snapshot))
        self.taken += 1
        return snapshot

    def _after_event(self) -> None:
        kernel = self.simulation.kernel
        due = self.policy is not None and self.policy.due(
            kernel.now_ps, kernel.dispatched
        )
        interrupt = False
        if self.interrupt_after_events is not None:
            self._events_since_attach += 1
            if self._events_since_attach >= self.interrupt_after_events:
                interrupt = True
        if not due and not interrupt:
            return
        snapshot = self.take(mark=due)
        if interrupt:
            self.interrupt_after_events = None  # one interruption per budget
            raise SimulationInterrupted(
                f"interrupted after {self._events_since_attach} events "
                f"(snapshot at {snapshot.dispatched} dispatched, "
                f"{snapshot.now_ps} ps)",
                snapshot=snapshot,
            )


def resume_simulation(simulation, snapshot: Snapshot) -> None:
    """Restore ``snapshot`` onto a freshly-built simulation, verified.

    After loading, the restored world is re-serialized and its hash
    compared against the snapshot's — restore infidelity (model drift,
    schema skew) is caught here, before a single event replays, instead
    of surfacing later as silently divergent artefacts.  A state that
    lacks a field this version reads (a snapshot written in an older
    format) is rejected the same way."""
    try:
        simulation.load_state_dict(snapshot.state)
    except KeyError as exc:
        raise CheckpointError(
            f"snapshot state has no field {exc}; it was likely written by "
            "a different version of the simulator"
        ) from exc
    restored = simulation.state_dict()
    digest = state_hash(restored)
    if digest != snapshot.digest:
        lines = diff_states(snapshot.state, restored)
        preview = "; ".join(lines[:5]) or "(hash-only difference)"
        raise CheckpointError(
            "restored state does not reproduce the snapshot (hash "
            f"{digest[:12]} != {snapshot.digest[:12]}); the simulation was "
            "likely built from a different model or configuration; first "
            f"differences: {preview}"
        )
