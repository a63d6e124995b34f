"""When to checkpoint: every N dispatched kernel events.

The policy is derived from the kernel's *cumulative* dispatch count
rather than from wall time or per-run counters, so a resumed run takes its
remaining checkpoints at exactly the instants the uninterrupted run would
have — a requirement for byte-identical replay when checkpoint instants
leave marks in the trace.
"""

from __future__ import annotations

from repro.errors import CheckpointError


class EveryEvents:
    """Checkpoint every ``events`` dispatched kernel events.

    Stateless: due whenever the lifetime dispatch count hits a multiple
    of the stride, which makes it trivially resume-invariant."""

    def __init__(self, events: int) -> None:
        if events <= 0:
            raise CheckpointError(
                f"checkpoint stride must be positive, got {events}"
            )
        self.events = events

    def due(self, now_ps: int, dispatched: int) -> bool:
        """Due at every multiple of the stride (lifetime dispatch count)."""
        return dispatched % self.events == 0
