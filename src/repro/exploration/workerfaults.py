"""Injectable worker-fault harness for the campaign supervisor.

The fault-injection subsystem (:mod:`repro.faults`) makes the *simulated
system* fail on purpose; this module does the same for the *exploration
infrastructure*.  A :class:`WorkerFaultPlan` decides — deterministically,
per ``(candidate index, attempt)`` — whether a worker evaluating that
candidate crashes (SIGKILL-style death), hangs (sleeps past any
reasonable timeout), runs slow, or raises a transient error, so the
supervisor's timeout/retry/quarantine machinery is testable without ever
relying on a real OOM kill or a wedged host.

Design constraints mirror :mod:`repro.faults.plan`:

* **Deterministic.**  The schedule is an explicit per-candidate tuple of
  modes, consumed one per attempt; no randomness, no wall-clock input.
* **Zero-cost when disabled.**  ``worker_faults=None`` (the default
  everywhere) injects nothing and adds no per-candidate work.
* **Picklable.**  The plan crosses the process boundary by value: each
  worker gets it once, when it starts, and looks up the mode of every
  attempt it serves.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ExplorationError, WorkerFaultError

#: A worker dies abruptly (``os._exit``), as if OOM-killed: no exception,
#: no result message, just a closed pipe and a non-zero exit code.
CRASH = "crash"
#: A worker sleeps far past any sane deadline; only a supervisor
#: wall-clock timeout can reclaim its slot.
HANG = "hang"
#: A worker sleeps briefly before evaluating — finishes, but late.
SLOW = "slow"
#: A worker raises a transient :class:`WorkerFaultError` (a recoverable
#: in-process failure, e.g. a lost scratch file).
FLAKY = "flaky"
#: Shorthand for a candidate that fails on *every* attempt — the poison
#: candidate the quarantine exists for.
POISON = "poison"

WORKER_FAULT_MODES = (CRASH, HANG, SLOW, FLAKY, POISON)

#: Exit code of a crash-injected worker (mirrors a SIGKILL death's 137).
CRASH_EXIT_CODE = 137


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A deterministic schedule of infrastructure faults for one campaign.

    ``schedule`` maps a candidate's submission index to the tuple of
    fault modes its successive attempts hit: attempt 1 gets the first
    mode, attempt 2 the second, and attempts beyond the tuple succeed.
    A :data:`POISON` entry anywhere in the tuple makes *every* attempt
    fail (the candidate can only end up quarantined).

    ``hang_s`` and ``slow_s`` size the injected sleeps; a supervising
    parent is expected to kill a hung worker long before ``hang_s``
    elapses.
    """

    schedule: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    hang_s: float = 60.0
    slow_s: float = 0.2

    @staticmethod
    def make(
        schedule: Dict[int, Sequence[str]],
        hang_s: float = 60.0,
        slow_s: float = 0.2,
    ) -> "WorkerFaultPlan":
        """Build a plan from ``{index: [mode, ...]}`` (canonical order)."""
        entries = []
        for index, modes in sorted(schedule.items()):
            modes = tuple(modes)
            for mode in modes:
                if mode not in WORKER_FAULT_MODES:
                    raise ExplorationError(
                        f"unknown worker-fault mode {mode!r} "
                        f"(choose from {', '.join(WORKER_FAULT_MODES)})"
                    )
            entries.append((int(index), modes))
        return WorkerFaultPlan(
            schedule=tuple(entries), hang_s=hang_s, slow_s=slow_s
        )

    @property
    def enabled(self) -> bool:
        """False when the plan can never inject anything."""
        return bool(self.schedule)

    def mode_for(self, index: int, attempt: int) -> Optional[str]:
        """The fault mode for this ``(candidate, attempt)``, or None.

        ``attempt`` is 1-based.  Poisoned candidates fault on every
        attempt; other candidates consume their mode tuple one attempt at
        a time and succeed once it is exhausted.
        """
        for entry_index, modes in self.schedule:
            if entry_index != index:
                continue
            if POISON in modes:
                return POISON
            if 1 <= attempt <= len(modes):
                return modes[attempt - 1]
            return None
        return None


def apply_worker_fault(
    mode: str, plan: WorkerFaultPlan, in_child: bool
) -> None:
    """Trigger one injected fault at the top of a candidate evaluation.

    Inside a supervised worker process (``in_child=True``) the fault is
    *real*: :data:`CRASH` kills the worker abruptly and :data:`HANG`
    sleeps for ``plan.hang_s`` seconds, so the parent's crash detection
    and wall-clock timeout are exercised for real.  In-process (serial
    ``workers=0`` evaluation) a crash or hang would take the whole
    campaign down with it, so both degrade to a raised
    :class:`~repro.errors.WorkerFaultError`, which the supervisor ledgers
    by the injected mode — the retry/quarantine path is identical, only
    the delivery mechanism differs.
    """
    if mode == SLOW:
        time.sleep(plan.slow_s)
        return
    if mode == CRASH:
        if in_child:
            # no exception, no cleanup — indistinguishable from SIGKILL
            os._exit(CRASH_EXIT_CODE)
        raise WorkerFaultError("injected worker crash (simulated in-process)")
    if mode == HANG:
        if in_child:
            time.sleep(plan.hang_s)
            raise WorkerFaultError(
                f"injected hang outlived its {plan.hang_s}s sleep "
                "(no supervisor timeout reclaimed the worker)"
            )
        raise WorkerFaultError("injected worker hang (simulated in-process)")
    if mode in (FLAKY, POISON):
        raise WorkerFaultError(f"injected {mode} worker fault")
    raise ExplorationError(f"unknown worker-fault mode {mode!r}")


def parse_worker_faults(
    entries: Sequence[str], hang_s: float = 60.0, slow_s: float = 0.2
) -> Optional[WorkerFaultPlan]:
    """Parse CLI ``INDEX:MODE[:COUNT]`` entries into a plan (None if empty).

    ``COUNT`` repeats the mode over that many attempts (default 1), e.g.
    ``3:flaky:2`` makes candidate 3 fail its first two attempts and
    succeed on the third; ``0:crash`` crashes candidate 0's first attempt
    only; ``5:poison`` fails candidate 5 forever.
    """
    if not entries:
        return None
    schedule: Dict[int, list] = {}
    for entry in entries:
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ExplorationError(
                f"worker-fault entry {entry!r} is not INDEX:MODE[:COUNT]"
            )
        try:
            index = int(parts[0])
            count = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ExplorationError(
                f"worker-fault entry {entry!r} has a non-integer index/count"
            )
        mode = parts[1]
        if mode not in WORKER_FAULT_MODES:
            raise ExplorationError(
                f"worker-fault entry {entry!r}: unknown mode {mode!r} "
                f"(choose from {', '.join(WORKER_FAULT_MODES)})"
            )
        if count < 1:
            raise ExplorationError(
                f"worker-fault entry {entry!r}: count must be >= 1"
            )
        schedule.setdefault(index, []).extend([mode] * count)
    return WorkerFaultPlan.make(schedule, hang_s=hang_s, slow_s=slow_s)
