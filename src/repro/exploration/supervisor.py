"""Campaign supervisor: fault-tolerant dispatch of exploration workers.

``Pool.imap_unordered`` has no answer to an OOM-killed or wedged child —
one dead worker stalls the whole campaign.  The supervisor replaces the
pool with directly managed worker processes, one per in-flight
candidate, each reporting over its own pipe, so the parent can

* enforce a **per-candidate wall-clock timeout** (kill the worker,
  reclaim the slot, retry the candidate),
* detect **crashed workers** (SIGKILL/exit-code death shows up as a
  closed pipe; the slot is simply refilled — "pool repair" is free when
  every candidate gets a fresh process),
* **retry with exponential backoff** and deterministic, seeded jitter
  (reproducible campaign behaviour; the *results* are worker-count
  invariant regardless, because candidates are evaluated independently
  by a bit-reproducible simulator),
* **quarantine poison candidates** after a bounded failure budget,
  recording every attempt in a structured failure ledger instead of
  aborting the campaign, and
* **degrade to serial in-process execution** when worker processes can
  no longer be spawned at all (fork/spawn failure — the pool is
  irreparable, but the campaign still finishes).

With ``workers=0`` the supervisor runs every candidate in-process
through that same serial loop, so retry, quarantine and the interrupt
budget exist once for every worker count.

A retried candidate launched with ``checkpoint_dir`` resumes from its
latest snapshot (see :mod:`repro.checkpoint`), so a timeout kill does not
forfeit completed simulation work.  Failure semantics are documented in
``docs/exploration.md``.
"""

from __future__ import annotations

import gc
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExplorationError, SimulationInterrupted, WorkerFaultError
from repro.exploration.spec import CandidateSpec
from repro.exploration.workerfaults import WorkerFaultPlan, apply_worker_fault
from repro.faults.plan import _hash_site, _mix64

#: Failure kinds recorded in the ledger.
FAILURE_TIMEOUT = "timeout"      # wall-clock deadline exceeded, worker killed
FAILURE_CRASH = "crash"          # worker died without reporting (e.g. SIGKILL)
FAILURE_ERROR = "error"          # worker reported an exception

#: The reason a quarantine record gives: the candidate used its attempts.
QUARANTINE_FAILURE_BUDGET = "failure-budget"


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance policy for one campaign.

    ``timeout_s`` is the per-candidate wall-clock deadline (None disables
    it; serial in-process evaluation cannot preempt a running simulation,
    so the timeout only applies with ``workers >= 1``).  A candidate is
    retried after a failure until it has used up ``max_retries`` retries,
    that is ``max_retries + 1`` attempts — then it is quarantined and the
    campaign continues without it.
    Backoff before the *n*-th retry is
    ``min(backoff_max_s, backoff_base_s * backoff_factor**(n-1))`` plus a
    deterministic jitter in ``[0, backoff_jitter_s)`` derived from
    ``(seed, candidate, attempt)`` — reproducible, no wall-clock input.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    backoff_jitter_s: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExplorationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ExplorationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_jitter_s < 0:
            raise ExplorationError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ExplorationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retrying ``key``'s ``attempt``-th try.

        ``key`` identifies the candidate (its digest, or its index as a
        string for unhashable specs); ``attempt`` is the 1-based attempt
        that just failed.
        """
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        draw = _mix64(
            _mix64(self.seed ^ 0x5EED5EED) ^ _hash_site(key) ^ attempt
        )
        return base + self.backoff_jitter_s * (draw / float(1 << 64))


@dataclass
class FailureRecord:
    """One failed attempt at one candidate — a ledger line.

    The ledger lives on the campaign output (:class:`CandidateOutcome`
    and ``ExplorationRun``), **not** inside
    :class:`~repro.exploration.objectives.EvaluationResult`: the result
    and its stable hash describe the simulated design point, which is
    byte-identical however many infrastructure faults the evaluation
    survived on the way.
    """

    index: int                    # candidate's submission index
    label: str
    digest: Optional[str]
    attempt: int                  # 1-based attempt that failed
    kind: str                     # FAILURE_TIMEOUT | FAILURE_CRASH | FAILURE_ERROR
    detail: str
    elapsed_s: float              # wall-time the attempt burned
    backoff_s: float = 0.0        # delay before the retry (0.0 if none follows)
    exitcode: Optional[int] = None  # worker exit code (crash failures)

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON encoding for campaign summaries and artefacts."""
        return {
            "index": self.index,
            "label": self.label,
            "digest": self.digest,
            "attempt": self.attempt,
            "kind": self.kind,
            "detail": self.detail,
            "elapsed_s": self.elapsed_s,
            "backoff_s": self.backoff_s,
            "exitcode": self.exitcode,
        }


@dataclass
class QuarantineRecord:
    """One candidate the campaign gave up on (with its failure count)."""

    index: int
    label: str
    digest: Optional[str]
    failures: int
    reason: str   # QUARANTINE_FAILURE_BUDGET

    def to_json_dict(self) -> Dict[str, object]:
        """Plain-JSON encoding for campaign summaries and artefacts."""
        return {
            "index": self.index,
            "label": self.label,
            "digest": self.digest,
            "failures": self.failures,
            "reason": self.reason,
        }


@dataclass
class SupervisorStats:
    """Campaign-level fault-tolerance counters (the ledger's totals)."""

    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    retries: int = 0
    quarantined: int = 0
    spawn_failures: int = 0
    degraded_to_serial: bool = False
    #: PIDs of every worker process started (for orphan-reaping tests).
    spawned_pids: List[int] = field(default_factory=list)

    def counters(self) -> Dict[str, int]:
        """The counter dict the explore JSON and ``exploration.json`` carry."""
        return {
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "retries": self.retries,
            "quarantined": self.quarantined,
        }

    def note(self, kind: str) -> None:
        """Count one failure of ``kind``."""
        if kind == FAILURE_TIMEOUT:
            self.timeouts += 1
        elif kind == FAILURE_CRASH:
            self.crashes += 1
        else:
            self.errors += 1


@dataclass
class _Task:
    """One candidate's dispatch state inside the supervisor."""

    index: int
    spec: CandidateSpec
    attempt: int = 1
    not_before: float = 0.0       # monotonic instant the next attempt may start
    failures: List[FailureRecord] = field(default_factory=list)

    def key(self) -> str:
        digest = self.spec.digest()
        return digest if digest is not None else f"index:{self.index}"


class _InFlight:
    """One live worker process and its reporting pipe."""

    def __init__(self, task, process, conn, deadline) -> None:
        self.task = task
        self.process = process
        self.conn = conn
        self.deadline = deadline  # monotonic instant, or None
        self.started = time.monotonic()


def _child_main(send_conn, payload) -> None:
    """Worker-process entry point: evaluate one candidate, report by pipe.

    Reports ``("ok", result_dict, elapsed_s)`` or ``("error", detail,
    elapsed_s)``; a worker that dies without reporting (injected crash,
    real SIGKILL) is detected by the parent through the closed pipe.
    """
    # Keep the collector off the heap inherited from the parent: a full
    # collection here would write to every inherited object and so copy the
    # whole heap page by page (copy-on-write) before the candidate runs.
    gc.freeze()
    index, spec, checkpoint_dir, every_events, fault_plan, fault_mode = payload
    started = time.perf_counter()
    try:
        if fault_mode is not None:
            apply_worker_fault(fault_mode, fault_plan, in_child=True)
        # deferred import: keeps supervisor importable without the engine
        # (the engine imports this module at load time)
        from repro.exploration.engine import _make_checkpointer, evaluate_spec

        checkpointer = _make_checkpointer(spec, checkpoint_dir, every_events)
        result = evaluate_spec(spec, checkpointer=checkpointer)
        send_conn.send(
            ("ok", result.to_dict(), time.perf_counter() - started)
        )
    except BaseException as exc:  # noqa: BLE001 — anything must be reported
        try:
            send_conn.send(
                (
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - started,
                )
            )
        except (OSError, ValueError):
            pass
        finally:
            send_conn.close()
            os._exit(1)
    send_conn.close()


class Supervisor:
    """Drives one campaign's dispatch with fault tolerance.

    The engine hands over the uncached ``(index, spec)`` pairs and an
    ``on_success(index, result, elapsed_s, attempts, failures)``
    callback; the supervisor owns worker lifecycle, deadlines, retries,
    quarantine and the interrupt budget, and leaves its ledger in
    :attr:`failures`, :attr:`quarantines` and :attr:`stats`.  With
    ``workers=0`` every candidate runs in-process through the same retry
    loop that serial degradation uses.  ``finally``-guarded cleanup
    terminates every live worker on any exit path — a
    ``KeyboardInterrupt`` mid-campaign leaves no orphan processes behind.
    """

    def __init__(
        self,
        context,
        workers: int,
        config: SupervisorConfig,
        worker_faults: Optional[WorkerFaultPlan] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every_events: int = 5_000,
        interrupt_after_events: Optional[int] = None,
    ) -> None:
        self.context = context
        # workers=0 evaluates every candidate in-process, one at a time
        self.in_process = workers == 0
        self.workers = max(1, workers)
        self.config = config
        self.worker_faults = worker_faults
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every_events = checkpoint_every_events
        # events left before the in-process campaign is interrupted
        # (None: no budget); debited by each successful evaluation
        self.interrupt_budget = interrupt_after_events
        self.failures: List[FailureRecord] = []
        self.quarantines: List[QuarantineRecord] = []
        self.stats = SupervisorStats()

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------

    def run(
        self,
        pending: Sequence[Tuple[int, CandidateSpec]],
        on_success: Callable,
    ) -> SupervisorStats:
        """Evaluate every pending candidate; returns the stats ledger."""
        ready = deque(
            _Task(index=index, spec=spec) for index, spec in pending
        )
        delayed: List[_Task] = []       # tasks waiting out a backoff
        inflight: List[_InFlight] = []
        try:
            while ready or delayed or inflight:
                now = time.monotonic()
                # promote tasks whose backoff has elapsed
                still_delayed = []
                for task in delayed:
                    if task.not_before <= now:
                        ready.append(task)
                    else:
                        still_delayed.append(task)
                delayed = still_delayed

                # fill free worker slots
                while ready and len(inflight) < self.workers:
                    task = ready.popleft()
                    if self.in_process or self.stats.degraded_to_serial:
                        self._run_in_process(task, on_success)
                        continue
                    flight = self._spawn(task)
                    if flight is None:          # spawn failed; task re-queued
                        ready.appendleft(task)
                        if self.stats.degraded_to_serial:
                            continue
                        break
                    inflight.append(flight)

                if not inflight:
                    if delayed:
                        next_due = min(t.not_before for t in delayed)
                        time.sleep(max(0.0, next_due - time.monotonic()))
                    continue

                # wait for a result, a death, a deadline or a backoff expiry
                timeout = self._wait_timeout(inflight, delayed)
                readable = _connection_wait(
                    [flight.conn for flight in inflight], timeout=timeout
                )
                for conn in readable:
                    flight = next(f for f in inflight if f.conn is conn)
                    inflight.remove(flight)
                    self._collect(flight, on_success, delayed)

                # enforce wall-clock deadlines on whatever is still running
                now = time.monotonic()
                for flight in [
                    f
                    for f in inflight
                    if f.deadline is not None and f.deadline <= now
                ]:
                    inflight.remove(flight)
                    self._timeout(flight, on_success, delayed)
        finally:
            self._reap(inflight)
        return self.stats

    def _wait_timeout(
        self, inflight: List[_InFlight], delayed: List[_Task]
    ) -> Optional[float]:
        """Sleep only until the next deadline or backoff expiry."""
        now = time.monotonic()
        horizons = [
            flight.deadline for flight in inflight if flight.deadline is not None
        ]
        horizons += [task.not_before for task in delayed]
        if not horizons:
            return None                      # block until a pipe is readable
        return max(0.0, min(horizons) - now)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, task: _Task) -> Optional[_InFlight]:
        """Start one worker; on repeated spawn failure degrade to serial."""
        fault_mode = (
            self.worker_faults.mode_for(task.index, task.attempt)
            if self.worker_faults is not None
            else None
        )
        payload = (
            task.index,
            task.spec,
            self.checkpoint_dir,
            self.checkpoint_every_events,
            self.worker_faults,
            fault_mode,
        )
        recv_conn, send_conn = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_child_main, args=(send_conn, payload), daemon=True
        )
        try:
            process.start()
        except OSError:
            recv_conn.close()
            send_conn.close()
            self.stats.spawn_failures += 1
            if self.stats.spawn_failures >= 2:
                # the pool is irreparable: finish the campaign in-process
                self.stats.degraded_to_serial = True
            return None
        # close the parent's copy of the write end *immediately*: workers
        # forked later must not inherit it, or a crashed sibling's pipe
        # would never read as EOF
        send_conn.close()
        self.stats.spawned_pids.append(process.pid)
        deadline = (
            time.monotonic() + self.config.timeout_s
            if self.config.timeout_s is not None
            else None
        )
        return _InFlight(task, process, recv_conn, deadline)

    def _collect(self, flight: _InFlight, on_success, delayed) -> None:
        """Handle a readable pipe: a result, an error report, or a death."""
        task = flight.task
        try:
            kind, payload, elapsed = flight.conn.recv()
        except (EOFError, OSError):
            flight.process.join()
            flight.conn.close()
            exitcode = flight.process.exitcode
            self._failed(
                task,
                FAILURE_CRASH,
                f"worker died without reporting (exit code {exitcode})",
                time.monotonic() - flight.started,
                delayed,
                exitcode=exitcode,
            )
            return
        flight.process.join()
        flight.conn.close()
        if kind == "ok":
            from repro.exploration.objectives import EvaluationResult

            on_success(
                task.index,
                EvaluationResult.from_dict(payload),
                elapsed,
                task.attempt,
                task.failures,
            )
        else:
            self._failed(task, FAILURE_ERROR, str(payload), elapsed, delayed)

    def _timeout(self, flight: _InFlight, on_success, delayed) -> None:
        """Kill a worker that blew its deadline — unless it just finished."""
        if flight.conn.poll():
            # the result arrived between the wait and the deadline check
            self._collect(flight, on_success, delayed)
            return
        process = flight.process
        process.terminate()
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join()
        flight.conn.close()
        self._failed(
            flight.task,
            FAILURE_TIMEOUT,
            f"exceeded {self.config.timeout_s}s wall-clock timeout",
            time.monotonic() - flight.started,
            delayed,
            exitcode=process.exitcode,
        )

    def _reap(self, inflight: List[_InFlight]) -> None:
        """Terminate and join every live worker (no orphans on any exit)."""
        for flight in inflight:
            if flight.process.is_alive():
                flight.process.terminate()
        for flight in inflight:
            flight.process.join(timeout=1.0)
            if flight.process.is_alive():
                flight.process.kill()
                flight.process.join()
            try:
                flight.conn.close()
            except OSError:
                pass
        inflight.clear()

    # ------------------------------------------------------------------
    # failure bookkeeping
    # ------------------------------------------------------------------

    def _failed(
        self,
        task: _Task,
        kind: str,
        detail: str,
        elapsed_s: float,
        delayed: Optional[List[_Task]] = None,
        exitcode: Optional[int] = None,
    ) -> str:
        """Record one failure; schedule a retry or quarantine the candidate.

        Returns the disposition: ``"retry"`` (the task was re-queued onto
        ``delayed`` when one was given, with ``not_before`` set to the end
        of its backoff) or ``"quarantined"``.
        """
        record = FailureRecord(
            index=task.index,
            label=task.spec.label,
            digest=task.spec.digest(),
            attempt=task.attempt,
            kind=kind,
            detail=detail,
            elapsed_s=elapsed_s,
            exitcode=exitcode,
        )
        task.failures.append(record)
        self.failures.append(record)
        self.stats.note(kind)
        if task.attempt > self.config.max_retries:
            self.quarantines.append(
                QuarantineRecord(
                    index=task.index,
                    label=task.spec.label,
                    digest=task.spec.digest(),
                    failures=len(task.failures),
                    reason=QUARANTINE_FAILURE_BUDGET,
                )
            )
            self.stats.quarantined += 1
            return "quarantined"
        record.backoff_s = self.config.backoff_s(task.key(), task.attempt)
        task.attempt += 1
        task.not_before = time.monotonic() + record.backoff_s
        self.stats.retries += 1
        if delayed is not None:
            delayed.append(task)
        return "retry"

    # ------------------------------------------------------------------
    # in-process evaluation (workers=0 and serial degradation)
    # ------------------------------------------------------------------

    def _run_in_process(self, task: _Task, on_success) -> None:
        """Evaluate one candidate in-process, retrying until it succeeds.

        Failures are ledgered and retried exactly as in a worker process,
        until the task is quarantined.  Backoffs are honoured by
        sleeping; wall-clock timeouts cannot preempt an in-process
        simulation and are skipped.  ``SimulationInterrupted`` (the
        interrupt budget ran out) and ``KeyboardInterrupt`` propagate —
        neither is a worker fault.
        """
        from repro.exploration.engine import _make_checkpointer, evaluate_spec

        while True:
            wait = task.not_before - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            budget = self.interrupt_budget
            started = time.perf_counter()
            try:
                fault_mode = (
                    self.worker_faults.mode_for(task.index, task.attempt)
                    if self.worker_faults is not None
                    else None
                )
                if fault_mode is not None:
                    apply_worker_fault(
                        fault_mode, self.worker_faults, in_child=False
                    )
                checkpointer = _make_checkpointer(
                    task.spec,
                    self.checkpoint_dir,
                    self.checkpoint_every_events,
                    interrupt_after_events=(
                        max(1, budget) if budget is not None else None
                    ),
                )
                result = evaluate_spec(task.spec, checkpointer=checkpointer)
            except (SimulationInterrupted, KeyboardInterrupt):
                raise
            except Exception as exc:  # noqa: BLE001 — worker failures are ledgered
                kind = FAILURE_ERROR
                if isinstance(exc, WorkerFaultError):
                    # simulated crash/hang injections surface as exceptions
                    # in-process; classify them by their injected nature so
                    # the ledger reads the same as the parallel campaign's
                    if "crash" in str(exc):
                        kind = FAILURE_CRASH
                    elif "hang" in str(exc):
                        kind = FAILURE_TIMEOUT
                disposition = self._failed(
                    task,
                    kind,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - started,
                )
                if disposition == "quarantined":
                    return
                continue
            elapsed = time.perf_counter() - started
            if budget is not None and checkpointer is not None:
                self.interrupt_budget = budget - checkpointer.events_seen
            on_success(task.index, result, elapsed, task.attempt, task.failures)
            return
