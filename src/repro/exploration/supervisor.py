"""Campaign supervisor: one fault-tolerant dispatch loop for every worker count.

``Pool.imap_unordered`` has no answer to an OOM-killed or wedged child —
one dead worker stalls the whole campaign.  The supervisor replaces the
pool with at most ``workers`` directly managed worker processes.  Each
worker serves one candidate attempt after another over its own pipe,
until it crashes, times out or is stopped, so the parent can

* enforce a **per-candidate wall-clock timeout** (kill the busy worker,
  retry the candidate; a new worker is started when one is needed),
* detect **crashed workers** (SIGKILL/exit-code death shows up as a
  closed pipe; only that worker is replaced),
* **retry with exponential backoff** and deterministic, seeded jitter
  (:func:`backoff_s`: reproducible campaign behaviour; the *results* are
  worker-count invariant regardless, because candidates are evaluated
  independently by a bit-reproducible simulator),
* **quarantine poison candidates** after a bounded failure budget (a
  ``MappingError`` at once), recording every attempt in a structured
  failure ledger instead of aborting the campaign, and
* **degrade to serial in-process execution** when worker processes can
  no longer be spawned at all (fork/spawn failure — the pool is
  irreparable, but the campaign still finishes).

:meth:`Supervisor.run` is the only dispatch loop and
:meth:`_Campaign.run_attempt` the only attempt body.  With ``workers=0``,
or once spawning has failed for good, the loop runs each attempt in this
process; a failed attempt waits out its backoff in the same queue
whatever ran it, so retry, quarantine and the interrupt budget exist
once for every worker count.

A retried candidate launched with ``checkpoint_dir`` resumes from its
latest snapshot (see :mod:`repro.checkpoint`), so a timeout kill does not
forfeit completed simulation work.  Failure semantics are documented in
``docs/exploration.md``.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExplorationError, MappingError, SimulationInterrupted
from repro.exploration.spec import CandidateSpec
from repro.exploration.workerfaults import (
    CRASH,
    HANG,
    WorkerFaultPlan,
    apply_worker_fault,
)
from repro.faults.plan import _hash_site, _mix64

#: Failure kinds recorded in the ledger.
FAILURE_TIMEOUT = "timeout"      # wall-clock deadline exceeded, worker killed
FAILURE_CRASH = "crash"          # worker died without reporting (e.g. SIGKILL)
FAILURE_ERROR = "error"          # the attempt raised an exception

#: The reason a quarantine record gives: the candidate used its attempts,
#: or raised a MappingError, which a retry of the same spec raises again.
QUARANTINE_FAILURE_BUDGET = "failure-budget"
QUARANTINE_MAPPING_ERROR = "mapping-error"

#: The ledger kind of an injected fault that raises instead of happening
#: for real (in-process, a crash or hang would take the campaign down):
#: the failure it stands in for.  Other injected faults are errors.
_INJECTED_KINDS = {CRASH: FAILURE_CRASH, HANG: FAILURE_TIMEOUT}

#: Backoff before the *n*-th retry: ``min(BACKOFF_MAX_S, BACKOFF_BASE_S *
#: BACKOFF_FACTOR**(n-1))`` plus a jitter in ``[0, BACKOFF_JITTER_S)``
#: drawn from ``(BACKOFF_SEED, candidate, attempt)`` (:func:`backoff_s`).
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0
BACKOFF_JITTER_S = 0.05
BACKOFF_SEED = 0

#: How often an idle worker checks that its supervisor is still alive.
_ORPHAN_CHECK_S = 1.0


def backoff_s(key: str, attempt: int) -> float:
    """Deterministic backoff before retrying ``key``'s ``attempt``-th try.

    ``key`` identifies the candidate (its digest, or its index as a
    string for unhashable specs); ``attempt`` is the 1-based attempt
    that just failed.  Reproducible: no wall-clock input.
    """
    base = min(BACKOFF_MAX_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1))
    draw = _mix64(_mix64(BACKOFF_SEED ^ 0x5EED5EED) ^ _hash_site(key) ^ attempt)
    return base + BACKOFF_JITTER_S * (draw / float(1 << 64))


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance policy for one campaign.

    ``timeout_s`` is the per-candidate wall-clock deadline (None disables
    it; serial in-process evaluation cannot preempt a running simulation,
    so the timeout only applies with ``workers >= 1``).  A failed
    candidate is retried once its :func:`backoff_s` has passed, until it
    has used up ``max_retries`` retries, that is ``max_retries + 1``
    attempts — then it is quarantined and the campaign continues without
    it.  A ``MappingError`` is never retried.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExplorationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ExplorationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


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
    reason: str   # QUARANTINE_FAILURE_BUDGET | QUARANTINE_MAPPING_ERROR

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


@dataclass(frozen=True)
class _Campaign:
    """What every attempt of one campaign shares; each worker gets a copy."""

    worker_faults: Optional[WorkerFaultPlan]
    checkpoint_dir: Optional[str]
    checkpoint_every_events: int

    def run_attempt(
        self,
        index: int,
        spec: CandidateSpec,
        attempt: int,
        in_worker: bool = False,
        interrupt_after_events: Optional[int] = None,
    ) -> Tuple[str, object, float, int, Optional[str]]:
        """Run one attempt at one candidate: the only attempt body.

        Returns ``("ok", result, elapsed_s, events, None)``, ``events``
        being the simulation events the checkpointer saw (0 without one),
        or ``(failure kind, "<exception type>: <message>", elapsed_s, 0,
        reason)``, ``reason`` quarantining a ``MappingError`` at once.
        An injected fault's kind comes from its mode
        (:data:`_INJECTED_KINDS`); any other exception is an error.
        ``SimulationInterrupted`` (the interrupt budget ran out) and
        ``KeyboardInterrupt`` propagate: neither is a worker fault.
        """
        # deferred: the engine imports this module at load time, and
        # evaluate_spec is looked up on it per call so it can be replaced
        from repro.exploration import engine

        started = time.perf_counter()
        faults = self.worker_faults
        mode = faults.mode_for(index, attempt) if faults is not None else None
        # the injected fault's own exception is ledgered by its mode, any
        # later one as an error
        kind = _INJECTED_KINDS.get(mode, FAILURE_ERROR)
        try:
            if mode is not None:
                apply_worker_fault(mode, faults, in_child=in_worker)
            kind = FAILURE_ERROR
            checkpointer = None
            if self.checkpoint_dir is not None:
                from repro.checkpoint import Checkpointer, CheckpointStore, EveryEvents

                checkpointer = Checkpointer(
                    CheckpointStore(self.checkpoint_dir),
                    EveryEvents(self.checkpoint_every_events),
                    tag=spec.digest(),
                    interrupt_after_events=interrupt_after_events,
                )
            result = engine.evaluate_spec(spec, checkpointer=checkpointer)
        except (SimulationInterrupted, KeyboardInterrupt):
            raise
        except Exception as exc:  # noqa: BLE001 — attempt failures are ledgered
            detail = f"{type(exc).__name__}: {exc}"
            reason = QUARANTINE_MAPPING_ERROR if isinstance(exc, MappingError) else None
            return kind, detail, time.perf_counter() - started, 0, reason
        events = checkpointer.events_seen if checkpointer is not None else 0
        return "ok", result, time.perf_counter() - started, events, None


def _worker_main(conn, campaign: _Campaign) -> None:
    """Worker-process entry point: serve attempts until told to stop.

    A request is ``(index, spec, attempt)`` and its reply the attempt's
    tuple; ``None`` asks the worker to exit.  A worker that dies
    mid-attempt (an injected crash, a real SIGKILL) is seen by the
    parent as a closed pipe.
    """
    # The parent kills a busy worker with SIGTERM; a SIGTERM handler
    # inherited through fork (``repro explore`` installs one) would turn
    # that into a traceback.  A terminal's Ctrl-C is the parent's to handle.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Keep the collector off the heap inherited from the parent: a full
    # collection would write to every inherited object and so copy the
    # whole heap page by page (copy-on-write).
    gc.freeze()
    parent = os.getppid()
    while True:
        if not conn.poll(_ORPHAN_CHECK_S):
            if os.getppid() != parent:
                return                  # the supervisor died without a stop
            continue
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        conn.send(campaign.run_attempt(*request, in_worker=True))


class _Worker:
    """One live worker process, its pipe end and the task it is serving."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None   # None while idle
        self.started = 0.0                  # monotonic start of the attempt
        self.deadline: Optional[float] = None


class Supervisor:
    """Drives one campaign's dispatch with fault tolerance.

    The engine hands over the uncached ``(index, spec)`` pairs and an
    ``on_success(index, result, elapsed_s, attempts, failures)``
    callback; the supervisor owns worker lifecycle, deadlines, retries,
    quarantine and the interrupt budget, and leaves its ledger in
    :attr:`failures`, :attr:`quarantines` and :attr:`stats`.  With
    ``workers=0`` every attempt runs in-process through the same loop.
    ``finally``-guarded cleanup stops every worker on any exit path — a
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
        self.campaign = _Campaign(
            worker_faults, checkpoint_dir, checkpoint_every_events
        )
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
        workers: List[_Worker] = []
        try:
            while ready or delayed or any(w.task is not None for w in workers):
                now = time.monotonic()
                # promote tasks whose backoff has elapsed
                ready.extend(task for task in delayed if task.not_before <= now)
                delayed[:] = [task for task in delayed if task.not_before > now]

                if ready and (self.in_process or self.stats.degraded_to_serial):
                    task = ready.popleft()
                    budget = self.interrupt_budget
                    reply = self.campaign.run_attempt(
                        task.index,
                        task.spec,
                        task.attempt,
                        interrupt_after_events=(
                            max(1, budget) if budget is not None else None
                        ),
                    )
                    self._settle(task, reply, on_success, delayed)
                    continue

                # hand ready tasks to idle workers, starting them on demand
                while ready:
                    worker = next((w for w in workers if w.task is None), None)
                    if worker is None and len(workers) < self.workers:
                        worker = self._spawn()
                        if worker is not None:
                            workers.append(worker)
                    if worker is None:
                        break
                    self._assign(worker, ready.popleft())

                busy = [w for w in workers if w.task is not None]
                if busy:
                    self._wait(busy, workers, delayed, on_success)
                elif delayed and not ready:
                    next_due = min(task.not_before for task in delayed)
                    time.sleep(max(0.0, next_due - time.monotonic()))
        finally:
            self._stop(workers)
        return self.stats

    def _wait(self, busy, workers, delayed, on_success) -> None:
        """Wait for a reply, a death, a deadline or a backoff expiry."""
        horizons = [w.deadline for w in busy if w.deadline is not None]
        horizons += [task.not_before for task in delayed]
        timeout = (
            max(0.0, min(horizons) - time.monotonic()) if horizons else None
        )
        for conn in _connection_wait([w.conn for w in busy], timeout=timeout):
            worker = next(w for w in busy if w.conn is conn)
            self._collect(worker, workers, delayed, on_success)
        # enforce wall-clock deadlines on whatever is still running
        now = time.monotonic()
        for worker in busy:
            if (
                worker.task is not None
                and worker.deadline is not None
                and worker.deadline <= now
            ):
                self._timeout(worker, workers, delayed, on_success)

    def _settle(self, task: _Task, reply, on_success, delayed) -> None:
        """Act on one attempt's reply: report the result or ledger it."""
        kind, payload, elapsed, events, reason = reply
        if kind != "ok":
            self._failed(task, kind, payload, elapsed, delayed, reason=reason)
            return
        if self.interrupt_budget is not None:
            self.interrupt_budget -= events
        on_success(task.index, payload, elapsed, task.attempt, task.failures)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self) -> Optional[_Worker]:
        """Start one worker; on repeated spawn failure degrade to serial."""
        conn, worker_end = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=_worker_main, args=(worker_end, self.campaign), daemon=True
        )
        try:
            process.start()
        except OSError:
            conn.close()
            worker_end.close()
            self.stats.spawn_failures += 1
            if self.stats.spawn_failures >= 2:
                # the pool is irreparable: finish the campaign in-process
                self.stats.degraded_to_serial = True
            return None
        # close the parent's copy of the worker's end *immediately*: workers
        # forked later must not inherit it, or this worker's death would
        # never read as EOF
        worker_end.close()
        self.stats.spawned_pids.append(process.pid)
        return _Worker(process, conn)

    def _assign(self, worker: _Worker, task: _Task) -> None:
        """Send one attempt to an idle worker and start its clock."""
        try:
            worker.conn.send((task.index, task.spec, task.attempt))
        except OSError:
            pass                        # a dead worker reads as EOF next
        worker.task = task
        worker.started = time.monotonic()
        if self.config.timeout_s is not None:
            worker.deadline = worker.started + self.config.timeout_s

    def _collect(self, worker: _Worker, workers, delayed, on_success) -> None:
        """Handle a readable pipe: a reply, or the worker's death."""
        task, worker.task = worker.task, None
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            workers.remove(worker)
            self._join(worker)
            exitcode = worker.process.exitcode
            self._failed(
                task,
                FAILURE_CRASH,
                f"worker died without reporting (exit code {exitcode})",
                time.monotonic() - worker.started,
                delayed,
                exitcode=exitcode,
            )
            return
        self._settle(task, reply, on_success, delayed)

    def _timeout(self, worker: _Worker, workers, delayed, on_success) -> None:
        """Kill a worker that blew its deadline — unless it just finished."""
        if worker.conn.poll():
            # the reply arrived between the wait and the deadline check
            self._collect(worker, workers, delayed, on_success)
            return
        workers.remove(worker)
        worker.process.terminate()
        self._join(worker)
        self._failed(
            worker.task,
            FAILURE_TIMEOUT,
            f"exceeded {self.config.timeout_s}s wall-clock timeout",
            time.monotonic() - worker.started,
            delayed,
            exitcode=worker.process.exitcode,
        )

    def _stop(self, workers: List[_Worker]) -> None:
        """Stop and join every worker (no orphans on any exit path).

        An idle worker is asked to exit: closing the pipe is not enough,
        because workers forked later hold a copy of its parent end.
        """
        for worker in workers:
            if worker.task is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
            else:
                worker.process.terminate()
        for worker in workers:
            self._join(worker)
        workers.clear()

    @staticmethod
    def _join(worker: _Worker) -> None:
        """Wait for a stopping worker, killing it if it lingers."""
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        worker.conn.close()

    # ------------------------------------------------------------------
    # failure bookkeeping
    # ------------------------------------------------------------------

    def _failed(
        self,
        task: _Task,
        kind: str,
        detail: str,
        elapsed_s: float,
        delayed: List[_Task],
        exitcode: Optional[int] = None,
        reason: Optional[str] = None,
    ) -> None:
        """Record one failure; queue a retry on ``delayed`` or quarantine.

        A retry waits out its backoff: ``not_before`` is set to its end.
        A quarantine ``reason`` quarantines the candidate at once.
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
        if reason is not None or task.attempt > self.config.max_retries:
            self.quarantines.append(
                QuarantineRecord(
                    index=task.index,
                    label=task.spec.label,
                    digest=task.spec.digest(),
                    failures=len(task.failures),
                    reason=reason or QUARANTINE_FAILURE_BUDGET,
                )
            )
            self.stats.quarantined += 1
            return
        record.backoff_s = backoff_s(task.key(), task.attempt)
        task.attempt += 1
        task.not_before = time.monotonic() + record.backoff_s
        self.stats.retries += 1
        delayed.append(task)
