"""Parallel candidate-evaluation engine for design-space exploration.

The paper's Figure 2 loop — simulate, profile, regroup, remap — needs
*many* simulations, and the discrete-event simulator is pure-Python CPU
work, so candidates fan out over ``multiprocessing`` **worker processes**
(threads would serialise on the GIL).  Each candidate is a picklable
:class:`CandidateSpec`; live UML objects never cross the process
boundary.  Every process re-maps its cached design view of the spec's
system (:func:`~repro.exploration.spec.build_system`) instead of
rebuilding it, and a forked worker starts with its parent's view.

Dispatch is fault-tolerant: the campaign supervisor
(:mod:`repro.exploration.supervisor`) owns the worker processes, and each
worker serves candidates until it dies, so the fork is paid once per
worker, not once per candidate.  A hung worker is killed at its
wall-clock timeout, a crashed worker (SIGKILL, OOM) is detected through
its closed pipe, either is replaced only when another worker is needed,
failed candidates are retried with seeded exponential backoff and a
poison candidate is quarantined after a bounded failure budget instead
of aborting the sweep.

Determinism contract: the simulator is seeded and bit-reproducible, every
candidate is evaluated independently, and :meth:`ExplorationRun.ranking`
sorts by the stable key ``(cost, spec canonical JSON)`` — so the ranking
(and every :meth:`EvaluationResult.stable_hash`) is identical for
``workers=0``, ``workers=1`` and ``workers=N``, warm or cold cache, with
or without infrastructure faults along the way (a retried candidate
re-simulates — or checkpoint-resumes — to the byte-identical result).
``workers=0`` evaluates serially in-process (no pool at all), through
the supervisor's one dispatch loop; it is the fallback for determinism
debugging and for builders that cannot be imported by name.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExplorationError
from repro.exploration.cache import ResultCache
from repro.exploration.objectives import EvaluationResult, encoding_hash, evaluate
from repro.exploration.pruning import PruneConfig, PrunedRecord, prune_candidates
from repro.exploration.spec import CandidateSpec, build_system, design_view
from repro.exploration.supervisor import (
    FailureRecord,
    QuarantineRecord,
    Supervisor,
    SupervisorConfig,
    SupervisorStats,
)
from repro.exploration.workerfaults import WorkerFaultPlan

#: ``progress`` callbacks receive ``(outcome, done, total)``.
ProgressCallback = Callable[["CandidateOutcome", int, int], None]


@dataclass
class CandidateOutcome:
    """One evaluated (or cache-served) candidate, with its timing record."""

    index: int                    # position in the submitted spec sequence
    spec: CandidateSpec
    result: EvaluationResult
    elapsed_s: float              # this run's wall-time (0.0 for cache hits)
    cached: bool = False
    attempts: int = 1             # evaluation attempts this run (1 = clean)
    # the candidate's slice of the campaign failure ledger: one record per
    # failed attempt that preceded this result.  Deliberately *not* part
    # of EvaluationResult — the result hash describes the design point,
    # which is identical however bumpy the road to it was.
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def cost(self) -> float:
        return self.result.cost()

    def to_json_dict(self) -> Dict[str, object]:
        encoding = self.result.to_dict()
        return {
            "index": self.index,
            "label": self.spec.label,
            "spec": self.spec.to_json_dict(),
            "digest": self.spec.digest(),
            "cost": self.cost,
            "result": encoding,
            "result_hash": encoding_hash(encoding),
            "elapsed_s": self.elapsed_s,
            "cached": self.cached,
            "attempts": self.attempts,
            "failures": [record.to_json_dict() for record in self.failures],
        }


@dataclass
class ExplorationRun:
    """All outcomes of one engine invocation, in submission order."""

    outcomes: List[CandidateOutcome]
    workers: int
    wall_s: float
    supervisor_stats: SupervisorStats  # the campaign ledger's totals
    cache_dir: Optional[str] = None
    # campaign failure ledger: every failed attempt, in the order the
    # supervisor recorded them, plus the candidates given up on
    failures: List[FailureRecord] = field(default_factory=list)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    # static-pruning ledger: candidates skipped before any simulation,
    # in submission order (empty when pruning was off)
    pruned: List[PrunedRecord] = field(default_factory=list)
    prune_margin: Optional[float] = None

    @property
    def evaluated(self) -> int:
        """Candidates actually simulated (cache hits excluded)."""
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def ranking(self) -> List[CandidateOutcome]:
        """Outcomes sorted best-first by the stable key (cost, spec JSON)."""
        return sorted(
            self.outcomes, key=lambda o: (o.cost, o.spec.sort_key())
        )

    @property
    def candidates_submitted(self) -> int:
        """Every submitted candidate: evaluated, cached, pruned or quarantined."""
        return len(self.outcomes) + len(self.pruned) + len(self.quarantined)

    def supervisor_counters(self) -> Dict[str, int]:
        """Retry/timeout/crash/quarantine counters (all zero when clean).

        This is the dict surfaced as the ``supervisor`` block of
        ``repro explore --format json`` and of the flow's
        ``exploration.json``.
        """
        return self.supervisor_stats.counters()

    def to_json_dict(self, top: Optional[int] = None) -> Dict[str, object]:
        ranking = self.ranking()
        shown = ranking if top is None else ranking[:top]
        return {
            "workers": self.workers,
            "wall_s": self.wall_s,
            "candidates_submitted": self.candidates_submitted,
            "candidates_total": len(self.outcomes),
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "cache_dir": self.cache_dir,
            # candidates skipped by the static estimator, before dispatch
            "pruned": {
                "count": len(self.pruned),
                "margin": self.prune_margin,
                "records": [record.to_json_dict() for record in self.pruned],
            },
            "ranking": [
                dict(outcome.to_json_dict(), rank=rank + 1)
                for rank, outcome in enumerate(shown)
            ],
            # per-candidate timing records, in submission order
            "records": [
                {
                    "index": outcome.index,
                    "label": outcome.spec.label,
                    "elapsed_s": outcome.elapsed_s,
                    "cached": outcome.cached,
                    "cost": outcome.cost,
                    "attempts": outcome.attempts,
                }
                for outcome in self.outcomes
            ],
            # the structured failure ledger (empty on a clean campaign)
            "supervisor": dict(
                self.supervisor_counters(),
                degraded_to_serial=self.supervisor_stats.degraded_to_serial,
                failures=[record.to_json_dict() for record in self.failures],
                quarantine=[
                    record.to_json_dict() for record in self.quarantined
                ],
            ),
        }


def evaluate_spec(
    spec: CandidateSpec, checkpointer=None
) -> EvaluationResult:
    """Evaluate one candidate (the worker-side entry point).

    The candidate runs on its re-mapped design view
    (:func:`~repro.exploration.spec.build_system`), with the machine
    tables the view keeps; its result equals that of a freshly built
    system.  With a :class:`repro.checkpoint.Checkpointer` the evaluation
    resumes from the latest snapshot under the checkpointer's tag (if any)
    and snapshots as it goes — see
    :func:`repro.exploration.objectives.evaluate`.
    """
    application, platform, mapping = build_system(spec)
    view = design_view(spec.builder, spec.grouping, spec.arq)
    return evaluate(
        application,
        platform,
        mapping,
        duration_us=spec.duration_us,
        faults=spec.faults,
        checkpointer=checkpointer,
        machine_tables=view.machine_tables,
    )


def _pool_context():
    # fork keeps already-imported modules (and sys.path) in the children;
    # fall back to the platform default where fork does not exist.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_candidates(
    specs: Sequence[CandidateSpec],
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_events: int = 5_000,
    interrupt_after_events: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    worker_faults: Optional[WorkerFaultPlan] = None,
    prune_static=None,
) -> ExplorationRun:
    """Evaluate every spec; cache hits are served without simulating.

    ``workers=0`` runs serially in-process; ``workers>=1`` fans the
    uncached candidates out over at most ``workers`` supervised worker
    processes, each serving candidates until it dies.  The
    returned outcomes are in submission order regardless of completion
    order; use :meth:`ExplorationRun.ranking` for the stable best-first
    view.

    ``prune_static`` enables the static pruning oracle
    (:mod:`repro.exploration.pruning`): ``True`` uses the default
    :class:`~repro.exploration.pruning.PruneConfig`, or pass one
    directly.  Candidates the mapping estimator proves infeasible or
    dominated are skipped before any dispatch and recorded in the run's
    ``pruned`` ledger.  Pruning is computed serially over the full spec
    list, so the ledger and the surviving candidate set are identical
    for every worker count.

    ``supervisor`` is the fault-tolerance policy
    (:class:`~repro.exploration.supervisor.SupervisorConfig`; None means
    the defaults: no timeout, 2 retries, so 3 attempts in all).  A
    candidate whose worker times out, crashes or raises is retried after
    a seeded exponential backoff (:func:`~repro.exploration.supervisor
    .backoff_s`) while other candidates run and, once its failure budget
    is spent, quarantined — the campaign completes without it, and every
    failed attempt is recorded in the run's ``failures``/``quarantined``
    ledger.
    ``worker_faults`` is the injectable infrastructure-fault harness
    (:class:`~repro.exploration.workerfaults.WorkerFaultPlan`) that makes
    all of the above deterministically testable.

    With ``checkpoint_dir`` each candidate snapshots its simulation every
    ``checkpoint_every_events`` dispatched events (tagged by the spec
    digest), and a re-submitted campaign *resumes*: finished candidates
    come out of the result cache, the in-flight candidate restores from
    its latest snapshot and continues — with the engine's determinism
    contract intact, the resumed campaign's ranking and result hashes are
    identical to an uninterrupted run's.  The same machinery makes
    retries cheap: a timed-out candidate's next attempt resumes from the
    snapshots the killed worker left behind.  Pair it with ``cache_dir``
    so completed candidates are not re-simulated (their snapshots are
    pruned once their result is cached).

    ``interrupt_after_events`` is the deterministic-interruption hook for
    tests and the CI resume-smoke job: a cumulative event budget across
    the (serial) campaign; when it runs out the engine takes a final
    snapshot and raises :class:`~repro.errors.SimulationInterrupted`.

    On ``KeyboardInterrupt`` (or a SIGTERM the caller translates) the
    engine terminates and joins every live worker before propagating —
    results already completed are in the cache, and no orphan child
    processes survive the campaign.
    """
    specs = list(specs)
    if workers < 0:
        raise ExplorationError(f"workers must be >= 0, got {workers}")
    config = supervisor if supervisor is not None else SupervisorConfig()
    if checkpoint_dir is not None:
        undigestable = [spec for spec in specs if spec.digest() is None]
        if undigestable:
            raise ExplorationError(
                "checkpointing needs builders importable by name "
                "('module:callable') so snapshots can be tagged; got a "
                "local/lambda builder — drop checkpoint_dir or move the "
                "builder to module scope"
            )
    if interrupt_after_events is not None:
        if checkpoint_dir is None:
            raise ExplorationError(
                "interrupt_after_events needs checkpoint_dir (the budget "
                "exists to exercise snapshot/resume)"
            )
        if workers >= 1:
            raise ExplorationError(
                "interrupt_after_events is a serial-mode (workers=0) "
                "facility; resume the interrupted campaign with any "
                "worker count afterwards"
            )
    prune_config: Optional[PruneConfig] = None
    if prune_static:
        prune_config = (
            prune_static
            if isinstance(prune_static, PruneConfig)
            else PruneConfig()
        )
    started = time.perf_counter()
    cache = ResultCache(cache_dir) if cache_dir else None
    outcomes: List[Optional[CandidateOutcome]] = [None] * len(specs)
    pruned_records: List[PrunedRecord] = []
    surviving = list(enumerate(specs))
    if prune_config is not None:
        kept, pruned_records, _ = prune_candidates(specs, prune_config)
        surviving = [(index, specs[index]) for index in kept]
    total = len(surviving)
    done = 0

    def finish(outcome: CandidateOutcome) -> None:
        nonlocal done
        outcomes[outcome.index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total)

    pending: List[Tuple[int, CandidateSpec]] = []
    for index, spec in surviving:
        hit = cache.load(spec) if cache is not None else None
        if hit is not None:
            result, _ = hit
            finish(CandidateOutcome(index, spec, result, 0.0, cached=True))
        else:
            pending.append((index, spec))

    def candidate_done(spec: CandidateSpec) -> None:
        # a cached result supersedes the candidate's snapshots: resuming
        # serves it from the cache, so the per-tag snapshots are pruned
        if cache is not None and checkpoint_dir is not None:
            from repro.checkpoint import CheckpointStore

            CheckpointStore(checkpoint_dir).prune(spec.digest())

    def on_success(index, result, elapsed, attempts, failures) -> None:
        if cache is not None:
            cache.store(specs[index], result, elapsed)
        candidate_done(specs[index])
        finish(
            CandidateOutcome(
                index,
                specs[index],
                result,
                elapsed,
                attempts=attempts,
                failures=list(failures),
            )
        )

    if workers >= 1 and any(spec.digest() is None for _, spec in pending):
        raise ExplorationError(
            "parallel evaluation needs builders importable by name "
            "('module:callable'); got a local/lambda builder — use "
            "workers=0 or move the builder to module scope"
        )
    boss = Supervisor(
        context=_pool_context() if workers >= 1 else None,
        workers=min(workers, len(pending)),
        config=config,
        worker_faults=worker_faults,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every_events=checkpoint_every_events,
        interrupt_after_events=interrupt_after_events,
    )
    boss.run(pending, on_success)

    return ExplorationRun(
        outcomes=[outcome for outcome in outcomes if outcome is not None],
        workers=workers,
        wall_s=time.perf_counter() - started,
        supervisor_stats=boss.stats,
        cache_dir=cache_dir,
        failures=boss.failures,
        quarantined=boss.quarantines,
        pruned=pruned_records,
        prune_margin=prune_config.margin if prune_config is not None else None,
    )
