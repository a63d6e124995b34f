"""Mapping exploration: search over group→PE assignments.

The paper maps manually ("the designer prefers the processes of the two
process groups to be implemented on the same processor") and uses the
profiling report to improve the mapping.  This module automates both
moves: exhaustive search for small platforms, and a profiling-guided
improvement loop that co-locates the hottest communicating groups.

Both searches run on the candidate-evaluation engine
(:mod:`repro.exploration.engine`): pass ``workers=N`` to fan simulations
out over a process pool and ``cache_dir=`` to skip already-evaluated
design points; ``workers=0`` (the default) is the serial in-process
fallback, which produces the identical ranking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ExplorationError, MappingError
from repro.application.model import ApplicationModel
from repro.mapping.model import MappingRelation
from repro.platform.model import PlatformModel
from repro.exploration.engine import ProgressCallback, run_candidates
from repro.exploration.objectives import EvaluationResult
from repro.exploration.spec import CandidateSpec, builder_ref, design_view


@dataclass
class MappingCandidate:
    """One evaluated assignment."""

    assignment: Dict[str, str]
    result: EvaluationResult

    @property
    def cost(self) -> float:
        return self.result.cost()


#: A factory builds a fresh (application, platform) pair per call; the
#: engine calls it once per design view (:func:`~repro.exploration.spec
#: .design_view`) and re-maps that view per candidate.  It may be a
#: callable or a ``"module:callable"`` dotted path (required for parallel
#: evaluation and result caching).
ApplicationFactory = Union[
    str, Callable[[], Tuple[ApplicationModel, PlatformModel]]
]


def enumerate_assignments(
    application: ApplicationModel, platform: PlatformModel
) -> List[Dict[str, str]]:
    """Every assignment of the groups that need a PE to one they may run on."""
    relation = MappingRelation.of(application)
    groups = relation.required
    domains = [relation.pes_for(platform, group) for group in groups]
    for group, domain in zip(groups, domains):
        if not domain:
            raise MappingError(f"group {group!r} fits no platform PE")
    return [dict(zip(groups, pes)) for pes in itertools.product(*domains)]


def _spec_builder(factory: ApplicationFactory):
    """The spec-storable form of a factory: its dotted path if it has one."""
    reference = builder_ref(factory)
    return reference if reference is not None else factory


def mapping_sweep_specs(
    factory: ApplicationFactory,
    duration_us: int = 20_000,
    limit: Optional[int] = None,
) -> List[CandidateSpec]:
    """Candidate specs for the exhaustive sweep (one per assignment)."""
    view = design_view(factory)
    assignments = enumerate_assignments(view.application, view.platform)
    if limit is not None:
        assignments = assignments[:limit]
    builder = _spec_builder(factory)
    return [
        CandidateSpec.make(
            builder,
            assignment,
            duration_us=duration_us,
            label=",".join(f"{g}->{pe}" for g, pe in sorted(assignment.items())),
        )
        for assignment in assignments
    ]


def exhaustive_search(
    factory: ApplicationFactory,
    duration_us: int = 20_000,
    limit: Optional[int] = None,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    supervisor=None,
) -> List[MappingCandidate]:
    """Evaluate every assignment; returns candidates sorted by cost.

    The ranking is deterministic — same factory and horizon give the
    identical order for any ``workers`` value, warm or cold cache.
    ``supervisor`` is an optional :class:`~repro.exploration.supervisor
    .SupervisorConfig` fault-tolerance policy for the underlying engine.
    """
    specs = mapping_sweep_specs(factory, duration_us=duration_us, limit=limit)
    run = run_candidates(
        specs,
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
        supervisor=supervisor,
    )
    return [
        MappingCandidate(outcome.spec.mapping_dict, outcome.result)
        for outcome in run.ranking()
    ]


def improvement_loop(
    factory: ApplicationFactory,
    initial_assignment: Dict[str, str],
    duration_us: int = 20_000,
    max_iterations: int = 8,
    cache_dir: Optional[str] = None,
    runs_out: Optional[list] = None,
) -> List[MappingCandidate]:
    """The paper's profile→improve loop.

    Each iteration simulates the current mapping, finds the pair of groups
    with the most signals crossing PEs, and tries to co-locate them (moving
    the lighter group), keeping the move only if the cost improves.
    Returns the history of accepted candidates (first = initial design).

    With ``cache_dir`` the neighbourhood search skips design points a
    previous run (or the exhaustive sweep) already evaluated.  Pass a
    list as ``runs_out`` to receive every underlying
    :class:`~repro.exploration.engine.ExplorationRun` (for the campaign
    failure ledger and supervisor counters).
    """
    history: List[MappingCandidate] = []
    current = dict(initial_assignment)
    builder = _spec_builder(factory)

    def run(assignment: Dict[str, str]) -> MappingCandidate:
        # one candidate per iteration: a pool would only add fork overhead,
        # so the engine is used serially here — the win is the cache
        spec = CandidateSpec.make(builder, assignment, duration_us=duration_us)
        # a mapping the platform rejects raises MappingError here, on the
        # design view the engine would re-map, before any engine run
        design_view(spec.builder).remap(spec.mapping)
        engine_run = run_candidates([spec], workers=0, cache_dir=cache_dir)
        if runs_out is not None:
            runs_out.append(engine_run)
        if not engine_run.outcomes:
            # the supervisor quarantined it; its ledger says why
            detail = engine_run.failures[-1].detail
            raise ExplorationError(f"assignment {assignment} cannot run: {detail}")
        return MappingCandidate(dict(assignment), engine_run.outcomes[0].result)

    candidate = run(current)
    history.append(candidate)
    for _ in range(max_iterations):
        move = _best_colocation_move(candidate, current)
        if move is None:
            break
        group_name, target_pe = move
        trial_assignment = dict(current)
        trial_assignment[group_name] = target_pe
        # mapping must stay type-compatible; run() raises otherwise
        try:
            trial = run(trial_assignment)
        except MappingError:
            break
        if trial.cost < candidate.cost:
            current = trial_assignment
            candidate = trial
            history.append(trial)
        else:
            break
    return history


def _best_colocation_move(
    candidate: MappingCandidate, assignment: Dict[str, str]
) -> Optional[Tuple[str, str]]:
    """The (group, target PE) move that co-locates the hottest split pair."""
    group_cycles = candidate.result.group_cycles
    best: Optional[Tuple[str, str]] = None
    # use group-level cycles as the 'weight' proxy: move the lighter group
    pairs = []
    for group_a, pe_a in assignment.items():
        for group_b, pe_b in assignment.items():
            if group_a >= group_b or pe_a == pe_b:
                continue
            pairs.append((group_a, group_b))
    if not pairs:
        return None
    # order by combined cycles, heaviest communication pairs first is ideal;
    # without per-pair bus bytes in the result we approximate with cycles
    pairs.sort(
        key=lambda p: -(group_cycles.get(p[0], 0) + group_cycles.get(p[1], 0))
    )
    for group_a, group_b in pairs:
        lighter, heavier = sorted(
            (group_a, group_b), key=lambda g: group_cycles.get(g, 0)
        )
        best = (lighter, assignment[heavier])
        break
    return best
