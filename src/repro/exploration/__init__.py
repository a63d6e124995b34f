"""Architecture exploration: grouping and mapping optimisation (paper §4.4).

The candidate-evaluation engine (:mod:`repro.exploration.engine`) fans
design points out over supervised worker processes with content-addressed
result caching and fault-tolerant dispatch (timeouts, retries with
backoff, poison-candidate quarantine — :mod:`repro.exploration
.supervisor`); the static pruning oracle
(:mod:`repro.exploration.pruning`) skips provably infeasible or
dominated candidates before simulating; see ``docs/exploration.md``.
"""

from repro.exploration.objectives import EvaluationResult, evaluate, summarize
from repro.exploration.cache import ResultCache
from repro.exploration.engine import (
    CandidateOutcome,
    ExplorationRun,
    evaluate_spec,
    run_candidates,
)
from repro.exploration.supervisor import (
    FailureRecord,
    QuarantineRecord,
    Supervisor,
    SupervisorConfig,
    SupervisorStats,
)
from repro.exploration.pruning import (
    DEFAULT_PRUNE_MARGIN,
    PruneConfig,
    PrunedRecord,
    prune_candidates,
    static_estimates,
)
from repro.exploration.workerfaults import (
    WORKER_FAULT_MODES,
    WorkerFaultPlan,
    parse_worker_faults,
)
from repro.exploration.spec import (
    CandidateSpec,
    build_system,
    builder_ref,
    resolve_builder,
)
from repro.exploration.grouping import (
    communication_minimizing_grouping,
    external_traffic,
    per_process_grouping,
    round_robin_grouping,
    single_group_grouping,
)
from repro.exploration.mapping import (
    MappingCandidate,
    enumerate_assignments,
    exhaustive_search,
    improvement_loop,
    mapping_sweep_specs,
)

__all__ = [
    "CandidateOutcome",
    "CandidateSpec",
    "DEFAULT_PRUNE_MARGIN",
    "EvaluationResult",
    "ExplorationRun",
    "FailureRecord",
    "MappingCandidate",
    "PruneConfig",
    "PrunedRecord",
    "QuarantineRecord",
    "ResultCache",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorStats",
    "WORKER_FAULT_MODES",
    "WorkerFaultPlan",
    "build_system",
    "builder_ref",
    "communication_minimizing_grouping",
    "enumerate_assignments",
    "evaluate",
    "evaluate_spec",
    "exhaustive_search",
    "external_traffic",
    "improvement_loop",
    "mapping_sweep_specs",
    "parse_worker_faults",
    "per_process_grouping",
    "prune_candidates",
    "resolve_builder",
    "round_robin_grouping",
    "run_candidates",
    "single_group_grouping",
    "static_estimates",
    "summarize",
]
