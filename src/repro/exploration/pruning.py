"""Static pre-simulation pruning of exploration candidates.

The mapping lint pass (:mod:`repro.analysis.mapping`) can score a
candidate assignment in microseconds: statement-weight load per PE plus
the hop-weighted traffic bytes of the static signal-flow matrix, shaped
like the simulation objective (``bytes + 1000 * max PE share``).  This
module turns that score into the exploration engine's pruning oracle:

* candidates whose estimate proves them **infeasible** (unmapped group,
  unknown PE, process type the PE cannot execute) are skipped outright;
* candidates **dominated** by the sweep's best static estimate — more
  than ``margin`` times worse — are skipped as not worth simulating.

Pruning is computed serially over the full spec list *before* any
dispatch, so the pruned ledger and the surviving candidate set are
byte-identical for any worker count; and because the estimate is a
conservative proxy (the default margin keeps everything within 3x of the
static optimum), the sweep's top-ranked candidate survives pruning.  The
tier-2 harness asserts both properties on the TUTMAC sweep.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.mapping import (
    StaticEstimate,
    static_application_profile,
    static_mapping_estimate,
)
from repro.errors import ExplorationError
from repro.exploration.spec import CandidateSpec, builder_ref, resolve_builder

#: Keep a candidate when its static estimate is within this factor of the
#: sweep's best static estimate.  Calibrated on the TUTMAC mapping sweep:
#: every candidate of the simulated top-10 sits below 2.7x, so 3x prunes
#: ~2/3 of the space without touching the eventual winner.
DEFAULT_PRUNE_MARGIN = 3.0


@dataclass(frozen=True)
class PruneConfig:
    """Pruning policy: ``margin`` is the dominance factor (>= 1)."""

    margin: float = DEFAULT_PRUNE_MARGIN

    def __post_init__(self) -> None:
        if self.margin < 1.0:
            raise ExplorationError(
                f"prune margin must be >= 1.0, got {self.margin}"
            )


@dataclass
class PrunedRecord:
    """One skipped candidate in the deterministic pruned ledger."""

    index: int
    label: str
    digest: Optional[str]
    reason: str                     # "infeasible" or "dominated"
    detail: str
    estimate: Optional[float]       # static cost; None when infeasible
    best_estimate: float

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "label": self.label,
            "digest": self.digest,
            "reason": self.reason,
            "detail": self.detail,
            "estimate": (
                round(self.estimate, 6) if self.estimate is not None else None
            ),
            "best_estimate": round(self.best_estimate, 6),
        }


def _probe_key(spec: CandidateSpec):
    ref = builder_ref(spec.builder)
    return (
        ref if ref is not None else id(spec.builder),
        spec.grouping,
        spec.arq,
    )


def _probe_system(spec: CandidateSpec):
    """Build the (application, platform) pair a spec describes, unmapped.

    Mirrors :func:`repro.exploration.spec.build_system` minus the mapping
    view: the estimator scores assignments against the bare system, so one
    probe serves every candidate sharing (builder, grouping, arq).
    """
    builder = resolve_builder(spec.builder)
    parameters = inspect.signature(builder).parameters
    accepts_var_kw = any(
        p.kind == inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    kwargs = {}
    if spec.grouping is not None:
        if "grouping" not in parameters and not accepts_var_kw:
            raise ExplorationError(
                f"spec sets a grouping but builder {builder_ref(spec.builder)!r} "
                "does not accept a 'grouping' keyword"
            )
        kwargs["grouping"] = dict(spec.grouping)
    if spec.arq:
        if "arq" not in parameters and not accepts_var_kw:
            raise ExplorationError(
                f"spec sets arq=True but builder {builder_ref(spec.builder)!r} "
                "does not accept an 'arq' keyword"
            )
        kwargs["arq"] = True
    return builder(**kwargs)


def static_estimates(
    specs: Sequence[CandidateSpec],
) -> List[StaticEstimate]:
    """Score every spec statically (one probe per distinct system)."""
    probes: Dict[object, Tuple[object, object]] = {}
    estimates: List[StaticEstimate] = []
    for spec in specs:
        key = _probe_key(spec)
        if key not in probes:
            application, platform = _probe_system(spec)
            probes[key] = (static_application_profile(application), platform)
        profile, platform = probes[key]
        estimates.append(
            static_mapping_estimate(profile, platform, spec.mapping_dict)
        )
    return estimates


def prune_candidates(
    specs: Sequence[CandidateSpec],
    config: Optional[PruneConfig] = None,
) -> Tuple[List[int], List[PrunedRecord], List[StaticEstimate]]:
    """Partition specs into survivors and a pruned ledger.

    Returns ``(kept_indices, pruned_records, estimates)``; indices refer
    to positions in ``specs``.  Deterministic: a pure function of the spec
    list and the config.
    """
    config = config if config is not None else PruneConfig()
    estimates = static_estimates(specs)
    feasible = [e.cost for e in estimates if e.infeasible is None]
    best = min(feasible) if feasible else 0.0
    threshold = config.margin * best
    kept: List[int] = []
    pruned: List[PrunedRecord] = []
    for index, (spec, estimate) in enumerate(zip(specs, estimates)):
        if estimate.infeasible is not None:
            pruned.append(
                PrunedRecord(
                    index=index,
                    label=spec.label,
                    digest=spec.digest(),
                    reason="infeasible",
                    detail=estimate.infeasible,
                    estimate=None,
                    best_estimate=best,
                )
            )
        elif feasible and estimate.cost > threshold:
            pruned.append(
                PrunedRecord(
                    index=index,
                    label=spec.label,
                    digest=spec.digest(),
                    reason="dominated",
                    detail=(
                        f"static estimate {estimate.cost:.1f} exceeds "
                        f"{config.margin:g}x the best estimate {best:.1f}"
                    ),
                    estimate=estimate.cost,
                    best_estimate=best,
                )
            )
        else:
            kept.append(index)
    return kept, pruned, estimates
