"""Static pre-simulation pruning of exploration candidates.

The mapping lint pass (:mod:`repro.analysis.mapping`) can score a
candidate assignment in microseconds: statement-weight load per PE plus
the hop-weighted traffic bytes of the static signal-flow matrix, shaped
like the simulation objective (``bytes + 1000 * max PE share``).  This
module turns that score into the exploration engine's pruning oracle:

* candidates the mapping relation finds a defect in (an ungrouped
  process aside) are **infeasible** and are skipped outright;
* candidates **dominated** by the sweep's best static estimate — more
  than ``margin`` times worse — are skipped as not worth simulating.
  A candidate whose system cannot be built is kept for the supervisor.

Pruning is computed serially over the full spec list *before* any
dispatch, so the pruned ledger and the surviving candidate set are
byte-identical for any worker count; and because the estimate is a
conservative proxy (the default margin keeps everything within 3x of the
static optimum), the sweep's top-ranked candidate survives pruning.  The
tier-2 harness asserts both properties on the TUTMAC sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.mapping import (
    StaticEstimate,
    static_application_profile,
    static_mapping_estimate,
)
from repro.errors import ExplorationError
from repro.exploration.spec import CandidateSpec, design_view

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


def static_estimates(
    specs: Sequence[CandidateSpec],
) -> List[Optional[StaticEstimate]]:
    """Score every spec statically (one profile per design view).

    The estimator scores assignments against the system alone, so every
    spec sharing a :func:`~repro.exploration.spec.design_view` shares one
    application profile, whatever the view is mapped to.  A spec whose
    builder raises scores ``None``.
    """
    estimates: List[Optional[StaticEstimate]] = []
    profiled = profile = None
    for spec in specs:
        try:
            view = design_view(spec.builder, spec.grouping, spec.arq)
        except Exception:  # its evaluation fails too, under the supervisor
            estimates.append(None)
            continue
        if view is not profiled:
            profiled, profile = view, static_application_profile(view.application)
        estimates.append(
            static_mapping_estimate(profile, view.platform, spec.mapping_dict)
        )
    return estimates


def prune_candidates(
    specs: Sequence[CandidateSpec],
    config: Optional[PruneConfig] = None,
) -> Tuple[List[int], List[PrunedRecord], List[StaticEstimate]]:
    """Partition specs into survivors and a pruned ledger.

    Returns ``(kept_indices, pruned_records, estimates)``; indices refer
    to positions in ``specs``; a spec without an estimate is kept.
    Deterministic: a pure function of the spec list and the config.
    """
    config = config if config is not None else PruneConfig()
    estimates = static_estimates(specs)
    feasible = [e.cost for e in estimates if e is not None and e.infeasible is None]
    best = min(feasible) if feasible else 0.0
    threshold = config.margin * best
    kept: List[int] = []
    pruned: List[PrunedRecord] = []
    for index, (spec, estimate) in enumerate(zip(specs, estimates)):
        if estimate is None:
            kept.append(index)
        elif estimate.infeasible is not None:
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
