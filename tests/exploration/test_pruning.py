"""The static pruning oracle: partition, determinism and engine wiring.

Pingpong's *static* optimum is the split mapping (wire bytes beat the
1000-point load-share term), while its *simulated* optimum is all-on-one
— so these tests exercise mechanics and determinism with a tight margin,
and the TUTMAC sweep at the end checks top-1 preservation.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ExplorationError
from repro.exploration import (
    CandidateSpec,
    PruneConfig,
    mapping_sweep_specs,
    prune_candidates,
    run_candidates,
    static_estimates,
)

from tests.exploration.test_engine import pingpong_factory


def sweep_specs():
    return mapping_sweep_specs(pingpong_factory, duration_us=3_000)


def ghost_spec():
    """A candidate the estimator proves infeasible (unknown PE)."""
    return CandidateSpec.make(
        pingpong_factory,
        {"g1": "ghost", "g2": "cpu1"},
        duration_us=3_000,
        label="g1->ghost,g2->cpu1",
    )


def ledger_dicts(run):
    return [record.to_json_dict() for record in run.pruned]


class TestPruneConfig:
    def test_margin_below_one_is_rejected(self):
        with pytest.raises(ExplorationError, match="margin must be >= 1.0"):
            PruneConfig(margin=0.5)

    def test_default_margin(self):
        assert PruneConfig().margin == 3.0


class TestStaticEstimates:
    def test_one_estimate_per_spec(self):
        specs = sweep_specs()
        estimates = static_estimates(specs)
        assert len(estimates) == len(specs)
        assert all(e.infeasible is None for e in estimates)

    def test_split_mappings_score_below_colocated(self):
        # the static cost of pingpong is dominated by the load-share term,
        # so the split assignments are the static optimum
        specs = sweep_specs()
        by_label = dict(zip([s.label for s in specs], static_estimates(specs)))
        assert (
            by_label["g1->cpu1,g2->cpu2"].cost < by_label["g1->cpu1,g2->cpu1"].cost
        )


class TestPruneCandidates:
    def test_partition_covers_every_spec_exactly_once(self):
        specs = sweep_specs()
        kept, pruned, estimates = prune_candidates(specs, PruneConfig(margin=1.2))
        assert sorted(kept + [record.index for record in pruned]) == list(
            range(len(specs))
        )
        assert len(estimates) == len(specs)

    def test_tight_margin_prunes_the_colocated_mappings(self):
        specs = sweep_specs()
        kept, pruned, _ = prune_candidates(specs, PruneConfig(margin=1.2))
        kept_labels = {specs[i].label for i in kept}
        assert kept_labels == {"g1->cpu1,g2->cpu2", "g1->cpu2,g2->cpu1"}
        assert all(record.reason == "dominated" for record in pruned)
        assert all("exceeds 1.2x" in record.detail for record in pruned)

    def test_wide_margin_keeps_everything(self):
        specs = sweep_specs()
        kept, pruned, _ = prune_candidates(specs, PruneConfig(margin=3.0))
        assert len(kept) == len(specs) and pruned == []

    def test_infeasible_spec_is_always_pruned(self):
        specs = sweep_specs() + [ghost_spec()]
        kept, pruned, _ = prune_candidates(specs, PruneConfig(margin=100.0))
        assert len(kept) == len(specs) - 1
        (record,) = pruned
        assert record.reason == "infeasible"
        assert record.estimate is None
        assert "no PE named 'ghost'" in record.detail

    def test_pure_function_of_specs_and_config(self):
        first = prune_candidates(sweep_specs(), PruneConfig(margin=1.2))
        second = prune_candidates(sweep_specs(), PruneConfig(margin=1.2))
        assert first[0] == second[0]
        assert [r.to_json_dict() for r in first[1]] == [
            r.to_json_dict() for r in second[1]
        ]


class TestEngineIntegration:
    def test_prune_static_evaluates_strictly_fewer(self):
        specs = sweep_specs()
        base = run_candidates(specs, workers=0)
        pruned_run = run_candidates(
            specs, workers=0, prune_static=PruneConfig(margin=1.2)
        )
        assert len(base.outcomes) == len(specs)
        assert len(pruned_run.outcomes) < len(base.outcomes)
        assert len(pruned_run.outcomes) + len(pruned_run.pruned) == len(specs)
        assert pruned_run.prune_margin == 1.2

    def test_survivor_results_match_the_unpruned_run(self):
        specs = sweep_specs()
        base = run_candidates(specs, workers=0)
        pruned_run = run_candidates(
            specs, workers=0, prune_static=PruneConfig(margin=1.2)
        )
        base_by_digest = {
            o.spec.digest(): o.result.stable_hash() for o in base.outcomes
        }
        for outcome in pruned_run.outcomes:
            digest = outcome.spec.digest()
            assert base_by_digest[digest] == outcome.result.stable_hash()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_ledger_is_worker_count_independent(self, workers):
        specs = sweep_specs()
        serial = run_candidates(
            specs, workers=0, prune_static=PruneConfig(margin=1.2)
        )
        parallel = run_candidates(
            specs, workers=workers, prune_static=PruneConfig(margin=1.2)
        )
        assert ledger_dicts(parallel) == ledger_dicts(serial)
        assert [o.spec.digest() for o in parallel.ranking()] == [
            o.spec.digest() for o in serial.ranking()
        ]

    def test_infeasible_candidate_is_skipped_not_crashed(self):
        specs = sweep_specs() + [ghost_spec()]
        run = run_candidates(specs, workers=0, prune_static=True)
        assert len(run.outcomes) == len(specs) - 1
        (record,) = [r for r in run.pruned if r.reason == "infeasible"]
        assert record.label == "g1->ghost,g2->cpu1"

    def test_prune_true_uses_default_config(self):
        run = run_candidates(sweep_specs(), workers=0, prune_static=True)
        assert run.prune_margin == 3.0

    def test_json_payload_reports_pruning(self):
        specs = sweep_specs()
        run = run_candidates(
            specs, workers=0, prune_static=PruneConfig(margin=1.2)
        )
        payload = run.to_json_dict()
        assert payload["candidates_submitted"] == len(specs)
        assert payload["candidates_total"] == len(run.outcomes)
        pruned = payload["pruned"]
        assert pruned["count"] == len(specs) - len(run.outcomes)
        assert pruned["margin"] == 1.2
        assert [r["index"] for r in pruned["records"]] == [
            record.index for record in run.pruned
        ]

    def test_unpruned_payload_is_unchanged(self):
        payload = run_candidates(sweep_specs(), workers=0).to_json_dict()
        assert payload["candidates_total"] == payload["candidates_submitted"]
        assert payload["pruned"] == {"count": 0, "margin": None, "records": []}

    def test_pruning_composes_with_the_cache(self, tmp_path):
        specs = sweep_specs()
        cache_dir = str(tmp_path / "cache")
        run_candidates(specs, workers=0, cache_dir=cache_dir)
        cached = run_candidates(
            specs,
            workers=0,
            cache_dir=cache_dir,
            prune_static=PruneConfig(margin=1.2),
        )
        assert all(outcome.cached for outcome in cached.outcomes)
        assert len(cached.pruned) == 2


TUTWLAN_BUILDER = "repro.cases.tutwlan:exploration_factory"


def test_default_margin_prunes_part_of_the_tutmac_sweep():
    specs = mapping_sweep_specs(TUTWLAN_BUILDER, duration_us=5_000)
    kept, _, _ = prune_candidates(specs)
    assert 0 < len(kept) < len(specs), (
        "the default prune margin should drop part of the TUTMAC sweep "
        "without emptying it"
    )


def test_static_pruning_preserves_top_candidate(tmp_path):
    """The acceptance gate for ``--prune-static``.

    On the full TUTMAC mapping sweep the pruned run must evaluate strictly
    fewer candidates, keep the identical top-ranked candidate, and produce
    a pruned ledger that is byte-identical for workers in {0, 1, 4}.  A
    shared cache keeps this at one full sweep's simulation cost.
    """
    cache_dir = str(tmp_path / "cache")
    specs = mapping_sweep_specs(TUTWLAN_BUILDER, duration_us=5_000)
    baseline = run_candidates(specs, workers=0, cache_dir=cache_dir)
    assert baseline.evaluated == len(specs)
    best = baseline.ranking()[0]

    ledgers = []
    for workers in (0, 1, 4):
        pruned_run = run_candidates(
            specs,
            workers=workers,
            cache_dir=cache_dir,
            prune_static=PruneConfig(),
        )
        assert len(pruned_run.outcomes) < len(specs), (
            "pruning must evaluate strictly fewer candidates than the sweep"
        )
        assert len(pruned_run.outcomes) + len(pruned_run.pruned) == len(specs)
        top = pruned_run.ranking()[0]
        assert top.spec.digest() == best.spec.digest(), (
            "pruning changed the top-ranked candidate"
        )
        assert top.result.stable_hash() == best.result.stable_hash()
        assert top.result.cost() == best.result.cost()
        ledgers.append(
            json.dumps(
                [record.to_json_dict() for record in pruned_run.pruned],
                sort_keys=True,
            )
        )
    assert ledgers[0] == ledgers[1] == ledgers[2], (
        "the pruned ledger must not depend on worker count"
    )
