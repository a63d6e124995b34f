"""Performance floors for the kernel, simulator and exploration engine.

Each test is a miniature of a ``benchmarks/`` scenario with a generous
floor (roughly one order of magnitude below current measurements on a
laptop-class core), so only a genuine regression — an accidentally
quadratic hot path, a pool that stopped parallelising, a cache that
stopped hitting — trips it, not CI noise.

These are wall-clock gates, so the default test run skips this directory
(``norecursedirs`` in ``pyproject.toml``); run them by path with
``pytest tests/perf``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.exploration import (
    DEFAULT_PRUNE_MARGIN,
    SupervisorConfig,
    mapping_sweep_specs,
    prune_candidates,
    run_candidates,
)
from repro.simulation.kernel import Kernel

TUTWLAN_BUILDER = "repro.cases.tutwlan:exploration_factory"

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)

#: events/second floor; the kernel currently sustains ~900k on one core.
KERNEL_EVENTS_PER_S_FLOOR = 100_000

#: wall-clock ceiling for one 20 ms TUTMAC/TUTWLAN evaluation (~0.05 s now).
SINGLE_EVALUATION_BUDGET_S = 3.0

#: supervised dispatch (ledgering, deadline bookkeeping) may cost at most
#: this fraction of a campaign's wall clock on top of pure evaluation.
SUPERVISOR_OVERHEAD_CEILING = 0.05


def _measure_kernel_events_per_s(kernel, total=50_000):
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] < total:
            kernel.schedule(10, tick)

    kernel.schedule(0, tick)
    started = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - started
    assert fired[0] == total
    return total / elapsed


def test_kernel_event_throughput_floor():
    rate = _measure_kernel_events_per_s(Kernel(max_events=10_000_000))
    assert rate > KERNEL_EVENTS_PER_S_FLOOR, (
        f"kernel dispatched only {rate:.0f} events/s "
        f"(floor {KERNEL_EVENTS_PER_S_FLOOR})"
    )


def test_kernel_event_throughput_floor_tracing_disabled():
    """tracer=None must cost one predicate per dispatch: same floor applies."""
    rate = _measure_kernel_events_per_s(
        Kernel(max_events=10_000_000, tracer=None)
    )
    assert rate > KERNEL_EVENTS_PER_S_FLOOR, (
        f"tracing-disabled kernel dispatched only {rate:.0f} events/s "
        f"(floor {KERNEL_EVENTS_PER_S_FLOOR})"
    )


def test_single_evaluation_wall_clock_budget():
    specs = mapping_sweep_specs(TUTWLAN_BUILDER, duration_us=20_000, limit=1)
    started = time.perf_counter()
    run = run_candidates(specs, workers=0)
    elapsed = time.perf_counter() - started
    assert run.evaluated == 1
    assert elapsed < SINGLE_EVALUATION_BUDGET_S, (
        f"one 20 ms TUTMAC evaluation took {elapsed:.2f}s "
        f"(budget {SINGLE_EVALUATION_BUDGET_S}s)"
    )


def test_exploration_sweep_throughput_floor():
    # 6 short candidates must finish well under a second each
    specs = mapping_sweep_specs(TUTWLAN_BUILDER, duration_us=5_000, limit=6)
    started = time.perf_counter()
    run = run_candidates(specs, workers=0)
    elapsed = time.perf_counter() - started
    assert run.evaluated == 6
    assert elapsed / 6 < 1.0, (
        f"serial sweep averaged {elapsed / 6:.2f}s per 5 ms candidate"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="parallel speedup needs >= 2 cores"
)
def test_parallel_vs_serial_speedup_smoke():
    """Two workers must beat serial on a ~1 s sweep (smoke, not a 2x claim)."""
    specs = mapping_sweep_specs(TUTWLAN_BUILDER, duration_us=20_000, limit=16)

    started = time.perf_counter()
    serial = run_candidates(specs, workers=0)
    serial_wall = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_candidates(specs, workers=2)
    parallel_wall = time.perf_counter() - started

    serial_hashes = [o.result.stable_hash() for o in serial.ranking()]
    parallel_hashes = [o.result.stable_hash() for o in parallel.ranking()]
    assert serial_hashes == parallel_hashes, "ranking must not depend on workers"
    assert parallel_wall < serial_wall, (
        f"2 workers ({parallel_wall:.2f}s) not faster than serial "
        f"({serial_wall:.2f}s)"
    )


def test_bench_explore_artifact_and_supervisor_overhead():
    """Record the exploration trajectory in ``BENCH_explore.json``.

    The artefact keeps kernel throughput, campaign wall time and the
    supervised-dispatch overhead so future re-anchors can see whether a
    change moved the needle; the asserted floors make it a regression
    gate at the same time.
    """
    kernel_rate = _measure_kernel_events_per_s(Kernel(max_events=10_000_000))
    assert kernel_rate > KERNEL_EVENTS_PER_S_FLOOR

    specs = mapping_sweep_specs(TUTWLAN_BUILDER, duration_us=5_000, limit=6)
    started = time.perf_counter()
    run = run_candidates(specs, workers=0, supervisor=SupervisorConfig())
    campaign_wall_s = time.perf_counter() - started
    assert run.evaluated == len(specs)

    evaluation_s = sum(outcome.elapsed_s for outcome in run.outcomes)
    overhead_frac = max(0.0, campaign_wall_s - evaluation_s) / campaign_wall_s
    assert overhead_frac <= SUPERVISOR_OVERHEAD_CEILING, (
        f"supervised dispatch added {overhead_frac:.1%} on top of evaluation "
        f"(ceiling {SUPERVISOR_OVERHEAD_CEILING:.0%})"
    )

    full_specs = mapping_sweep_specs(TUTWLAN_BUILDER, duration_us=5_000)
    kept, pruned_records, _ = prune_candidates(full_specs)

    payload = {
        "schema": "repro.bench-explore/1",
        "kernel": {
            "events_per_s": round(kernel_rate),
            "events_per_s_floor": KERNEL_EVENTS_PER_S_FLOOR,
        },
        "campaign": {
            "candidates": len(specs),
            "duration_us": 5_000,
            "wall_s": round(campaign_wall_s, 4),
            "evaluation_s": round(evaluation_s, 4),
            "per_candidate_s": round(campaign_wall_s / len(specs), 4),
        },
        "supervisor": {
            "overhead_frac": round(overhead_frac, 4),
            "overhead_ceiling": SUPERVISOR_OVERHEAD_CEILING,
            "counters": run.supervisor_counters(),
        },
        "pruning": {
            "margin": DEFAULT_PRUNE_MARGIN,
            "candidates_submitted": len(full_specs),
            "kept": len(kept),
            "pruned": len(pruned_records),
            "infeasible": sum(
                1 for r in pruned_records if r.reason == "infeasible"
            ),
            "dominated": sum(
                1 for r in pruned_records if r.reason == "dominated"
            ),
        },
    }
    path = os.path.join(REPO_ROOT, "BENCH_explore.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_warm_cache_skips_all_evaluation(tmp_path):
    cache_dir = str(tmp_path / "cache")
    specs = mapping_sweep_specs(TUTWLAN_BUILDER, duration_us=5_000, limit=6)

    started = time.perf_counter()
    cold = run_candidates(specs, workers=0, cache_dir=cache_dir)
    cold_wall = time.perf_counter() - started

    started = time.perf_counter()
    warm = run_candidates(specs, workers=0, cache_dir=cache_dir)
    warm_wall = time.perf_counter() - started

    assert cold.evaluated == 6 and cold.cache_hits == 0
    assert warm.evaluated == 0 and warm.cache_hits == 6
    assert warm_wall < cold_wall / 2, (
        f"warm cache ({warm_wall:.3f}s) should be far cheaper than cold "
        f"({cold_wall:.3f}s)"
    )
    warm_hashes = [o.result.stable_hash() for o in warm.ranking()]
    cold_hashes = [o.result.stable_hash() for o in cold.ranking()]
    assert warm_hashes == cold_hashes
