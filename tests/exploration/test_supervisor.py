"""The campaign supervisor: fault tolerance without determinism loss.

The tentpole invariant: a campaign with injected worker faults
(crashes, hangs, transient errors) produces a ranking byte-identical to
a clean run — for serial and parallel dispatch alike.  On top of that,
the failure ledger, the retry/backoff policy and poison-candidate
quarantine each get direct coverage.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ExplorationError, SimulationInterrupted
from repro.exploration import (
    SupervisorConfig,
    WorkerFaultPlan,
    mapping_sweep_specs,
    parse_worker_faults,
    run_candidates,
    supervisor,
)
from repro.exploration.supervisor import (
    FAILURE_CRASH,
    FAILURE_ERROR,
    FAILURE_TIMEOUT,
    QUARANTINE_FAILURE_BUDGET,
    QUARANTINE_MAPPING_ERROR,
    Supervisor,
    backoff_s,
)

from tests.exploration.test_engine import fault_free_specs, result_hashes
from tests.mapping.test_relation import defective_tutwlan_specs


@pytest.fixture
def quick_backoff(monkeypatch):
    """Near-zero backoffs between attempts (tests must stay quick)."""
    monkeypatch.setattr(supervisor, "BACKOFF_BASE_S", 0.001)
    monkeypatch.setattr(supervisor, "BACKOFF_MAX_S", 0.01)
    monkeypatch.setattr(supervisor, "BACKOFF_JITTER_S", 0.001)


@pytest.mark.usefixtures("quick_backoff")
class TestFaultToleranceDeterminism:
    """Injected infrastructure faults never change the ranking."""

    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_chaos_run_matches_clean_run(self, workers):
        clean = run_candidates(fault_free_specs(), workers=0)
        plan = WorkerFaultPlan.make(
            {0: ["crash"], 2: ["flaky", "flaky"], 3: ["slow"]}, slow_s=0.01
        )
        chaotic = run_candidates(
            fault_free_specs(),
            workers=workers,
            supervisor=SupervisorConfig(),
            worker_faults=plan,
        )
        assert result_hashes(chaotic) == result_hashes(clean)
        assert [o.spec.sort_key() for o in chaotic.ranking()] == [
            o.spec.sort_key() for o in clean.ranking()
        ]
        counters = chaotic.supervisor_counters()
        assert counters["crashes"] == 1
        assert counters["errors"] == 2
        assert counters["retries"] == 3
        assert counters["quarantined"] == 0
        assert not chaotic.quarantined

    def test_hang_is_reclaimed_by_timeout(self):
        clean = run_candidates(fault_free_specs(), workers=0)
        plan = WorkerFaultPlan.make({1: ["hang"]}, hang_s=30.0)
        run = run_candidates(
            fault_free_specs(),
            workers=2,
            supervisor=SupervisorConfig(timeout_s=1.0),
            worker_faults=plan,
        )
        assert result_hashes(run) == result_hashes(clean)
        assert run.supervisor_counters()["timeouts"] == 1
        timeout_failures = [
            f for f in run.failures if f.kind == FAILURE_TIMEOUT
        ]
        assert len(timeout_failures) == 1
        assert timeout_failures[0].index == 1

    def test_serial_hang_degrades_to_transient_error(self):
        # workers=0 cannot preempt, so an injected hang surfaces as a
        # raised WorkerFaultError classified as a timeout failure
        plan = WorkerFaultPlan.make({0: ["hang"]})
        run = run_candidates(
            fault_free_specs(), workers=0,
            supervisor=SupervisorConfig(), worker_faults=plan,
        )
        assert run.supervisor_counters()["timeouts"] == 1
        assert not run.quarantined

    def test_crash_records_exit_code(self):
        plan = WorkerFaultPlan.make({0: ["crash"]})
        run = run_candidates(
            fault_free_specs(), workers=2,
            supervisor=SupervisorConfig(), worker_faults=plan,
        )
        crash = next(f for f in run.failures if f.kind == FAILURE_CRASH)
        assert crash.exitcode == 137
        assert crash.attempt == 1


@pytest.mark.usefixtures("quick_backoff")
class TestAttemptAccounting:
    def test_outcomes_carry_attempts_and_ledger(self):
        plan = WorkerFaultPlan.make({1: ["flaky", "flaky"]})
        run = run_candidates(
            fault_free_specs(), workers=0,
            supervisor=SupervisorConfig(), worker_faults=plan,
        )
        by_index = {o.index: o for o in run.outcomes}
        assert by_index[1].attempts == 3
        assert [f.kind for f in by_index[1].failures] == [
            FAILURE_ERROR, FAILURE_ERROR,
        ]
        untouched = [o for o in run.outcomes if o.index != 1]
        assert all(o.attempts == 1 and not o.failures for o in untouched)

    def test_json_summary_has_supervisor_block(self):
        plan = WorkerFaultPlan.make({0: ["flaky"]})
        run = run_candidates(
            fault_free_specs(), workers=0,
            supervisor=SupervisorConfig(), worker_faults=plan,
        )
        summary = run.to_json_dict(top=2)
        block = summary["supervisor"]
        assert block["errors"] == 1
        assert block["retries"] == 1
        assert block["degraded_to_serial"] is False
        assert len(block["failures"]) == 1
        failure = block["failures"][0]
        assert failure["kind"] == FAILURE_ERROR
        assert failure["attempt"] == 1
        assert failure["backoff_s"] > 0
        assert block["quarantine"] == []
        assert all("attempts" in record for record in summary["records"])


@pytest.mark.usefixtures("quick_backoff")
class TestQuarantine:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_poison_candidate_is_quarantined(self, workers):
        specs = fault_free_specs()
        plan = WorkerFaultPlan.make({1: ["poison"]})
        run = run_candidates(
            specs, workers=workers,
            supervisor=SupervisorConfig(), worker_faults=plan,
        )
        assert len(run.outcomes) == len(specs) - 1
        assert len(run.quarantined) == 1
        assert run.to_json_dict()["candidates_submitted"] == len(specs)
        record = run.quarantined[0]
        assert record.index == 1
        assert record.reason == QUARANTINE_FAILURE_BUDGET
        assert record.failures == 3
        # the surviving ranking is still the clean ranking minus the victim
        clean = run_candidates(specs, workers=0)
        survivor_hashes = [
            o.result.stable_hash()
            for o in clean.ranking()
            if o.index != 1
        ]
        assert result_hashes(run) == survivor_hashes

    def test_retries_exhausted_reason(self):
        plan = WorkerFaultPlan.make({0: ["flaky", "flaky"]})
        run = run_candidates(
            fault_free_specs(), workers=0,
            supervisor=SupervisorConfig(max_retries=0),
            worker_faults=plan,
        )
        assert run.quarantined[0].reason == QUARANTINE_FAILURE_BUDGET
        assert run.quarantined[0].failures == 1

    def test_quarantine_after_bounds_failures(self):
        plan = WorkerFaultPlan.make({0: ["poison"]})
        run = run_candidates(
            fault_free_specs(), workers=0,
            supervisor=SupervisorConfig(max_retries=1),
            worker_faults=plan,
        )
        assert run.quarantined[0].failures == 2
        assert run.supervisor_counters()["quarantined"] == 1


class TestMappingErrorIsNotRetried:
    """A mapping is a function of the spec: its error recurs on every retry."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_each_spec_fails_once_and_is_quarantined(self, workers):
        run = run_candidates(defective_tutwlan_specs(), workers=workers)
        assert run.outcomes == []
        failures = sorted(run.failures, key=lambda f: f.index)
        assert [(f.index, f.attempt, f.kind, f.backoff_s) for f in failures] == [
            (index, 1, FAILURE_ERROR, 0.0) for index in range(4)
        ]
        assert [f.detail for f in failures] == [
            "MappingError: group 'group1' (general) cannot run on "
            "'accelerator1' (hw accelerator)",
            "MappingError: platform has no PE named 'ghost'",
            "MappingError: application has no process group 'ghost'",
            "MappingError: unmapped groups: group4",
        ]
        assert sorted(
            (q.index, q.failures, q.reason) for q in run.quarantined
        ) == [(index, 1, QUARANTINE_MAPPING_ERROR) for index in range(4)]
        counters = run.supervisor_counters()
        assert counters["retries"] == 0
        assert counters["errors"] == 4
        assert counters["quarantined"] == 4


class TestBackoffPolicy:
    def test_backoff_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_SEED", 7)
        assert backoff_s("digest-a", 1) == backoff_s("digest-a", 1)
        assert backoff_s("digest-a", 1) != backoff_s("digest-b", 1)
        assert backoff_s("digest-a", 1) != backoff_s("digest-a", 2)
        monkeypatch.setattr(supervisor, "BACKOFF_SEED", 1)
        first = backoff_s("k", 1)
        monkeypatch.setattr(supervisor, "BACKOFF_SEED", 2)
        assert backoff_s("k", 1) != first

    def test_default_backoffs_keep_their_values(self):
        # every ledgered backoff_s of a campaign keeps its value
        assert backoff_s("k", 1) == pytest.approx(0.07724578841973952)
        assert backoff_s("k", 2) == pytest.approx(0.14958651452266855)
        assert backoff_s("k", 7) == pytest.approx(2.0448529524871404)

    def test_backoff_grows_and_caps(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_BASE_S", 0.1)
        monkeypatch.setattr(supervisor, "BACKOFF_FACTOR", 2.0)
        monkeypatch.setattr(supervisor, "BACKOFF_MAX_S", 0.35)
        monkeypatch.setattr(supervisor, "BACKOFF_JITTER_S", 0.0)
        assert backoff_s("k", 1) == pytest.approx(0.1)
        assert backoff_s("k", 2) == pytest.approx(0.2)
        assert backoff_s("k", 3) == pytest.approx(0.35)  # capped
        assert backoff_s("k", 9) == pytest.approx(0.35)

    def test_jitter_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(supervisor, "BACKOFF_BASE_S", 0.0)
        monkeypatch.setattr(supervisor, "BACKOFF_JITTER_S", 0.05)
        for attempt in range(1, 20):
            jitter = backoff_s("k", attempt)
            assert 0.0 <= jitter < 0.05

    def test_config_validation(self):
        with pytest.raises(ExplorationError):
            SupervisorConfig(timeout_s=0.0)
        with pytest.raises(ExplorationError):
            SupervisorConfig(max_retries=-1)


class TestWorkerFaultPlan:
    def test_schedule_consumed_per_attempt(self):
        plan = WorkerFaultPlan.make({3: ["crash", "flaky"]})
        assert plan.mode_for(3, 1) == "crash"
        assert plan.mode_for(3, 2) == "flaky"
        assert plan.mode_for(3, 3) is None
        assert plan.mode_for(0, 1) is None

    def test_poison_faults_every_attempt(self):
        plan = WorkerFaultPlan.make({2: ["poison"]})
        for attempt in (1, 2, 50):
            assert plan.mode_for(2, attempt) == "poison"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExplorationError):
            WorkerFaultPlan.make({0: ["segfault"]})

    def test_plan_is_picklable(self):
        import pickle

        plan = WorkerFaultPlan.make({0: ["crash"], 1: ["poison"]})
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_parse_cli_entries(self):
        plan = parse_worker_faults(["0:crash", "3:flaky:2", "5:poison"])
        assert plan.mode_for(0, 1) == "crash"
        assert plan.mode_for(3, 1) == "flaky"
        assert plan.mode_for(3, 2) == "flaky"
        assert plan.mode_for(3, 3) is None
        assert plan.mode_for(5, 9) == "poison"

    def test_parse_empty_is_none(self):
        assert parse_worker_faults([]) is None

    @pytest.mark.parametrize(
        "entry", ["nonsense", "0:segfault", "x:crash", "0:crash:0", "0:crash:x"]
    )
    def test_parse_rejects_malformed(self, entry):
        with pytest.raises(ExplorationError):
            parse_worker_faults([entry])


class _UnspawnableContext:
    """A multiprocessing context whose Process can never start."""

    @staticmethod
    def Pipe(duplex=False):
        import multiprocessing

        return multiprocessing.Pipe(duplex=duplex)

    class Process:
        def __init__(self, *args, **kwargs):
            pass

        def start(self):
            raise OSError("fork: resource temporarily unavailable")


@pytest.mark.usefixtures("quick_backoff")
class TestGracefulDegradation:
    def test_irreparable_pool_degrades_to_serial(self):
        specs = fault_free_specs()
        boss = Supervisor(
            context=_UnspawnableContext(), workers=2, config=SupervisorConfig()
        )
        collected = []

        def on_success(index, result, elapsed, attempts, failures):
            collected.append((index, result.stable_hash()))

        stats = boss.run(list(enumerate(specs)), on_success)
        assert stats.degraded_to_serial
        assert stats.spawn_failures >= 2
        assert len(collected) == len(specs)
        clean = run_candidates(specs, workers=0)
        assert dict(collected) == {
            o.index: o.result.stable_hash() for o in clean.outcomes
        }

    def test_degraded_run_flag_in_engine_summary(self):
        # the engine exposes the flag so the CLI/flow can report it
        run = run_candidates(fault_free_specs(), workers=0)
        assert run.to_json_dict()["supervisor"]["degraded_to_serial"] is False


@pytest.mark.usefixtures("quick_backoff")
class TestInProcessInterruptBudget:
    """A zero-worker supervisor owns the campaign-wide event budget."""

    def _run(self, tmp_path, name, budget, collected):
        boss = Supervisor(
            context=None,
            workers=0,
            config=SupervisorConfig(),
            checkpoint_dir=str(tmp_path / name),
            interrupt_after_events=budget,
        )
        boss.run(
            list(enumerate(fault_free_specs())),
            lambda index, *rest: collected.append(index),
        )
        return boss

    def test_budget_spans_candidates(self, tmp_path):
        # every completed candidate debits its events from the budget
        everything = list(range(len(fault_free_specs())))
        collected = []
        boss = self._run(tmp_path, "full", 10**9, collected)
        spent = 10**9 - boss.interrupt_budget
        assert collected == everything and spent > 0
        # one event short of the whole campaign: every candidate but the
        # last completes, and the last is interrupted
        collected = []
        with pytest.raises(SimulationInterrupted):
            self._run(tmp_path, "short", spent - 1, collected)
        assert collected == everything[:-1]


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.usefixtures("quick_backoff")
class TestLongLivedWorkers:
    """A worker serves candidates until it dies; only a failed one is replaced."""

    def test_workers_serve_many_candidates(self):
        specs = mapping_sweep_specs(
            "repro.cases.tutwlan:exploration_factory", duration_us=2_000, limit=16
        )
        run = run_candidates(specs, workers=2)
        assert run.evaluated == 16
        pids = run.supervisor_stats.spawned_pids
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)

    @pytest.mark.parametrize("mode", ["crash", "hang"])
    def test_a_failed_worker_alone_is_replaced(self, mode):
        # candidate 0's worker dies (or is killed at its deadline) while the
        # other worker still has slow candidates queued behind it
        specs = mapping_sweep_specs(
            "repro.cases.tutwlan:exploration_factory", duration_us=2_000, limit=12
        )
        schedule = {index: ["slow"] for index in range(1, len(specs))}
        schedule[0] = [mode]
        run = run_candidates(
            specs,
            workers=2,
            supervisor=SupervisorConfig(timeout_s=0.5),
            worker_faults=WorkerFaultPlan.make(schedule, hang_s=30.0, slow_s=0.1),
        )
        assert run.evaluated == len(specs)
        assert [failure.index for failure in run.failures] == [0]
        pids = run.supervisor_stats.spawned_pids
        assert len(pids) == 3
        assert not any(_alive(pid) for pid in pids)


@pytest.mark.usefixtures("quick_backoff")
class TestOneQueue:
    def test_a_serial_retry_waits_in_the_queue(self):
        # a failed candidate waits out its backoff while the others run, in
        # a serial campaign as with workers
        order = []
        run_candidates(
            fault_free_specs(),
            workers=0,
            progress=lambda outcome, done, total: order.append(outcome.index),
            worker_faults=WorkerFaultPlan.make({0: ["flaky"]}),
        )
        assert order == [1, 2, 3, 0]
