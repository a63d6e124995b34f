"""Integration tests: fault campaigns on the ARQ-enabled TUTMAC system.

These are the acceptance criteria of the fault-injection subsystem: faults
are actually injected, every one is detected through the CRC path, the ARQ
machinery repairs (nearly) all of them, the accounting identity holds, and
everything is bit-reproducible from the seed.
"""

import pytest

from repro.__main__ import main
from repro.cases.tutmac import TutmacParameters, build_tutmac
from repro.cases.tutwlan import build_tutwlan_system
from repro.faults import FaultPlan, build_campaign_plan, run_fault_campaign
from repro.simulation.system import SystemSimulation

CAMPAIGN_US = 100_000


@pytest.fixture(scope="module")
def campaign():
    return run_fault_campaign(seed=7, fault_rate=0.08, duration_us=CAMPAIGN_US)


class TestCampaign:
    def test_faults_injected(self, campaign):
        assert campaign.stats.injected > 0

    def test_all_injections_detected(self, campaign):
        # every injection targets the CRC-protected pdu_tx frame
        assert campaign.stats.detected == campaign.stats.injected

    def test_recovery_at_least_90_percent(self, campaign):
        assert campaign.recovery_ratio >= 0.90

    def test_accounting_identity(self, campaign):
        stats = campaign.stats
        assert stats.injected == stats.detected == stats.recovered + stats.residual

    def test_fault_records_in_log(self, campaign):
        log = campaign.simulation.log
        assert len(log.fault_records) == campaign.stats.injected
        by_kind = log.account.faults_by_kind
        assert by_kind == dict(campaign.stats.injected_by_kind)

    def test_meta_carries_ledger(self, campaign):
        meta = campaign.simulation.log.meta
        assert meta["fault_seed"] == "7"
        assert int(meta["fault_injected"]) == campaign.stats.injected

    def test_profiling_fault_summary(self, campaign):
        summary = campaign.profiling.fault_stats
        assert summary is not None
        assert summary.injected == campaign.stats.injected
        assert summary.recovered == campaign.stats.recovered
        assert summary.injected_by_kind == dict(campaign.stats.injected_by_kind)
        # the ledger read back from the log is the run's ledger
        assert summary == campaign.simulation.fault_stats

    def test_corrupt_frames_marked_in_log(self, campaign):
        corrupt = [r for r in campaign.simulation.log.signal_records if r.corrupt]
        by_kind = campaign.simulation.log.account.faults_by_kind
        assert len(corrupt) == by_kind.get("bus-corrupt", 0)
        assert all(r.signal == "pdu_tx" for r in corrupt)


class TestDeterminism:
    def test_same_seed_byte_identical_logs(self, tmp_path):
        """Kernel determinism regression: two same-seed fault runs must
        serialise to byte-identical .tutlog files."""
        paths = []
        for run in ("a", "b"):
            result = run_fault_campaign(
                seed=13, fault_rate=0.06, duration_us=50_000
            )
            path = tmp_path / f"run_{run}.tutlog"
            result.simulation.writer.write(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        logs = []
        for seed in (1, 2):
            result = run_fault_campaign(
                seed=seed, fault_rate=0.06, duration_us=50_000
            )
            path = tmp_path / f"seed_{seed}.tutlog"
            result.simulation.writer.write(str(path))
            logs.append(path.read_bytes())
        assert logs[0] != logs[1]


class TestZeroCost:
    def test_zero_rate_plan_is_disabled(self):
        assert not build_campaign_plan(seed=1, fault_rate=0.0, drop_rate=0.0).enabled

    def test_zero_rate_run_identical_to_no_plan(self, tmp_path):
        """fault_rate=0 must leave every benchmark number unchanged: the
        log is byte-identical to a run with no FaultPlan at all."""
        logs = []
        for plan in (None, FaultPlan(seed=5)):
            application, platform, mapping = build_tutwlan_system()
            sim = SystemSimulation(application, platform, mapping, faults=plan)
            result = sim.run(30_000)
            path = tmp_path / f"plan_{plan is not None}.tutlog"
            result.writer.write(str(path))
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_cli_at_rate_zero_reports_no_injection(self, capsys):
        """A zero rate disables the plan, so the log carries no ledger: the
        command says so instead of failing."""
        assert main(["faults", "--fault-rate", "0", "--duration-us", "2000"]) == 0
        assert "no fault was injected" in capsys.readouterr().out

    def test_no_fault_meta_without_plan(self):
        application, platform, mapping = build_tutwlan_system()
        result = SystemSimulation(application, platform, mapping).run(10_000)
        assert "fault_injected" not in result.writer.meta

    def test_default_model_has_no_arq_signals(self):
        app = build_tutmac()
        assert "pdu_ack" not in app.signals
        arq_app = build_tutmac(params=TutmacParameters(arq_enabled=True))
        assert "pdu_ack" in arq_app.signals
