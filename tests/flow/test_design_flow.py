"""The Figure 2 end-to-end design and profiling flow."""

import os

import pytest

from repro.errors import ValidationError
from repro.flow import FLOW_INVENTORY, FLOW_STEPS, run_design_flow
from repro.mapping import MappingModel
from repro.simulation import read_log

from tests.conftest import build_pingpong, build_two_cpu_platform


@pytest.fixture
def flow_result(tmp_path):
    app = build_pingpong()
    platform = build_two_cpu_platform()
    mapping = MappingModel(app, platform)
    mapping.map("g1", "cpu1")
    mapping.map("g2", "cpu2")
    return run_design_flow(
        app, platform, mapping, str(tmp_path), duration_us=5_000
    )


class TestArtifacts:
    def test_all_artifacts_written(self, flow_result):
        assert os.path.exists(flow_result.xmi_path)
        assert os.path.exists(flow_result.log_path)
        assert os.path.exists(flow_result.report_path)
        assert os.path.isdir(flow_result.code_directory)
        assert os.path.exists(
            os.path.join(flow_result.code_directory, "tut_runtime.c")
        )

    def test_log_file_parses(self, flow_result):
        log = read_log(flow_result.log_path)
        assert log.exec_records
        assert log.signal_records

    def test_report_contains_tables(self, flow_result):
        text = open(flow_result.report_path).read()
        assert "Process group execution times" in text
        assert "Number of signals between groups" in text

    def test_xmi_reparses_into_group_info(self, flow_result):
        from repro.profiling import group_info_from_xmi

        xml = open(flow_result.xmi_path).read()
        info = group_info_from_xmi(xml)
        assert info.group_of("ping1") == "g1"

    def test_profiling_object_populated(self, flow_result):
        assert flow_result.profiling.group_cycles["g1"] > 0
        assert flow_result.profiling.signals_between("g1", "g2") > 0

    def test_steps_enumerated(self, flow_result):
        assert flow_result.steps_run == FLOW_STEPS


class TestValidationGate:
    def test_rule_violation_blocks_flow(self, tmp_path):
        app = build_pingpong()
        # break the model: second «Application» class violates R1
        from repro.uml import Class

        rogue = Class("Rogue")
        app.package.add(rogue)
        app.profile.apply(rogue, "Application")
        platform = build_two_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        with pytest.raises(ValidationError):
            run_design_flow(app, platform, mapping, str(tmp_path))

    def test_non_strict_mode_continues(self, tmp_path):
        app = build_pingpong()
        from repro.uml import Class

        rogue = Class("Rogue")
        app.package.add(rogue)
        app.profile.apply(rogue, "Application")
        platform = build_two_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        result = run_design_flow(
            app, platform, mapping, str(tmp_path), duration_us=1_000,
            strict=False,
        )
        assert os.path.exists(result.report_path)


class TestInventory:
    def test_figure1_inventory_covers_tool_boxes(self):
        # Figure 1 boxes: the profile, the UML tool, the profiling tool,
        # and the FPGA target all have stand-ins
        assert "TUT-Profile" in FLOW_INVENTORY
        assert "Telelogic TAU G2" in FLOW_INVENTORY
        assert "UML Profiling tool" in FLOW_INVENTORY
        assert any("FPGA" in key for key in FLOW_INVENTORY)

    def test_skip_codegen_option(self, tmp_path):
        app = build_pingpong()
        platform = build_two_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        result = run_design_flow(
            app, platform, mapping, str(tmp_path), duration_us=1_000,
            generate_c=False,
        )
        assert not os.path.exists(
            os.path.join(result.code_directory, "tut_runtime.c")
        )


class TestErrorCapture:
    def _system(self):
        app = build_pingpong()
        platform = build_two_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        return app, platform, mapping

    def test_default_mode_still_raises(self, tmp_path):
        app, platform, mapping = self._system()
        with pytest.raises(TypeError):
            run_design_flow(
                app, platform, mapping, str(tmp_path), duration_us="bogus"
            )

    def test_continue_on_error_partial_result(self, tmp_path):
        app, platform, mapping = self._system()
        result = run_design_flow(
            app, platform, mapping, str(tmp_path),
            duration_us="bogus", continue_on_error=True,
        )
        assert not result.succeeded
        failed = result.failure_for("simulate")
        assert failed is not None and not failed.skipped
        assert "TypeError" in failed.error
        skipped = result.failure_for("profile")
        assert skipped is not None and skipped.skipped
        # independent steps still produced artefacts
        assert os.path.exists(result.xmi_path)
        assert result.simulation is None
        assert result.profiling is None
        assert result.log_path is None
        assert "log" not in result.artifacts

    def test_clean_run_reports_success(self, flow_result):
        assert flow_result.succeeded
        assert flow_result.failures == []

    def test_validation_failure_recorded_not_raised(self, tmp_path):
        app, platform, mapping = self._system()
        from repro.uml import Class

        rogue = Class("Rogue")
        app.package.add(rogue)
        app.profile.apply(rogue, "Application")
        result = run_design_flow(
            app, platform, mapping, str(tmp_path), duration_us=1_000,
            continue_on_error=True,
        )
        failed = result.failure_for("validate")
        assert failed is not None
        # validation gates nothing downstream: the rest of the flow ran
        assert result.profiling is not None
        assert os.path.exists(result.report_path)


class TestFaultsThroughFlow:
    def test_flow_with_fault_plan(self, tmp_path):
        from repro.cases.tutmac import TutmacParameters
        from repro.cases.tutwlan import build_tutwlan_system
        from repro.faults import build_campaign_plan

        app, platform, mapping = build_tutwlan_system(
            params=TutmacParameters(arq_enabled=True)
        )
        plan = build_campaign_plan(seed=2, fault_rate=0.05)
        result = run_design_flow(
            app, platform, mapping, str(tmp_path), duration_us=50_000,
            faults=plan,
        )
        assert result.succeeded
        assert result.profiling.fault_stats is not None
        assert result.profiling.fault_stats.injected > 0
        assert result.profiling.fault_stats == result.simulation.fault_stats
        assert "Fault injection" in result.report_text


class TestExploreCampaignMetrics:
    def test_campaign_counters_land_in_metrics_json(self, tmp_path):
        import json

        app = build_pingpong()
        platform = build_two_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        result = run_design_flow(
            app, platform, mapping, str(tmp_path), duration_us=2_000,
            trace=True,
            explore_factory=lambda: (
                build_pingpong(), build_two_cpu_platform()
            ),
        )
        assert result.succeeded
        zeroed = {
            "crashes": 0, "errors": 0, "quarantined": 0,
            "retries": 0, "timeouts": 0,
        }
        # the campaign's supervisor counters land in exploration.json (and
        # the explore JSON) only; the trace metrics are the simulation's
        with open(os.path.join(str(tmp_path), "exploration.json")) as handle:
            exploration = json.load(handle)
        assert exploration["supervisor"] == zeroed
        with open(os.path.join(str(tmp_path), "metrics.json")) as handle:
            payload = json.load(handle)
        assert "campaign" not in payload["results"]
