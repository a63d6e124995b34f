"""CLI + flow acceptance for the observability layer.

Covers ``repro trace`` in all three formats, ``flow --trace`` artefacts
and the determinism satellite: exploration summaries must not depend on
the worker count.
"""

from __future__ import annotations

import json
import os

from repro.__main__ import main
from repro.mapping import MappingModel
from repro.flow import run_design_flow

from tests.conftest import build_pingpong, build_two_cpu_platform


class TestTraceCommand:
    def test_text_format_prints_metric_tables(self, capsys):
        assert main(["trace", "examples", "--duration-us", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Per-PE execution" in out
        assert "HIBI segment occupancy" in out
        assert "signals:" in out

    def test_json_format_uses_envelope(self, capsys):
        assert main(
            ["trace", "examples", "--duration-us", "2000", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.trace-metrics/1"
        assert payload["meta"]["duration_us"] == 2000
        results = payload["results"]
        end = results["end_time_ps"]
        assert end == 2000 * 1_000_000
        for pe in results["pes"].values():
            assert pe["busy_ps"] + pe["idle_ps"] == end
            assert pe["utilization"] == pe["busy_ps"] / end

    def test_json_lists_every_platform_pe(self, capsys):
        """processor3 runs nothing in the example mapping; it still has a row."""
        assert main(["trace", "examples", "--format", "json"]) == 0
        pes = json.loads(capsys.readouterr().out)["results"]["pes"]
        assert set(pes) == {"accelerator1", "processor1", "processor2", "processor3"}
        assert pes["processor3"]["steps"] == 0
        assert pes["processor3"]["utilization"] == 0.0
        assert all(pes[name]["steps"] > 0 for name in pes if name != "processor3")

    def test_chrome_format_is_a_plain_trace_container(self, capsys):
        assert main(
            ["trace", "--duration-us", "2000", "--format", "chrome"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "schema" not in payload  # deliberately unenveloped
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "ts", "pid", "tid"} <= set(event)
        assert payload["metadata"]["duration_us"] == 2000

    def test_out_writes_trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        assert main(
            ["trace", "--duration-us", "2000", "--out", path]
        ) == 0
        assert "ui.perfetto.dev" in capsys.readouterr().out
        with open(path, encoding="utf-8") as handle:
            assert json.loads(handle.read())["traceEvents"]

    def test_chrome_output_is_deterministic(self, capsys):
        argv = ["trace", "--duration-us", "2000", "--format", "chrome"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestFlowTrace:
    def test_flow_trace_writes_trace_and_metrics(self, tmp_path):
        app = build_pingpong()
        platform = build_two_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        result = run_design_flow(
            app, platform, mapping, str(tmp_path), duration_us=5_000, trace=True
        )
        assert "trace" in result.steps_run or "simulate" in result.steps_run
        trace_path = result.artifacts["trace"]
        metrics_path = result.artifacts["metrics"]
        assert os.path.exists(trace_path) and os.path.exists(metrics_path)
        with open(trace_path, encoding="utf-8") as handle:
            assert json.loads(handle.read())["traceEvents"]
        with open(metrics_path, encoding="utf-8") as handle:
            metrics = json.loads(handle.read())
        assert metrics["schema"] == "repro.trace-metrics/1"
        assert result.metrics is not None
        assert metrics["results"]["pes"] == result.metrics.to_dict()["pes"]
        # latency flows are keyed by process group, not transport
        assert all("->" in key for key in metrics["results"]["latency"])

    def test_flow_without_trace_has_no_trace_artifacts(self, tmp_path):
        app = build_pingpong()
        platform = build_two_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        result = run_design_flow(
            app, platform, mapping, str(tmp_path), duration_us=5_000
        )
        assert "trace" not in result.artifacts
        assert result.metrics is None


class TestWorkerInvariance:
    def test_observability_summary_identical_for_workers_0_and_1(self):
        from repro.exploration import mapping_sweep_specs, run_candidates

        specs = mapping_sweep_specs(
            "repro.cases.tutwlan:exploration_factory",
            duration_us=2_000,
            limit=2,
        )
        serial = run_candidates(specs, workers=0)
        pooled = run_candidates(specs, workers=1)
        serial_summaries = [o.result.observability for o in serial.ranking()]
        pooled_summaries = [o.result.observability for o in pooled.ranking()]
        assert serial_summaries == pooled_summaries
        for summary in serial_summaries:
            assert summary["end_time_ps"] > 0
            assert set(summary["pe_utilization"]) == set(summary["pe_busy_ps"])
