"""Metrics aggregation: histogram buckets, per-PE/segment arithmetic."""

from __future__ import annotations

from repro.observability import (
    KERNEL_TRACK,
    SYSTEM_TRACK,
    LatencyHistogram,
    Tracer,
    bus_track,
    collect_metrics,
    efsm_track,
    pe_track,
)


class TestLatencyHistogram:
    def test_power_of_two_buckets(self):
        histogram = LatencyHistogram()
        for latency in (0, 1, 2, 3, 4, 5, 1000):
            histogram.observe(latency)
        # 0 -> bucket 0; 1 -> 1; 2 -> 2; 3,4 -> 4; 5 -> 8; 1000 -> 1024
        assert histogram.buckets == {0: 1, 1: 1, 2: 1, 4: 2, 8: 1, 1024: 1}
        assert histogram.count == 7
        assert histogram.max_ps == 1000

    def test_mean_of_empty_population_is_zero(self):
        assert LatencyHistogram().mean_ps == 0.0

    def test_to_dict_uses_string_bucket_keys(self):
        histogram = LatencyHistogram()
        histogram.observe(3)
        assert histogram.to_dict()["buckets"] == {"4": 1}


def build_trace() -> Tracer:
    """A small synthetic trace with every event category."""
    tracer = Tracer()
    tracer.span("p1", pe_track("cpu"), start_ps=0, duration_ps=300, category="exec")
    tracer.span("p1", pe_track("cpu"), start_ps=500, duration_ps=200, category="exec")
    tracer.span(
        "cpu", bus_track("seg"), start_ps=100, duration_ps=50,
        category="bus", bytes=32, wait_ps=10,
    )
    tracer.span(
        "cpu", bus_track("seg"), start_ps=200, duration_ps=50,
        category="bus", bytes=8, wait_ps=0, fault="bus-corrupt",
    )
    tracer.instant(
        "msg", SYSTEM_TRACK, category="signal", time_ps=150,
        sender="a", receiver="b", latency_ps=50, transport="bus",
    )
    tracer.instant(
        "msg", SYSTEM_TRACK, category="signal", time_ps=250,
        sender="a", receiver="a", latency_ps=3, transport="local",
    )
    tracer.instant("msg", SYSTEM_TRACK, category="dispatch", time_ps=100)
    tracer.instant("msg", SYSTEM_TRACK, category="drop", time_ps=300)
    tracer.instant(
        "pe-stall", pe_track("cpu"), category="fault", time_ps=400, extra_ps=77
    )
    tracer.instant("t", efsm_track("p1"), category="efsm", time_ps=10)
    tracer.counter("ready", pe_track("cpu"), {"depth": 4}, time_ps=50)
    tracer.counter("ready", pe_track("cpu"), {"depth": 2}, time_ps=60)
    tracer.counter("requests", bus_track("seg"), {"depth": 3}, time_ps=70)
    tracer.counter("queue_depth", KERNEL_TRACK, {"depth": 9}, time_ps=80)
    return tracer


class TestCollectMetrics:
    def test_pe_breakdown(self):
        report = collect_metrics(build_trace(), end_time_ps=1000)
        cpu = report.pes["cpu"]
        assert cpu.busy_ps == 500 and cpu.steps == 2
        assert cpu.stall_ps == 77
        assert cpu.ready_queue_peak == 4
        assert cpu.utilization(1000) == 0.5
        assert cpu.idle_ps(1000) == 500

    def test_segment_breakdown(self):
        report = collect_metrics(build_trace(), end_time_ps=1000)
        seg = report.segments["seg"]
        assert seg.busy_ps == 100 and seg.transfers == 2
        assert seg.wait_ps == 10 and seg.bytes == 40
        assert seg.queue_peak == 3
        assert seg.faulted_transfers == 1
        assert seg.occupancy(1000) == 0.1

    def test_signal_accounting_and_latency_by_transport(self):
        report = collect_metrics(build_trace(), end_time_ps=1000)
        assert report.dispatched_signals == 1
        assert report.delivered_signals == 2
        assert report.dropped_signals == 1
        assert report.transitions == 1
        assert report.faults_by_kind == {"pe-stall": 1}
        assert report.kernel_queue_peak == 9
        assert set(report.latency) == {"bus", "local"}
        assert report.latency["bus"].count == 1
        assert report.latency["bus"].max_ps == 50

    def test_latency_keyed_by_group_with_group_of(self):
        report = collect_metrics(
            build_trace(), end_time_ps=1000, group_of={"a": "g1", "b": "g2"}
        )
        assert set(report.latency) == {"g1->g2", "g1->g1"}

    def test_to_dict_utilization_consistent_with_simulated_time(self):
        report = collect_metrics(build_trace(), end_time_ps=1000)
        data = report.to_dict()
        for pe in data["pes"].values():
            assert pe["busy_ps"] + pe["idle_ps"] == data["end_time_ps"]
            assert pe["utilization"] == pe["busy_ps"] / data["end_time_ps"]

    def test_every_named_pe_gets_a_row(self):
        report = collect_metrics(build_trace(), end_time_ps=1000, pes=["cpu", "dsp"])
        pes = report.to_dict()["pes"]
        assert set(pes) == {"cpu", "dsp"}
        assert pes["cpu"]["steps"] == 2  # the trace's PE keeps its figures
        assert pes["dsp"] == {
            "busy_ps": 0,
            "idle_ps": 1000,
            "stall_ps": 0,
            "steps": 0,
            "utilization": 0.0,
            "ready_queue_peak": 0,
        }

    def test_report_holds_no_campaign_counters(self):
        assert "campaign" not in collect_metrics(build_trace(), 1000).to_dict()
