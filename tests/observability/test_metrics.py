"""Metrics aggregation: histogram buckets, per-PE/segment arithmetic, and
the split between the run account and the trace."""

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
from repro.simulation.logfile import LogFile, LogWriter


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


def build_log() -> LogFile:
    """A small log with every record kind, over a 1000 ps horizon."""
    writer = LogWriter()
    writer.exec_step(
        time_ps=0, process="p1", pe="cpu", cycles=30, duration_ps=300,
        from_state="s", to_state="s", trigger="start", statements=3,
        transitions="-",
    )
    writer.exec_step(
        time_ps=500, process="p1", pe="cpu", cycles=20, duration_ps=200,
        from_state="s", to_state="s", trigger="msg", statements=2,
        transitions="0",
    )
    writer.signal(
        time_ps=150, signal="msg", sender="a", receiver="b", bytes=32,
        latency_ps=50, transport="bus",
    )
    writer.signal(
        time_ps=250, signal="msg", sender="a", receiver="a", bytes=8,
        latency_ps=3, transport="local",
    )
    writer.drop(time_ps=300, process="b", signal="msg", reason="no-transition")
    writer.fault(time_ps=400, kind="pe-stall", source="cpu", target="p1")
    writer.finish(1000)
    return LogFile(writer.meta, writer.records, writer.end_time_ps)


def build_trace() -> Tracer:
    """A small trace with every event category: the live events, and the
    exec, efsm, signal, drop and fault events of :func:`build_log`'s
    records, as a simulation appends them."""
    tracer = Tracer()
    tracer.span(
        "cpu", bus_track("seg"), start_ps=100, duration_ps=50,
        category="bus", bytes=32, wait_ps=10,
    )
    tracer.span(
        "cpu", bus_track("seg"), start_ps=200, duration_ps=50,
        category="bus", bytes=8, wait_ps=0, fault="bus-corrupt",
    )
    tracer.instant("msg", SYSTEM_TRACK, category="dispatch", time_ps=100)
    tracer.instant(
        "pe-stall", pe_track("cpu"), category="fault", time_ps=400, extra_ps=77
    )
    tracer.counter("ready", pe_track("cpu"), {"depth": 4}, time_ps=50)
    tracer.counter("ready", pe_track("cpu"), {"depth": 2}, time_ps=60)
    tracer.counter("requests", bus_track("seg"), {"depth": 3}, time_ps=70)
    tracer.counter("queue_depth", KERNEL_TRACK, {"depth": 9}, time_ps=80)
    for record in build_log().records:
        tracer.events.extend(record.trace_events())
    return tracer


def collect(**kwargs):
    return collect_metrics(build_trace(), build_log().account, **kwargs)


class TestCollectMetrics:
    def test_pe_breakdown(self):
        report = collect()
        cpu = report.pes["cpu"]
        assert cpu.busy_ps == 500 and cpu.steps == 2
        assert cpu.stall_ps == 77
        assert cpu.ready_queue_peak == 4
        assert cpu.utilization(1000) == 0.5
        assert cpu.idle_ps(1000) == 500

    def test_segment_breakdown(self):
        report = collect()
        seg = report.segments["seg"]
        assert seg.busy_ps == 100 and seg.transfers == 2
        assert seg.wait_ps == 10 and seg.bytes == 40
        assert seg.queue_peak == 3
        assert seg.faulted_transfers == 1
        assert seg.occupancy(1000) == 0.1

    def test_signal_accounting_and_latency_by_transport(self):
        report = collect()
        assert report.dispatched_signals == 1
        assert report.delivered_signals == 2
        assert report.dropped_signals == 1
        assert report.transitions == 2
        assert report.faults_by_kind == {"pe-stall": 1}
        assert report.kernel_queue_peak == 9
        assert set(report.latency) == {"bus", "local"}
        assert report.latency["bus"].count == 1
        assert report.latency["bus"].max_ps == 50

    def test_transitions_are_the_logs_exec_records_not_efsm_events(self):
        """A step still in flight at the horizon has no EXEC record, so it
        is not counted, whatever efsm events the trace holds."""
        tracer = build_trace()
        tracer.instant("msg", efsm_track("p1"), category="efsm", time_ps=900)
        report = collect_metrics(tracer, build_log().account)
        assert report.transitions == len(build_log().exec_records) == 2

    def test_latency_keyed_by_group_with_group_of(self):
        report = collect(group_of={"a": "g1", "b": "g2"})
        assert set(report.latency) == {"g1->g2", "g1->g1"}

    def test_to_dict_utilization_consistent_with_simulated_time(self):
        data = collect().to_dict()
        for pe in data["pes"].values():
            assert pe["busy_ps"] + pe["idle_ps"] == data["end_time_ps"]
            assert pe["utilization"] == pe["busy_ps"] / data["end_time_ps"]

    def test_every_named_pe_gets_a_row(self):
        log = build_log()
        account = LogFile(log.meta, log.records, log.end_time_ps, ["cpu", "dsp"]).account
        pes = collect_metrics(build_trace(), account).to_dict()["pes"]
        assert set(pes) == {"cpu", "dsp"}
        assert pes["cpu"]["steps"] == 2  # the log's PE keeps its figures
        assert pes["dsp"] == {
            "busy_ps": 0,
            "idle_ps": 1000,
            "stall_ps": 0,
            "steps": 0,
            "utilization": 0.0,
            "ready_queue_peak": 0,
        }

    def test_report_holds_no_campaign_counters(self):
        assert "campaign" not in collect().to_dict()
