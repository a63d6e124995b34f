"""Latency statistics in the profiling analysis."""

import pytest

from repro.observability import LatencyHistogram
from repro.profiling import analyze, render_latency_detail
from repro.profiling.groupinfo import ProcessGroupInfo
from repro.simulation import LogWriter, parse_log


def histogram(*latencies):
    merged = LatencyHistogram()
    for latency in latencies:
        merged.observe(latency)
    return merged


class TestLatencyMerge:
    def test_merge_accumulates(self):
        merged = histogram(10)
        merged.merge(histogram(20, 60))
        assert merged == histogram(10, 20, 60)
        assert merged.count == 3
        assert merged.mean_ps == pytest.approx(30.0)
        assert merged.max_ps == 60

    def test_merging_an_empty_histogram_changes_nothing(self):
        merged = histogram(5, 7)
        merged.merge(LatencyHistogram())
        assert merged == histogram(5, 7)


def build_data():
    info = ProcessGroupInfo()
    info.process_to_group = {"a": "g", "b": "g"}
    info.group_names = ["g"]
    writer = LogWriter()
    samples = [
        ("ping", "local", 100),
        ("ping", "local", 300),
        ("ping", "bus", 900),
        ("pong", "bus", 500),
    ]
    for signal, transport, latency in samples:
        writer.signal(
            time_ps=0, signal=signal, sender="a", receiver="b",
            bytes=4, latency_ps=latency, transport=transport,
        )
    writer.finish(1)
    return analyze(parse_log(writer.render()), info)


class TestAggregation:
    def test_per_signal_latency(self):
        data = build_data()
        assert data.signal_latency["ping"].count == 3
        assert data.signal_latency["ping"].max_ps == 900
        assert data.signal_latency["pong"].mean_ps == pytest.approx(500.0)

    def test_per_transport_latency(self):
        data = build_data()
        assert data.transport_latency["local"].count == 2
        assert data.transport_latency["bus"].count == 2
        assert data.transport_latency["bus"].mean_ps == pytest.approx(700.0)

    def test_render_detail(self):
        text = render_latency_detail(build_data())
        assert "Delivery latency by transport" in text
        assert "Delivery latency by signal type" in text
        assert "ping" in text and "bus" in text


class TestOnRealRun:
    def test_bus_latency_exceeds_local(self, tutwlan_system):
        from repro.profiling import profile_run
        from repro.simulation import SystemSimulation
        from repro.cases.tutwlan import build_tutwlan_system

        application, platform, mapping = build_tutwlan_system()
        result = SystemSimulation(application, platform, mapping).run(20_000)
        data = profile_run(result, application)
        assert (
            data.transport_latency["bus"].mean_ps
            > data.transport_latency["local"].mean_ps
        )
        # environment deliveries are instantaneous
        assert data.transport_latency["env"].max_ps == 0
