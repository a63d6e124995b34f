"""Tracer API: spans, instants, counters, clock binding, handle nesting."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.observability import (
    KERNEL_TRACK,
    SYSTEM_TRACK,
    Tracer,
    bus_track,
    efsm_track,
    pe_track,
)


class TestTracks:
    def test_helpers_build_group_lane_pairs(self):
        assert pe_track("cpu1") == ("pe", "cpu1")
        assert bus_track("seg1") == ("bus", "seg1")
        assert efsm_track("p1") == ("efsm", "p1")
        assert KERNEL_TRACK == ("kernel", "scheduler")
        assert SYSTEM_TRACK == ("system", "dispatch")


class TestClock:
    def test_implicit_time_is_zero_without_clock(self):
        tracer = Tracer()
        tracer.instant("x", SYSTEM_TRACK)
        assert tracer.instants()[0].time_ps == 0

    def test_bound_clock_supplies_timestamps(self):
        now = [0]
        tracer = Tracer(clock=lambda: now[0])
        now[0] = 42
        tracer.instant("x", SYSTEM_TRACK)
        assert tracer.instants()[0].time_ps == 42

    def test_bind_clock_after_construction(self):
        tracer = Tracer()
        tracer.bind_clock(lambda: 7)
        assert tracer.now_ps() == 7

    def test_explicit_time_overrides_clock(self):
        tracer = Tracer(clock=lambda: 99)
        tracer.instant("x", SYSTEM_TRACK, time_ps=5)
        assert tracer.instants()[0].time_ps == 5


class TestSpans:
    def test_one_shot_span(self):
        tracer = Tracer()
        tracer.span("x", pe_track("cpu"), start_ps=5, duration_ps=10, k=3)
        (span,) = tracer.spans()
        assert span.start_ps == 5 and span.end_ps == 15 and span.args == {"k": 3}

    def test_negative_duration_raises(self):
        tracer = Tracer()
        with pytest.raises(SimulationError):
            tracer.span("x", pe_track("cpu"), start_ps=0, duration_ps=-1)


class TestViews:
    def test_filters_partition_the_stream(self):
        tracer = Tracer()
        tracer.span("s", pe_track("cpu"), start_ps=0, duration_ps=1)
        tracer.instant("i", SYSTEM_TRACK)
        tracer.counter("c", KERNEL_TRACK, {"depth": 2})
        assert len(tracer.events) == 3
        assert [e.name for e in tracer.spans()] == ["s"]
        assert [e.name for e in tracer.instants()] == ["i"]
        assert [e.name for e in tracer.counters()] == ["c"]
        assert tracer.counters()[0].values == {"depth": 2}
