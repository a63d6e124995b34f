"""Simulation log-file format: render, parse, aggregate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.observability.tracer import (
    SYSTEM_TRACK,
    InstantEvent,
    SpanEvent,
    efsm_track,
    pe_track,
)
from repro.simulation import (
    DropRecord,
    ExecRecord,
    FaultRecord,
    LogWriter,
    SignalRecord,
    parse_log,
)

NAMES = st.sampled_from(["rca", "mng", "frag", "crc", "user", "phy"])


def sample_writer():
    writer = LogWriter(meta={"application": "Demo"})
    writer.exec_step(
        time_ps=0, process="a", pe="cpu1", cycles=100, duration_ps=2000,
        from_state="idle", to_state="run", trigger="start", statements=4,
        transitions="0,2",
    )
    writer.signal(
        time_ps=2000, signal="ping", sender="a", receiver="b", bytes=12,
        latency_ps=500, transport="bus",
    )
    writer.drop(time_ps=2500, process="b", signal="pong", reason="no-transition")
    writer.finish(5000)
    return writer


class TestRoundTrip:
    def test_parse_recovers_records(self):
        log = parse_log(sample_writer().render())
        assert len(log.exec_records) == 1
        assert len(log.signal_records) == 1
        assert len(log.drop_records) == 1
        assert log.end_time_ps == 5000
        assert log.meta["application"] == "Demo"

    def test_exec_fields(self):
        log = parse_log(sample_writer().render())
        record = log.exec_records[0]
        assert record.process == "a"
        assert record.cycles == 100
        assert record.from_state == "idle"
        assert record.statements == 4
        assert record.transitions == "0,2"

    def test_exec_line_ends_with_statements_and_transitions(self):
        line = next(
            line
            for line in sample_writer().render().splitlines()
            if line.startswith("EXEC")
        )
        assert line.endswith("trigger=start statements=4 transitions=0,2")

    def test_signal_fields(self):
        log = parse_log(sample_writer().render())
        record = log.signal_records[0]
        assert record.sender == "a"
        assert record.transport == "bus"
        assert record.latency_ps == 500

    def test_meta_value_is_the_rest_of_the_line(self):
        meta = {"application": "My App", "platform": "a=b"}
        writer = LogWriter(meta=meta)
        writer.finish(0)
        assert parse_log(writer.render()).meta == meta

    def test_meta_line_keeps_inner_spaces_and_drops_trailing_ones(self):
        text = "TUTLOG 2\nMETA  note= two  words = x  \nMETA\nEND time=0 events=0\n"
        assert parse_log(text).meta == {"note": " two  words = x"}

    def test_write_and_read_file(self, tmp_path):
        from repro.simulation import read_log

        path = tmp_path / "run.tutlog"
        sample_writer().write(path)
        log = read_log(path)
        assert log.end_time_ps == 5000


class TestErrors:
    def test_missing_magic(self):
        with pytest.raises(SimulationError):
            parse_log("EXEC time=0\n")

    def test_a_log_of_the_previous_version_is_rejected(self):
        """A ``TUTLOG 1`` log has no statements or transitions per step."""
        old = sample_writer().render().replace("TUTLOG 2", "TUTLOG 1", 1)
        with pytest.raises(SimulationError, match="not a TUTLOG 2 .*'TUTLOG 1'"):
            parse_log(old)

    def test_an_exec_line_without_the_step_fields_is_malformed(self):
        text = sample_writer().render().replace(" statements=4 transitions=0,2", "")
        with pytest.raises(SimulationError, match="malformed log line 3"):
            parse_log(text)

    def test_truncated_log(self):
        text = sample_writer().render()
        truncated = "\n".join(text.splitlines()[:-1])
        with pytest.raises(SimulationError):
            parse_log(truncated)

    def test_malformed_record(self):
        with pytest.raises(SimulationError):
            parse_log("TUTLOG 2\nEXEC time=zero\nEND time=1 events=0\n")

    def test_unknown_record_kind(self):
        with pytest.raises(SimulationError):
            parse_log("TUTLOG 2\nWAT x=1\nEND time=1 events=0\n")

    def test_comments_and_blank_lines_tolerated(self):
        text = "TUTLOG 2\n\n# a comment\nEND time=9 events=0\n"
        assert parse_log(text).end_time_ps == 9


class TestAggregation:
    def test_cycles_by_process(self):
        writer = LogWriter()
        for cycles in (10, 20, 30):
            writer.exec_step(
                time_ps=0, process="p", pe="cpu", cycles=cycles, duration_ps=0,
                from_state="s", to_state="s", trigger="t", statements=1,
                transitions="0",
            )
        writer.exec_step(
            time_ps=0, process="q", pe="cpu", cycles=5, duration_ps=0,
            from_state="s", to_state="s", trigger="t", statements=1,
            transitions="0",
        )
        writer.finish(1)
        log = parse_log(writer.render())
        assert log.account.process_cycles == {"p": 60, "q": 5}
        assert log.account.process_steps == {"p": 3, "q": 1}

    def test_signal_counts(self):
        writer = LogWriter()
        for _ in range(3):
            writer.signal(
                time_ps=0, signal="x", sender="a", receiver="b", bytes=1,
                latency_ps=0, transport="local",
            )
        writer.signal(
            time_ps=0, signal="y", sender="b", receiver="a", bytes=1,
            latency_ps=0, transport="local",
        )
        writer.finish(1)
        log = parse_log(writer.render())
        counts = {key: h.count for key, h in log.account.flow_latency.items()}
        assert counts == {("a", "b", "x", "local"): 3, ("b", "a", "y", "local"): 1}


class TestTraceEvents:
    """Each record gives the trace events it stands for (maybe none)."""

    def test_exec_on_a_pe_is_a_span_on_its_track(self):
        """Then an efsm instant on its process's track."""
        record = ExecRecord(100, "a", "cpu1", 7, 40, "idle", "run", "ping", 3, "4,1")
        assert record.trace_events() == (
            SpanEvent(
                "a",
                pe_track("cpu1"),
                100,
                40,
                "exec",
                {"from_state": "idle", "to_state": "run", "trigger": "ping", "cycles": 7},
            ),
            InstantEvent(
                "ping",
                efsm_track("a"),
                100,
                "efsm",
                {
                    "from_state": "idle",
                    "to_state": "run",
                    "statements": 3,
                    "transitions": "4,1",
                },
            ),
        )

    def test_environment_exec_is_only_an_efsm_instant(self):
        record = ExecRecord(100, "env", "-", 0, 0, "idle", "idle", "start", 1, "-")
        assert record.trace_events() == (
            InstantEvent(
                "start",
                efsm_track("env"),
                100,
                "efsm",
                {
                    "from_state": "idle",
                    "to_state": "idle",
                    "statements": 1,
                    "transitions": "-",
                },
            ),
        )

    def test_signal_is_a_system_instant(self):
        record = SignalRecord(900, "ping", "a", "b", 12, 500, "bus", 1)
        assert record.trace_events() == (
            InstantEvent(
                "ping",
                SYSTEM_TRACK,
                900,
                "signal",
                {
                    "sender": "a",
                    "receiver": "b",
                    "latency_ps": 500,
                    "transport": "bus",
                    "bytes": 12,
                    "corrupt": 1,
                },
            ),
        )

    def test_drop_is_a_system_instant(self):
        record = DropRecord(300, "b", "timer:t1", "guards-false")
        assert record.trace_events() == (
            InstantEvent(
                "timer:t1",
                SYSTEM_TRACK,
                300,
                "drop",
                {"process": "b", "reason": "guards-false"},
            ),
        )

    def test_pe_crash_is_an_instant_on_the_crashed_pe(self):
        record = FaultRecord(50, "pe-crash", "ping", "cpu2", "b")
        assert record.trace_events() == (
            InstantEvent(
                "pe-crash",
                pe_track("cpu2"),
                50,
                "fault",
                {"signal": "ping", "process": "b"},
            ),
        )

    def test_pe_stall_has_no_event(self):
        record = FaultRecord(50, "pe-stall", "ping", "cpu2", "b")
        assert record.trace_events() == ()

    @pytest.mark.parametrize(
        "kind", ["bus-corrupt", "bus-drop", "signal-drop", "signal-dup"]
    )
    def test_other_faults_are_system_instants(self, kind):
        record = FaultRecord(60, kind, "ping", "a", "b")
        assert record.trace_events() == (
            InstantEvent(
                kind,
                SYSTEM_TRACK,
                60,
                "fault",
                {"signal": "ping", "source": "a", "target": "b"},
            ),
        )

    def test_a_parsed_log_gives_the_writers_events(self):
        writer = sample_writer()
        writer.exec_step(
            time_ps=3000, process="env", pe="-", cycles=0, duration_ps=0,
            from_state="s", to_state="s", trigger="start", statements=0,
            transitions="-",
        )
        writer.signal(
            time_ps=3500, signal="pong", sender="b", receiver="a", bytes=4,
            latency_ps=20, transport="local", corrupt=1,
        )
        for kind in ("pe-stall", "pe-crash", "bus-corrupt", "signal-dup"):
            writer.fault(
                time_ps=4000, kind=kind, signal="ping", source="cpu1", target="a"
            )
        parsed = parse_log(writer.render()).records
        assert [r.trace_events() for r in parsed] == [
            r.trace_events() for r in writer.records
        ]


@given(
    st.lists(
        st.tuples(
            NAMES,
            NAMES,
            st.integers(0, 10**6),
            st.integers(0, 10**4),
        ),
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_roundtrip(records):
    """Any batch of records survives render → parse exactly."""
    writer = LogWriter()
    for sender, receiver, time_ps, size in records:
        writer.signal(
            time_ps=time_ps, signal="sig", sender=sender, receiver=receiver,
            bytes=size, latency_ps=time_ps // 2, transport="local",
        )
    writer.finish(10**7)
    log = parse_log(writer.render())
    assert len(log.signal_records) == len(records)
    for record, (sender, receiver, time_ps, size) in zip(log.signal_records, records):
        assert record.sender == sender
        assert record.receiver == receiver
        assert record.time_ps == time_ps
        assert record.bytes == size
