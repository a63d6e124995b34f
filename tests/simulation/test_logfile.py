"""Simulation log-file format: render, parse, aggregate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulation import (
    DropRecord,
    ExecRecord,
    LogWriter,
    SignalRecord,
    parse_log,
)

NAMES = st.sampled_from(["rca", "mng", "frag", "crc", "user", "phy"])


def sample_writer():
    writer = LogWriter(meta={"application": "Demo"})
    writer.exec_step(
        time_ps=0, process="a", pe="cpu1", cycles=100, duration_ps=2000,
        from_state="idle", to_state="run", trigger="start",
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
        text = "TUTLOG 1\nMETA  note= two  words = x  \nMETA\nEND time=0 events=0\n"
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

    def test_truncated_log(self):
        text = sample_writer().render()
        truncated = "\n".join(text.splitlines()[:-1])
        with pytest.raises(SimulationError):
            parse_log(truncated)

    def test_malformed_record(self):
        with pytest.raises(SimulationError):
            parse_log("TUTLOG 1\nEXEC time=zero\nEND time=1 events=0\n")

    def test_unknown_record_kind(self):
        with pytest.raises(SimulationError):
            parse_log("TUTLOG 1\nWAT x=1\nEND time=1 events=0\n")

    def test_comments_and_blank_lines_tolerated(self):
        text = "TUTLOG 1\n\n# a comment\nEND time=9 events=0\n"
        assert parse_log(text).end_time_ps == 9


class TestAggregation:
    def test_cycles_by_process(self):
        writer = LogWriter()
        for cycles in (10, 20, 30):
            writer.exec_step(
                time_ps=0, process="p", pe="cpu", cycles=cycles, duration_ps=0,
                from_state="s", to_state="s", trigger="t",
            )
        writer.exec_step(
            time_ps=0, process="q", pe="cpu", cycles=5, duration_ps=0,
            from_state="s", to_state="s", trigger="t",
        )
        writer.finish(1)
        log = parse_log(writer.render())
        assert log.cycles_by_process() == {"p": 60, "q": 5}

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
        assert log.signal_counts() == {("a", "b"): 3, ("b", "a"): 1}


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
