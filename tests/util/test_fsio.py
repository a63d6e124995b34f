"""ensure_parent: every artefact writer must create missing directories."""

import json
from pathlib import Path

import pytest

from repro.util.fsio import ensure_parent


class TestEnsureParent:
    def test_creates_nested_ancestors(self, tmp_path):
        target = tmp_path / "a" / "b" / "c" / "out.json"
        returned = ensure_parent(target)
        assert returned == target
        assert isinstance(returned, Path)
        assert target.parent.is_dir()
        assert not target.exists()  # only the parent is created

    def test_idempotent_and_accepts_strings(self, tmp_path):
        target = str(tmp_path / "x" / "y.txt")
        ensure_parent(target)
        result = ensure_parent(target)  # second call must not raise
        assert result == Path(target)

    def test_chainable_write(self, tmp_path):
        target = tmp_path / "deep" / "er" / "note.txt"
        ensure_parent(target).write_text("ok")
        assert target.read_text() == "ok"


class TestWritersCreateNestedDirs:
    """Regression: artefact writers used to fail on nested --out paths."""

    def test_logwriter_write(self, tmp_path, pingpong_system):
        from repro.simulation.system import SystemSimulation

        application, platform, mapping = pingpong_system
        result = SystemSimulation(application, platform, mapping).run(1_000)
        target = tmp_path / "runs" / "42" / "sim.tutlog"
        result.writer.write(str(target))
        assert target.read_text().startswith("TUTLOG")

    def test_write_chrome_trace(self, tmp_path):
        from repro.observability.export import write_chrome_trace
        from repro.observability.tracer import Tracer

        tracer = Tracer()
        tracer.instant("mark", ("g", "lane"), time_ps=0)
        target = tmp_path / "traces" / "nested" / "trace.json"
        write_chrome_trace(tracer, str(target))
        assert target.read_text().startswith("{")

    def test_checkpoint_store_save(self, tmp_path):
        from repro.checkpoint import CheckpointStore, Snapshot, state_hash

        state = {"kernel": {"now_ps": 0}}
        snapshot = Snapshot("tag", 0, 0, state, state_hash(state))
        path = CheckpointStore(tmp_path / "deep" / "store").save(snapshot)
        assert path.is_file()


class TestWriteJsonAtomic:
    """write_json_atomic: crash-safe JSON for the cache and benchmark records."""

    def test_creates_nested_parents_and_writes(self, tmp_path):
        from repro.util.fsio import write_json_atomic

        target = tmp_path / "deep" / "cache" / "ab" / "entry.json"
        returned = write_json_atomic(target, {"b": 2, "a": 1})
        assert returned == target
        assert json.loads(target.read_text()) == {"a": 1, "b": 2}
        # keys are sorted for stable diffs
        assert target.read_text().index('"a"') < target.read_text().index('"b"')

    def test_replace_is_atomic_no_temp_left_behind(self, tmp_path):
        from repro.util.fsio import write_json_atomic

        target = tmp_path / "out.json"
        write_json_atomic(target, {"v": 1})
        write_json_atomic(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_unserialisable_payload_leaves_no_debris(self, tmp_path):
        from repro.util.fsio import write_json_atomic

        target = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            write_json_atomic(target, {"oops": object()})
        assert list(tmp_path.iterdir()) == []

    def test_bench_envelope_in_nested_dir(self, tmp_path):
        from repro.util.fsio import write_json_atomic
        from repro.util.jsonout import envelope

        target = tmp_path / "bench" / "out" / "BENCH_example.json"
        write_json_atomic(target, envelope("bench-example", {"ok": True}))
        assert json.loads(target.read_text())["schema"] == "repro.bench-example/1"
