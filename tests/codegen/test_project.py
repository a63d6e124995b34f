"""Project emission and (when a compiler is available) compile & run."""

import os
import shutil
import subprocess

import pytest

from repro.codegen import generate_project

HAVE_CC = shutil.which("cc") is not None and shutil.which("make") is not None


class TestEmission:
    def test_file_inventory(self, pingpong, tmp_path):
        project = generate_project(pingpong, str(tmp_path))
        names = project.file_names
        assert "tut_runtime.c" in names
        assert "tut_runtime.h" in names
        assert "tut_app.c" in names
        assert "main.c" in names
        assert "Makefile" in names
        assert "Ping.c" in names and "Pong.h" in names

    def test_write_creates_files(self, pingpong, tmp_path):
        project = generate_project(pingpong, str(tmp_path / "out"))
        project.write()
        for name in project.file_names:
            assert os.path.exists(os.path.join(project.directory, name))

    def test_routing_table_embedded(self, pingpong, tmp_path):
        project = generate_project(pingpong, str(tmp_path))
        app_source = project.files["tut_app.c"]
        assert "/* ping1 -tick-> pong1 */" in app_source
        assert "/* pong1 -tock-> ping1 */" in app_source

    def test_signal_ids_sorted_and_shared(self, pingpong, tmp_path):
        project = generate_project(pingpong, str(tmp_path))
        header = project.files["tut_app.h"]
        assert "#define SIG_TICK 0" in header
        assert "#define SIG_TOCK 1" in header

    def test_shared_component_generated_once(self, tmp_path):
        from repro.application import ApplicationModel
        from repro.uml import Port

        app = ApplicationModel("Multi")
        app.signal("s")
        worker = app.component("Worker")
        worker.add_port(Port("p", provided=["s"]))
        machine = app.behavior(worker)
        machine.state("x", initial=True)
        app.process(app.top, "w1", worker)
        app.process(app.top, "w2", worker)
        project = generate_project(app, str(tmp_path))
        assert project.file_names.count("Worker.c") == 1
        # but both processes appear in the application table
        assert "proc_w1" in project.files["tut_app.c"]
        assert "proc_w2" in project.files["tut_app.c"]

    def test_total_lines_substantial(self, pingpong, tmp_path):
        project = generate_project(pingpong, str(tmp_path))
        assert project.total_lines() > 300


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler/make available")
class TestCompileAndRun:
    def build(self, app, tmp_path, duration_us=20_000):
        project = generate_project(app, str(tmp_path))
        project.write()
        result = subprocess.run(
            ["make", "-C", str(tmp_path)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        log_path = tmp_path / "out.tutlog"
        run = subprocess.run(
            [str(tmp_path / "app"), str(duration_us), str(log_path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        return log_path.read_text()

    def test_pingpong_compiles_and_runs(self, pingpong, tmp_path):
        log_text = self.build(pingpong, tmp_path)
        assert log_text.startswith("TUTLOG 2")
        assert "SIG" in log_text

    def test_generated_log_feeds_python_profiler(self, pingpong, tmp_path):
        from repro.profiling import analyze, group_info_from_model
        from repro.simulation import parse_log

        log_text = self.build(pingpong, tmp_path)
        log = parse_log(log_text)
        data = analyze(log, group_info_from_model(pingpong.model))
        # the C execution exhibits the same signal flows as the DES
        assert data.signals_between("g1", "g2") > 0
        assert data.signals_between("g2", "g1") > 0

    def test_tutmac_c_matches_des_signal_shape(self, tmp_path):
        """The generated C and the Python DES agree on the Table 4(b) shape."""
        from repro.cases.tutmac import build_tutmac
        from repro.profiling import analyze, group_info_from_model
        from repro.simulation import parse_log

        app = build_tutmac()
        log_text = self.build(app, tmp_path, duration_us=50_000)
        data = analyze(parse_log(log_text), group_info_from_model(app.model))
        # uplink pipeline flows exist in C exactly as in the DES
        assert data.signals_between("group2", "group1") > 0
        assert data.signals_between("group2", "group4") > 0
        assert data.signals_between("group1", "group3") > 0
        assert data.signals_between("group3", "group2") > 0
        # no flows that the composite structure forbids
        assert data.signals_between("group4", "group1") == 0
        assert data.signals_between("group3", "group1") == 0
