"""C generation of completion transitions, final states and guards."""

import shutil
import subprocess

import pytest

from repro.codegen import CGenerator
from repro.uml import Class, StateMachine
from repro.uml.structure import Port

SIGNAL_IDS = {"go": 0, "done": 1}


def chained_component():
    component = Class("Chained", is_active=True)
    component.add_port(Port("out", required=["done"], provided=["go"]))
    machine = StateMachine("beh")
    component.set_behavior(machine)
    machine.variable("x", 0)
    machine.state("start", initial=True, entry="x = 1;")
    machine.state("middle", entry="x = x + 10;")
    machine.state("finish", entry="send done() via out;")
    machine.transition("start", "middle")                       # completion
    machine.transition("middle", "finish", guard="x > 5")       # guarded completion
    final = machine.final_state()
    machine.on_signal("finish", final, "go")
    return component


class TestCompletionChains:
    def test_enter_functions_chain(self):
        generator = CGenerator(chained_component(), SIGNAL_IDS)
        source = generator.source()
        # start's enter function must call middle's (completion transition)
        start_body = source.split("Chained_enter_start(Chained_ctx_t *ctx)")[2]
        assert "Chained_enter_middle(ctx);" in start_body.split("}")[0] + "}"

    def test_guarded_completion_emits_condition(self):
        generator = CGenerator(chained_component(), SIGNAL_IDS)
        source = generator.source()
        middle_body = source.split("Chained_enter_middle(Chained_ctx_t *ctx)")[2]
        head = middle_body.split("Chained_enter_finish")[0]
        assert "if ((ctx->v_x > 5))" in head

    def test_final_state_sets_terminated(self):
        generator = CGenerator(chained_component(), SIGNAL_IDS)
        source = generator.source()
        final_body = source.split("Chained_enter_final(Chained_ctx_t *ctx)")[2]
        assert "ctx->base.terminated = 1;" in final_body.split("}")[0] + "}"


@pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler available"
)
class TestSemanticEquivalence:
    def test_chained_entry_behaviour_matches_interpreter(self, tmp_path):
        """Compile a tiny harness around the generated component and compare
        its variable trajectory with the Python executor's."""
        from repro.codegen.runtime import RUNTIME_HEADER
        # every step is replayed from its EXEC fields
        from tests.simulation.test_exec_record_replay import (
            ReplayingExecutor as ProcessExecutor,
        )

        component = chained_component()
        generator = CGenerator(component, SIGNAL_IDS, instrument=False)
        (tmp_path / "Chained.h").write_text(generator.header())
        (tmp_path / "Chained.c").write_text(generator.source())
        (tmp_path / "tut_runtime.h").write_text(RUNTIME_HEADER)
        (tmp_path / "tut_app.h").write_text(
            "#ifndef TUT_APP_H\n#define TUT_APP_H\n"
            '#include "tut_runtime.h"\n'
            "#define SIG_GO 0\n#define SIG_DONE 1\n"
            "int tut_route(int s, int g, const char *p);\n"
            "#endif\n"
        )
        (tmp_path / "harness.c").write_text(
            '#include "Chained.h"\n'
            '#include "tut_app.h"\n'
            "#include <stdio.h>\n"
            "/* minimal runtime stubs for a single-component harness */\n"
            "void tut_send(void *c, int s, const int32_t *a, int n, const char *p)"
            " { (void)c; (void)a; (void)n; (void)p; printf(\"send %d\\n\", s); }\n"
            "void tut_set_timer(void *c, int t, int32_t d) { (void)c; (void)t; (void)d; }\n"
            "void tut_reset_timer(void *c, int t) { (void)c; (void)t; }\n"
            "uint32_t tut_crc32(uint32_t v, uint32_t s) { (void)s; return v; }\n"
            "int32_t tut_rand16(uint16_t *s) { (void)s; return 0; }\n"
            "int tut_route(int s, int g, const char *p) { (void)s; (void)g; (void)p; return -1; }\n"
            "int main(void) {\n"
            "    Chained_ctx_t ctx;\n"
            "    Chained_init(&ctx);\n"
            "    Chained_start(&ctx);\n"
            "    printf(\"x=%d state=%d\\n\", ctx.v_x, ctx.base.state);\n"
            "    tut_signal_t sig = {SIG_GO, {0}, 0, 0};\n"
            "    Chained_handle_signal(&ctx, &sig);\n"
            "    printf(\"terminated=%d\\n\", ctx.base.terminated);\n"
            "    return 0;\n"
            "}\n"
            "const char *tut_signal_name(int id) { (void)id; return \"?\"; }\n"
        )
        build = subprocess.run(
            ["cc", "-std=c99", "-o", str(tmp_path / "h"),
             str(tmp_path / "Chained.c"), str(tmp_path / "harness.c")],
            capture_output=True, text=True,
        )
        assert build.returncode == 0, build.stderr
        run = subprocess.run(
            [str(tmp_path / "h")], capture_output=True, text=True, timeout=20
        )
        assert run.returncode == 0

        # Python side
        executor = ProcessExecutor("p", component.classifier_behavior)
        outcome = executor.start()
        assert outcome.to_state == "finish"
        assert f"x={executor.variables['x']}" in run.stdout  # x == 11
        assert "send 1" in run.stdout  # finish's entry sent `done`
        outcome, _ = executor.consume_signal("go", [])
        assert executor.terminated
        assert "terminated=1" in run.stdout
