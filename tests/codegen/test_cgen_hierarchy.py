"""C generation of hierarchical state machines (static flattening)."""

import shutil
import subprocess

import pytest

from repro.errors import CodegenError
from repro.codegen import CGenerator
from repro.uml import Class, StateMachine
from repro.uml.structure import Port

SIGNAL_IDS = {"power": 0, "work": 1, "rest": 2, "power_off": 3}


def hierarchical_component():
    component = Class("Hier", is_active=True)
    component.add_port(Port("io", provided=list(SIGNAL_IDS)))
    machine = StateMachine("beh")
    component.set_behavior(machine)
    machine.variable("trace", 0)
    machine.state("off", initial=True, entry="trace = trace * 10 + 7;")
    machine.state("on", entry="trace = trace * 10 + 1;",
                  exit="trace = trace * 10 + 6;")
    machine.state("idle", parent="on", initial=True,
                  entry="trace = trace * 10 + 2;",
                  exit="trace = trace * 10 + 4;")
    machine.state("busy", parent="on",
                  entry="trace = trace * 10 + 3;",
                  exit="trace = trace * 10 + 5;")
    machine.on_signal("off", "on", "power")
    machine.on_signal("idle", "busy", "work")
    machine.on_signal("busy", "idle", "rest")
    machine.on_signal("on", "off", "power_off")
    return component


class TestFlattening:
    def test_composite_enter_descends(self):
        generator = CGenerator(hierarchical_component(), SIGNAL_IDS)
        source = generator.source()
        on_body = source.split("Hier_enter_on(Hier_ctx_t *ctx)")[2]
        assert "Hier_enter_idle(ctx);" in on_body.split("\n}\n")[0]

    def test_leaf_cases_inherit_composite_transitions(self):
        generator = CGenerator(hierarchical_component(), SIGNAL_IDS)
        source = generator.source()
        # the power_off transition (declared on the composite) must appear
        # in both leaf cases, with the correct exit chains
        idle_case = source.split("case HIER_STATE_IDLE:")[1].split("case HIER_STATE_BUSY:")[0]
        busy_case = source.split("case HIER_STATE_BUSY:")[1].split("case HIER_STATE_OFF:")[0]
        assert "SIG_POWER_OFF" in idle_case
        assert "SIG_POWER_OFF" in busy_case

    def test_no_case_for_composite_states(self):
        generator = CGenerator(hierarchical_component(), SIGNAL_IDS)
        source = generator.source()
        handler = source.split("void Hier_handle_signal")[1]
        assert "case HIER_STATE_ON:" not in handler

    def test_composite_without_initial_rejected(self):
        component = Class("Bad", is_active=True)
        machine = StateMachine("beh")
        component.set_behavior(machine)
        machine.state("a", initial=True)
        machine.state("comp")
        machine.state("sub", parent="comp")
        machine.on_signal("a", "comp", "power")
        with pytest.raises(CodegenError):
            CGenerator(component, SIGNAL_IDS).source()


def rebinding_component(ancestor_param="b"):
    """A leaf binds `go(a)`; its ancestor binds `go(<ancestor_param>)`."""
    component = Class("Rebind", is_active=True)
    component.add_port(Port("io", provided=["go"]))
    machine = StateMachine("beh")
    component.set_behavior(machine)
    machine.variable("r", 0)
    machine.state("outer", initial=True)
    machine.state("leaf", parent="outer", initial=True)
    machine.on_signal("leaf", "leaf", "go", params=["a"], guard="a > 5",
                      effect="r = a;", internal=True)
    machine.on_signal("outer", "outer", "go", params=[ancestor_param],
                      effect=f"r = {ancestor_param} + 100;", internal=True)
    return component


def internal_completion_component():
    """`s` has an internal completion transition; entry/exit count too."""
    component = Class("Inner", is_active=True)
    component.add_port(Port("io", provided=["go"]))
    machine = StateMachine("beh")
    component.set_behavior(machine)
    machine.variable("x", 0)
    machine.state("s", initial=True, entry="x = x + 1;", exit="x = x + 10;")
    machine.transition("s", "s", guard="x < 3", effect="x = x + 100;",
                       internal=True)
    return component


class TestParameterBinding:
    def test_candidates_with_the_same_names_share_one_binding(self):
        source = CGenerator(rebinding_component("a"), {"go": 0}).source()
        assert source.count("int32_t a = sig->args[0];") == 1
        assert "int32_t b" not in source

    def test_a_candidate_naming_arguments_differently_binds_its_own(self):
        source = CGenerator(rebinding_component(), {"go": 0}).source()
        case = source.split("case SIG_GO: {")[1].split("        default: break;")[0]
        assert "int32_t a = sig->args[0];" in case
        assert "            {\n                int32_t b = sig->args[0];" in case
        assert "ctx->v_r = (b + 100);" in case


def run_native(tmp_path, component, signal_ids, body):
    """Compile ``component``'s C with a stub runtime; run ``body`` as main.

    Returns the program's stdout lines.
    """
    from repro.codegen.runtime import RUNTIME_HEADER

    prefix = component.name
    generator = CGenerator(component, signal_ids, instrument=False)
    (tmp_path / f"{prefix}.h").write_text(generator.header())
    (tmp_path / f"{prefix}.c").write_text(generator.source())
    (tmp_path / "tut_runtime.h").write_text(RUNTIME_HEADER)
    (tmp_path / "tut_app.h").write_text(
        "#ifndef TUT_APP_H\n#define TUT_APP_H\n"
        '#include "tut_runtime.h"\n'
        + "".join(
            f"#define SIG_{name.upper()} {sid}\n"
            for name, sid in signal_ids.items()
        )
        + "#endif\n"
    )
    (tmp_path / "main.c").write_text(
        f'#include "{prefix}.h"\n#include "tut_app.h"\n#include <stdio.h>\n'
        "void tut_send(void *c, int s, const int32_t *a, int n, const char *p)"
        "{(void)c;(void)s;(void)a;(void)n;(void)p;}\n"
        "void tut_set_timer(void *c, int t, int32_t d){(void)c;(void)t;(void)d;}\n"
        "void tut_reset_timer(void *c, int t){(void)c;(void)t;}\n"
        "uint32_t tut_crc32(uint32_t v, uint32_t s){(void)s;return v;}\n"
        "int32_t tut_rand16(uint16_t *s){(void)s;return 0;}\n"
        "const char *tut_signal_name(int id){(void)id;return \"?\";}\n"
        + body
    )
    build = subprocess.run(
        ["cc", "-std=c99", "-o", str(tmp_path / "h"),
         str(tmp_path / f"{prefix}.c"), str(tmp_path / "main.c")],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    run = subprocess.run(
        [str(tmp_path / "h")], capture_output=True, text=True, timeout=20
    )
    return run.stdout.strip().splitlines()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
class TestNativeEquivalence:
    def test_trace_matches_interpreter(self, tmp_path):
        """Drive the same signal sequence through the compiled C and the
        Python interpreter; the entry/exit trace digits must agree."""
        from repro.simulation import ProcessExecutor

        component = hierarchical_component()
        output = run_native(
            tmp_path,
            component,
            SIGNAL_IDS,
            "static void shoot(Hier_ctx_t *ctx, int id) {\n"
            "    tut_signal_t sig = {0};\n"
            "    sig.id = id;\n"
            "    Hier_handle_signal(ctx, &sig);\n"
            "    printf(\"%d %d\\n\", ctx->v_trace, ctx->base.state);\n"
            "    ctx->v_trace = 0;\n"
            "}\n"
            "int main(void) {\n"
            "    Hier_ctx_t ctx;\n"
            "    Hier_init(&ctx);\n"
            "    Hier_start(&ctx);\n"
            "    ctx.v_trace = 0;\n"
            "    shoot(&ctx, SIG_POWER);\n"
            "    shoot(&ctx, SIG_WORK);\n"
            "    shoot(&ctx, SIG_POWER_OFF);\n"
            "    return 0;\n"
            "}\n",
        )
        native_traces = [int(line.split()[0]) for line in output]

        executor = ProcessExecutor("p", component.classifier_behavior)
        executor.start()
        python_traces = []
        for signal in ("power", "work", "power_off"):
            executor.variables["trace"] = 0
            executor.consume_signal(signal, [])
            python_traces.append(executor.variables["trace"])

        assert native_traces == python_traces == [12, 43, 567]

    def test_each_candidate_binds_its_own_parameter_names(self, tmp_path):
        """The ancestor's `go(b)` reads its argument as `b` in C too."""
        from repro.analysis import lint_machine
        from repro.simulation import ProcessExecutor

        component = rebinding_component()
        assert not lint_machine(component.classifier_behavior).errors
        output = run_native(
            tmp_path,
            component,
            {"go": 0},
            "int main(void) {\n"
            "    Rebind_ctx_t ctx;\n"
            "    tut_signal_t sig = {0};\n"
            "    Rebind_init(&ctx);\n"
            "    Rebind_start(&ctx);\n"
            "    sig.id = SIG_GO;\n"
            "    sig.args[0] = 3;\n"
            "    Rebind_handle_signal(&ctx, &sig);\n"
            "    printf(\"%d\\n\", ctx.v_r);\n"
            "    sig.args[0] = 7;\n"
            "    Rebind_handle_signal(&ctx, &sig);\n"
            "    printf(\"%d\\n\", ctx.v_r);\n"
            "    return 0;\n"
            "}\n",
        )
        executor = ProcessExecutor("p", component.classifier_behavior)
        executor.start()
        simulated = []
        for argument in (3, 7):
            executor.consume_signal("go", [argument])
            simulated.append(executor.variables["r"])
        assert [int(line) for line in output] == simulated == [103, 7]

    def test_internal_completion_matches_simulator_and_interval(self, tmp_path):
        """An internal completion runs its effect once and ends the chase."""
        from repro.analysis.values import analyze_machine
        from repro.simulation import ProcessExecutor

        component = internal_completion_component()
        output = run_native(
            tmp_path,
            component,
            {"go": 0},
            "int main(void) {\n"
            "    Inner_ctx_t ctx;\n"
            "    Inner_init(&ctx);\n"
            "    Inner_start(&ctx);\n"
            "    printf(\"%d\\n\", ctx.v_x);\n"
            "    return 0;\n"
            "}\n",
        )
        machine = component.classifier_behavior
        executor = ProcessExecutor("p", machine)
        executor.start()
        assert [int(line) for line in output] == [executor.variables["x"]] == [101]
        values = analyze_machine(machine)
        assert values.env_of(machine.find_state("s"))["x"].contains(101)
