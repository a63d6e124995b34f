"""C translation of expressions, statements and machines."""

import pytest

from repro.errors import ActionRuntimeError, CodegenError
from repro.codegen import CGenerator, sanitize
from repro.uml import Class, StateMachine, parse_actions, parse_expression
from repro.uml.actions import (
    ActionEnvironment,
    Assign,
    BinaryOp,
    Call,
    IntLiteral,
    Name,
    UnaryOp,
    evaluate,
)
from repro.uml.structure import Port

SIGNAL_IDS = {"ping": 0, "pong": 1}


def component_with_machine():
    component = Class("Demo", is_active=True)
    component.add_port(Port("out", required=["ping"], provided=["pong"]))
    machine = StateMachine("beh")
    component.set_behavior(machine)
    machine.variable("x", 3)
    machine.state("idle", initial=True, entry="set_timer(t, 100);")
    machine.state("busy")
    machine.on_timer("idle", "busy", "t", effect="x = x + 1; send ping(x) via out;")
    machine.on_signal("busy", "idle", "pong", params=["n"], guard="n > 0")
    machine.on_signal("busy", "busy", "pong", params=["n"], internal=True, priority=1)
    return component


@pytest.fixture
def generator():
    return CGenerator(component_with_machine(), SIGNAL_IDS)


class TestSanitize:
    def test_passthrough(self):
        assert sanitize("Valid_Name1") == "Valid_Name1"

    def test_specials_replaced(self):
        assert sanitize("a-b c") == "a_b_c"

    def test_leading_digit(self):
        assert sanitize("1abc") == "_1abc"


class TestExpressionTranslation:
    def test_variables_become_context_fields(self, generator):
        text = generator.expr(parse_expression("x + 1"), ())
        assert text == "(ctx->v_x + 1)"

    def test_parameters_stay_local(self, generator):
        text = generator.expr(parse_expression("n * 2"), ("n",))
        assert text == "(n * 2)"

    def test_crc32_builtin(self, generator):
        assert generator.expr(parse_expression("crc32(x)"), ()) == "tut_crc32(ctx->v_x, 0)"

    def test_rand16_builtin(self, generator):
        assert generator.expr(parse_expression("rand16()"), ()) == "tut_rand16(&ctx->rng)"

    def test_min_max_abs(self, generator):
        assert generator.expr(parse_expression("min(1, 2)"), ()) == "tut_min(1, 2)"
        assert generator.expr(parse_expression("abs(x)"), ()) == "tut_abs(ctx->v_x)"

    def test_ternary(self, generator):
        text = generator.expr(parse_expression("x > 0 ? 1 : 0"), ())
        assert "?" in text and ":" in text

    def test_unknown_builtin_rejected(self, generator):
        with pytest.raises(CodegenError):
            generator.expr(parse_expression("mystery(1)"), ())

    @pytest.mark.parametrize(
        "value",
        [
            BinaryOp("**", Name("x"), IntLiteral(2)),
            UnaryOp("+", Name("x")),
            Call("abs", [Name("x"), IntLiteral(1)]),
            Call("crc32", []),
            Call("min", []),
            Call("min", [Name("x")]),
            Call("max", [Name("x"), IntLiteral(1), IntLiteral(2)]),
            Call("rand16", [IntLiteral(1)]),
        ],
        ids=[
            "power",
            "unary-plus",
            "abs-arity",
            "crc32-arity",
            "min-arity",
            "min-one",
            "max-arity",
            "rand16-arity",
        ],
    )
    def test_what_the_simulator_rejects_is_not_translated(self, value):
        with pytest.raises(ActionRuntimeError):
            evaluate(value, ActionEnvironment({"x": 3}))
        component = component_with_machine()
        component.classifier_behavior.transitions[0].effect = [Assign("x", value)]
        with pytest.raises(CodegenError):
            CGenerator(component, SIGNAL_IDS).source()


class TestStatementTranslation:
    def test_send(self, generator):
        lines = generator.block(parse_actions("send ping(x) via out;"), (), 0)
        assert lines == [
            'tut_send(ctx, SIG_PING, (int32_t[]){ctx->v_x}, 1, "out");'
        ]

    def test_send_without_args_or_port(self, generator):
        lines = generator.block(parse_actions("send pong();"), (), 0)
        assert lines == ["tut_send(ctx, SIG_PONG, NULL, 0, NULL);"]

    def test_undeclared_signal_rejected(self, generator):
        with pytest.raises(CodegenError):
            generator.block(parse_actions("send ghost();"), (), 0)

    def test_if_else(self, generator):
        lines = generator.block(
            parse_actions("if (x > 0) { x = 1; } else { x = 2; }"), (), 0
        )
        assert lines[0].startswith("if (")
        assert "} else {" in lines

    def test_while(self, generator):
        lines = generator.block(parse_actions("while (x < 5) { x = x + 1; }"), (), 0)
        assert lines[0].startswith("while (")

    def test_timer_statements(self, generator):
        lines = generator.block(
            parse_actions("set_timer(t, 100); reset_timer(t);"), (), 0
        )
        assert "tut_set_timer(ctx, 0, 100);" in lines
        assert "tut_reset_timer(ctx, 0);" in lines


class TestGeneratedCode:
    def test_header_declares_api(self, generator):
        header = generator.header()
        assert "typedef struct" in header
        assert "int32_t v_x;" in header
        assert "void Demo_start(Demo_ctx_t *ctx);" in header
        assert "DEMO_STATE_IDLE = 0," in header

    def test_source_structure(self, generator):
        source = generator.source()
        assert "void Demo_init(Demo_ctx_t *ctx)" in source
        assert "ctx->v_x = 3;" in source
        assert "Demo_enter_idle" in source
        assert "Demo_handle_signal" in source
        assert "Demo_handle_timer" in source
        assert "case SIG_PONG:" in source

    def test_guard_emitted(self, generator):
        source = generator.source()
        assert "if ((n > 0))" in source

    def test_internal_transition_does_not_reenter(self, generator):
        source = generator.source()
        # the internal pong self-loop must not call Demo_enter_busy
        internal_section = source.split("case SIG_PONG:")[1]
        first_case = internal_section.split("}")[0]
        assert "return;" in internal_section

    def test_instrumentation_flag(self):
        instrumented = CGenerator(component_with_machine(), SIGNAL_IDS, instrument=True)
        bare = CGenerator(component_with_machine(), SIGNAL_IDS, instrument=False)
        assert "tut_log_exec" in instrumented.source()
        assert "tut_log_exec" not in bare.source()

    def test_behaviorless_component_rejected(self):
        with pytest.raises(CodegenError):
            CGenerator(Class("Empty", is_active=True), SIGNAL_IDS)

    def test_timer_ids_stable(self, generator):
        assert generator.timer_ids == {"t": 0}
