"""Action language semantics: evaluation and execution."""

import pytest

from repro.errors import ActionRuntimeError
from repro.uml import ActionEnvironment, evaluate, execute, parse_actions, parse_expression
from repro.uml.actions import MAX_LOOP_ITERATIONS


def ev(source, **variables):
    return evaluate(parse_expression(source), ActionEnvironment(variables))


class TestArithmetic:
    def test_basics(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("10 - 4 - 3") == 3  # left associative
        assert ev("-5 + 2") == -3

    def test_division_truncates_toward_zero(self):
        # C semantics, matching the generated code
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3
        assert ev("7 / -2") == -3
        assert ev("-7 / -2") == 3

    def test_modulo_matches_c(self):
        assert ev("7 % 3") == 1
        assert ev("-7 % 3") == -1
        assert ev("7 % -3") == 1

    def test_division_by_zero(self):
        with pytest.raises(ActionRuntimeError):
            ev("1 / 0")
        with pytest.raises(ActionRuntimeError):
            ev("1 % 0")

    def test_bitwise(self):
        assert ev("6 & 3") == 2
        assert ev("6 | 3") == 7
        assert ev("6 ^ 3") == 5
        assert ev("1 << 4") == 16
        assert ev("16 >> 2") == 4
        assert ev("~0") == -1


class TestComparisonsAndLogic:
    def test_comparisons(self):
        assert ev("3 < 4") == 1
        assert ev("4 <= 4") == 1
        assert ev("5 > 6") == 0
        assert ev("5 >= 6") == 0
        assert ev("3 == 3") == 1
        assert ev("3 != 3") == 0

    def test_logic_short_circuit(self):
        # right side would divide by zero; && must not evaluate it
        assert ev("0 && (1 / 0)") == 0
        assert ev("1 || (1 / 0)") == 1

    def test_not(self):
        assert ev("!0") == 1
        assert ev("!5") == 0

    def test_conditional(self):
        assert ev("1 ? 10 : 20") == 10
        assert ev("0 ? 10 : 20") == 20

    def test_booleans(self):
        assert ev("true") == 1
        assert ev("false") == 0


class TestVariables:
    def test_read(self):
        assert ev("x * 2", x=21) == 42

    def test_undefined_raises(self):
        with pytest.raises(ActionRuntimeError):
            ev("nope")

    def test_parameter_shadows_variable(self):
        env = ActionEnvironment({"x": 1})
        env.parameters = {"x": 99}
        assert evaluate(parse_expression("x"), env) == 99

    def test_cannot_assign_parameter(self):
        env = ActionEnvironment()
        env.parameters = {"p": 1}
        with pytest.raises(ActionRuntimeError):
            execute(parse_actions("p = 2;"), env)


class TestBuiltins:
    def test_min_max_abs(self):
        assert ev("min(3, 5)") == 3
        assert ev("max(3, 5)") == 5
        assert ev("abs(-9)") == 9

    def test_crc32_matches_util(self):
        from repro.util.crc import crc32_of_int

        assert ev("crc32(1234)") == crc32_of_int(1234)

    def test_rand16_deterministic_and_bounded(self):
        draw = parse_expression("rand16()")
        env = ActionEnvironment()
        values = [evaluate(draw, env) for _ in range(100)]
        assert all(0 <= v <= 0xFFFF for v in values)
        env2 = ActionEnvironment()
        values2 = [evaluate(draw, env2) for _ in range(100)]
        assert values == values2

    def test_unknown_builtin(self):
        with pytest.raises(ActionRuntimeError):
            ev("sqrt(2)")


class TestExecution:
    def test_assign(self):
        env = ActionEnvironment()
        execute(parse_actions("x = 5; y = x * 2;"), env)
        assert env.variables == {"x": 5, "y": 10}

    def test_if_else(self):
        env = ActionEnvironment({"x": 1})
        execute(parse_actions("if (x > 0) { y = 1; } else { y = 2; }"), env)
        assert env.variables["y"] == 1
        env2 = ActionEnvironment({"x": -1})
        execute(parse_actions("if (x > 0) { y = 1; } else { y = 2; }"), env2)
        assert env2.variables["y"] == 2

    def test_while_sum(self):
        env = ActionEnvironment()
        execute(
            parse_actions("i = 0; s = 0; while (i < 10) { s = s + i; i = i + 1; }"),
            env,
        )
        assert env.variables["s"] == 45

    def test_while_bound(self):
        env = ActionEnvironment()
        with pytest.raises(ActionRuntimeError):
            execute(parse_actions("x = 0; while (1) { x = x + 1; }"), env)
        assert env.variables["x"] == MAX_LOOP_ITERATIONS

    def test_send_collected(self):
        env = ActionEnvironment({"n": 7})
        execute(parse_actions("send ping(n, n * 2) via out;"), env)
        assert env.sent == [("ping", (7, 14), "out")]

    def test_send_without_via(self):
        env = ActionEnvironment()
        execute(parse_actions("send tick();"), env)
        assert env.sent == [("tick", (), None)]

    def test_timers(self):
        env = ActionEnvironment()
        execute(parse_actions("set_timer(t1, 100); reset_timer(t2);"), env)
        assert env.timer_ops == [("set", "t1", 100), ("reset", "t2", 0)]

    def test_negative_timer_duration_rejected(self):
        env = ActionEnvironment()
        with pytest.raises(ActionRuntimeError):
            execute(parse_actions("set_timer(t, 0 - 5);"), env)

    def test_statement_count_approximates_work(self):
        env = ActionEnvironment()
        count = execute(parse_actions("x = 1; y = 2;"), env)
        assert count == 2
        env2 = ActionEnvironment()
        count2 = execute(
            parse_actions("i = 0; while (i < 3) { i = i + 1; }"), env2
        )
        # 1 (init) + 1 (while) + 3 iterations * (1 + 1 body)
        assert count2 == 1 + 1 + 3 * 2


class TestStaticAnalysis:
    def test_sent_signal_names(self):
        from repro.uml.actions import sent_signal_names

        block = parse_actions(
            "if (x) { send a(); } else { send b(); } send a();"
        )
        assert sent_signal_names(block) == ["a", "b"]
