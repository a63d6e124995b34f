"""Interval-domain value analysis: the domain and rules A001-A004."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze_machine, lint_machine, run_lint
from repro.analysis.values import (
    BOOL,
    FALSE,
    SHIFT_WIDTH,
    TOP,
    TRUE,
    Interval,
    abstract_eval,
    refine_env,
    truthiness,
)
from repro.errors import ActionRuntimeError
from repro.uml import actions
from repro.uml.action_lang import parse_expression
from repro.uml.statemachine import StateMachine
from tests.uml.test_operator_table import closed_exprs

INF = float("inf")


def machine():
    m = StateMachine("M")
    m.state("idle", initial=True)
    m.state("busy")
    m.on_signal("busy", "idle", "stop")
    return m


class TestIntervalDomain:
    def test_const_and_top(self):
        assert Interval.const(7) == Interval(7, 7)
        assert Interval.const(7).is_const
        assert TOP.is_top and not TOP.is_const

    def test_join_widen_intersect(self):
        a = Interval(0, 5)
        b = Interval(3, 9)
        assert a.join(b) == Interval(0, 9)
        # widening jumps the unstable bound to infinity, keeps the stable one
        widened = a.widen(Interval(0, 6))
        assert widened.lo == 0 and widened.hi == INF
        assert a.intersect(b) == Interval(3, 5)
        assert Interval(0, 1).intersect(Interval(5, 9)) is None

    def test_contains_and_truthiness(self):
        assert Interval(-2, 2).contains(0)
        assert truthiness(FALSE) is False
        assert truthiness(Interval(1, 9)) is True
        assert truthiness(Interval(0, 9)) is None

    def test_str_formats_infinite_bounds(self):
        assert str(Interval(-INF, 4)) == "[-inf, 4]"


def evaluate(source, **env):
    return abstract_eval(
        parse_expression(source), {k: Interval(*v) for k, v in env.items()}
    )


class TestAbstractEval:
    def test_arithmetic_over_intervals(self):
        assert evaluate("x + 1", x=(0, 5)) == Interval(1, 6)
        assert evaluate("x - y", x=(0, 5), y=(2, 3)) == Interval(-3, 3)
        assert evaluate("x * 2", x=(-1, 4)) == Interval(-2, 8)

    def test_unknown_name_is_top(self):
        assert evaluate("ghost + 1") == TOP

    def test_comparison_decides_when_disjoint(self):
        assert evaluate("x < y", x=(0, 2), y=(5, 9)) == TRUE
        assert evaluate("x < y", x=(5, 9), y=(0, 2)) == FALSE
        assert evaluate("x < y", x=(0, 9), y=(5, 9)) == BOOL

    def test_modulo_by_constant_bounds_result(self):
        assert evaluate("x % 4", x=(0, 65535)) == Interval(0, 3)

    def test_rand16_and_crc32_builtins(self):
        assert evaluate("rand16()") == Interval(0, 0xFFFF)
        # a CRC is a bit pattern, not a magnitude: must stay unknown
        assert evaluate("crc32(x)", x=(0, 9)) == TOP

    def test_short_circuit_refines_right_operand(self):
        # under `d != 0` the division cannot see the zero divisor
        assert evaluate("d != 0 && 10 / d > 1", d=(0, 3)) != FALSE

    def test_refine_env_narrows_and_detects_bottom(self):
        env = {"x": Interval(0, 10)}
        refined = refine_env(env, parse_expression("x > 5"), True)
        assert refined["x"] == Interval(6, 10)
        assert refine_env({"x": Interval(0, 3)}, parse_expression("x > 5"), True) is None


class TestHugeBounds:
    """Bounds past float range: an infinite bound meeting one stays the
    signed infinity, and finite corners divide exactly."""

    HUGE = 2**1100

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("(1 << 1100) + n", (HUGE, INF)),
            ("(1 << 1100) - n", (-INF, HUGE)),
            ("n * (1 << 1100)", (0, INF)),
            ("n << 1100", (0, INF)),
        ],
    )
    def test_an_infinite_bound_absorbs_a_huge_one(self, source, expected):
        assert evaluate(source, n=(0, INF)) == Interval(*expected)

    @pytest.mark.parametrize(
        "statement, rules",
        [
            ("y = (1 << 1100) + n;", set()),
            ("y = (1 << 1100) - n;", {"A002"}),
            ("y = n * (1 << 1100);", set()),
            ("y = n << 1100;", set()),
        ],
    )
    def test_lint_of_a_counter_meeting_a_huge_constant(self, statement, rules):
        m = StateMachine("M")
        m.variable("n", 0)
        m.variable("y", 0)
        m.state("s", initial=True)
        m.on_signal("s", "s", "tick", effect="n = n + 1; " + statement)
        report = lint_machine(m)
        assert {f.rule for f in report.findings if f.rule.startswith("A")} == rules
        assert analyze_machine(m).joined_env()["n"] == Interval(0, INF)

    @pytest.mark.parametrize(
        "params, guard, effect, rules",
        [
            ((), "", "y = 1 << 20000;", set()),
            (
                (),
                "",
                "y = (1 << 4000) * (1 << 4000) * (1 << 4000) * (1 << 4000);",
                {"A002"},
            ),
            (("p",), "p >= 0 && p < 20000", "k = p; y = 1 << k;", set()),
            (("p",), "p >= 0 && p < 2147483647", "k = p; y = 1 << k;", set()),
        ],
        ids=["huge-shift", "huge-product", "wide-count", "int32-count"],
    )
    def test_lint_of_a_bound_past_str_digits(self, params, guard, effect, rules):
        """A bound with more digits than ``str()`` prints is spelled
        without raising, and a shift count that may pass
        ``SHIFT_WIDTH`` bits builds no huge power of two."""
        m = StateMachine("M")
        m.variable("k", 0)
        m.variable("y", 0)
        m.state("s", initial=True)
        m.on_signal("s", "s", "go", params, guard=guard, effect=effect)
        started = time.perf_counter()
        report = lint_machine(m)
        assert time.perf_counter() - started < 0.5
        assert {f.rule for f in report.findings if f.rule.startswith("A")} == rules
        a002 = [f.message for f in report.findings if f.rule == "A002"]
        assert all("[0, ~2^16000]" in message for message in a002)

    def test_a_shift_count_past_the_width_bounds_by_infinity(self):
        assert evaluate("1 << k", k=(0, 10**7)) == Interval(1, INF)
        assert evaluate("x << k", x=(-3, 2), k=(5000, 6000)) == Interval(-INF, INF)
        assert evaluate("1 << k", k=(0, SHIFT_WIDTH)) == Interval(1, 2**SHIFT_WIDTH)

    def test_str_spells_a_bound_past_str_digits_by_its_power_of_two(self):
        assert str(Interval(-(2**16000), 2**16000 + 5)) == "[-~2^16000, ~2^16000]"
        assert str(Interval(-(10**4299), 10**4299)) == (
            f"[-{10**4299}, {10**4299}]"
        )

    def test_finite_corners_divide_like_the_simulator(self):
        x = 2751088199499202557
        expr = parse_expression("(0 - x) / 560")
        concrete = actions.evaluate(expr, actions.ActionEnvironment({"x": x}))
        assert concrete == -4912657499105718
        assert abstract_eval(expr, {"x": Interval.const(x)}) == Interval.const(concrete)


NAMES = ("x", "y", "z")


@st.composite
def valuations(draw):
    """A finite interval per name, and a concrete value inside each."""
    env, values = {}, {}
    for name in NAMES:
        lo = draw(st.integers(min_value=-1000, max_value=1000))
        hi = draw(st.integers(min_value=lo, max_value=lo + 1000))
        env[name], values[name] = Interval(lo, hi), draw(st.integers(lo, hi))
    return env, values


@given(closed_exprs(NAMES), valuations(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_abstract_eval_and_refine_env_are_sound(expr, valuation, want):
    env, values = valuation
    try:
        concrete = actions.evaluate(expr, actions.ActionEnvironment(values))
    except ActionRuntimeError:  # a zero divisor, a negative shift
        return
    assert abstract_eval(expr, env).contains(concrete)
    if bool(concrete) == want:
        refined = refine_env(env, expr, want)
        assert refined is not None
        for name, value in values.items():
            assert refined.get(name, TOP).contains(value)


class TestMachineFixpoint:
    def test_counter_loop_widens_instead_of_diverging(self):
        m = machine()
        m.variable("n", 0)
        m.on_signal("idle", "busy", "go", effect="n = n + 1;")
        values = analyze_machine(m)
        joined = values.joined_env()
        assert joined["n"].lo == 0 and joined["n"].hi == INF

    def test_guard_gated_state_gets_refined_env(self):
        m = machine()
        m.variable("x", 0)
        m.on_signal("idle", "busy", "go", params=["x2"], effect="x = x2;")
        m.on_signal("idle", "idle", "poke", guard="x > 5")
        values = analyze_machine(m)
        busy = next(s for s in values.leaves.values() if s.name == "busy")
        assert values.env_of(busy) is not None


class TestNestedFinalState:
    """Only a top-level final state ends a run; a nested one is a leaf."""

    def machine(self):
        m = StateMachine("M")
        m.variable("x", 0)
        comp = m.state("comp", initial=True)
        m.state("sub", parent=comp, initial=True)
        sub_done = m.final_state("sub_done")
        sub_done.parent = comp
        comp.substates.append(sub_done)
        m.state("after")
        m.on_signal("sub", sub_done, "finish", effect="x = 1;")
        m.on_signal("comp", "after", "move_on", guard="x == 1")
        m.on_signal("after", "comp", "again")
        return m

    def test_transitions_from_a_nested_final_state_are_live(self):
        from repro.simulation import ProcessExecutor

        m = self.machine()
        executor = ProcessExecutor("p", m)
        executor.start()
        for signal, target in [
            ("finish", "sub_done"), ("move_on", "after"), ("again", "sub")
        ]:
            outcome, reason = executor.consume_signal(signal, [])
            assert reason is None and outcome.to_state == target
        report = lint_machine(m)
        assert report.by_rule("A001") == []
        assert report.by_rule("A003") == []


class TestGuardInfeasible:
    def test_a001_fires_on_provably_false_guard(self):
        m = machine()
        m.variable("x", 0)
        m.on_signal("idle", "busy", "go", guard="x > 5")
        findings = lint_machine(m).by_rule("A001")
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "(x > 5)" in findings[0].message

    def test_constant_guard_is_left_to_e002(self):
        m = machine()
        m.on_signal("idle", "busy", "go", guard="1 > 2")
        assert lint_machine(m).by_rule("A001") == []
        assert len(lint_machine(m).by_rule("E002")) == 1

    def test_feasible_guard_is_clean(self):
        m = machine()
        m.variable("x", 0)
        m.on_signal("idle", "busy", "go", params=["n"], effect="x = n;")
        m.on_signal("idle", "idle", "poke", guard="x > 5")
        assert lint_machine(m).by_rule("A001") == []


class TestRangeOverflow:
    def test_a002_fires_when_initial_value_exceeds_int32(self):
        m = machine()
        m.variable("big", 3_000_000_000)
        findings = lint_machine(m).by_rule("A002")
        assert len(findings) == 1
        assert "'big'" in findings[0].message
        assert "int32_t" in findings[0].message

    def test_a002_fires_on_computed_overflow(self):
        m = machine()
        m.variable("acc", 0)
        m.on_signal(
            "idle", "busy", "go", effect="acc = 2000000000 + 2000000000;"
        )
        assert len(lint_machine(m).by_rule("A002")) == 1

    def test_widened_range_is_not_reported(self):
        # an unbounded counter widens to +inf: no *proven* finite overflow
        m = machine()
        m.variable("n", 0)
        m.on_signal("idle", "busy", "go", effect="n = n + 1;")
        assert lint_machine(m).by_rule("A002") == []


class TestDeadByValues:
    def test_a003_fires_behind_infeasible_guard(self):
        m = machine()
        m.variable("x", 0)
        m.on_signal("idle", "busy", "go", guard="x > 5")
        # 'busy' is graph-reachable, but value analysis proves it never
        # activates, so its outgoing transition is dead
        findings = lint_machine(m).by_rule("A003")
        assert len(findings) == 1
        assert "'busy'" in findings[0].message

    def test_graph_unreachable_state_is_left_to_e001(self):
        m = StateMachine("M")
        m.state("idle", initial=True)
        m.state("orphan")
        m.on_signal("orphan", "idle", "back")
        assert lint_machine(m).by_rule("A003") == []
        assert len(lint_machine(m).by_rule("E001")) == 1


class TestDivisionPossiblyZero:
    def test_a004_fires_on_divisor_straddling_zero(self):
        m = machine()
        m.variable("y", 0)
        m.on_signal(
            "idle", "busy", "go", effect="d = rand16() % 4; y = 100 / d;"
        )
        findings = lint_machine(m).by_rule("A004")
        assert len(findings) == 1
        assert "100 / d" in findings[0].message
        assert "[0, 3]" in findings[0].message

    def test_guarded_division_is_clean(self):
        m = machine()
        m.variable("y", 0)
        m.on_signal(
            "idle", "busy", "go",
            effect="d = rand16() % 4; if (d != 0) { y = 100 / d; }",
        )
        assert lint_machine(m).by_rule("A004") == []

    def test_constant_zero_divisor_is_left_to_d006(self):
        m = machine()
        m.variable("y", 0)
        m.on_signal("idle", "busy", "go", effect="y = 100 / 0;")
        assert lint_machine(m).by_rule("A004") == []
        assert len(lint_machine(m).by_rule("D006")) == 1

    def test_unknown_divisor_is_clean(self):
        # a fully unknown (top) divisor would flood reports with noise
        m = machine()
        m.variable("y", 0)
        m.on_signal(
            "idle", "busy", "go", params=["n"], effect="y = 100 / n;"
        )
        assert lint_machine(m).by_rule("A004") == []


class TestDivisionSites:
    """A004 reports each division where the fixpoint last evaluated it:
    in the start step's entries at their state, in a step at its
    transition, on the leaf's final environment."""

    @staticmethod
    def messages(m):
        return [f.message for f in lint_machine(m).by_rule("A004")]

    def test_initial_state_entry(self):
        m = StateMachine("M")
        m.variable("d", 1)
        m.variable("y", 0)
        m.state("idle", initial=True, entry="d = rand16() % 4; y = 100 / d;")
        m.state("busy")
        m.on_signal("idle", "busy", "go")
        assert self.messages(m) == [
            "divisor d of (100 / d) in state 'idle' entry has proven range "
            "[0, 3] containing zero"
        ]

    def test_target_entry_reports_at_the_transition(self):
        m = StateMachine("M")
        m.variable("d", 1)
        m.variable("y", 0)
        m.state("idle", initial=True)
        m.state("busy", entry="y = 100 / d;")
        m.on_signal("idle", "busy", "go", params=["k"], effect="d = k % 3;")
        m.on_signal("busy", "idle", "stop")
        assert self.messages(m) == [
            "divisor d of (100 / d) in transition 'idle --go(k)--> busy' has "
            "proven range [-2, 2] containing zero"
        ]

    def test_widened_leaf_reports_its_final_range(self):
        # n counts down from 5: the leaf's visits see [5, 5], [4, 5], ...
        # and only the widened final environment lets the divisor reach 0
        m = StateMachine("M")
        m.variable("n", 5)
        m.variable("y", 0)
        m.state("s", initial=True)
        m.on_signal("s", "s", "tick", effect="n = n - 1;")
        m.on_signal("s", "s", "use", effect="y = 100 / n;")
        assert self.messages(m) == [
            "divisor n of (100 / n) in transition 's --use--> s' has proven "
            "range [-inf, 5] containing zero"
        ]


class TestSuppression:
    def test_comment_on_machine_suppresses_inherited_rule(self):
        m = machine()
        m.variable("x", 0)
        m.on_signal("idle", "busy", "go", guard="x > 5")
        m.add_comment("tutlint: disable=A001,A003 -- staged feature flag")
        report = lint_machine(m)
        assert report.active == []
        assert {f.rule for f in report.suppressed} == {"A001", "A003"}

    def test_comment_on_transition_suppresses_only_that_rule(self):
        m = machine()
        m.variable("x", 0)
        t = m.on_signal("idle", "busy", "go", guard="x > 5")
        t.add_comment("tutlint: disable=A001 -- staged feature flag")
        report = lint_machine(m)
        assert [f.rule for f in report.suppressed] == ["A001"]
        assert "A003" in {f.rule for f in report.active}


class TestShippedModelsAreClean:
    def test_pingpong_has_no_value_findings(self, pingpong):
        report = run_lint(pingpong)
        for rule in ("A001", "A002", "A003", "A004"):
            assert report.by_rule(rule) == []

    def test_tutmac_has_no_value_findings(self, tutmac_app):
        report = run_lint(tutmac_app)
        for rule in ("A001", "A002", "A003", "A004"):
            assert report.by_rule(rule) == []
