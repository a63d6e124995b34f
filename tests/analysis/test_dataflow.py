"""Action-language dataflow rules D001-D007."""

from repro.analysis import lint_machine
from repro.uml.classifier import Signal
from repro.uml.structure import Property
from repro.uml.packages import Model
from repro.uml.statemachine import StateMachine


def machine():
    m = StateMachine("M")
    m.state("idle", initial=True)
    m.state("busy")
    m.on_signal("busy", "idle", "stop")
    return m


def declared_signals(*specs):
    """Build ``{name: Signal}`` with the given parameter counts."""
    model = Model("m")
    decls = {}
    for name, param_count in specs:
        signal = Signal(name)
        for index in range(param_count):
            signal.add_attribute(Property(f"p{index}", model.primitive("Int32")))
        decls[name] = signal
    return decls


class TestUseBeforeAssign:
    def test_undefined_name_is_error(self):
        m = machine()
        m.on_signal("idle", "busy", "go", effect="x = ghost + 1;")
        findings = lint_machine(m).by_rule("D001")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "'ghost'" in findings[0].message

    def test_declared_variable_is_initialised(self):
        m = machine()
        m.variable("n", 5)
        m.on_signal("idle", "busy", "go", effect="n = n + 1;")
        assert lint_machine(m).by_rule("D001") == []
        assert lint_machine(m).by_rule("D002") == []

    def test_trigger_parameter_is_bound(self):
        m = machine()
        m.variable("total")
        m.on_signal("idle", "busy", "go", params=["amount"],
                    effect="total = total + amount;")
        assert lint_machine(m).by_rule("D001") == []

    def test_maybe_uninitialized_across_blocks_is_warning(self):
        m = machine()
        m.variable("keep")
        # 'tmp' is introduced only by assignment in one effect but read in
        # another: whichever fires first decides, so it is a 'maybe'.
        m.on_signal("idle", "busy", "go", effect="tmp = 1;")
        m.on_signal("idle", "busy", "other", effect="keep = tmp;")
        findings = lint_machine(m).by_rule("D002")
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "'tmp'" in findings[0].message

    def test_assignment_before_read_in_block_is_clean(self):
        m = machine()
        m.variable("keep")
        m.on_signal("idle", "busy", "go", effect="tmp = 1; keep = tmp;")
        assert lint_machine(m).by_rule("D002") == []

    def test_if_branch_assignment_is_not_definite(self):
        m = machine()
        m.variable("keep")
        m.variable("cond")
        m.on_signal("idle", "busy", "go",
                    effect="if (cond) { tmp = 1; } keep = tmp;")
        assert len(lint_machine(m).by_rule("D002")) == 1

    def test_both_branches_assigning_is_definite(self):
        m = machine()
        m.variable("keep")
        m.variable("cond")
        m.on_signal("idle", "busy", "go",
                    effect="if (cond) { tmp = 1; } else { tmp = 2; } keep = tmp;")
        assert lint_machine(m).by_rule("D002") == []

    def test_while_body_assignment_is_not_definite(self):
        m = machine()
        m.variable("keep")
        m.variable("cond")
        m.on_signal("idle", "busy", "go",
                    effect="while (cond) { tmp = 1; cond = 0; } keep = tmp;")
        assert len(lint_machine(m).by_rule("D002")) == 1

    def test_guard_reads_are_checked(self):
        m = machine()
        m.on_signal("idle", "busy", "go", guard="phantom > 0")
        findings = lint_machine(m).by_rule("D001")
        assert len(findings) == 1
        assert findings[0].message == (
            "'phantom' read in guard of transition 'idle --go [(phantom > 0)]--> "
            "busy' is never declared, bound or assigned"
        )

    def test_each_block_reports_its_own_reads(self):
        m = machine()
        m.variable("sink")
        m.state("done", entry="sink = ghost;", exit="sink = ghost + ghost;")
        findings = lint_machine(m).by_rule("D001")
        assert [f.message for f in findings] == [
            "'ghost' read in state 'done' entry is never declared, bound or assigned",
            "'ghost' read in state 'done' exit is never declared, bound or assigned",
        ]


class TestDeadStores:
    def test_never_read_variable_is_dead_store(self):
        m = machine()
        m.variable("unused")
        findings = lint_machine(m).by_rule("D003")
        assert len(findings) == 1
        assert "'unused'" in findings[0].message

    def test_self_increment_counts_as_read(self):
        # Statistics counters like ``n = n + 1`` must not be flagged.
        m = machine()
        m.variable("n")
        m.on_signal("idle", "busy", "go", effect="n = n + 1;")
        assert lint_machine(m).by_rule("D003") == []

    def test_guard_read_keeps_variable_alive(self):
        m = machine()
        m.variable("mode")
        m.on_signal("idle", "busy", "go", guard="mode == 1")
        assert lint_machine(m).by_rule("D003") == []

    def test_reads_nested_in_loops_and_branches_keep_variables_alive(self):
        m = machine()
        for name in ("a", "b", "c", "d", "x"):
            m.variable(name)
        m.on_signal(
            "idle", "busy", "go", effect="while (a < b) { if (c) { x = d; } }"
        )
        findings = lint_machine(m).by_rule("D003")
        assert [f.message for f in findings] == [
            "variable 'x' is declared but never read"
        ]


class TestSendChecks:
    def test_arity_mismatch_is_error(self):
        m = machine()
        m.on_signal("idle", "busy", "go", effect="send ping(1, 2);")
        decls = declared_signals(("ping", 1), ("stop", 0), ("go", 0))
        findings = lint_machine(m, decls).by_rule("D004")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "2 argument(s)" in findings[0].message
        assert "1 parameter(s)" in findings[0].message

    def test_matching_arity_is_clean(self):
        m = machine()
        m.on_signal("idle", "busy", "go", effect="send ping(7);")
        decls = declared_signals(("ping", 1), ("stop", 0), ("go", 0))
        assert lint_machine(m, decls).by_rule("D004") == []

    def test_undeclared_signal_is_warning(self):
        m = machine()
        m.on_signal("idle", "busy", "go", effect="send mystery();")
        decls = declared_signals(("stop", 0), ("go", 0))
        findings = lint_machine(m, decls).by_rule("D005")
        assert len(findings) == 1
        assert "'mystery'" in findings[0].message

    def test_sends_nested_in_branches_and_loops_are_checked(self):
        m = machine()
        m.variable("x")
        m.on_signal(
            "idle", "busy", "go",
            effect="if (x) { send ping(1, 2); } while (x) { send mystery(); x = 0; }",
        )
        decls = declared_signals(("ping", 1), ("stop", 0), ("go", 0))
        report = lint_machine(m, decls)
        where = "transition 'idle --go--> busy'"
        assert [f.message for f in report.by_rule("D004")] == [
            f"send 'ping' in {where} passes 2 argument(s) but the signal "
            "declares 1 parameter(s)"
        ]
        assert [f.message for f in report.by_rule("D005")] == [
            f"send of undeclared signal 'mystery' in {where}"
        ]

    def test_no_declarations_skips_send_checks(self):
        m = machine()
        m.on_signal("idle", "busy", "go", effect="send anything(1, 2, 3);")
        report = lint_machine(m)
        assert report.by_rule("D004") == []
        assert report.by_rule("D005") == []

    def test_trigger_binding_more_params_than_declared(self):
        m = machine()
        m.variable("keep")
        m.on_signal("idle", "busy", "go", params=["a", "b"],
                    effect="keep = a + b;")
        decls = declared_signals(("go", 1), ("stop", 0))
        findings = lint_machine(m, decls).by_rule("D007")
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_trigger_binding_fewer_params_is_allowed(self):
        m = machine()
        m.variable("keep")
        m.on_signal("idle", "busy", "go", params=["a"], effect="keep = a;")
        decls = declared_signals(("go", 2), ("stop", 0))
        assert lint_machine(m, decls).by_rule("D007") == []


class TestDivisionByZero:
    def test_constant_zero_divisor_is_error(self):
        m = machine()
        m.variable("x")
        m.on_signal("idle", "busy", "go", effect="x = x / (2 - 2);")
        findings = lint_machine(m).by_rule("D006")
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_modulo_by_zero_in_guard(self):
        m = machine()
        m.variable("x")
        m.on_signal("idle", "busy", "go", guard="x % 0 == 1")
        assert len(lint_machine(m).by_rule("D006")) == 1

    def test_nonconstant_divisor_is_clean(self):
        m = machine()
        m.variable("x")
        m.variable("y", 4)
        m.on_signal("idle", "busy", "go", effect="x = x / y;")
        assert lint_machine(m).by_rule("D006") == []
