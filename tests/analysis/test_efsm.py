"""EFSM structure rules E001-E006."""

from repro.analysis import lint_machine
from repro.uml.statemachine import StateMachine


def machine():
    m = StateMachine("M")
    m.state("idle", initial=True)
    return m


def rules_of(report):
    return sorted(f.rule for f in report.active)


class TestUnreachable:
    def test_unreachable_state_is_error(self):
        m = machine()
        m.state("busy")
        m.state("orphan")
        m.on_signal("idle", "busy", "go")
        m.on_signal("busy", "idle", "stop")
        report = lint_machine(m)
        findings = report.by_rule("E001")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "'orphan'" in findings[0].message

    def test_clean_machine_has_no_findings(self):
        m = machine()
        m.state("busy")
        m.on_signal("idle", "busy", "go")
        m.on_signal("busy", "idle", "stop")
        assert lint_machine(m).findings == []

    def test_initial_substate_chain_is_reachable(self):
        m = machine()
        composite = m.state("work")
        m.state("inner", parent=composite, initial=True)
        m.on_signal("idle", "work", "go")
        m.on_signal("work", "idle", "stop")
        assert lint_machine(m).by_rule("E001") == []


class TestDeadTransitions:
    def test_constant_false_guard(self):
        m = machine()
        m.state("busy")
        m.on_signal("idle", "busy", "go", guard="1 > 2")
        m.on_signal("idle", "busy", "go")
        m.on_signal("busy", "idle", "stop")
        report = lint_machine(m)
        assert [f.rule for f in report.by_rule("E002")] == ["E002"]

    def test_shadowed_by_unguarded_same_trigger(self):
        m = machine()
        m.state("busy")
        m.on_signal("idle", "busy", "go")  # unguarded catch-all first
        m.on_signal("idle", "idle", "go", guard="x > 0")  # never reached
        m.variable("x")
        m.on_signal("busy", "idle", "stop")
        findings = lint_machine(m).by_rule("E003")
        assert len(findings) == 1
        assert "shadowed" in findings[0].message

    def test_constant_true_guard_shadows_like_no_guard(self):
        m = machine()
        m.state("busy")
        m.on_signal("idle", "busy", "go", guard="2 > 1")
        m.on_signal("idle", "idle", "go")
        m.on_signal("busy", "idle", "stop")
        findings = lint_machine(m).by_rule("E003")
        assert [f.message for f in findings] == [
            "transition 'idle --go--> idle' is shadowed by earlier unguarded "
            "'idle --go [(2 > 1)]--> busy'"
        ]

    def test_priority_order_decides_shadowing(self):
        m = machine()
        m.variable("x")
        m.state("busy")
        # Declared later but priority 0 beats priority 1: the guarded one
        # runs first, so nothing is shadowed.
        m.on_signal("idle", "busy", "go", priority=1)
        m.on_signal("idle", "idle", "go", guard="x > 0", priority=0)
        m.on_signal("busy", "idle", "stop")
        assert lint_machine(m).by_rule("E003") == []

    def test_different_triggers_do_not_shadow(self):
        m = machine()
        m.state("busy")
        m.on_signal("idle", "busy", "go")
        m.on_signal("idle", "busy", "other")
        m.on_signal("busy", "idle", "stop")
        assert lint_machine(m).by_rule("E003") == []

    def test_guarded_transition_does_not_shadow(self):
        m = machine()
        m.variable("x")
        m.state("busy")
        m.on_signal("idle", "busy", "go", guard="x > 0")
        m.on_signal("idle", "idle", "go")  # reachable when guard is false
        m.on_signal("busy", "idle", "stop")
        assert lint_machine(m).by_rule("E003") == []


class TestStuckStates:
    def test_leaf_without_outgoing_is_stuck(self):
        m = machine()
        m.state("trap")
        m.on_signal("idle", "trap", "go")
        findings = lint_machine(m).by_rule("E004")
        assert len(findings) == 1
        assert "'trap'" in findings[0].message

    def test_final_state_is_not_stuck(self):
        m = machine()
        final = m.final_state()
        m.on_signal("idle", final, "done")
        assert lint_machine(m).by_rule("E004") == []

    def test_ancestor_transition_unsticks_substate(self):
        m = machine()
        composite = m.state("work")
        m.state("inner", parent=composite, initial=True)
        m.on_signal("idle", "work", "go")
        m.on_signal("work", "idle", "stop")  # leaves the composite
        assert lint_machine(m).by_rule("E004") == []

    def test_unreachable_state_not_doubly_reported(self):
        m = machine()
        m.state("orphan")  # unreachable AND has no exits
        m.transition("idle", "idle", guard="false")
        report = lint_machine(m)
        assert len(report.by_rule("E001")) == 1
        assert report.by_rule("E004") == []


class TestTimers:
    def test_armed_but_unhandled_timer(self):
        m = machine()
        m.state("busy", entry="set_timer(t_guard, 10);")
        m.on_signal("idle", "busy", "go")
        m.on_signal("busy", "idle", "stop")
        findings = lint_machine(m).by_rule("E005")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "'t_guard'" in findings[0].message

    def test_handled_but_never_armed_timer(self):
        m = machine()
        m.state("busy")
        m.on_signal("idle", "busy", "go")
        m.on_timer("busy", "idle", "t_ghost")
        findings = lint_machine(m).by_rule("E006")
        assert len(findings) == 1
        assert "'t_ghost'" in findings[0].message

    def test_paired_timer_is_clean(self):
        m = machine()
        m.state("busy", entry="set_timer(t, 10);")
        m.on_signal("idle", "busy", "go")
        m.on_timer("busy", "idle", "t")
        report = lint_machine(m)
        assert report.by_rule("E005") == []
        assert report.by_rule("E006") == []
