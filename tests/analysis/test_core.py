"""tutlint core: config, suppression comments, report arithmetic, folding."""

import pytest

from repro.analysis import lint_machine, run_lint
from repro.analysis.core import (
    RULES,
    Finding,
    LintConfig,
    LintReport,
    const_value,
    is_suppressed,
    suppressed_rules,
)
from repro.uml import parse_expression
from repro.uml.statemachine import StateMachine


def broken_machine():
    """idle -> busy with an orphan state: one E001 error."""
    m = StateMachine("M")
    m.state("idle", initial=True)
    m.state("busy")
    m.state("orphan")
    m.on_signal("idle", "busy", "go")
    m.on_signal("busy", "idle", "stop")
    return m


class TestConfig:
    def test_default_severity_comes_from_registry(self):
        config = LintConfig()
        assert config.severity_of("E001") == RULES["E001"].default_severity

    def test_severity_override(self):
        config = LintConfig(severities={"E001": "warning"})
        report = lint_machine(broken_machine(), config=config)
        assert [f.severity for f in report.by_rule("E001")] == ["warning"]

    def test_disabled_rule_emits_nothing(self):
        config = LintConfig(disabled=["E001"])
        assert lint_machine(broken_machine(), config=config).by_rule("E001") == []

    def test_off_severity_disables(self):
        config = LintConfig(severities={"E001": "off"})
        assert config.severity_of("E001") is None

    def test_bad_fail_on_rejected(self):
        with pytest.raises(ValueError):
            LintConfig(fail_on="sometimes")

    def test_bad_severity_override_rejected(self):
        config = LintConfig(severities={"E001": "fatal"})
        with pytest.raises(ValueError):
            config.severity_of("E001")


class TestSuppression:
    def test_comment_on_element_suppresses(self):
        m = broken_machine()
        m.find_state("orphan").add_comment(
            "tutlint: disable=E001 -- kept for a future feature"
        )
        report = lint_machine(m)
        assert report.active == []
        assert [f.rule for f in report.suppressed] == ["E001"]

    def test_comment_on_owner_suppresses(self):
        m = broken_machine()
        m.add_comment("tutlint: disable=E001")
        assert lint_machine(m).active == []

    def test_disable_all(self):
        m = broken_machine()
        m.add_comment("tutlint: disable=all")
        assert lint_machine(m).active == []

    def test_other_rule_not_suppressed(self):
        m = broken_machine()
        m.find_state("orphan").add_comment("tutlint: disable=E004")
        assert [f.rule for f in lint_machine(m).active] == ["E001"]

    def test_unrelated_comment_ignored(self):
        m = broken_machine()
        m.find_state("orphan").add_comment("regular documentation comment")
        assert len(lint_machine(m).active) == 1

    def test_multiple_rules_in_one_directive(self):
        m = broken_machine()
        element = m.find_state("orphan")
        element.add_comment("tutlint: disable=E001,E004 -- justification")
        assert suppressed_rules(element) == {"E001", "E004"}

    def test_suppressed_findings_still_recorded(self):
        m = broken_machine()
        m.add_comment("tutlint: disable=all")
        report = lint_machine(m)
        assert report.findings != []
        assert all(f.suppressed for f in report.findings)


class TestReport:
    def two_findings(self):
        return LintReport([
            Finding("E001", "error", "msg", "s"),
            Finding("E003", "warning", "msg", "s"),
        ])

    def test_exit_code_thresholds(self):
        report = self.two_findings()
        assert report.exit_code("error") == 1
        assert report.exit_code("warning") == 1
        assert report.exit_code("never") == 0

    def test_warning_only_passes_error_threshold(self):
        report = LintReport([Finding("E003", "warning", "msg", "s")])
        assert report.exit_code("error") == 0
        assert report.exit_code("warning") == 1
        assert report.ok

    def test_suppressed_findings_do_not_fail(self):
        finding = Finding("E001", "error", "msg", "s", suppressed=True)
        report = LintReport([finding])
        assert report.exit_code("warning") == 0
        assert report.errors == []
        assert report.suppressed == [finding]

    def test_str_rendering(self):
        finding = Finding("E001", "error", "unreachable", "M.orphan")
        assert str(finding) == "[error] E001 M.orphan: unreachable"


class TestConstFolding:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("1 + 2 * 3", 7),
            ("-(4)", -4),
            ("!0", 1),
            ("true && false", 0),
            ("false || 1", 1),
            ("x && 0", 0),          # short-circuit despite non-constant side
            ("1 || x", 1),
            ("0 && (1 << -1)", 0),  # the deciding side alone, as evaluated
            ("1 || (1 >> -1)", 1),
            ("7 / 2", 3),
            ("-7 / 2", -3),         # C truncating division
            ("-7 % 2", -1),
            ("1 < 2 ? 10 : 20", 10),
            ("3 << 2", 12),
        ],
    )
    def test_folds(self, source, expected):
        assert const_value(parse_expression(source)) == expected

    @pytest.mark.parametrize(
        "source",
        ["x", "x + 1", "x ? 1 : 2", "1 / 0", "5 % 0", "abs(-3)", "1 << -1", "8 >> -1"],
    )
    def test_does_not_fold(self, source):
        assert const_value(parse_expression(source)) is None

    def test_a_guard_shifting_by_a_negative_count_lints(self):
        m = StateMachine("M")
        m.variable("x", 0)
        m.state("idle", initial=True)
        m.on_signal("idle", "idle", "go", guard="x > (1 << -1)")
        report = lint_machine(m)
        assert report.by_rule("E002") == []


def count_plans(monkeypatch):
    """Route every module's ``plan_machine`` through a call recorder."""
    import sys

    from repro.uml import plan

    real = plan.plan_machine
    planned = []

    def recording(machine):
        planned.append(machine)
        return real(machine)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "plan_machine", None) is real:
            monkeypatch.setattr(module, "plan_machine", recording)
    return planned


class TestOnePlanPerMachine:
    def test_run_lint_plans_each_distinct_machine_once(self, monkeypatch):
        from repro.cases.tutwlan import build_tutwlan_system

        application, platform, mapping = build_tutwlan_system()
        machines = {
            id(process.component.classifier_behavior)
            for process in application.processes.values()
        }
        planned = count_plans(monkeypatch)
        run_lint(application, platform, mapping)
        assert len(planned) == len(machines)
        assert {id(machine) for machine in planned} == machines

    def test_lint_machine_plans_once(self, monkeypatch):
        machine = broken_machine()
        planned = count_plans(monkeypatch)
        lint_machine(machine)
        assert planned == [machine]
