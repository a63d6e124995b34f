"""``tutlint``: behavioural static analysis for TUT-Profile models.

The engine runs pluggable passes over a parsed application (plus,
optionally, the platform and mapping views) without simulating it:

* :mod:`repro.analysis.efsm` — per-machine EFSM structure (E001-E006);
* :mod:`repro.analysis.dataflow` — action-language dataflow (D001-D007);
* :mod:`repro.analysis.values` — interval-domain value analysis (A001-A004);
* :mod:`repro.analysis.sigflow` — cross-process signal flow (S001-S004);
* :mod:`repro.analysis.mapping` — platform/mapping rules (M001-M005) and
  the static cost estimator the exploration engine prunes with.

Entry points: :func:`run_lint` for a whole application,
:func:`lint_machine` for one state machine (the code generator's
precondition hook).  Both resolve each machine's hierarchy once
(:func:`repro.uml.plan.plan_machine`) and hand that plan to the EFSM and
value passes.  See ``docs/static_analysis.md`` for the catalogue.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis import dataflow, efsm, sigflow, values
from repro.analysis import mapping as mapping_pass
from repro.analysis.core import (
    RULES,
    Finding,
    LintConfig,
    LintContext,
    LintReport,
    Rule,
    const_value,
    register_rule,
)
from repro.analysis.report import (
    lint_records,
    render_matrix,
    render_records,
    render_rule_catalogue,
    validation_records,
)
from repro.analysis.sigflow import group_flow_matrix, signal_flow_matrix
from repro.uml.plan import plan_machine

_SEVERITY_ORDER = {"error": 0, "warning": 1}


def _sorted(findings: List[Finding]) -> List[Finding]:
    return sorted(
        findings,
        key=lambda f: (_SEVERITY_ORDER.get(f.severity, 2), f.rule, f.subject, f.message),
    )


def run_lint(
    application,
    platform=None,
    mapping=None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Run every pass over ``application`` and return the full report.

    ``platform`` and ``mapping`` enable the mapping-aware rules (S004);
    without them the purely behavioural rules still run.
    """
    ctx = LintContext(
        application=application,
        platform=platform,
        mapping=mapping,
        config=config if config is not None else LintConfig(),
    )
    ctx.config.validate()
    findings: List[Finding] = []
    seen = set()
    for _, process in sorted(application.processes.items()):
        machine = process.component.classifier_behavior
        if machine is None or id(machine) in seen:
            continue
        seen.add(id(machine))
        plan = plan_machine(machine)
        efsm.check_machine(machine, plan, ctx, findings)
        dataflow.check_machine(machine, ctx, findings, application.signals)
        values.check_machine(machine, plan, ctx, findings)
    sigflow.check_application(ctx, findings)
    mapping_pass.check_mapping(ctx, findings)
    return LintReport(_sorted(findings))


def lint_machine(
    machine,
    signal_decls=None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Run the per-machine passes (EFSM + dataflow) over one behaviour.

    This is the code generator's precondition: a machine that fails it
    would compile into C that can never run correctly.
    """
    ctx = LintContext(
        application=None,
        config=config if config is not None else LintConfig(),
    )
    ctx.config.validate()
    findings: List[Finding] = []
    plan = plan_machine(machine)
    efsm.check_machine(machine, plan, ctx, findings)
    dataflow.check_machine(machine, ctx, findings, signal_decls)
    values.check_machine(machine, plan, ctx, findings)
    return LintReport(_sorted(findings))


from repro.analysis.mapping import (
    StaticEstimate,
    StaticProfile,
    static_application_profile,
    static_mapping_estimate,
)
from repro.analysis.report import rule_catalogue_records
from repro.analysis.values import Interval, analyze_machine

__all__ = [
    "Finding",
    "Interval",
    "LintConfig",
    "LintContext",
    "LintReport",
    "RULES",
    "Rule",
    "StaticEstimate",
    "StaticProfile",
    "analyze_machine",
    "const_value",
    "group_flow_matrix",
    "lint_machine",
    "lint_records",
    "register_rule",
    "render_matrix",
    "render_records",
    "render_rule_catalogue",
    "rule_catalogue_records",
    "run_lint",
    "signal_flow_matrix",
    "static_application_profile",
    "static_mapping_estimate",
    "validation_records",
]
