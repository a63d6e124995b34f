"""Core of ``tutlint``: rules, findings, configuration and suppression.

The paper motivates the profile's "strict rules" with "the support of
external tools for automatic analyzing, profiling, and modifying the UML
2.0 model" (Section 3).  ``tutlint`` is such a tool: a static-analysis
engine that runs behavioural passes over a parsed model *without
simulating it* and reports :class:`Finding` records against a registered
rule catalogue.

Three mechanisms shape a run:

* the **rule registry** (:data:`RULES`) — every rule has an id, a default
  severity and a rationale (rendered into ``docs/static_analysis.md``);
* a :class:`LintConfig` — per-rule severity overrides and disabled rules;
* **inline suppressions** — a UML comment ``tutlint: disable=E001,S004``
  attached to a model element (or any of its owners) suppresses matching
  findings on that element, keeping the justification inside the model so
  it survives XMI round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ActionRuntimeError, LintConfigError
from repro.uml.actions import (
    BINARY_OPS,
    SHORT_CIRCUIT,
    UNARY_OPS,
    BinaryOp,
    BoolLiteral,
    Conditional,
    IntLiteral,
    UnaryOp,
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Rank used for "severity >= threshold" comparisons.
SEVERITY_RANK: Dict[str, int] = {SEVERITY_WARNING: 1, SEVERITY_ERROR: 2}

#: Prefix of an inline suppression comment on a model element.
SUPPRESSION_PREFIX = "tutlint:"


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    title: str
    default_severity: str
    rationale: str

    def __str__(self) -> str:
        return f"{self.id} ({self.title})"


#: The rule catalogue, id -> Rule.  Populated by the pass modules at import.
RULES: Dict[str, Rule] = {}


def register_rule(
    rule_id: str, title: str, default_severity: str, rationale: str
) -> Rule:
    """Register a rule in the catalogue (idempotent per id)."""
    if default_severity not in SEVERITY_RANK:
        raise ValueError(f"unknown severity {default_severity!r}")
    existing = RULES.get(rule_id)
    if existing is not None:
        return existing
    rule = Rule(rule_id, title, default_severity, rationale)
    RULES[rule_id] = rule
    return rule


@dataclass
class Finding:
    """One lint finding: a rule violation at a model location."""

    rule: str
    severity: str
    message: str
    subject: str
    elements: Tuple = ()
    suppressed: bool = False

    def to_record(self) -> Dict[str, str]:
        record = {
            "severity": self.severity,
            "rule": self.rule,
            "subject": self.subject,
            "message": self.message,
        }
        if self.suppressed:
            record["suppressed"] = True
        return record

    def __str__(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"[{self.severity}] {self.rule} {self.subject}: {self.message}{mark}"


class LintConfig:
    """Per-run rule configuration.

    ``severities`` overrides the default severity of a rule; listing a rule
    in ``disabled`` (or mapping it to ``"off"``) drops its findings
    entirely.  ``rules`` (when not ``None``) restricts the run to exactly
    those rule ids.  ``fail_on`` is the exit-code threshold used by the
    CLI.  Every rule id mentioned anywhere is checked against the
    registered catalogue by :meth:`validate` — unknown ids raise
    :class:`~repro.errors.LintConfigError` instead of being silently
    ignored.
    """

    FAIL_ON_CHOICES = ("error", "warning", "never")

    def __init__(
        self,
        severities: Optional[Dict[str, str]] = None,
        disabled: Sequence[str] = (),
        fail_on: str = "error",
        rules: Optional[Sequence[str]] = None,
    ) -> None:
        if fail_on not in self.FAIL_ON_CHOICES:
            raise ValueError(f"fail_on must be one of {self.FAIL_ON_CHOICES}")
        self.severities = dict(severities or {})
        self.disabled = set(disabled)
        self.fail_on = fail_on
        self.rules = None if rules is None else list(rules)

    def validate(self) -> None:
        """Reject rule ids that are not in the registered catalogue.

        Called by the lint entry points *after* the pass modules have
        populated :data:`RULES`, so a config created before any pass was
        imported still validates against the full catalogue.
        """
        mentioned = set(self.severities) | set(self.disabled)
        if self.rules is not None:
            mentioned |= set(self.rules)
        unknown = sorted(rule_id for rule_id in mentioned if rule_id not in RULES)
        if unknown:
            valid = sorted(RULES)
            raise LintConfigError(
                f"unknown rule id(s): {', '.join(unknown)}; valid ids are "
                f"{', '.join(valid)}",
                unknown=unknown,
                valid=valid,
            )

    def severity_of(self, rule_id: str) -> Optional[str]:
        """Effective severity of a rule, or ``None`` when it is disabled."""
        if self.rules is not None and rule_id not in self.rules:
            return None
        if rule_id in self.disabled:
            return None
        override = self.severities.get(rule_id)
        if override == "off":
            return None
        if override is not None:
            if override not in SEVERITY_RANK:
                raise ValueError(f"unknown severity {override!r} for {rule_id}")
            return override
        rule = RULES.get(rule_id)
        return rule.default_severity if rule is not None else SEVERITY_ERROR


def suppressed_rules(element) -> set:
    """Rule ids disabled by ``tutlint:`` comments on ``element`` or its owners.

    The comment body reads ``tutlint: disable=E001,S004 -- justification``;
    ``disable=all`` suppresses every rule.  Returns a set of rule ids
    (possibly containing ``"all"``).
    """
    disabled: set = set()
    node = element
    while node is not None:
        for comment in getattr(node, "comments", ()):
            body = comment.body.strip()
            if not body.startswith(SUPPRESSION_PREFIX):
                continue
            directive = body[len(SUPPRESSION_PREFIX):].strip()
            for token in directive.split():
                if token.startswith("disable="):
                    for rule_id in token[len("disable="):].split(","):
                        rule_id = rule_id.strip()
                        if rule_id:
                            disabled.add(rule_id)
        node = getattr(node, "owner", None)
    return disabled


def is_suppressed(finding: Finding) -> bool:
    """True when any element the finding anchors on suppresses its rule."""
    for element in finding.elements:
        disabled = suppressed_rules(element)
        if "all" in disabled or finding.rule in disabled:
            return True
    return False


class LintReport:
    """All findings of one ``tutlint`` run."""

    def __init__(self, findings: Iterable[Finding] = ()) -> None:
        self.findings: List[Finding] = list(findings)

    @property
    def active(self) -> List[Finding]:
        """Findings that are not suppressed."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.active if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.active if f.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_rule(self, rule_id: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule_id]

    def exit_code(self, fail_on: str = "error") -> int:
        """0 when no active finding reaches the ``fail_on`` severity."""
        if fail_on == "never":
            return 0
        threshold = SEVERITY_RANK[fail_on]
        for finding in self.active:
            if SEVERITY_RANK[finding.severity] >= threshold:
                return 1
        return 0


@dataclass
class LintContext:
    """Everything a pass may consult.  ``platform``/``mapping`` are optional;
    passes that need them (the cross-segment deadlock check) skip silently
    when they are absent."""

    application: object
    platform: object = None
    mapping: object = None
    config: LintConfig = field(default_factory=LintConfig)

    def emit(
        self,
        findings: List[Finding],
        rule_id: str,
        message: str,
        subject: str,
        elements: Tuple = (),
    ) -> None:
        """Append a finding unless its rule is disabled; apply severity
        configuration and inline suppression."""
        severity = self.config.severity_of(rule_id)
        if severity is None:
            return
        finding = Finding(rule_id, severity, message, subject, elements)
        finding.suppressed = is_suppressed(finding)
        findings.append(finding)


def const_value(expr) -> Optional[int]:
    """Constant-fold an action-language expression; ``None`` = not constant.

    Operators mean what :data:`repro.uml.actions.BINARY_OPS` and
    :data:`~repro.uml.actions.UNARY_OPS` say; booleans fold to 0/1 and
    calls never fold.  The folder adds two rules of its own: a logical
    operator folds on a constant deciding side even when the other side is
    non-constant, and an operation that raises at run time (division or
    modulo by zero) does not fold (the div-by-zero rule reports it).
    """
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return 1 if expr.value else 0
    if isinstance(expr, UnaryOp):
        operand = const_value(expr.operand)
        function = UNARY_OPS.get(expr.op)
        if operand is None or function is None:
            return None
        return function(operand)
    if isinstance(expr, Conditional):
        condition = const_value(expr.condition)
        if condition is None:
            return None
        branch = expr.then_value if condition else expr.else_value
        return const_value(branch)
    if isinstance(expr, BinaryOp):
        left = const_value(expr.left)
        decides = SHORT_CIRCUIT.get(expr.op)
        if decides is not None:
            if left is not None and bool(left) == decides:
                return int(decides)
            right = const_value(expr.right)
            if right is not None and bool(right) == decides:
                return int(decides)
            if left is None or right is None:
                return None
            return int(not decides)
        if left is None:
            return None
        right = const_value(expr.right)
        function = BINARY_OPS.get(expr.op)
        if right is None or function is None:
            return None
        try:
            return function(left, right)
        except ActionRuntimeError:
            return None
    return None
