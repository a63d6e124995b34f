"""Well-formedness validation for the UML subset.

Validation is tool-style: it collects :class:`Issue` records rather than
raising on the first problem, so a designer sees everything wrong at once
(the behaviour of the UML tools the paper's flow relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ValidationError
from repro.uml.classifier import Class, Signal
from repro.uml.element import Element
from repro.uml.statemachine import SignalTrigger, StateMachine
from repro.uml.structure import Connector, Port
from repro.uml.visitor import iter_instances

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass
class Issue:
    """One validation finding."""

    severity: str
    rule: str
    message: str
    element: object = None

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule}: {self.message}"


@dataclass
class ValidationReport:
    """All findings from one validation run."""

    issues: List[Issue] = field(default_factory=list)

    def add(self, severity: str, rule: str, message: str, element=None) -> None:
        self.issues.append(Issue(severity, rule, message, element))

    def error(self, rule: str, message: str, element=None) -> None:
        self.add(SEVERITY_ERROR, rule, message, element)

    def warning(self, rule: str, message: str, element=None) -> None:
        self.add(SEVERITY_WARNING, rule, message, element)

    @property
    def errors(self) -> List[Issue]:
        return [i for i in self.issues if i.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Issue]:
        return [i for i in self.issues if i.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_errors(self) -> None:
        if self.errors:
            summary = "; ".join(str(issue) for issue in self.errors[:5])
            raise ValidationError(
                f"{len(self.errors)} validation error(s): {summary}", self.errors
            )

    def render(self) -> str:
        if not self.issues:
            return "validation: ok (no issues)"
        return "\n".join(str(issue) for issue in self.issues)


def validate_model(root: Element) -> ValidationReport:
    """Run all well-formedness rules over the tree rooted at ``root``."""
    report = ValidationReport()
    _check_active_classes(root, report)
    _check_connectors(root, report)
    _check_state_machines(root, report)
    _check_required_tags(root, report)
    return report


def _check_active_classes(root: Element, report: ValidationReport) -> None:
    for klass in iter_instances(root, Class):
        if klass.is_active and klass.classifier_behavior is None:
            report.error(
                "active-class-behavior",
                f"active class {klass.qualified_name!r} has no classifier behaviour",
                klass,
            )
        if not klass.is_active and klass.classifier_behavior is not None:
            report.error(
                "passive-class-behavior",
                f"passive class {klass.qualified_name!r} owns a behaviour",
                klass,
            )


def _check_connector_compatibility(connector, report: ValidationReport, owner) -> None:
    """Warn when no signal can flow over an assembly connector.

    Both ends constrained and neither end's required set intersects the
    other's provided set ⇒ the connector is dead wiring.
    """
    if len(connector.ends) != 2 or not connector.is_assembly:
        return
    end1, end2 = connector.ends
    if not (end1.port.is_constrained and end2.port.is_constrained):
        return
    forward = set(end1.port.required) & set(end2.port.provided)
    backward = set(end2.port.required) & set(end1.port.provided)
    if not forward and not backward:
        report.warning(
            "connector-dead",
            f"connector {connector.describe()!r} in {owner.qualified_name!r} "
            "can carry no signal (required/provided sets are disjoint)",
            connector,
        )


def _check_connectors(root: Element, report: ValidationReport) -> None:
    for klass in iter_instances(root, Class):
        part_set = set(klass.parts)
        port_set = set(klass.all_ports())
        for connector in klass.connectors:
            _check_connector_compatibility(connector, report, klass)
            if len(connector.ends) != 2:
                report.error(
                    "connector-binary",
                    f"connector {connector.describe()!r} in "
                    f"{klass.qualified_name!r} must have exactly two ends",
                    connector,
                )
                continue
            for end in connector.ends:
                if end.part is None:
                    if end.port not in port_set:
                        report.error(
                            "connector-delegation-port",
                            f"connector {connector.describe()!r}: boundary end "
                            f"port {end.port.name!r} is not a port of "
                            f"{klass.qualified_name!r}",
                            connector,
                        )
                else:
                    if end.part not in part_set:
                        report.error(
                            "connector-part",
                            f"connector {connector.describe()!r}: part "
                            f"{end.part.name!r} is not a part of "
                            f"{klass.qualified_name!r}",
                            connector,
                        )
                        continue
                    part_type = end.part.type
                    if isinstance(part_type, Class):
                        if end.port not in set(part_type.all_ports()):
                            report.error(
                                "connector-port",
                                f"connector {connector.describe()!r}: "
                                f"{end.part.name!r} (a {part_type.name}) has no "
                                f"port {end.port.name!r}",
                                connector,
                            )


def _check_state_machines(root: Element, report: ValidationReport) -> None:
    model_root = root.root()
    declared_signals = {s.name for s in iter_instances(model_root, Signal)}
    for machine in iter_instances(root, StateMachine):
        if machine.initial_state is None:
            report.error(
                "machine-initial",
                f"state machine {machine.qualified_name!r} has no initial state",
                machine,
            )
        if not machine.states:
            report.error(
                "machine-states",
                f"state machine {machine.qualified_name!r} has no states",
                machine,
            )
        state_set = set(machine.states)
        for transition in machine.transitions:
            if transition.source not in state_set or transition.target not in state_set:
                report.error(
                    "transition-states",
                    f"transition {transition.describe()!r} references states "
                    f"outside machine {machine.qualified_name!r}",
                    transition,
                )
            if transition.source.is_final:
                report.error(
                    "transition-from-final",
                    f"transition {transition.describe()!r} leaves a final state",
                    transition,
                )
            trigger = transition.trigger
            if isinstance(trigger, SignalTrigger) and declared_signals:
                if trigger.signal_name not in declared_signals:
                    report.warning(
                        "trigger-signal-declared",
                        f"machine {machine.qualified_name!r} consumes undeclared "
                        f"signal {trigger.signal_name!r}",
                        transition,
                    )
        if declared_signals:
            for signal_name in machine.sent_signal_names():
                if signal_name not in declared_signals:
                    report.warning(
                        "send-signal-declared",
                        f"machine {machine.qualified_name!r} sends undeclared "
                        f"signal {signal_name!r}",
                        machine,
                    )
        for state in machine.states:
            if state.is_composite and state.initial_substate is None:
                report.warning(
                    "composite-initial",
                    f"composite state {state.name!r} in "
                    f"{machine.qualified_name!r} has no initial substate; "
                    "entering it directly activates no substate",
                    state,
                )
        reachable = reachable_states(machine)
        for state in machine.states:
            if state not in reachable:
                report.warning(
                    "state-unreachable",
                    f"state {state.name!r} in {machine.qualified_name!r} is "
                    "unreachable from the initial state",
                    state,
                )


def reachable_states(machine: StateMachine):
    """States reachable from the initial state under hierarchical entry.

    Public because the static-analysis engine (:mod:`repro.analysis`)
    shares this reachability computation for its unreachable-state rule.
    """
    if machine.initial_state is None:
        return set(machine.states)
    reachable = set()
    frontier = [machine.initial_state]

    def absorb(state):
        """Entering ``state`` activates its ancestors and descends into the
        initial-substate chain; a leaf makes enclosing composites active."""
        added = []
        node = state
        while node is not None and node not in reachable:
            reachable.add(node)
            added.append(node)
            node = node.parent
        node = state
        while node.initial_substate is not None:
            node = node.initial_substate
            if node not in reachable:
                reachable.add(node)
                added.append(node)
        return added

    frontier = absorb(machine.initial_state)
    while frontier:
        state = frontier.pop()
        for transition in machine.transitions:
            if transition.source is state and transition.target not in reachable:
                frontier.extend(absorb(transition.target))
    return reachable


def _check_required_tags(root: Element, report: ValidationReport) -> None:
    for element in iter_instances(root, Element):
        for application in element.stereotype_applications:
            for tag_name in application.missing_required_tags():
                report.error(
                    "required-tag",
                    f"«{application.stereotype.name}» on "
                    f"{getattr(element, 'qualified_name', element)!r} is missing "
                    f"required tag {tag_name!r}",
                    element,
                )
