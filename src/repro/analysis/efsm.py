"""EFSM structure analysis (rules E001-E006).

Runs over one «ApplicationComponent» state machine at a time and checks
properties the simulator's run-to-completion semantics make observable
only as silent misbehaviour: states that can never activate, transitions
that can never fire, states the process can never leave, and timers armed
or handled on one side only.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Finding, LintContext, const_value, register_rule
from repro.uml.actions import SetTimer, walk_statements
from repro.uml.plan import MachinePlan, trigger_key
from repro.uml.statemachine import StateMachine, TimerTrigger, machine_blocks

register_rule(
    "E001",
    "unreachable-state",
    "error",
    "No path of transitions (including initial-substate descent) reaches the "
    "state from the machine's initial state, so its behaviour is dead code.",
)
register_rule(
    "E002",
    "guard-always-false",
    "warning",
    "The transition guard constant-folds to false, so the transition can "
    "never fire regardless of variable values.",
)
register_rule(
    "E003",
    "shadowed-transition",
    "warning",
    "An earlier transition from the same state with the same trigger and no "
    "guard (or a guard that folds to true) always wins under the executor's "
    "priority-then-declaration ordering, so this transition can never fire.",
)
register_rule(
    "E004",
    "stuck-state",
    "warning",
    "A non-final leaf state with no outgoing transitions from itself or any "
    "enclosing state traps the process forever once entered.",
)
register_rule(
    "E005",
    "timer-unhandled",
    "error",
    "set_timer() arms a timer whose expiry signal no transition handles, so "
    "the timeout is silently dropped at run time.",
)
register_rule(
    "E006",
    "timer-unarmed",
    "warning",
    "A timer-triggered transition waits on a timer no action ever arms with "
    "set_timer(), so the transition can never fire.",
)


def machine_label(machine: StateMachine) -> str:
    """Human-readable location of a machine: ``Component.Behavior``."""
    context = getattr(machine, "context", None)
    name = machine.name or "behavior"
    if context is not None and getattr(context, "name", ""):
        return f"{context.name}.{name}"
    return name


def check_machine(
    machine: StateMachine,
    plan: MachinePlan,
    ctx: LintContext,
    findings: List[Finding],
) -> None:
    """Run all EFSM rules over one state machine and its plan."""
    label = machine_label(machine)
    reachable = plan.reachable

    # E001: unreachable states.
    for state in machine.states:
        if state not in reachable:
            ctx.emit(
                findings,
                "E001",
                f"state {state.name!r} is unreachable from the initial state",
                label,
                (state,),
            )

    # E002: constant-false guards.
    for transition in machine.transitions:
        if transition.guard is not None and const_value(transition.guard) == 0:
            ctx.emit(
                findings,
                "E002",
                f"guard [{transition.guard.unparse()}] of transition "
                f"{transition.describe()!r} is always false",
                label,
                (transition,),
            )

    # E003: same-trigger transitions shadowed by an earlier catch-all.
    for state in machine.states:
        by_trigger = {}
        for transition in machine.outgoing(state):
            by_trigger.setdefault(trigger_key(transition.trigger), []).append(
                transition
            )
        for group in by_trigger.values():
            blocker = None
            for transition in group:
                if blocker is not None:
                    ctx.emit(
                        findings,
                        "E003",
                        f"transition {transition.describe()!r} is shadowed by "
                        f"earlier unguarded {blocker.describe()!r}",
                        label,
                        (transition,),
                    )
                    continue
                guard_const = (
                    None if transition.guard is None else const_value(transition.guard)
                )
                if transition.guard is None or (
                    guard_const is not None and guard_const != 0
                ):
                    blocker = transition
                # A constant-false guard never blocks later transitions
                # (E002 already reports it).

    # E004: reachable non-final leaf states with no way out.  Transitions
    # from enclosing composite states count — the executor bubbles up.
    for state in machine.states:
        if state.is_final or state.is_composite or state not in reachable:
            continue
        if plan.steps[state]:
            continue
        ctx.emit(
            findings,
            "E004",
            f"state {state.name!r} is not final but has no outgoing "
            "transitions (the process can never leave it)",
            label,
            (state,),
        )

    # E005/E006: set_timer() arms vs timer-trigger handlers.
    armed = {}
    for where, stmts, anchor in machine_blocks(machine):
        for stmt in walk_statements(stmts):
            if isinstance(stmt, SetTimer):
                armed.setdefault(stmt.timer, (where, anchor))
    handled = set(machine.timer_names())
    for timer, (where, anchor) in sorted(armed.items()):
        if timer not in handled:
            ctx.emit(
                findings,
                "E005",
                f"timer {timer!r} is armed in {where} but no transition "
                "handles its expiry",
                label,
                (anchor,),
            )
    for transition in machine.transitions:
        trigger = transition.trigger
        if isinstance(trigger, TimerTrigger) and trigger.timer_name not in armed:
            ctx.emit(
                findings,
                "E006",
                f"transition {transition.describe()!r} waits on timer "
                f"{trigger.timer_name!r} that is never armed with set_timer()",
                label,
                (transition,),
            )
