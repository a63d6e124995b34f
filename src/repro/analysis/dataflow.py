"""Action-language dataflow analysis (rules D001-D007).

Walks every action block of a machine (state entry/exit, transition
guards and effects) once, with a definite-assignment analysis: an EFSM
variable declared with ``variable()`` is always initialised; a name
introduced only by assignment is tracked per block; trigger parameters are
bound for the whole transition firing (the executor keeps them bound
through exit, effect and entry actions).  The same walk records the names
read, the names assigned, the send statements and the divisions by a
constant zero, and every rule reads those records; a finding's location
is worded only when it is emitted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.core import Finding, LintContext, const_value, register_rule
from repro.analysis.efsm import machine_label
from repro.uml.actions import Assign, BinaryOp, If, Name, Send, SetTimer, While
from repro.uml.statemachine import SignalTrigger, StateMachine, block_where

register_rule(
    "D001",
    "undefined-name",
    "error",
    "The name is read but never declared as an EFSM variable, bound as a "
    "trigger parameter, or assigned anywhere in the machine — the "
    "interpreter raises ActionRuntimeError the first time it executes.",
)
register_rule(
    "D002",
    "maybe-uninitialized",
    "warning",
    "The name is only introduced by assignment, and this read is not "
    "definitely preceded by one — on some path the variable is read before "
    "any value was stored.",
)
register_rule(
    "D003",
    "dead-store",
    "warning",
    "The variable is declared or assigned but never read by any guard or "
    "expression in the machine, so the stores are wasted work.",
)
register_rule(
    "D004",
    "send-arity",
    "error",
    "A send statement's argument count differs from the declared Signal's "
    "parameter list, so receivers bind garbage (or the simulator faults).",
)
register_rule(
    "D005",
    "send-undeclared-signal",
    "warning",
    "The sent signal is not declared in the application's Signals package, "
    "so its wire size and parameters cannot be checked.",
)
register_rule(
    "D006",
    "division-by-zero",
    "error",
    "The divisor/modulus constant-folds to zero, so evaluating the "
    "expression always raises at run time.",
)
register_rule(
    "D007",
    "trigger-arity",
    "error",
    "A signal trigger binds more parameter names than the declared Signal "
    "carries, so consuming the signal raises at run time.",
)


def check_machine(
    machine: StateMachine,
    ctx: LintContext,
    findings: List[Finding],
    signal_decls: Optional[Dict[str, object]] = None,
) -> None:
    """Run all dataflow rules over one state machine.

    ``signal_decls`` maps signal name -> declared ``Signal``; when empty or
    None the send/trigger checks against declarations are skipped (the
    machine is analysed stand-alone).
    """
    label = machine_label(machine)
    declared = set(machine.variables)
    all_params = {
        name
        for transition in machine.transitions
        if isinstance(transition.trigger, SignalTrigger)
        for name in transition.trigger.parameter_names
    }

    # What the walk records; a site is the (anchor, role) of a block or guard.
    reads: Set[str] = set()
    stored: Set[str] = set()
    unbound = []  # (name, site): a block's first read of a name not bound there
    sends = []  # (stmt, site)
    divisions = []  # (expr, site): a divisor that folds to zero
    site = None
    reported: Set[str] = set()

    def walk_expr(expr, bound: Set[str]) -> None:
        if isinstance(expr, Name):
            name = expr.identifier
            reads.add(name)
            if name not in bound and name not in reported:
                reported.add(name)
                unbound.append((name, site))
            return
        if (
            isinstance(expr, BinaryOp)
            and expr.op in ("/", "%")
            and const_value(expr.right) == 0
        ):
            divisions.append((expr, site))
        for child in expr.children():
            walk_expr(child, bound)

    def walk_block(stmts, bound: Set[str]) -> Set[str]:
        """Walk ``stmts``; returns the definitely-bound set afterwards."""
        for stmt in stmts:
            if isinstance(stmt, Assign):
                walk_expr(stmt.value, bound)
                bound.add(stmt.target)
                stored.add(stmt.target)
            elif isinstance(stmt, Send):
                sends.append((stmt, site))
                for arg in stmt.args:
                    walk_expr(arg, bound)
            elif isinstance(stmt, If):
                walk_expr(stmt.condition, bound)
                then_bound = walk_block(stmt.then_body, set(bound))
                else_bound = walk_block(stmt.else_body, set(bound))
                bound |= then_bound & else_bound
            elif isinstance(stmt, While):
                walk_expr(stmt.condition, bound)
                # The body may run zero times: its assignments are not
                # definite afterwards, but reads inside it see earlier
                # assignments of the same iteration.
                walk_block(stmt.body, set(bound))
            elif isinstance(stmt, SetTimer):
                walk_expr(stmt.duration, bound)
        return bound

    # The executor keeps trigger parameters bound through exit, effect and
    # entry actions of the fired transition, so state entry/exit
    # conservatively sees every parameter.
    state_bound = declared | all_params
    for state in machine.states:
        for stmts, role in ((state.entry, "entry"), (state.exit, "exit")):
            if stmts:
                site, reported = (state, role), set()
                walk_block(stmts, set(state_bound))
    for transition in machine.transitions:
        bound = set(declared)
        if isinstance(transition.trigger, SignalTrigger):
            bound.update(transition.trigger.parameter_names)
        if transition.guard is not None:
            site, reported = (transition, "guard"), set()
            walk_expr(transition.guard, bound)
        if transition.effect:
            site, reported = (transition, "effect"), set()
            walk_block(transition.effect, bound)

    # D001/D002: a read not definitely preceded by a store in its block.
    for name, (anchor, role) in unbound:
        where = block_where(anchor, role)
        if name in stored:
            message = f"{name!r} may be read before assignment in {where}"
            ctx.emit(findings, "D002", message, label, (anchor,))
        else:
            message = f"{name!r} read in {where} is never declared, bound or assigned"
            ctx.emit(findings, "D001", message, label, (anchor,))

    # D003: stores never read.  A read anywhere (guards included, and
    # self-references like ``n = n + 1``) keeps a variable alive.
    for name in sorted((declared | stored) - reads - all_params):
        kind = "declared" if name in declared else "assigned"
        ctx.emit(
            findings,
            "D003",
            f"variable {name!r} is {kind} but never read",
            label,
            (machine,),
        )

    # D004/D005: send statements against declared signals.
    # D007: trigger parameter lists against declared signals.
    if signal_decls:
        for stmt, (anchor, role) in sends:
            decl = signal_decls.get(stmt.signal)
            if decl is None:
                ctx.emit(
                    findings,
                    "D005",
                    f"send of undeclared signal {stmt.signal!r} in "
                    f"{block_where(anchor, role)}",
                    label,
                    (anchor,),
                )
                continue
            expected = len(decl.parameter_names())
            if len(stmt.args) != expected:
                ctx.emit(
                    findings,
                    "D004",
                    f"send {stmt.signal!r} in {block_where(anchor, role)} passes "
                    f"{len(stmt.args)} argument(s) but the signal declares "
                    f"{expected} parameter(s)",
                    label,
                    (anchor,),
                )
        for transition in machine.transitions:
            trigger = transition.trigger
            if not isinstance(trigger, SignalTrigger):
                continue
            decl = signal_decls.get(trigger.signal_name)
            if decl is None:
                continue
            declared_count = len(decl.parameter_names())
            if len(trigger.parameter_names) > declared_count:
                ctx.emit(
                    findings,
                    "D007",
                    f"transition {transition.describe()!r} binds "
                    f"{len(trigger.parameter_names)} parameter(s) but signal "
                    f"{trigger.signal_name!r} declares {declared_count}",
                    label,
                    (transition,),
                )

    # D006: division/modulo by constant zero.
    for expr, (anchor, role) in divisions:
        ctx.emit(
            findings,
            "D006",
            f"expression {expr.unparse()} in {block_where(anchor, role)} "
            "divides by constant zero",
            label,
            (anchor,),
        )
