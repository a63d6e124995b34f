"""Action-language dataflow analysis (rules D001-D007).

Walks every action block of a machine (state entry/exit, transition
guards and effects) with a definite-assignment analysis: an EFSM variable
declared with ``variable()`` is always initialised; a name introduced
only by assignment is tracked per block; trigger parameters are bound for
the whole transition firing (the executor keeps them bound through exit,
effect and entry actions).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.core import Finding, LintContext, const_value, register_rule
from repro.analysis.efsm import machine_label
from repro.uml.actions import (
    Assign,
    BinaryOp,
    Expr,
    If,
    Name,
    Send,
    SetTimer,
    While,
    subexpressions,
    walk_expressions,
    walk_statements,
)
from repro.uml.statemachine import SignalTrigger, StateMachine, machine_blocks

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


def _signal_params(machine: StateMachine) -> Set[str]:
    """All trigger-parameter names bound anywhere in the machine."""
    names: Set[str] = set()
    for transition in machine.transitions:
        if isinstance(transition.trigger, SignalTrigger):
            names.update(transition.trigger.parameter_names)
    return names


def _assigned_names(machine: StateMachine) -> Set[str]:
    return {
        stmt.target
        for _, stmts, _ in machine_blocks(machine)
        for stmt in walk_statements(stmts)
        if isinstance(stmt, Assign)
    }


class _BlockChecker:
    """Definite-assignment walk over one action block."""

    def __init__(
        self,
        ctx: LintContext,
        findings: List[Finding],
        label: str,
        where: str,
        anchor,
        declared: Set[str],
        params: Set[str],
        assigned_anywhere: Set[str],
    ) -> None:
        self.ctx = ctx
        self.findings = findings
        self.label = label
        self.where = where
        self.anchor = anchor
        self.declared = declared
        self.params = params
        self.assigned_anywhere = assigned_anywhere
        self.reported: Set[str] = set()

    def check_block(self, stmts, assigned: Set[str]) -> Set[str]:
        """Walk ``stmts``; returns the definitely-assigned set afterwards."""
        for stmt in stmts:
            if isinstance(stmt, Assign):
                self.check_expr(stmt.value, assigned)
                assigned.add(stmt.target)
            elif isinstance(stmt, Send):
                for arg in stmt.args:
                    self.check_expr(arg, assigned)
            elif isinstance(stmt, If):
                self.check_expr(stmt.condition, assigned)
                then_set = self.check_block(stmt.then_body, set(assigned))
                else_set = self.check_block(stmt.else_body, set(assigned))
                assigned |= then_set & else_set
            elif isinstance(stmt, While):
                self.check_expr(stmt.condition, assigned)
                # The body may run zero times: its assignments are not
                # definite afterwards, but reads inside it see earlier
                # assignments of the same iteration.
                self.check_block(stmt.body, set(assigned))
            elif isinstance(stmt, SetTimer):
                self.check_expr(stmt.duration, assigned)
        return assigned

    def check_expr(self, expr: Expr, assigned: Set[str]) -> None:
        if isinstance(expr, Name):
            self.check_read(expr.identifier, assigned)
            return
        for child in expr.children():
            self.check_expr(child, assigned)

    def check_read(self, name: str, assigned: Set[str]) -> None:
        if name in self.declared or name in self.params or name in assigned:
            return
        if name in self.reported:
            return
        self.reported.add(name)
        if name in self.assigned_anywhere:
            self.ctx.emit(
                self.findings,
                "D002",
                f"{name!r} may be read before assignment in {self.where}",
                self.label,
                (self.anchor,),
            )
        else:
            self.ctx.emit(
                self.findings,
                "D001",
                f"{name!r} read in {self.where} is never declared, bound or "
                "assigned",
                self.label,
                (self.anchor,),
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
    all_params = _signal_params(machine)
    assigned_anywhere = _assigned_names(machine)

    def run_block(where, stmts, anchor, params: Set[str], pre: Set[str]) -> None:
        checker = _BlockChecker(
            ctx, findings, label, where, anchor, declared, params, assigned_anywhere
        )
        checker.check_block(list(stmts), set(pre))

    # D001/D002: definite assignment per block.  The executor keeps trigger
    # parameters bound through exit, effect and entry actions of the fired
    # transition, so state entry/exit conservatively sees every parameter.
    for state in machine.states:
        if state.entry:
            run_block(f"state {state.name!r} entry", state.entry, state, all_params, set())
        if state.exit:
            run_block(f"state {state.name!r} exit", state.exit, state, all_params, set())
    for transition in machine.transitions:
        params: Set[str] = set()
        if isinstance(transition.trigger, SignalTrigger):
            params = set(transition.trigger.parameter_names)
        where = f"transition {transition.describe()!r}"
        if transition.guard is not None:
            checker = _BlockChecker(
                ctx,
                findings,
                label,
                f"guard of {where}",
                transition,
                declared,
                params,
                assigned_anywhere,
            )
            checker.check_expr(transition.guard, set())
        if transition.effect:
            run_block(where, transition.effect, transition, params, set())

    # D003: stores never read.  A read anywhere (guards included, and
    # self-references like ``n = n + 1``) keeps a variable alive.
    read_names: Set[str] = set()
    for _, stmts, _ in machine_blocks(machine):
        for expr in walk_expressions(stmts):
            if isinstance(expr, Name):
                read_names.add(expr.identifier)
    for transition in machine.transitions:
        if transition.guard is not None:
            for expr in subexpressions(transition.guard):
                if isinstance(expr, Name):
                    read_names.add(expr.identifier)
    for name in sorted((declared | assigned_anywhere) - read_names - all_params):
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
        for where, stmts, anchor in machine_blocks(machine):
            for stmt in walk_statements(stmts):
                if not isinstance(stmt, Send):
                    continue
                decl = signal_decls.get(stmt.signal)
                if decl is None:
                    ctx.emit(
                        findings,
                        "D005",
                        f"send of undeclared signal {stmt.signal!r} in {where}",
                        label,
                        (anchor,),
                    )
                    continue
                expected = len(decl.parameter_names())
                if len(stmt.args) != expected:
                    ctx.emit(
                        findings,
                        "D004",
                        f"send {stmt.signal!r} in {where} passes "
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

    # D006: division/modulo by constant zero anywhere.
    for where, stmts, anchor in machine_blocks(machine):
        for expr in walk_expressions(stmts):
            _check_div(expr, ctx, findings, label, where, anchor)
    for transition in machine.transitions:
        if transition.guard is not None:
            for expr in subexpressions(transition.guard):
                _check_div(
                    expr,
                    ctx,
                    findings,
                    label,
                    f"guard of transition {transition.describe()!r}",
                    transition,
                )


def _check_div(expr, ctx, findings, label, where, anchor) -> None:
    if (
        isinstance(expr, BinaryOp)
        and expr.op in ("/", "%")
        and const_value(expr.right) == 0
    ):
        ctx.emit(
            findings,
            "D006",
            f"expression {expr.unparse()} in {where} divides by constant zero",
            label,
            (anchor,),
        )
