"""EFSM → C translation.

The paper's flow generates C code from the UML model ("Code generation →
Application C code → Compilation and linking", Figure 2).  This module
translates each functional component's state machine into a C source/header
pair against the runtime library of :mod:`repro.codegen.runtime`:

* EFSM variables become fields of the process context struct;
* states become an enum; transitions a nested ``switch``;
* action-language statements map 1:1 onto C statements;
* ``send``/``set_timer`` map onto runtime calls;
* entry actions and completion transitions become ``<comp>_enter_<state>``
  functions that chain to each other.

With ``instrument=True`` the generator inserts the profiling hooks
(``tut_log_exec``) that produce the simulation log-file — the paper's
"custom C functions" complementing generated code (Section 4.4).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ActionRuntimeError, CodegenError
from repro.uml.actions import (
    BINARY_OPS,
    SHORT_CIRCUIT,
    UNARY_OPS,
    Assign,
    BinaryOp,
    BoolLiteral,
    Call,
    Conditional,
    Expr,
    If,
    IntLiteral,
    Name,
    ResetTimer,
    Send,
    SetTimer,
    Stmt,
    UnaryOp,
    While,
    resolve_builtin,
    walk_statements,
)
from repro.uml.classifier import Class
from repro.uml.plan import COMPLETION, Step, plan_machine
from repro.uml.statemachine import StateMachine, TimerTrigger, machine_blocks


def sanitize(name: str) -> str:
    """Make a model name a valid C identifier."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def check_lintable(machine: StateMachine, signal_decls=None) -> None:
    """Codegen precondition: refuse machines with error-severity lint findings.

    A machine tutlint rejects (unreachable states read by nobody, undefined
    names, constant division by zero, ...) would translate into C that can
    never run correctly, so generation fails fast with the findings instead
    of emitting broken code.  Inline ``tutlint: disable=`` suppressions
    apply as usual.
    """
    from repro.analysis import lint_machine

    report = lint_machine(machine, signal_decls)
    if report.errors:
        summary = "; ".join(str(f) for f in report.errors[:5])
        raise CodegenError(
            f"machine {machine.name!r} fails static analysis with "
            f"{len(report.errors)} error(s): {summary}"
        )


class CGenerator:
    """Translates one component's state machine to C."""

    def __init__(
        self,
        component: Class,
        signal_ids: Dict[str, int],
        instrument: bool = True,
        lint: bool = False,
        signal_decls=None,
    ) -> None:
        if component.classifier_behavior is None:
            raise CodegenError(
                f"component {component.name!r} has no behaviour to generate"
            )
        if lint:
            check_lintable(component.classifier_behavior, signal_decls)
        self.component = component
        self.machine: StateMachine = component.classifier_behavior
        self.signal_ids = signal_ids
        self.instrument = instrument
        self.prefix = sanitize(component.name)
        self.plan = plan_machine(self.machine)
        self.timer_ids = {
            name: index for index, name in enumerate(self.machine.timer_names())
        }
        # set_timer targets may include timers no trigger listens to yet
        for stmts, _, _ in machine_blocks(self.machine):
            for stmt in walk_statements(stmts):
                if isinstance(stmt, (SetTimer, ResetTimer)):
                    self.timer_ids.setdefault(stmt.timer, len(self.timer_ids))

    # ------------------------------------------------------------------
    # expressions: C spells every operator of the action language's table
    # the same way, so an operator the table lacks has no translation
    # ------------------------------------------------------------------

    def expr(self, node: Expr, params: Sequence[str]) -> str:
        if isinstance(node, IntLiteral):
            return str(node.value)
        if isinstance(node, BoolLiteral):
            return "1" if node.value else "0"
        if isinstance(node, Name):
            if node.identifier in params:
                return sanitize(node.identifier)
            return f"ctx->v_{sanitize(node.identifier)}"
        if isinstance(node, UnaryOp):
            if node.op not in UNARY_OPS:
                raise CodegenError(f"unknown unary operator {node.op!r}")
            return f"({node.op}{self.expr(node.operand, params)})"
        if isinstance(node, BinaryOp):
            if node.op not in BINARY_OPS and node.op not in SHORT_CIRCUIT:
                raise CodegenError(f"unknown binary operator {node.op!r}")
            left = self.expr(node.left, params)
            right = self.expr(node.right, params)
            return f"({left} {node.op} {right})"
        if isinstance(node, Conditional):
            return (
                f"({self.expr(node.condition, params)} ? "
                f"{self.expr(node.then_value, params)} : "
                f"{self.expr(node.else_value, params)})"
            )
        if isinstance(node, Call):
            args = [self.expr(arg, params) for arg in node.args]
            try:
                resolve_builtin(node.function, len(args))
            except ActionRuntimeError as error:
                raise CodegenError(str(error)) from None
            if node.function == "crc32":
                if len(args) == 1:
                    args.append("0")
                return f"tut_crc32({args[0]}, {args[1]})"
            if node.function == "rand16":
                return "tut_rand16(&ctx->rng)"
            if node.function in ("min", "max"):
                return f"tut_{node.function}({args[0]}, {args[1]})"
            if node.function == "abs":
                return f"tut_abs({args[0]})"
            raise CodegenError(f"no C translation of builtin {node.function!r}")
        raise CodegenError(f"cannot translate expression {node!r}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def block(self, stmts: Sequence[Stmt], params: Sequence[str], indent: int) -> List[str]:
        lines: List[str] = []
        pad = "    " * indent
        for stmt in stmts:
            lines.extend(self.statement(stmt, params, pad, indent))
        return lines

    def statement(self, stmt: Stmt, params, pad: str, indent: int) -> List[str]:
        if isinstance(stmt, Assign):
            return [f"{pad}ctx->v_{sanitize(stmt.target)} = {self.expr(stmt.value, params)};"]
        if isinstance(stmt, Send):
            signal_id = self.signal_ids.get(stmt.signal)
            if signal_id is None:
                raise CodegenError(f"undeclared signal {stmt.signal!r} in send")
            args = ", ".join(self.expr(a, params) for a in stmt.args)
            array = f"(int32_t[]){{{args}}}" if stmt.args else "NULL"
            port = f'"{stmt.via}"' if stmt.via else "NULL"
            return [
                f"{pad}tut_send(ctx, SIG_{sanitize(stmt.signal).upper()}, "
                f"{array}, {len(stmt.args)}, {port});"
            ]
        if isinstance(stmt, If):
            lines = [f"{pad}if ({self.expr(stmt.condition, params)}) {{"]
            lines.extend(self.block(stmt.then_body, params, indent + 1))
            if stmt.else_body:
                lines.append(f"{pad}}} else {{")
                lines.extend(self.block(stmt.else_body, params, indent + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(stmt, While):
            lines = [f"{pad}while ({self.expr(stmt.condition, params)}) {{"]
            lines.extend(self.block(stmt.body, params, indent + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(stmt, SetTimer):
            timer_id = self.timer_ids[stmt.timer]
            return [
                f"{pad}tut_set_timer(ctx, {timer_id}, "
                f"{self.expr(stmt.duration, params)});"
            ]
        if isinstance(stmt, ResetTimer):
            return [f"{pad}tut_reset_timer(ctx, {self.timer_ids[stmt.timer]});"]
        raise CodegenError(f"cannot translate statement {stmt!r}")

    # ------------------------------------------------------------------
    # header
    # ------------------------------------------------------------------

    def header(self) -> str:
        guard = f"TUT_{self.prefix.upper()}_H"
        lines = [
            f"/* Generated from UML component {self.component.name} */",
            f"#ifndef {guard}",
            f"#define {guard}",
            "",
            '#include "tut_runtime.h"',
            "",
            f"typedef enum {{",
        ]
        for index, state in enumerate(self.machine.states):
            lines.append(
                f"    {self.prefix.upper()}_STATE_{sanitize(state.name).upper()} = {index},"
            )
        lines += [
            f"}} {self.prefix}_state_t;",
            "",
            "typedef struct {",
            "    tut_process base;",
        ]
        for name in sorted(self.machine.variables):
            lines.append(f"    int32_t v_{sanitize(name)};")
        lines += [
            "    uint16_t rng;",
            f"}} {self.prefix}_ctx_t;",
            "",
            f"void {self.prefix}_init({self.prefix}_ctx_t *ctx);",
            f"void {self.prefix}_start({self.prefix}_ctx_t *ctx);",
            f"void {self.prefix}_handle_signal({self.prefix}_ctx_t *ctx, "
            "const tut_signal_t *sig);",
            f"void {self.prefix}_handle_timer({self.prefix}_ctx_t *ctx, int timer_id);",
            "",
            f"#endif /* {guard} */",
            "",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # source
    # ------------------------------------------------------------------

    def source(self) -> str:
        lines = [
            f"/* Generated from UML component {self.component.name} */",
            f'#include "{self.prefix}.h"',
            '#include "tut_app.h"',
            "",
        ]
        lines.extend(self._enter_prototypes())
        lines.append("")
        lines.extend(self._init_function())
        lines.append("")
        lines.extend(self._enter_functions())
        lines.append("")
        lines.extend(self._start_function())
        lines.append("")
        lines.extend(self._signal_function())
        lines.append("")
        lines.extend(self._timer_function())
        lines.append("")
        return "\n".join(lines)

    def _state_const(self, state) -> str:
        return f"{self.prefix.upper()}_STATE_{sanitize(state.name).upper()}"

    def _enter_prototypes(self) -> List[str]:
        return [
            f"static void {self.prefix}_enter_{sanitize(state.name)}"
            f"({self.prefix}_ctx_t *ctx);"
            for state in self.machine.states
        ]

    def _init_function(self) -> List[str]:
        lines = [f"void {self.prefix}_init({self.prefix}_ctx_t *ctx)", "{"]
        for name in sorted(self.machine.variables):
            lines.append(
                f"    ctx->v_{sanitize(name)} = {self.machine.variables[name]};"
            )
        lines.append("    ctx->rng = 0x2F6E;")
        initial = self.machine.initial_state
        lines.append(f"    ctx->base.state = {self._state_const(initial)};")
        lines.append("    ctx->base.terminated = 0;")
        lines.append("}")
        return lines

    def _enter_functions(self) -> List[str]:
        lines: List[str] = []
        for state in self.machine.states:
            lines.append(
                f"static void {self.prefix}_enter_{sanitize(state.name)}"
                f"({self.prefix}_ctx_t *ctx)"
            )
            lines.append("{")
            lines.append(f"    ctx->base.state = {self._state_const(state)};")
            if state.is_final:
                if state.parent is None:
                    lines.append("    ctx->base.terminated = 1;")
                lines.append("}")
                lines.append("")
                continue
            lines.extend(self.block(state.entry, (), 1))
            if state.initial_substate is not None:
                # composite: descend into the initial substate
                lines.append(
                    f"    {self.prefix}_enter_"
                    f"{sanitize(state.initial_substate.name)}(ctx);"
                )
                lines.append("}")
                lines.append("")
                continue
            if state.is_composite:
                raise CodegenError(
                    f"composite state {state.name!r} has no initial substate; "
                    "the generated code cannot enter it"
                )
            # leaf: chase completion transitions (own, then ancestors')
            for step in self.plan.by_trigger[state].get(COMPLETION, ()):
                guard = step.transition.guard
                condition = self.expr(guard, ()) if guard is not None else "1"
                lines.append(f"    if ({condition}) {{")
                lines.extend(self._fire(step, (), 2))
                lines.append("    }")
            lines.append("}")
            lines.append("")
        return lines

    def _start_function(self) -> List[str]:
        initial = self.machine.initial_state
        lines = [f"void {self.prefix}_start({self.prefix}_ctx_t *ctx)", "{"]
        if self.instrument:
            lines.append('    tut_log_exec(&ctx->base, "start");')
        lines.append(f"    {self.prefix}_enter_{sanitize(initial.name)}(ctx);")
        lines.append("}")
        return lines

    def _fire(self, step: Step, params: Sequence[str], indent: int) -> List[str]:
        """Emit the code a planned step runs, then return from the handler."""
        pad = "    " * indent
        transition = step.transition
        lines: List[str] = []
        for state in step.exits:
            lines.extend(self.block(state.exit, params, indent))
        lines.extend(self.block(transition.effect, params, indent))
        if not transition.internal:
            # the target's own entry and descent run in its enter function
            for state in step.entries[:-1]:
                lines.extend(self.block(state.entry, (), indent))
            lines.append(
                f"{pad}{self.prefix}_enter_"
                f"{sanitize(transition.target.name)}(ctx);"
            )
        lines.append(f"{pad}return;")
        return lines

    def _bind(self, params: Sequence[str], indent: int) -> List[str]:
        """Declare a signal's parameters from its argument array."""
        pad = "    " * indent
        lines: List[str] = []
        for index, param in enumerate(params):
            lines.append(f"{pad}int32_t {sanitize(param)} = sig->args[{index}];")
            lines.append(f"{pad}(void){sanitize(param)};")
        return lines

    def _candidate(self, step: Step, params: Sequence[str], indent: int) -> List[str]:
        """Emit one candidate: its step, under its guard when it has one."""
        guard = step.transition.guard
        if guard is None:
            return self._fire(step, params, indent)
        pad = "    " * indent
        return (
            [f"{pad}if ({self.expr(guard, params)}) {{"]
            + self._fire(step, params, indent + 1)
            + [f"{pad}}}"]
        )

    def _signal_function(self) -> List[str]:
        lines = [
            f"void {self.prefix}_handle_signal({self.prefix}_ctx_t *ctx, "
            "const tut_signal_t *sig)",
            "{",
        ]
        if self.instrument:
            lines.append("    tut_log_exec(&ctx->base, tut_signal_name(sig->id));")
        lines.append("    switch (ctx->base.state) {")
        for state, table in self.plan.by_trigger.items():
            groups = [
                (name, group)
                for (kind, name), group in table.items()
                if kind == "signal"
            ]
            if not groups:
                continue
            lines.append(f"    case {self._state_const(state)}:")
            lines.append("        switch (sig->id) {")
            for signal_name, group in groups:
                lines.append(f"        case SIG_{sanitize(signal_name).upper()}: {{")
                first = group[0].transition.trigger.parameter_names
                lines.extend(self._bind(first, 3))
                for step in group:
                    params = step.transition.trigger.parameter_names
                    if params == first:
                        lines.extend(self._candidate(step, params, 3))
                    else:
                        # a candidate naming the arguments differently
                        # binds its own names in a nested scope
                        lines.append("            {")
                        lines.extend(self._bind(params, 4))
                        lines.extend(self._candidate(step, params, 4))
                        lines.append("            }")
                    if step.transition.guard is None:
                        break
                lines.append("            break;")
                lines.append("        }")
            lines.append("        default: break;")
            lines.append("        }")
            lines.append("        break;")
        lines.append("    default: break;")
        lines.append("    }")
        lines.append("}")
        return lines

    def _timer_function(self) -> List[str]:
        lines = [
            f"void {self.prefix}_handle_timer({self.prefix}_ctx_t *ctx, int timer_id)",
            "{",
        ]
        if self.instrument:
            lines.append('    tut_log_exec(&ctx->base, "timer");')
        lines.append("    switch (ctx->base.state) {")
        for state, steps in self.plan.steps.items():
            timed = [s for s in steps if isinstance(s.transition.trigger, TimerTrigger)]
            if not timed:
                continue
            lines.append(f"    case {self._state_const(state)}:")
            for step in timed:
                transition = step.transition
                timer_id = self.timer_ids[transition.trigger.timer_name]
                condition = f"timer_id == {timer_id}"
                if transition.guard is not None:
                    condition += f" && ({self.expr(transition.guard, ())})"
                lines.append(f"        if ({condition}) {{")
                lines.extend(self._fire(step, (), 3))
                lines.append("        }")
            lines.append("        break;")
        lines.append("    default: break;")
        lines.append("    }")
        lines.append("}")
        return lines
