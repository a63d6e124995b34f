"""Compile action-language blocks and guards to Python functions.

The simulator runs every state entry/exit block, transition effect and
guard many thousands of times per simulated second.  Instead of walking
the AST on each run (:func:`repro.uml.actions.execute` /
:func:`~repro.uml.actions.evaluate`), this module lowers each block and
guard once to Python source, passes it to :func:`compile`, and hands back
the resulting function:

* ``compile_block(stmts, parameters)(env)`` runs a statement block
  against an :class:`~repro.uml.actions.ActionEnvironment` and returns
  the executed statement count;
* ``compile_guard(expr, parameters)(parameters, variables)`` evaluates a
  guard expression (booleans as 0/1) with a fresh ``rand16`` state.

``parameters`` names the trigger parameters in scope, which the step
running the code fixes: a name among them reads the parameters, any other
name the variables, and assigning to one raises once the value has been
evaluated.  Run with exactly those parameters bound, both reproduce the
tree-walker exactly: statement counts (each ``if`` and each ``while`` pass
counts), left-to-right evaluation, short-circuiting, parameters shadowing
variables, the loop bound, and every error type and message.  Compiled
blocks read and write the environment's fields directly, as the
tree-walker does.  Operators and builtins mean what the tables of
:mod:`repro.uml.actions` say: an operator compiles to an inline Python
spelling only when its table entry is the Python operator that spelling
computes, and everything else calls the table's function.

Functions are memoised by the block's source text and the sorted
parameter names in a module-level cache bounded by
:data:`COMPILE_CACHE_SIZE`, so every model, candidate and worker of a
process shares one compiled function per distinct block and scope.  The
key is a canonical rendering of the AST in which every model string is a
``repr()`` literal, so two ASTs share a key only if they compile to the
same code.  Model strings (variable, signal, port and timer names) reach
the generated source only as ``repr()`` literals as well, never as
identifiers or code, and the functions run with no Python builtins.
"""

from __future__ import annotations

import operator
from typing import Callable, Collection, Dict, List, Sequence

from repro.errors import ActionRuntimeError
from repro.uml.actions import (
    BINARY_OPS,
    BUILTINS,
    MAX_LOOP_ITERATIONS,
    SHORT_CIRCUIT,
    UNARY_OPS,
    ActionEnvironment,
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
    SendIntent,
    SetTimer,
    Stmt,
    Truth,
    UnaryOp,
    While,
    c_div,
    c_mod,
    resolve_builtin,
)

#: Most compiled functions kept per process (least recently used evicted
#: first), about 1 KB each.  Simulating the 120-model generated fuzz corpus
#: compiles 642; TUTMAC, plain and ARQ, 44; the TUTMAC mapping sweep, 29.
COMPILE_CACHE_SIZE = 1024

_CACHE: Dict[str, Callable[..., int]] = {}


# ---------------------------------------------------------------------------
# runtime support: the only names generated code can reach
# ---------------------------------------------------------------------------


def _fail(message: str, *evaluated) -> None:
    """Raise after the operands in ``evaluated`` were computed."""
    raise ActionRuntimeError(message)


def _undefined(error: KeyError) -> ActionRuntimeError:
    return ActionRuntimeError(f"undefined name {error.args[0]!r}")


def _read_only(name: str) -> None:
    raise ActionRuntimeError(f"cannot assign to trigger parameter {name!r}")


_RUNTIME = {
    "__builtins__": {},
    "KeyError": KeyError,
    # the operator and builtin tables, read when the function runs
    "_unary": UNARY_OPS,
    "_binary": BINARY_OPS,
    "_builtins": BUILTINS,
    "_fail": _fail,
    "_undefined": _undefined,
    "_read_only": _read_only,
    "_Send": SendIntent,
    # a guard's own rand16 state, fresh per evaluation like the oracle's
    "_Environment": ActionEnvironment,
}


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------

# Python binding strength of each emitted form; an operand is wrapped in
# parentheses only when it binds looser than its context requires, so
# long left-associative chains compile flat.
_LOWEST = 0  # conditional expressions: ``a if c else b``
_UNARY = 10
_ATOM = 12

# Inline spellings, keyed by the table entry they compute; an operator
# whose entry is not here is called through the table.  No spelling comes
# from the AST's strings.
_INLINE_UNARY = {operator.neg: "-", operator.invert: "~"}
_INLINE_BINARY = {
    operator.or_: ("|", 4),
    operator.xor: ("^", 5),
    operator.and_: ("&", 6),
    operator.add: ("+", 8),
    operator.sub: ("-", 8),
    operator.mul: ("*", 9),
}
# the tests of ``Truth`` entries, each inlined as ``1 if test else 0``
_INLINE_TESTS = {
    operator.eq: "==",
    operator.ne: "!=",
    operator.lt: "<",
    operator.le: "<=",
    operator.gt: ">",
    operator.ge: ">=",
}
# C truncation by a positive constant, inline: the dividend is bound to
# ``t`` once, and a negative one is divided as its magnitude
_BY_CONSTANT = {c_div: "//", c_mod: "%"}


def _literal(value) -> str:
    """A model value as Python literal source; nothing else gets through."""
    if value is None or type(value) in (str, int, bool):
        return repr(value)
    raise TypeError(
        f"action-language AST holds a {type(value).__name__} where a name or "
        "integer belongs"
    )


def _positive_literal(node: Expr) -> bool:
    """True for an integer literal divisor that can never fault."""
    return isinstance(node, IntLiteral) and type(node.value) is int and node.value > 0


def _wrap(fragment, level: int) -> str:
    text, binding = fragment
    return text if binding >= level else f"({text})"


class _Writer:
    """Emits the body of one compiled function."""

    def __init__(self, parameters: Collection[str]) -> None:
        self.parameters = frozenset(parameters)
        self.lines: List[str] = []
        self.loops = 0
        #: the environment a stateful builtin (``rand16``) keeps its state
        #: in: the block's own, or a guard's fresh one
        self.environment = "env"
        self.stateful = False
        #: True once an if-branch or loop pass adds to the count at run time
        self.dynamic = False

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    # -- expressions: (source, binding strength) -----------------------------

    def expr(self, node: Expr):
        if isinstance(node, IntLiteral):
            text = _literal(node.value)
            return text, _UNARY if text.startswith("-") else _ATOM
        if isinstance(node, BoolLiteral):
            return ("1" if node.value else "0"), _ATOM
        if isinstance(node, Name):
            scope = "P" if node.identifier in self.parameters else "V"
            return f"{scope}[{_literal(node.identifier)}]", _ATOM
        if isinstance(node, UnaryOp):
            return self.unary(node)
        if isinstance(node, BinaryOp):
            return self.binary(node)
        if isinstance(node, Conditional):
            condition = _wrap(self.expr(node.condition), 1)
            then_value = _wrap(self.expr(node.then_value), 1)
            else_value = _wrap(self.expr(node.else_value), _LOWEST)
            return f"{then_value} if {condition} else {else_value}", _LOWEST
        if isinstance(node, Call):
            return self.call(node)
        return f"_fail({_literal(f'cannot evaluate {node!r}')})", _ATOM

    def unary(self, node: UnaryOp):
        operand = self.expr(node.operand)
        function = UNARY_OPS.get(node.op)
        if function in _INLINE_UNARY:
            return _INLINE_UNARY[function] + _wrap(operand, _UNARY), _UNARY
        if isinstance(function, Truth) and function.test is operator.not_:
            return f"0 if {_wrap(operand, 1)} else 1", _LOWEST
        if function is not None:
            return f"_unary[{_literal(node.op)}]({operand[0]})", _ATOM
        message = f"unknown unary operator {node.op!r}"
        return f"_fail({_literal(message)}, {operand[0]})", _ATOM

    def binary(self, node: BinaryOp):
        op = node.op
        left = self.expr(node.left)
        right = self.expr(node.right)
        decides = SHORT_CIRCUIT.get(op)
        if decides is not None:
            # `and`/`or` operands must bind tighter than `not` (level 1)
            joiner = " or " if decides else " and "
            return f"1 if {_wrap(left, 2)}{joiner}{_wrap(right, 2)} else 0", _LOWEST
        function = BINARY_OPS.get(op)
        if function in _INLINE_BINARY:
            spelling, level = _INLINE_BINARY[function]
            text = f"{_wrap(left, level)} {spelling} {_wrap(right, level + 1)}"
            return text, level
        if isinstance(function, Truth) and function.test in _INLINE_TESTS:
            # operands bind at least as tight as `|` (level 4)
            spelling = _INLINE_TESTS[function.test]
            return f"1 if {_wrap(left, 4)} {spelling} {_wrap(right, 4)} else 0", _LOWEST
        if function in _BY_CONSTANT and _positive_literal(node.right):
            python_op, divisor = _BY_CONSTANT[function], right[0]
            return (
                f"t {python_op} {divisor} if (t := {left[0]}) >= 0 "
                f"else -(-t {python_op} {divisor})"
            ), _LOWEST
        if function is not None:
            return f"_binary[{_literal(op)}]({left[0]}, {right[0]})", _ATOM
        message = f"unknown binary operator {op!r}"
        return f"_fail({_literal(message)}, {left[0]}, {right[0]})", _ATOM

    def call(self, node: Call):
        args = [self.expr(arg)[0] for arg in node.args]
        try:
            builtin = resolve_builtin(node.function, len(args))
        except ActionRuntimeError as error:
            return f"_fail({', '.join([_literal(str(error))] + args)})", _ATOM
        if builtin.stateful:
            self.stateful = True
            args.insert(0, self.environment)
        name = _literal(node.function)
        return f"_builtins[{name}].function({', '.join(args)})", _ATOM

    def condition(self, node: Expr) -> str:
        return _wrap(self.expr(node), 1)

    # -- statements -----------------------------------------------------------

    def block(self, stmts: Sequence[Stmt], depth: int) -> None:
        if not stmts:
            self.emit(depth, "pass")
        for stmt in stmts:
            self.statement(stmt, depth)

    def statement(self, stmt: Stmt, depth: int) -> None:
        if isinstance(stmt, Assign):
            key = _literal(stmt.target)
            value = self.expr(stmt.value)[0]
            if stmt.target in self.parameters:
                # the value is evaluated before the subscript raises
                key = f"_read_only({key})"
            self.emit(depth, f"V[{key}] = {value}")
        elif isinstance(stmt, Send):
            args = [self.expr(arg)[0] for arg in stmt.args]
            packed = f"({', '.join(args)}{',' if len(args) == 1 else ''})"
            signal, via = _literal(stmt.signal), _literal(stmt.via)
            self.emit(depth, f"env.sent.append(_Send({signal}, {packed}, {via}))")
        elif isinstance(stmt, If):
            self.emit(depth, f"if {self.condition(stmt.condition)}:")
            self.counted(stmt.then_body, depth + 1, len(stmt.then_body))
            if stmt.else_body:
                self.emit(depth, "else:")
                self.counted(stmt.else_body, depth + 1, len(stmt.else_body))
        elif isinstance(stmt, While):
            self.loops += 1
            passes = f"i{self.loops}"
            self.emit(depth, f"{passes} = 0")
            self.emit(depth, f"while {self.condition(stmt.condition)}:")
            self.emit(depth + 1, f"{passes} += 1")
            bound = f"while loop exceeded {MAX_LOOP_ITERATIONS} iterations"
            self.emit(depth + 1, f"if {passes} > {MAX_LOOP_ITERATIONS}:")
            self.emit(depth + 2, f"_fail({_literal(bound)})")
            self.counted(stmt.body, depth + 1, 1 + len(stmt.body))
        elif isinstance(stmt, SetTimer):
            timer = _literal(stmt.timer)
            self.emit(depth, f"d = {self.expr(stmt.duration)[0]}")
            self.emit(depth, "if d < 0:")
            self.emit(depth + 1, "_fail(f'negative timer duration {d}')")
            self.emit(depth, f"env.timer_ops.append(('set', {timer}, d))")
        elif isinstance(stmt, ResetTimer):
            timer = _literal(stmt.timer)
            self.emit(depth, f"env.timer_ops.append(('reset', {timer}, 0))")
        else:
            message = f"cannot execute {stmt!r}"
            self.emit(depth, f"_fail({_literal(message)})")

    def counted(self, stmts: Sequence[Stmt], depth: int, count: int) -> None:
        """A nested body that adds ``count`` statements each time it runs.

        Each statement of a list counts once wherever it sits, so only
        if-branches and loop passes add at run time; a block that raises
        returns no count at all.
        """
        if count:
            self.dynamic = True
            self.emit(depth, f"n += {count}")
        self.block(stmts, depth)


def _function(head: str, prologue: Sequence[str], writer: _Writer, result) -> str:
    lines = [head, *("    " + line for line in prologue), "    try:"]
    lines += ["    " + line for line in writer.lines]
    lines += [
        "    except KeyError as error:",
        "        raise _undefined(error) from None",
    ]
    if result is not None:
        lines.append(f"    return {result}")
    return "\n".join(lines) + "\n"


def block_source(stmts: Sequence[Stmt], parameters: Collection[str]) -> str:
    """The Python source :func:`compile_block` compiles for ``stmts``."""
    writer = _Writer(parameters)
    writer.block(stmts, 1)
    prologue = ["P = env.parameters", "V = env.variables"]
    if writer.dynamic:
        prologue.append("n = 0")
    result = f"{len(stmts)} + n" if writer.dynamic else str(len(stmts))
    return _function("def block(env):", prologue, writer, result)


def guard_source(expr: Expr, parameters: Collection[str]) -> str:
    """The Python source :func:`compile_guard` compiles for ``expr``."""
    writer = _Writer(parameters)
    writer.environment = "R"
    writer.emit(1, f"return {writer.expr(expr)[0]}")
    prologue = ["R = _Environment()"] if writer.stateful else []
    return _function("def guard(P, V):", prologue, writer, None)


# ---------------------------------------------------------------------------
# cache keys: the parameter names and the block's source text, with every
# model string quoted.  ``unparse()`` cannot serve: it spells
# ``Name("(a + b)")`` like the sum of ``a`` and ``b``, and a send to port
# ``""`` like one with no port.
# ---------------------------------------------------------------------------


def _scope_text(parameters: Collection[str]) -> str:
    return " ".join(_literal(name) for name in sorted(set(parameters)))


def _expr_text(node: Expr) -> str:
    if isinstance(node, IntLiteral):
        return _literal(node.value)
    if isinstance(node, BoolLiteral):
        return "true" if node.value else "false"
    if isinstance(node, Name):
        return _literal(node.identifier)
    if isinstance(node, UnaryOp):
        return f"({_literal(node.op)} {_expr_text(node.operand)})"
    if isinstance(node, BinaryOp):
        left, right = _expr_text(node.left), _expr_text(node.right)
        return f"({left} {_literal(node.op)} {right})"
    if isinstance(node, Conditional):
        return (
            f"({_expr_text(node.condition)} ? {_expr_text(node.then_value)}"
            f" : {_expr_text(node.else_value)})"
        )
    if isinstance(node, Call):
        args = ", ".join(_expr_text(arg) for arg in node.args)
        return f"{_literal(node.function)}({args})"
    return f"<{_literal(f'cannot evaluate {node!r}')}>"


def _block_text(stmts: Sequence[Stmt]) -> str:
    return " ".join(_stmt_text(stmt) for stmt in stmts)


def _stmt_text(stmt: Stmt) -> str:
    if isinstance(stmt, Assign):
        return f"{_literal(stmt.target)} = {_expr_text(stmt.value)};"
    if isinstance(stmt, Send):
        args = ", ".join(_expr_text(arg) for arg in stmt.args)
        return f"send {_literal(stmt.signal)}({args}) via {_literal(stmt.via)};"
    if isinstance(stmt, If):
        return (
            f"if ({_expr_text(stmt.condition)}) {{{_block_text(stmt.then_body)}}}"
            f" else {{{_block_text(stmt.else_body)}}}"
        )
    if isinstance(stmt, While):
        return f"while ({_expr_text(stmt.condition)}) {{{_block_text(stmt.body)}}}"
    if isinstance(stmt, SetTimer):
        return f"set_timer({_literal(stmt.timer)}, {_expr_text(stmt.duration)});"
    if isinstance(stmt, ResetTimer):
        return f"reset_timer({_literal(stmt.timer)});"
    return f"<{_literal(f'cannot execute {stmt!r}')}>;"


# ---------------------------------------------------------------------------
# compilation and the process-wide cache
# ---------------------------------------------------------------------------


def _load(source: str) -> Callable[..., int]:
    """Compile one generated function (the cache-miss path)."""
    namespace: Dict[str, Callable[..., int]] = {}
    exec(compile(source, "<action-language>", "exec"), _RUNTIME, namespace)
    return namespace.popitem()[1]


def _cached(key: str, source: Callable[[], str]) -> Callable[..., int]:
    function = _CACHE.pop(key, None)
    if function is None:
        function = _load(source())
        if len(_CACHE) >= COMPILE_CACHE_SIZE:
            del _CACHE[next(iter(_CACHE))]
    _CACHE[key] = function  # most recently used last
    return function


def compile_block(
    stmts: Sequence[Stmt], parameters: Collection[str]
) -> Callable[..., int]:
    """A function running ``stmts`` on an environment; returns the count.

    ``parameters`` are the trigger parameter names in scope.
    """
    key = f"block ({_scope_text(parameters)}) {_block_text(stmts)}"
    return _cached(key, lambda: block_source(stmts, parameters))


def compile_guard(expr: Expr, parameters: Collection[str]) -> Callable[..., int]:
    """A function evaluating ``expr`` from (parameters, variables) dicts.

    ``parameters`` are the trigger parameter names in scope.
    """
    key = f"guard ({_scope_text(parameters)}) {_expr_text(expr)}"
    return _cached(key, lambda: guard_source(expr, parameters))
