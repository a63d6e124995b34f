"""AST, operator table and interpreter for the textual action language.

The paper models behaviour as "statechart diagrams combined with the UML 2.0
textual notation".  This module defines the small imperative language used in
transition effects, guards and state entry/exit actions:

* integer/boolean expressions with the usual operators and a conditional
  ``?:``
* assignments to EFSM variables
* ``send Signal(arg, ...) via port;`` statements
* ``if``/``else`` and (bounded) ``while``
* ``set_timer(name, expr);`` / ``reset_timer(name);``
* builtin calls: ``min``, ``max``, ``abs``, ``crc32``, ``rand16``

Every operator and builtin is defined once, in :data:`UNARY_OPS`,
:data:`BINARY_OPS` and :data:`BUILTINS`; the tree-walker below, the lint
constant folder (:func:`repro.analysis.core.const_value`), the compiler
(:mod:`repro.uml.action_compiler`) and the C generator
(:mod:`repro.codegen.cgen`) all look operators up there.  The simulator
(:mod:`repro.simulation`) runs the AST as Python functions compiled once
per process; the code generator translates it to C.  The tree-walking
:func:`execute` and :func:`evaluate` below serve as the differential
oracle the compiled form is tested against.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ActionRuntimeError
from repro.util.crc import crc32_of_int

MAX_LOOP_ITERATIONS = 100_000

#: The state every fresh ``rand16`` generator starts from.
RAND16_SEED = 0x2F6E


def c_div(left: int, right: int) -> int:
    """C integer division: the exact quotient truncated toward zero.

    Raises :class:`ActionRuntimeError` on a zero divisor.
    """
    if right == 0:
        raise ActionRuntimeError("division by zero")
    quotient = left // right
    if (left < 0) != (right < 0) and quotient * right != left:
        quotient += 1  # floor rounded away from zero
    return quotient


def c_mod(left: int, right: int) -> int:
    """C remainder: ``left - right * c_div(left, right)``, sign of ``left``."""
    if right == 0:
        raise ActionRuntimeError("modulo by zero")
    remainder = left % right
    if remainder and (left < 0) != (right < 0):
        remainder -= right  # floor remainder carries the sign of right
    return remainder


def shift_left(left: int, right: int) -> int:
    """``left << right``; a negative count, undefined in C, raises
    :class:`ActionRuntimeError`."""
    if right < 0:
        raise ActionRuntimeError("negative shift count")
    return left << right


def shift_right(left: int, right: int) -> int:
    """``left >> right`` (arithmetic); a negative count raises like
    :func:`shift_left`."""
    if right < 0:
        raise ActionRuntimeError("negative shift count")
    return left >> right


# ---------------------------------------------------------------------------
# Operators and builtins: the one definition every reader looks up
# ---------------------------------------------------------------------------


class Truth:
    """A Python test as an operator on ints: 1 where it holds, else 0."""

    __slots__ = ("test",)

    def __init__(self, test: Callable[..., bool]) -> None:
        self.test = test

    def __call__(self, *operands: int) -> int:
        return 1 if self.test(*operands) else 0


#: Each unary operator's value on ints (booleans are 0/1).
UNARY_OPS: Dict[str, Callable[[int], int]] = {
    "-": operator.neg,
    "!": Truth(operator.not_),
    "~": operator.invert,
}

#: Each binary operator's value on ints (booleans are 0/1).
BINARY_OPS: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": c_div,
    "%": c_mod,
    "<<": shift_left,
    ">>": shift_right,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "==": Truth(operator.eq),
    "!=": Truth(operator.ne),
    "<": Truth(operator.lt),
    "<=": Truth(operator.le),
    ">": Truth(operator.gt),
    ">=": Truth(operator.ge),
}

#: The short-circuit operators, which every reader evaluates itself: each
#: maps to the truth of the left operand that decides the result alone.
SHORT_CIRCUIT: Dict[str, bool] = {"&&": False, "||": True}


class Builtin(NamedTuple):
    """A builtin function and the argument counts it accepts."""

    function: Callable[..., int]
    min_args: int
    max_args: int
    #: the message of the error a call with another argument count raises
    arity_error: str
    #: ``function`` takes the environment first (``rand16`` keeps its state there)
    stateful: bool = False


def _rand16(environment: "ActionEnvironment") -> int:
    """The next value of a deterministic 16-bit LCG (mod 65537)."""
    state = (environment.rand_state * 75 + 74) % 65537
    environment.rand_state = state
    return state & 0xFFFF


#: Each builtin function, by name.
BUILTINS: Dict[str, Builtin] = {
    "min": Builtin(min, 2, 2, "min() takes exactly two arguments"),
    "max": Builtin(max, 2, 2, "max() takes exactly two arguments"),
    "abs": Builtin(abs, 1, 1, "abs() takes exactly one argument"),
    "crc32": Builtin(crc32_of_int, 1, 2, "crc32() takes one or two arguments"),
    "rand16": Builtin(_rand16, 0, 0, "rand16() takes no arguments", stateful=True),
}


def resolve_builtin(name: str, count: int) -> Builtin:
    """The builtin a call of ``name`` with ``count`` arguments runs.

    Raises :class:`ActionRuntimeError` for an unknown name or an argument
    count the builtin does not accept.
    """
    builtin = BUILTINS.get(name)
    if builtin is None:
        raise ActionRuntimeError(f"unknown builtin {name!r}")
    if not builtin.min_args <= count <= builtin.max_args:
        raise ActionRuntimeError(builtin.arity_error)
    return builtin


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Abstract expression node."""

    def unparse(self) -> str:
        raise NotImplementedError

    def children(self) -> Iterable["Expr"]:
        return ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.unparse()})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.unparse() == other.unparse()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.unparse()))


class IntLiteral(Expr):
    def __init__(self, value: int) -> None:
        self.value = int(value)

    def unparse(self) -> str:
        return str(self.value)


class BoolLiteral(Expr):
    def __init__(self, value: bool) -> None:
        self.value = bool(value)

    def unparse(self) -> str:
        return "true" if self.value else "false"


class Name(Expr):
    """A reference to an EFSM variable or a trigger parameter."""

    def __init__(self, identifier: str) -> None:
        self.identifier = identifier

    def unparse(self) -> str:
        return self.identifier


class UnaryOp(Expr):
    def __init__(self, op: str, operand: Expr) -> None:
        self.op = op
        self.operand = operand

    def children(self):
        return (self.operand,)

    def unparse(self) -> str:
        return f"({self.op}{self.operand.unparse()})"


class BinaryOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def unparse(self) -> str:
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


class Conditional(Expr):
    """``condition ? then_value : else_value``."""

    def __init__(self, condition: Expr, then_value: Expr, else_value: Expr) -> None:
        self.condition = condition
        self.then_value = then_value
        self.else_value = else_value

    def children(self):
        return (self.condition, self.then_value, self.else_value)

    def unparse(self) -> str:
        return (
            f"({self.condition.unparse()} ? {self.then_value.unparse()}"
            f" : {self.else_value.unparse()})"
        )


class Call(Expr):
    def __init__(self, function: str, args: Sequence[Expr]) -> None:
        self.function = function
        self.args = list(args)

    def children(self):
        return tuple(self.args)

    def unparse(self) -> str:
        inner = ", ".join(arg.unparse() for arg in self.args)
        return f"{self.function}({inner})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Abstract statement node."""

    def unparse(self, indent: int = 0) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.unparse().strip()})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.unparse() == other.unparse()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.unparse()))


def _pad(indent: int) -> str:
    return "    " * indent


class Assign(Stmt):
    def __init__(self, target: str, value: Expr) -> None:
        self.target = target
        self.value = value

    def unparse(self, indent: int = 0) -> str:
        return f"{_pad(indent)}{self.target} = {self.value.unparse()};"


class Send(Stmt):
    """``send Signal(arg, ...) via port;`` — port may be omitted."""

    def __init__(self, signal: str, args: Sequence[Expr], via: Optional[str] = None) -> None:
        self.signal = signal
        self.args = list(args)
        self.via = via

    def unparse(self, indent: int = 0) -> str:
        inner = ", ".join(arg.unparse() for arg in self.args)
        via = f" via {self.via}" if self.via else ""
        return f"{_pad(indent)}send {self.signal}({inner}){via};"


class If(Stmt):
    def __init__(
        self,
        condition: Expr,
        then_body: Sequence[Stmt],
        else_body: Sequence[Stmt] = (),
    ) -> None:
        self.condition = condition
        self.then_body = list(then_body)
        self.else_body = list(else_body)

    def unparse(self, indent: int = 0) -> str:
        lines = [f"{_pad(indent)}if ({self.condition.unparse()}) {{"]
        lines += [stmt.unparse(indent + 1) for stmt in self.then_body]
        if self.else_body:
            lines.append(f"{_pad(indent)}}} else {{")
            lines += [stmt.unparse(indent + 1) for stmt in self.else_body]
        lines.append(f"{_pad(indent)}}}")
        return "\n".join(lines)


class While(Stmt):
    def __init__(self, condition: Expr, body: Sequence[Stmt]) -> None:
        self.condition = condition
        self.body = list(body)

    def unparse(self, indent: int = 0) -> str:
        lines = [f"{_pad(indent)}while ({self.condition.unparse()}) {{"]
        lines += [stmt.unparse(indent + 1) for stmt in self.body]
        lines.append(f"{_pad(indent)}}}")
        return "\n".join(lines)


class SetTimer(Stmt):
    """Arm a named timer to fire after ``duration`` ticks."""

    def __init__(self, timer: str, duration: Expr) -> None:
        self.timer = timer
        self.duration = duration

    def unparse(self, indent: int = 0) -> str:
        return f"{_pad(indent)}set_timer({self.timer}, {self.duration.unparse()});"


class ResetTimer(Stmt):
    """Disarm a named timer if it is pending."""

    def __init__(self, timer: str) -> None:
        self.timer = timer

    def unparse(self, indent: int = 0) -> str:
        return f"{_pad(indent)}reset_timer({self.timer});"


def unparse_block(stmts: Sequence[Stmt], indent: int = 0) -> str:
    """Render a statement list back to action-language source."""
    return "\n".join(stmt.unparse(indent) for stmt in stmts)


def walk_statements(stmts: Sequence[Stmt]):
    """Yield every statement in a block, recursing into if/while bodies."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)


def subexpressions(expr: Expr):
    """Yield ``expr`` and every expression nested in it (pre-order)."""
    yield expr
    for child in expr.children():
        yield from subexpressions(child)


def sent_signal_names(stmts: Sequence[Stmt]):
    """All signal names this block may send (static over-approximation)."""
    return sorted(
        {stmt.signal for stmt in walk_statements(stmts) if isinstance(stmt, Send)}
    )


# ---------------------------------------------------------------------------
# Interpretation (the reference semantics)
# ---------------------------------------------------------------------------


class SendIntent(NamedTuple):
    """A signal produced during a step, before routing."""

    signal: str
    args: Tuple[int, ...]
    via: Optional[str]

    def to_dict(self) -> dict:
        """A JSON-safe encoding (tuples become lists)."""
        return {"signal": self.signal, "args": list(self.args), "via": self.via}

    @classmethod
    def from_dict(cls, data: dict) -> "SendIntent":
        """Rebuild from :meth:`to_dict` output (restores the args tuple)."""
        return cls(data["signal"], tuple(data["args"]), data["via"])


class ActionEnvironment:
    """The record an action block reads and writes.

    ``variables`` and the read-only trigger ``parameters`` (which shadow
    variables of the same name), the sends and timer operations in program
    order, and the ``rand16`` generator state.  The tree-walker and
    compiled blocks both read and write these fields directly.
    """

    def __init__(self, variables: Optional[Dict[str, int]] = None) -> None:
        self.variables: Dict[str, int] = dict(variables or {})
        self.parameters: Dict[str, int] = {}
        self.sent: List[SendIntent] = []
        # program-order log of timer operations: ("set", name, duration) or
        # ("reset", name, 0) — set/reset interleaving matters semantically
        self.timer_ops: List[tuple] = []
        self.rand_state = RAND16_SEED


def evaluate(expr: Expr, env: ActionEnvironment) -> int:
    """Evaluate an expression; booleans are represented as 0/1."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return 1 if expr.value else 0
    if isinstance(expr, Name):
        name = expr.identifier
        if name in env.parameters:
            return env.parameters[name]
        if name in env.variables:
            return env.variables[name]
        raise ActionRuntimeError(f"undefined name {name!r}")
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, env)
        function = UNARY_OPS.get(expr.op)
        if function is None:
            raise ActionRuntimeError(f"unknown unary operator {expr.op!r}")
        return function(value)
    if isinstance(expr, BinaryOp):
        decides = SHORT_CIRCUIT.get(expr.op)
        if decides is not None:
            if bool(evaluate(expr.left, env)) == decides:
                return int(decides)
            return 1 if evaluate(expr.right, env) else 0
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        function = BINARY_OPS.get(expr.op)
        if function is None:
            raise ActionRuntimeError(f"unknown binary operator {expr.op!r}")
        return function(left, right)
    if isinstance(expr, Conditional):
        if evaluate(expr.condition, env):
            return evaluate(expr.then_value, env)
        return evaluate(expr.else_value, env)
    if isinstance(expr, Call):
        args = [evaluate(arg, env) for arg in expr.args]
        builtin = resolve_builtin(expr.function, len(args))
        if builtin.stateful:
            return builtin.function(env, *args)
        return builtin.function(*args)
    raise ActionRuntimeError(f"cannot evaluate {expr!r}")


def execute(stmts: Sequence[Stmt], env: ActionEnvironment) -> int:
    """Run a statement block in ``env``; returns the number of executed statements.

    The count approximates work done and feeds the simulator's cost model.
    ``while`` loops are bounded by :data:`MAX_LOOP_ITERATIONS` to keep model
    bugs from hanging the simulation.
    """
    executed = 0
    for stmt in stmts:
        executed += _execute_one(stmt, env)
    return executed


def _execute_one(stmt: Stmt, env: ActionEnvironment) -> int:
    if isinstance(stmt, Assign):
        value = evaluate(stmt.value, env)
        if stmt.target in env.parameters:
            raise ActionRuntimeError(
                f"cannot assign to trigger parameter {stmt.target!r}"
            )
        env.variables[stmt.target] = value
        return 1
    if isinstance(stmt, Send):
        args = tuple([evaluate(arg, env) for arg in stmt.args])
        env.sent.append(SendIntent(stmt.signal, args, stmt.via))
        return 1
    if isinstance(stmt, If):
        if evaluate(stmt.condition, env):
            return 1 + execute(stmt.then_body, env)
        return 1 + execute(stmt.else_body, env)
    if isinstance(stmt, While):
        executed = 0
        iterations = 0
        while evaluate(stmt.condition, env):
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise ActionRuntimeError(
                    f"while loop exceeded {MAX_LOOP_ITERATIONS} iterations"
                )
            executed += 1 + execute(stmt.body, env)
        return executed + 1
    if isinstance(stmt, SetTimer):
        duration = evaluate(stmt.duration, env)
        if duration < 0:
            raise ActionRuntimeError(f"negative timer duration {duration}")
        env.timer_ops.append(("set", stmt.timer, duration))
        return 1
    if isinstance(stmt, ResetTimer):
        env.timer_ops.append(("reset", stmt.timer, 0))
        return 1
    raise ActionRuntimeError(f"cannot execute {stmt!r}")
