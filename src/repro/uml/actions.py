"""AST and interpreter for the textual action language.

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

The simulator (:mod:`repro.simulation`) runs the AST as Python functions
compiled once per process by :mod:`repro.uml.action_compiler`; the code
generator (:mod:`repro.codegen`) translates it to C.  The tree-walking
:func:`execute` and :func:`evaluate` below define the semantics and serve
as the differential oracle the compiled form is tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ActionRuntimeError

MAX_LOOP_ITERATIONS = 100_000

#: The state every fresh ``rand16`` generator starts from.
RAND16_SEED = 0x2F6E


def c_div(left: int, right: int) -> int:
    """C integer division: the exact quotient truncated toward zero.

    Shared by the tree-walker, compiled actions and the lint const-folder;
    raises :class:`ActionRuntimeError` on a zero divisor.
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


def rand16_next(state: int) -> int:
    """One step of the ``rand16`` generator (a 16-bit LCG mod 65537)."""
    return (state * 75 + 74) % 65537


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
    OPS = ("-", "!", "~")

    def __init__(self, op: str, operand: Expr) -> None:
        self.op = op
        self.operand = operand

    def children(self):
        return (self.operand,)

    def unparse(self) -> str:
        return f"({self.op}{self.operand.unparse()})"


class BinaryOp(Expr):
    ARITHMETIC = ("+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^")
    COMPARISON = ("==", "!=", "<", "<=", ">", ">=")
    LOGICAL = ("&&", "||")
    OPS = ARITHMETIC + COMPARISON + LOGICAL

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
    BUILTINS = ("min", "max", "abs", "crc32", "rand16")

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


def walk_expressions(stmts: Sequence[Stmt]):
    """Yield every expression appearing in a block (pre-order)."""

    def expand(expr: Expr):
        yield expr
        for child in expr.children():
            yield from expand(child)

    for stmt in walk_statements(stmts):
        if isinstance(stmt, Assign):
            yield from expand(stmt.value)
        elif isinstance(stmt, Send):
            for arg in stmt.args:
                yield from expand(arg)
        elif isinstance(stmt, If):
            yield from expand(stmt.condition)
        elif isinstance(stmt, While):
            yield from expand(stmt.condition)
        elif isinstance(stmt, SetTimer):
            yield from expand(stmt.duration)


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
    """What the interpreter needs from its host (the simulator or tests).

    Subclasses override the hooks; the defaults implement an in-memory
    variable store and record sends/timer operations, which is enough for
    unit testing action semantics without a simulator.
    """

    def __init__(self, variables: Optional[Dict[str, int]] = None) -> None:
        self.variables: Dict[str, int] = dict(variables or {})
        self.parameters: Dict[str, int] = {}
        self.sent: List[SendIntent] = []
        # program-order log of timer operations: ("set", name, duration) or
        # ("reset", name, 0) — set/reset interleaving matters semantically
        self.timer_ops: List[tuple] = []
        self._rand_state = RAND16_SEED

    # -- variable access -----------------------------------------------------

    def read(self, name: str) -> int:
        if name in self.parameters:
            return self.parameters[name]
        if name in self.variables:
            return self.variables[name]
        raise ActionRuntimeError(f"undefined name {name!r}")

    def write(self, name: str, value: int) -> None:
        if name in self.parameters:
            raise ActionRuntimeError(f"cannot assign to trigger parameter {name!r}")
        self.variables[name] = value

    # -- effect hooks ----------------------------------------------------------

    def send(self, signal: str, args: List[int], via: Optional[str]) -> None:
        self.sent.append(SendIntent(signal, tuple(args), via))

    def set_timer(self, timer: str, duration: int) -> None:
        self.timer_ops.append(("set", timer, duration))

    def reset_timer(self, timer: str) -> None:
        self.timer_ops.append(("reset", timer, 0))

    # -- builtins ----------------------------------------------------------------

    def call_builtin(self, function: str, args: List[int]) -> int:
        if function == "min":
            return min(args)
        if function == "max":
            return max(args)
        if function == "abs":
            if len(args) != 1:
                raise ActionRuntimeError("abs() takes exactly one argument")
            return abs(args[0])
        if function == "crc32":
            if len(args) not in (1, 2):
                raise ActionRuntimeError("crc32() takes one or two arguments")
            from repro.util.crc import crc32_of_int

            seed = args[1] if len(args) == 2 else 0
            return crc32_of_int(args[0], seed)
        if function == "rand16":
            # deterministic 16-bit LCG; the state lives in the environment
            self._rand_state = rand16_next(self._rand_state)
            return self._rand_state & 0xFFFF
        raise ActionRuntimeError(f"unknown builtin {function!r}")


def _as_bool(value) -> bool:
    return bool(value)


def evaluate(expr: Expr, env: ActionEnvironment) -> int:
    """Evaluate an expression; booleans are represented as 0/1."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return 1 if expr.value else 0
    if isinstance(expr, Name):
        return env.read(expr.identifier)
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, env)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return 0 if _as_bool(value) else 1
        if expr.op == "~":
            return ~value
        raise ActionRuntimeError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, env)
    if isinstance(expr, Conditional):
        if _as_bool(evaluate(expr.condition, env)):
            return evaluate(expr.then_value, env)
        return evaluate(expr.else_value, env)
    if isinstance(expr, Call):
        args = [evaluate(arg, env) for arg in expr.args]
        return env.call_builtin(expr.function, args)
    raise ActionRuntimeError(f"cannot evaluate {expr!r}")


def _evaluate_binary(expr: BinaryOp, env: ActionEnvironment) -> int:
    op = expr.op
    if op == "&&":
        return 1 if (_as_bool(evaluate(expr.left, env)) and _as_bool(evaluate(expr.right, env))) else 0
    if op == "||":
        return 1 if (_as_bool(evaluate(expr.left, env)) or _as_bool(evaluate(expr.right, env))) else 0
    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return c_div(left, right)
    if op == "%":
        return c_mod(left, right)
    if op == "<<":
        return left << right
    if op == ">>":
        return left >> right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    raise ActionRuntimeError(f"unknown binary operator {op!r}")


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
        env.write(stmt.target, evaluate(stmt.value, env))
        return 1
    if isinstance(stmt, Send):
        args = [evaluate(arg, env) for arg in stmt.args]
        env.send(stmt.signal, args, stmt.via)
        return 1
    if isinstance(stmt, If):
        if _as_bool(evaluate(stmt.condition, env)):
            return 1 + execute(stmt.then_body, env)
        return 1 + execute(stmt.else_body, env)
    if isinstance(stmt, While):
        executed = 0
        iterations = 0
        while _as_bool(evaluate(stmt.condition, env)):
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
        env.set_timer(stmt.timer, duration)
        return 1
    if isinstance(stmt, ResetTimer):
        env.reset_timer(stmt.timer)
        return 1
    raise ActionRuntimeError(f"cannot execute {stmt!r}")
