"""Interval-domain value analysis over EFSM variables (rules A001-A004).

An abstract interpreter runs each state machine to a fixpoint: every
reachable leaf state is mapped to an :class:`Interval` environment that
over-approximates the variable valuations the simulator can observe
there.  Transitions run the steps of the same plan the executor reads
(:mod:`repro.uml.plan`) — guard evaluated in the source context, then the
step's exit, effect and entry blocks — and trigger parameters are unknown
(top), so anything the analysis rules out is ruled out for every run.

Joins at a state are widened to +/-infinity after a few rounds, which
guarantees termination on counting loops at the cost of precision.

Each analysis lowers every expression, statement, block, guard
refinement and planned step of the machine once, into a closure over its
children's closures; the fixpoint runs those closures on plain
``(lo, hi)`` tuples, and :class:`Interval` values are made only where
results are handed out.

The rules powered by the fixpoint:

* **A001** — a guard that is false under *every* reachable valuation (a
  strict superset of E002's constant-fold check);
* **A002** — a variable whose proven finite range leaves the generated
  ``int32_t`` storage (``crc32()`` results count as unknown bit patterns,
  not magnitudes);
* **A003** — a transition whose source is reachable in the state graph
  but never activates under value analysis;
* **A004** — a division/modulo whose divisor interval *provably*
  contains zero without being constant zero (D006) or fully unknown, so
  the report has no D006-style false positives on parameter-driven
  divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.core import Finding, LintContext, const_value, register_rule
from repro.uml.actions import (
    SHORT_CIRCUIT,
    Assign,
    BinaryOp,
    BoolLiteral,
    Call,
    Conditional,
    Expr,
    If,
    IntLiteral,
    Name,
    Send,
    SetTimer,
    Stmt,
    UnaryOp,
    While,
    c_div,
    subexpressions,
)
from repro.uml.plan import MachinePlan, Step, plan_machine, terminates
from repro.uml.statemachine import State, StateMachine, Transition

register_rule(
    "A001",
    "guard-infeasible",
    "warning",
    "Interval analysis proves the guard false under every variable "
    "valuation reachable in the source state, so the transition can never "
    "fire even though the guard does not constant-fold to false.",
)
register_rule(
    "A002",
    "variable-range-overflow",
    "warning",
    "The variable's proven value range leaves the signed 32-bit storage "
    "the code generator emits (int32_t), so generated C would wrap where "
    "the simulator computes unbounded integers.",
)
register_rule(
    "A003",
    "transition-dead-by-values",
    "warning",
    "The transition's source state is reachable in the state graph but "
    "value analysis proves no execution ever activates it, so the "
    "transition is dead despite passing the structural checks.",
)
register_rule(
    "A004",
    "division-possibly-zero",
    "warning",
    "The divisor's proven interval contains zero without being constant "
    "zero (D006) or fully unknown, so some reachable valuation raises a "
    "division error at run time.",
)

#: Joins tolerated at one state before bounds are widened to infinity.
WIDEN_AFTER = 3

#: The code generator stores EFSM variables as ``int32_t``.
INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

NEG_INF = float("-inf")
POS_INF = float("inf")
_INFINITE = (NEG_INF, POS_INF)

#: A shift count that may pass this many bits makes ``<<``'s upper bound
#: infinite instead of a huge power of two (C leaves shifts of 32 bits or
#: more undefined anyway).
SHIFT_WIDTH = 4096


class Interval(NamedTuple):
    """A closed integer interval; bounds may be +/-infinity.

    An Interval is a ``(lo, hi)`` tuple with names: the fixpoint carries
    plain tuples and equal ones compare equal."""

    lo: float
    hi: float

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def top() -> "Interval":
        return Interval(NEG_INF, POS_INF)

    @property
    def is_top(self) -> bool:
        return self.lo == NEG_INF and self.hi == POS_INF

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(*_join(self, other))

    def widen(self, newer: "Interval") -> "Interval":
        """Classic interval widening: unstable bounds jump to infinity."""
        return Interval(*_widen(self, newer))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __str__(self) -> str:
        return f"[{_spell(self.lo)}, {_spell(self.hi)}]"


def _spell(bound: float) -> str:
    """``-inf``, ``+inf``, the bound's digits, or ``~2^n`` (``n`` its floor
    log2) for a bound with more digits than ``str()`` prints."""
    if bound in _INFINITE:
        return "-inf" if bound < 0 else "+inf"
    try:
        return str(int(bound))
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"{'-' if bound < 0 else ''}~2^{abs(int(bound)).bit_length() - 1}"


TOP = Interval.top()
BOOL = Interval(0, 1)
TRUE = Interval.const(1)
FALSE = Interval.const(0)

#: Abstract environment: variable name -> interval.  Names absent from the
#: mapping (trigger parameters, undeclared reads) are top.  ``None`` stands
#: for bottom — an unreachable program point.
Env = Dict[str, Interval]
#: An interval as the fixpoint carries it, a lowered expression and a
#: lowered statement or guard refinement (never run on bottom)
Bounds = Tuple[float, float]
Eval = Callable[[Env], Bounds]
Exec = Callable[[Env], Optional[Env]]
#: ``records.append``: receives ``(expr, divisor)`` for each division run
Record = Optional[Callable[[Tuple[BinaryOp, Bounds]], None]]

_DIVISIONS = ("/", "%")


def _widen(old: Bounds, new: Bounds) -> Bounds:
    return (
        old[0] if new[0] >= old[0] else NEG_INF,
        old[1] if new[1] <= old[1] else POS_INF,
    )


def _join(a: Bounds, b: Bounds) -> Bounds:
    return (min(a[0], b[0]), max(a[1], b[1]))


def _absorb(a: float, b: float) -> float:
    """``a + b``, where an infinite bound absorbs a finite one of any size
    (Python cannot add an int past float range to an infinity)."""
    return a if a in _INFINITE else b if b in _INFINITE else a + b


def _add(a: Bounds, b: Bounds) -> Bounds:
    try:
        return (a[0] + b[0], a[1] + b[1])
    except OverflowError:
        return (_absorb(a[0], b[0]), _absorb(a[1], b[1]))


def _mul_bound(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0
    try:
        return a * b
    except OverflowError:  # an infinity meets an int past float range
        return POS_INF if (a > 0) == (b > 0) else NEG_INF


def _div_bound(a: float, b: float) -> float:
    """C truncated division of interval corners; ``b`` is never zero."""
    if a in _INFINITE:
        return a if b > 0 else -a
    if b in _INFINITE:
        return 0  # |a/b| < 1 truncates to 0
    return c_div(a, b)


def _corners(a: Bounds, b: Bounds, fn) -> Bounds:
    values = [fn(a[0], b[0]), fn(a[0], b[1]), fn(a[1], b[0]), fn(a[1], b[1])]
    return (min(values), max(values))


def _divide(a: Bounds, b: Bounds) -> Bounds:
    if b[0] <= 0 <= b[1]:
        # A run hitting the zero divisor raises instead of producing a
        # value; the surviving runs have a divisor adjacent to zero,
        # which top soundly covers.
        return TOP
    return _corners(a, b, _div_bound)


def _modulo(a: Bounds, b: Bounds) -> Bounds:
    if b[0] <= 0 <= b[1]:
        return TOP
    # C-style modulo: |x % y| <= min(|x|, |y| - 1), sign follows x.
    bound = min(max(abs(b[0]), abs(b[1])) - 1, max(abs(a[0]), abs(a[1])))
    return (0 if a[0] >= 0 else -bound, 0 if a[1] <= 0 else bound)


def _shift_left(a: Bounds, b: Bounds) -> Bounds:
    if b[0] >= 0 and b[1] != POS_INF:
        hi = 2 ** int(b[1]) if b[1] <= SHIFT_WIDTH else POS_INF
        return _corners(a, (2 ** int(min(b[0], SHIFT_WIDTH)), hi), _mul_bound)
    return TOP


def _shift_right(a: Bounds, b: Bounds) -> Bounds:
    if b[0] >= 0:
        if b[1] != POS_INF and a[0] != NEG_INF and a[1] != POS_INF:
            values = [int(x) >> y for x in a for y in (int(b[0]), int(b[1]))]
            return (min(values), max(values))
        if a[0] >= 0:
            return (0, a[1])
    return TOP


def _bitwise_or(a: Bounds, b: Bounds) -> Bounds:
    """``|`` and ``^`` of non-negative operands stay below their sum."""
    return (0, _absorb(a[1], b[1])) if a[0] >= 0 and b[0] >= 0 else TOP


def _equal(a: Bounds, b: Bounds) -> Optional[bool]:
    if a[0] == a[1] == b[0] == b[1]:
        return True
    return False if max(a[0], b[0]) > min(a[1], b[1]) else None


def truthiness(interval: Bounds) -> Optional[bool]:
    """Definite truth value of an interval, or ``None`` when undecided."""
    if interval[0] > 0 or interval[1] < 0:
        return True
    if interval[0] == 0 and interval[1] == 0:
        return False
    return None


_BOOL_OF = {True: TRUE, False: FALSE, None: BOOL}
_NEGATION = {True: FALSE, False: TRUE, None: BOOL}


def _top(*operands: Bounds) -> Bounds:
    return TOP


#: Each operator's transfer function over bounds; ``&&`` and ``||`` are
#: lowered by :func:`_lower_binary`.
_UNARY: Dict[str, Callable[[Bounds], Bounds]] = {
    "-": lambda a: (-a[1], -a[0]),
    "!": lambda a: _NEGATION[truthiness(a)],
    "~": lambda a: (-a[1] - 1, -a[0] - 1),
}
_BINARY: Dict[str, Callable[[Bounds, Bounds], Bounds]] = {
    "+": _add,
    "-": lambda a, b: _add(a, (-b[1], -b[0])),
    "*": lambda a, b: _corners(a, b, _mul_bound),
    "/": _divide,
    "%": _modulo,
    "<<": _shift_left,
    ">>": _shift_right,
    "&": lambda a, b: (0, min(a[1], b[1])) if a[0] >= 0 and b[0] >= 0 else TOP,
    "|": _bitwise_or,
    "^": _bitwise_or,
    "==": lambda a, b: _BOOL_OF[_equal(a, b)],
    "!=": lambda a, b: _NEGATION[_equal(a, b)],
    "<": lambda a, b: TRUE if a[1] < b[0] else FALSE if a[0] >= b[1] else BOOL,
    "<=": lambda a, b: TRUE if a[1] <= b[0] else FALSE if a[0] > b[1] else BOOL,
    ">": lambda a, b: TRUE if b[1] < a[0] else FALSE if b[0] >= a[1] else BOOL,
    ">=": lambda a, b: TRUE if b[1] <= a[0] else FALSE if b[0] > a[1] else BOOL,
}


def _abs(values: List[Bounds]) -> Bounds:
    lo, hi = values[0]
    if lo >= 0:
        return values[0]
    if hi <= 0:
        return (-hi, -lo)
    return (0, max(-lo, hi))


#: The builtins evaluated over their arguments' bounds.  A CRC is a 32-bit
#: *pattern*, not a magnitude: the generated C pipes it through one
#: consistent uint32->int32 conversion, so a range would only feed A002
#: false alarms, and ``crc32()`` is unknown (top).
_CALLS: Dict[str, Callable[[List[Bounds]], Bounds]] = {
    "min": lambda values: (min(v[0] for v in values), min(v[1] for v in values)),
    "max": lambda values: (max(v[0] for v in values), max(v[1] for v in values)),
    "abs": _abs,
}
_RAND16 = Interval(0, 0xFFFF)


def _lower(expr: Expr, record: Record = None) -> Eval:
    """``expr`` as a function of an environment, returning its bounds.

    With ``record``, every ``/`` and ``%`` it evaluates whose divisor is
    not a literal (:func:`_recorded`) passes on ``(expr, divisor)``.
    """
    if isinstance(expr, IntLiteral):
        value = (expr.value, expr.value)
        return lambda env: value
    if isinstance(expr, BoolLiteral):
        value = TRUE if expr.value else FALSE
        return lambda env: value
    if isinstance(expr, Name):
        name = expr.identifier
        return lambda env: env.get(name, TOP)
    if isinstance(expr, UnaryOp):
        operand = _lower(expr.operand, record)
        transfer = _UNARY.get(expr.op, _top)
        return lambda env: transfer(operand(env))
    if isinstance(expr, BinaryOp):
        return _lower_binary(expr, record)
    if isinstance(expr, Conditional):
        probe = _probe([expr.condition], record)
        to_then = _lower_refine(expr.condition, True)
        to_else = _lower_refine(expr.condition, False)
        then_value = _lower(expr.then_value, record)
        else_value = _lower(expr.else_value, record)

        def conditional(env: Env) -> Bounds:
            if probe is not None:
                probe(env)
            then_env, else_env = to_then(env), to_else(env)
            if then_env is None:
                return TOP if else_env is None else else_value(else_env)
            value = then_value(then_env)
            return value if else_env is None else _join(value, else_value(else_env))

        return conditional
    if isinstance(expr, Call):
        if expr.function == "crc32":
            return _top
        if expr.function == "rand16":
            return lambda env: _RAND16
        args = [_lower(arg, record) for arg in expr.args]
        transfer = _CALLS.get(expr.function, _top) if args else _top
        return lambda env: transfer([arg(env) for arg in args])
    return _top


def _lower_binary(expr: BinaryOp, record: Record) -> Eval:
    left = _lower(expr.left, record)
    right = _lower(expr.right, record)
    decides = SHORT_CIRCUIT.get(expr.op)
    if decides is not None:
        # the right side only runs where the left did not decide, so it is
        # evaluated on the environment refined by the left's other value
        narrow = _lower_refine(expr.left, not decides)
        decided, otherwise = _BOOL_OF[decides], _BOOL_OF[not decides]

        def short_circuit(env: Env) -> Bounds:
            first = truthiness(left(env))
            if first is decides:
                return decided
            narrowed = narrow(env)
            if narrowed is None:
                return decided
            second = truthiness(right(narrowed))
            if second is decides:
                return decided
            return BOOL if first is None or second is None else otherwise

        return short_circuit
    transfer = _BINARY.get(expr.op, _top)
    if record is not None and _recorded(expr):

        def divide(env: Env) -> Bounds:
            value, divisor = left(env), right(env)
            record((expr, divisor))
            return transfer(value, divisor)

        return divide
    return lambda env: transfer(left(env), right(env))


def _recorded(node: Expr) -> bool:
    """Whether A004 needs ``node``'s divisor: a division or modulo whose
    divisor is not a literal (a literal one is never a finding)."""
    return (
        isinstance(node, BinaryOp)
        and node.op in _DIVISIONS
        and not isinstance(node.right, IntLiteral)
    )


def _probe(exprs: Sequence[Expr], record: Record) -> Optional[Exec]:
    """Evaluate ``exprs``, whose values nobody reads, to record their
    divisions; ``None`` when they have nothing to record."""
    if record is None:
        return None
    probes = [
        _lower(expr, record)
        for expr in exprs
        if any(map(_recorded, subexpressions(expr)))
    ]

    def probe(env: Env) -> Env:
        for evaluate in probes:
            evaluate(env)
        return env

    return probe if probes else None


_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _refine_name(env: Env, name: str, op: str, bound: Bounds) -> Optional[Env]:
    """Narrow ``name`` so that ``name <op> bound`` can hold; None = bottom."""
    current = env.get(name, TOP)
    lo, hi = current
    if op == "<":
        narrowed = (lo, min(hi, bound[1] - 1))
    elif op == "<=":
        narrowed = (lo, min(hi, bound[1]))
    elif op == ">":
        narrowed = (max(lo, bound[0] + 1), hi)
    elif op == ">=":
        narrowed = (max(lo, bound[0]), hi)
    elif op == "==":
        narrowed = (max(lo, bound[0]), min(hi, bound[1]))
    else:  # "!=" narrows only at an edge equal to a constant bound
        narrowed = current
        if bound[0] == bound[1]:
            if lo == hi == bound[0]:
                return None
            if lo == bound[0]:
                narrowed = (lo + 1, hi)
            elif hi == bound[1]:
                narrowed = (lo, hi - 1)
    if narrowed[0] > narrowed[1]:
        return None
    if narrowed == current:
        return env
    refined = dict(env)
    refined[name] = narrowed
    return refined


def _join_envs(a: Optional[Env], b: Optional[Env]) -> Optional[Env]:
    if a is None:
        return b
    if b is None:
        return a
    joined: Env = {}
    for name, x in a.items():
        y = b.get(name)
        if y is not None:
            joined[name] = x if x == y else _join(x, y)
    return joined


def _widen_env(old: Env, new: Env) -> Env:
    return {
        name: _widen(old[name], value) if name in old else value
        for name, value in new.items()
    }


def _lower_refine(guard: Expr, want: bool) -> Exec:
    """:func:`refine_env` of ``guard`` and ``want``, as a function of the
    environment."""
    if isinstance(guard, UnaryOp) and guard.op == "!":
        return _lower_refine(guard.operand, not want)
    if isinstance(guard, BinaryOp) and guard.op in SHORT_CIRCUIT:
        first = _lower_refine(guard.left, want)
        second = _lower_refine(guard.right, want)
        if (guard.op == "&&") != want:  # either side may hold
            return lambda env: _join_envs(first(env), second(env))

        def both(env: Env) -> Optional[Env]:
            narrowed = first(env)
            return None if narrowed is None else second(narrowed)

        return both
    if isinstance(guard, BinaryOp) and guard.op in _NEGATED:
        op = guard.op if want else _NEGATED[guard.op]
        mirrored = _MIRRORED[op]
        left, right = _lower(guard.left), _lower(guard.right)
        transfer = _BINARY[guard.op]
        left_name = guard.left.identifier if isinstance(guard.left, Name) else None
        right_name = guard.right.identifier if isinstance(guard.right, Name) else None

        def compare(env: Env) -> Optional[Env]:
            refined: Optional[Env] = env
            if left_name is not None:
                refined = _refine_name(refined, left_name, op, right(env))
            if refined is not None and right_name is not None:
                refined = _refine_name(refined, right_name, mirrored, left(refined))
            if refined is not None:
                value = truthiness(transfer(left(refined), right(refined)))
                if value is not None and value != want:
                    return None
            return refined

        return compare
    if isinstance(guard, Name):
        name = guard.identifier
        if want:
            return lambda env: None if env.get(name, TOP) == FALSE else env

        def falsy(env: Env) -> Optional[Env]:
            lo, hi = env.get(name, TOP)
            if lo > 0 or hi < 0:
                return None
            refined = dict(env)
            refined[name] = FALSE
            return refined

        return falsy
    whole = _lower(guard)

    def decide(env: Env) -> Optional[Env]:
        value = truthiness(whole(env))
        return None if value is not None and value != want else env

    return decide


def _sequence(steps: List[Optional[Exec]]) -> Exec:
    """Run ``steps`` in order, leaving out ``None``; bottom ends the run."""
    steps = [step for step in steps if step is not None]
    if len(steps) == 1:
        return steps[0]

    def run(env: Env) -> Optional[Env]:
        for step in steps:
            env = step(env)
            if env is None:
                return None
        return env

    return run


def _lower_block(stmts: Sequence[Stmt], record: Record = None) -> Exec:
    """A block as a function, joining branch and loop effects."""
    return _sequence([_lower_stmt(stmt, record) for stmt in stmts])


def _lower_stmt(stmt: Stmt, record: Record) -> Optional[Exec]:
    """One statement; ``None`` when running it changes and records nothing."""
    if isinstance(stmt, Assign):
        target, value = stmt.target, _lower(stmt.value, record)

        def assign(env: Env) -> Env:
            updated = dict(env)
            updated[target] = value(env)
            return updated

        return assign
    if isinstance(stmt, Send):
        return _probe(stmt.args, record)
    if isinstance(stmt, SetTimer):
        return _probe([stmt.duration], record)
    if isinstance(stmt, If):
        then = _sequence(
            [_lower_refine(stmt.condition, True), _lower_block(stmt.then_body, record)]
        )
        orelse = _sequence(
            [_lower_refine(stmt.condition, False), _lower_block(stmt.else_body, record)]
        )
        branch = lambda env: _join_envs(then(env), orelse(env))
        return _sequence([_probe([stmt.condition], record), branch])
    if isinstance(stmt, While):
        enter = _lower_refine(stmt.condition, True)
        leave = _lower_refine(stmt.condition, False)
        body = _lower_block(stmt.body, record)

        def loop(env: Env) -> Optional[Env]:
            current = env
            for round_ in range(WIDEN_AFTER + 2):
                body_in = enter(current)
                if body_in is None:
                    break
                joined = _join_envs(current, body(body_in))
                if joined == current:
                    break
                if round_ >= WIDEN_AFTER:
                    joined = _widen_env(current, joined)
                current = joined
            return _join_envs(leave(env), leave(current))

        return _sequence([_probe([stmt.condition], record), loop])
    return None  # reset_timer


def _intervals(env: Env) -> Env:
    return {name: Interval(*bounds) for name, bounds in env.items()}


def abstract_eval(expr: Expr, env: Env) -> Interval:
    """Evaluate an expression over intervals; sound for every concrete run."""
    return Interval(*_lower(expr)(env))


def refine_env(env: Optional[Env], guard: Expr, want: bool) -> Optional[Env]:
    """The part of ``env`` where ``guard`` evaluates to ``want``.

    Sound over-approximation: the result contains every concrete valuation
    of ``env`` satisfying the condition; ``None`` means there is provably
    none (bottom).
    """
    refined = None if env is None else _lower_refine(guard, want)(env)
    return None if refined is None else _intervals(refined)


def abstract_exec(stmts: Sequence[Stmt], env: Optional[Env]) -> Optional[Env]:
    """Run a block over intervals, joining branch and loop effects."""
    out = None if env is None else _lower_block(stmts)(env)
    return None if out is None else _intervals(out)


# ---------------------------------------------------------------------------
# Machine fixpoint
# ---------------------------------------------------------------------------


@dataclass
class MachineValues:
    """Fixpoint result: per-leaf-state abstract environments."""

    machine: StateMachine
    #: id(leaf State) -> joined environment over every visit.
    state_envs: Dict[int, Env]
    #: id(leaf State) -> the State, for iteration in insertion order.
    leaves: Dict[int, State]
    #: the resolved hierarchy the fixpoint ran on
    plan: MachinePlan
    #: transition -> whether its guard could hold at the last visit of some
    #: leaf it may fire from; a leaf's last visit runs on its final
    #: environment, and transitions no leaf visited are absent
    guard_holds: Dict[Transition, bool]
    #: ``(anchor, expr, divisor)`` for each division or modulo with a
    #: non-literal divisor that the start step's entries (anchored to their
    #: state) and each leaf's last visit (anchored to the transition)
    #: evaluated, in that order
    divisions: List[Tuple[object, BinaryOp, Interval]]

    def env_of(self, leaf: State) -> Optional[Env]:
        return self.state_envs.get(id(leaf))

    def joined_env(self) -> Env:
        """Join of every reachable state environment (per-variable)."""
        joined: Env = {}
        for env in self.state_envs.values():
            for name, interval in env.items():
                existing = joined.get(name)
                joined[name] = interval if existing is None else existing.join(interval)
        return joined


class _Lowering:
    """A machine's blocks and guards, each lowered once per analysis, with
    their divisions recorded through ``record``."""

    def __init__(self, record: Record) -> None:
        self.record = record
        #: id(block) -> the block, id(transition) -> its guard, lowered
        self.lowered: Dict[int, Exec] = {}

    def block(self, stmts: List[Stmt]) -> Exec:
        if id(stmts) not in self.lowered:
            self.lowered[id(stmts)] = _lower_block(stmts, self.record)
        return self.lowered[id(stmts)]

    def step(self, step: Step) -> Tuple[Transition, Exec, Exec, State]:
        """``(transition, admit, run, leaf)``: ``admit`` narrows an
        environment by the guard (``None``: the guard is false), after
        recording the guard's divisions on the unrefined environment, and
        ``run`` runs the step's blocks."""
        transition, guard = step.transition, step.transition.guard
        if id(transition) not in self.lowered:
            parts = []
            if guard is not None:
                parts = [_probe([guard], self.record), _lower_refine(guard, True)]
            self.lowered[id(transition)] = _sequence(parts)
        run = _sequence([self.block(block) for block in step.blocks])
        return transition, self.lowered[id(transition)], run, step.leaf


def analyze_machine(machine: StateMachine) -> Optional[MachineValues]:
    """Run the interval fixpoint; ``None`` when the machine cannot start."""
    return _fixpoint(machine, plan_machine(machine))


def _fixpoint(machine: StateMachine, plan: MachinePlan) -> Optional[MachineValues]:
    """The interval fixpoint of ``machine`` over its plan ``plan``."""
    if plan.start is None:
        return None
    records: List[Tuple[BinaryOp, Bounds]] = []
    lower = _Lowering(records.append)
    moves = {leaf: [lower.step(s) for s in steps] for leaf, steps in plan.steps.items()}
    divisions: List[Tuple[object, BinaryOp, Bounds]] = []
    env: Optional[Env] = {
        name: (value, value) for name, value in machine.variables.items()
    }
    for state in plan.start.entries + plan.start.descent:
        env = lower.block(state.entry)(env)
        divisions.extend((state, expr, divisor) for expr, divisor in records)
        records.clear()
        if env is None:
            return None

    state_envs: Dict[int, Env] = {}
    leaves: Dict[int, State] = {}
    join_counts: Dict[int, int] = {}
    worklist: List[State] = []
    # id(leaf) -> the environment object its last pop ran; every push that
    # changes a leaf stores a new object, so an identical one marks a stale
    # worklist entry whose steps would only repeat no-op pushes
    ran: Dict[int, Env] = {}
    # id(leaf) -> whether each candidate's guard could hold, and the
    # divisions its steps recorded, as of its latest visit
    verdicts: Dict[int, Dict[Transition, bool]] = {}
    visits: Dict[int, list] = {}

    def push(leaf: State, incoming: Optional[Env]) -> None:
        if incoming is None:
            return
        known = state_envs.get(id(leaf))
        if known is None:
            updated = dict(incoming)
        else:
            updated = _join_envs(known, incoming)
            if updated == known:
                return
            join_counts[id(leaf)] = join_counts.get(id(leaf), 0) + 1
            if join_counts[id(leaf)] > WIDEN_AFTER:
                updated = _widen_env(known, updated)
                if updated == known:
                    return
        state_envs[id(leaf)] = updated
        leaves[id(leaf)] = leaf
        worklist.append(leaf)

    push(plan.start.leaf, env)
    while worklist:
        leaf = worklist.pop()
        if terminates(leaf):
            continue
        current = state_envs[id(leaf)]
        if ran.get(id(leaf)) is current:
            continue
        ran[id(leaf)] = current
        holds = verdicts[id(leaf)] = {}
        visit = visits[id(leaf)] = []
        for transition, admit, run, target in moves[leaf]:
            entered = admit(current)
            holds[transition] = entered is not None
            if entered is not None:
                push(target, run(entered))
            if records:
                visit.extend((transition, expr, divisor) for expr, divisor in records)
                records.clear()
    guard_holds: Dict[Transition, bool] = {}
    for holds in verdicts.values():
        for transition, held in holds.items():
            guard_holds[transition] = guard_holds.get(transition, False) or held
    for key in leaves:
        divisions.extend(visits.get(key, ()))
    return MachineValues(
        machine,
        {key: _intervals(env) for key, env in state_envs.items()},
        leaves,
        plan,
        guard_holds,
        [(anchor, expr, Interval(*divisor)) for anchor, expr, divisor in divisions],
    )


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_machine(
    machine: StateMachine,
    plan: MachinePlan,
    ctx: LintContext,
    findings: List[Finding],
) -> None:
    """Run the value-analysis rules (A001-A004) over one state machine."""
    from repro.analysis.efsm import machine_label

    label = machine_label(machine)
    values = _fixpoint(machine, plan)
    if values is None:
        return

    # A001: guards infeasible under every reachable valuation: every leaf
    # that visited the transition found its guard false.  Constant guards
    # stay with E002; A001 needs the fixpoint to decide.
    for transition in machine.transitions:
        if transition.guard is None or const_value(transition.guard) is not None:
            continue
        if not values.guard_holds.get(transition, True):
            ctx.emit(
                findings,
                "A001",
                f"guard [{transition.guard.unparse()}] of transition "
                f"{transition.describe()!r} is infeasible under every "
                "reachable variable valuation",
                label,
                (transition,),
            )

    # A002: proven finite ranges outside the generated int32_t storage.
    joined = values.joined_env()
    for name in sorted(machine.variables):
        interval = joined.get(name)
        if interval is None:
            continue
        overflow_hi = interval.hi != POS_INF and interval.hi > INT32_MAX
        overflow_lo = interval.lo != NEG_INF and interval.lo < INT32_MIN
        if overflow_hi or overflow_lo:
            ctx.emit(
                findings,
                "A002",
                f"variable {name!r} reaches proven range {interval} outside "
                "the int32_t storage generated for EFSM variables",
                label,
                (machine,),
            )

    # A003: graph-reachable source state that value analysis proves never
    # activates (E001 keeps graph-unreachable states): no leaf the fixpoint
    # reached may fire the transition.
    fireable = {
        step.transition
        for leaf in values.leaves.values()
        for step in plan.steps[leaf]
    }
    for transition in machine.transitions:
        source = transition.source
        if source in plan.reachable and transition not in fireable:
            ctx.emit(
                findings,
                "A003",
                f"transition {transition.describe()!r} is dead: value "
                f"analysis proves state {source.name!r} never activates",
                label,
                (transition,),
            )

    # A004: division/modulo whose divisor provably straddles zero, joined
    # per anchor and expression over the divisions the fixpoint recorded.
    sites: Dict[Tuple[int, str], list] = {}
    for anchor, expr, divisor in values.divisions:
        key = (id(anchor), expr.unparse())
        site = sites.get(key)
        if site is None:
            where = (
                f"state {anchor.name!r} entry"
                if isinstance(anchor, State)
                else f"transition {anchor.describe()!r}"
            )
            sites[key] = [where, key[1], anchor, expr, divisor]
        else:
            site[4] = site[4].join(divisor)

    for where, text, anchor, expr, divisor in sorted(
        sites.values(), key=lambda site: site[:2]
    ):
        if not divisor.contains(0) or divisor.is_top:
            continue
        if const_value(expr.right) == 0:
            continue  # D006 reports constant-zero divisors
        ctx.emit(
            findings,
            "A004",
            f"divisor {expr.right.unparse()} of {text} in "
            f"{where} has proven range {divisor} containing zero",
            label,
            (anchor,),
        )
