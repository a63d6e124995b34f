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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.core import Finding, LintContext, const_value, register_rule
from repro.uml.actions import (
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
)
from repro.uml.plan import MachinePlan, Step, plan_machine
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


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; bounds may be +/-infinity."""

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
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widen(self, newer: "Interval") -> "Interval":
        """Classic interval widening: unstable bounds jump to infinity."""
        lo = self.lo if newer.lo >= self.lo else NEG_INF
        hi = self.hi if newer.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __str__(self) -> str:
        fmt = lambda b: "-inf" if b == NEG_INF else "+inf" if b == POS_INF else str(int(b))
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


TOP = Interval.top()
BOOL = Interval(0, 1)
TRUE = Interval.const(1)
FALSE = Interval.const(0)

#: Abstract environment: variable name -> interval.  Names absent from the
#: mapping (trigger parameters, undeclared reads) are top.  ``None`` stands
#: for bottom — an unreachable program point.
Env = Dict[str, Interval]


def _mul_bound(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0
    return a * b


def _div_bound(a: float, b: float) -> float:
    """C truncated division of interval corners; ``b`` is never zero."""
    if a in (NEG_INF, POS_INF):
        return a if b > 0 else -a
    if b in (NEG_INF, POS_INF):
        return 0  # |a/b| < 1 truncates to 0
    quotient = int(a / b) if (a < 0) != (b < 0) else int(a) // int(b)
    return quotient


def _corners(left: Interval, right: Interval, fn) -> Interval:
    values = [
        fn(a, b)
        for a in (left.lo, left.hi)
        for b in (right.lo, right.hi)
    ]
    return Interval(min(values), max(values))


def truthiness(interval: Interval) -> Optional[bool]:
    """Definite truth value of an interval, or ``None`` when undecided."""
    if interval == FALSE:
        return False
    if not interval.contains(0):
        return True
    return None


def _bool_of(value: Optional[bool]) -> Interval:
    if value is True:
        return TRUE
    if value is False:
        return FALSE
    return BOOL


#: Optional hook invoked on every ``/`` or ``%`` with the divisor interval.
DivHook = Optional[Callable[[BinaryOp, Interval], None]]


def abstract_eval(expr: Expr, env: Env, on_division: DivHook = None) -> Interval:
    """Evaluate an expression over intervals; sound for every concrete run."""
    if isinstance(expr, IntLiteral):
        return Interval.const(expr.value)
    if isinstance(expr, BoolLiteral):
        return TRUE if expr.value else FALSE
    if isinstance(expr, Name):
        return env.get(expr.identifier, TOP)
    if isinstance(expr, UnaryOp):
        operand = abstract_eval(expr.operand, env, on_division)
        if expr.op == "-":
            return Interval(-operand.hi, -operand.lo)
        if expr.op == "!":
            truth = truthiness(operand)
            return _bool_of(None if truth is None else not truth)
        if expr.op == "~":
            return Interval(-operand.hi - 1, -operand.lo - 1)
        return TOP
    if isinstance(expr, Conditional):
        abstract_eval(expr.condition, env, on_division)
        then_env = refine_env(env, expr.condition, True)
        else_env = refine_env(env, expr.condition, False)
        branches = []
        if then_env is not None:
            branches.append(abstract_eval(expr.then_value, then_env, on_division))
        if else_env is not None:
            branches.append(abstract_eval(expr.else_value, else_env, on_division))
        if not branches:
            return TOP
        result = branches[0]
        for other in branches[1:]:
            result = result.join(other)
        return result
    if isinstance(expr, Call):
        return _eval_call(expr, env, on_division)
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, env, on_division)
    return TOP


def _eval_call(expr: Call, env: Env, on_division: DivHook) -> Interval:
    if expr.function == "crc32":
        # A CRC is a 32-bit *pattern*, not a magnitude: the generated C pipes
        # it through one consistent uint32->int32 conversion, so a range would
        # only feed A002 false alarms.  Treat it as unknown.
        return TOP
    if expr.function == "rand16":
        return Interval(0, 0xFFFF)
    args = [abstract_eval(arg, env, on_division) for arg in expr.args]
    if not args:
        return TOP
    if expr.function == "min":
        return Interval(min(a.lo for a in args), min(a.hi for a in args))
    if expr.function == "max":
        return Interval(max(a.lo for a in args), max(a.hi for a in args))
    if expr.function == "abs":
        operand = args[0]
        if operand.lo >= 0:
            return operand
        if operand.hi <= 0:
            return Interval(-operand.hi, -operand.lo)
        return Interval(0, max(-operand.lo, operand.hi))
    return TOP


def _eval_binary(expr: BinaryOp, env: Env, on_division: DivHook) -> Interval:
    op = expr.op
    if op == "&&":
        left = truthiness(abstract_eval(expr.left, env, on_division))
        if left is False:
            return FALSE
        # Short-circuit: the right side only runs where the left held.
        narrowed = refine_env(env, expr.left, True)
        if narrowed is None:
            return FALSE
        right = truthiness(abstract_eval(expr.right, narrowed, on_division))
        if right is False:
            return FALSE
        if left is True and right is True:
            return TRUE
        return BOOL
    if op == "||":
        left = truthiness(abstract_eval(expr.left, env, on_division))
        if left is True:
            return TRUE
        narrowed = refine_env(env, expr.left, False)
        if narrowed is None:
            return TRUE
        right = truthiness(abstract_eval(expr.right, narrowed, on_division))
        if right is True:
            return TRUE
        if left is False and right is False:
            return FALSE
        return BOOL

    left = abstract_eval(expr.left, env, on_division)
    right = abstract_eval(expr.right, env, on_division)
    if op == "+":
        return Interval(left.lo + right.lo, left.hi + right.hi)
    if op == "-":
        return Interval(left.lo - right.hi, left.hi - right.lo)
    if op == "*":
        return _corners(left, right, _mul_bound)
    if op in ("/", "%"):
        if on_division is not None:
            on_division(expr, right)
        if right.contains(0):
            # A run hitting the zero divisor raises instead of producing a
            # value; the surviving runs have a divisor adjacent to zero,
            # which top soundly covers.
            return TOP
        if op == "/":
            return _corners(left, right, _div_bound)
        # C-style modulo: |x % y| <= min(|x|, |y| - 1), sign follows x.
        magnitude = max(abs(right.lo), abs(right.hi)) - 1
        x_magnitude = max(abs(left.lo), abs(left.hi))
        bound = min(magnitude, x_magnitude)
        lo = 0 if left.lo >= 0 else -bound
        hi = 0 if left.hi <= 0 else bound
        return Interval(lo, hi)
    if op == "<<":
        if right.lo >= 0 and right.hi != POS_INF:
            shifted = Interval(2 ** int(right.lo), 2 ** int(right.hi))
            return _corners(left, shifted, _mul_bound)
        return TOP
    if op == ">>":
        if right.lo >= 0:
            if right.hi != POS_INF and left.lo != NEG_INF and left.hi != POS_INF:
                values = [
                    int(a) >> b
                    for a in (left.lo, left.hi)
                    for b in (int(right.lo), int(right.hi))
                ]
                return Interval(min(values), max(values))
            if left.lo >= 0:
                return Interval(0, left.hi)
        return TOP
    if op in ("&", "|", "^"):
        if left.lo >= 0 and right.lo >= 0:
            if op == "&":
                return Interval(0, min(left.hi, right.hi))
            return Interval(0, left.hi + right.hi)
        return TOP
    if op in ("==", "!=", "<", "<=", ">", ">="):
        return _bool_of(_compare(op, left, right))
    return TOP


def _compare(op: str, left: Interval, right: Interval) -> Optional[bool]:
    if op == "<":
        if left.hi < right.lo:
            return True
        if left.lo >= right.hi:
            return False
    elif op == "<=":
        if left.hi <= right.lo:
            return True
        if left.lo > right.hi:
            return False
    elif op == ">":
        return _compare("<", right, left)
    elif op == ">=":
        return _compare("<=", right, left)
    elif op == "==":
        if left.is_const and right.is_const and left.lo == right.lo:
            return True
        if left.intersect(right) is None:
            return False
    elif op == "!=":
        equal = _compare("==", left, right)
        return None if equal is None else not equal
    return None


_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _refine_name(env: Env, name: str, op: str, bound: Interval) -> Optional[Env]:
    """Narrow ``name`` so that ``name <op> bound`` can hold; None = bottom."""
    current = env.get(name, TOP)
    if op == "<":
        narrowed = current.intersect(Interval(NEG_INF, bound.hi - 1))
    elif op == "<=":
        narrowed = current.intersect(Interval(NEG_INF, bound.hi))
    elif op == ">":
        narrowed = current.intersect(Interval(bound.lo + 1, POS_INF))
    elif op == ">=":
        narrowed = current.intersect(Interval(bound.lo, POS_INF))
    elif op == "==":
        narrowed = current.intersect(bound)
    elif op == "!=":
        narrowed = current
        if bound.is_const:
            if current.is_const and current.lo == bound.lo:
                return None
            if current.lo == bound.lo:
                narrowed = Interval(current.lo + 1, current.hi)
            elif current.hi == bound.hi:
                narrowed = Interval(current.lo, current.hi - 1)
    else:
        return env
    if narrowed is None:
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
    for name in set(a) & set(b):
        joined[name] = a[name].join(b[name])
    return joined


def refine_env(env: Optional[Env], guard: Expr, want: bool) -> Optional[Env]:
    """The part of ``env`` where ``guard`` evaluates to ``want``.

    Sound over-approximation: the result contains every concrete valuation
    of ``env`` satisfying the condition; ``None`` means there is provably
    none (bottom).
    """
    if env is None:
        return None
    if isinstance(guard, UnaryOp) and guard.op == "!":
        return refine_env(env, guard.operand, not want)
    if isinstance(guard, BinaryOp) and guard.op in ("&&", "||"):
        both = (guard.op == "&&") == want
        if both:
            first = refine_env(env, guard.left, want)
            return refine_env(first, guard.right, want)
        return _join_envs(
            refine_env(env, guard.left, want),
            refine_env(env, guard.right, want),
        )
    if isinstance(guard, BinaryOp) and guard.op in _NEGATED:
        op = guard.op if want else _NEGATED[guard.op]
        refined: Optional[Env] = env
        if isinstance(guard.left, Name):
            bound = abstract_eval(guard.right, env)
            refined = _refine_name(refined, guard.left.identifier, op, bound)
        if refined is not None and isinstance(guard.right, Name):
            bound = abstract_eval(guard.left, refined)
            refined = _refine_name(
                refined, guard.right.identifier, _MIRRORED[op], bound
            )
        if refined is not None:
            value = truthiness(abstract_eval(guard, refined))
            if value is not None and value != want:
                return None
        return refined
    if isinstance(guard, Name):
        interval = env.get(guard.identifier, TOP)
        if want:
            if interval == FALSE:
                return None
            return env
        if not interval.contains(0):
            return None
        refined = dict(env)
        refined[guard.identifier] = FALSE
        return refined
    value = truthiness(abstract_eval(guard, env))
    if value is not None and value != want:
        return None
    return env


def abstract_exec(
    stmts: Sequence[Stmt], env: Optional[Env], on_division: DivHook = None
) -> Optional[Env]:
    """Run a block over intervals, joining branch and loop effects."""
    for stmt in stmts:
        if env is None:
            return None
        env = _exec_one(stmt, env, on_division)
    return env


def _exec_one(stmt: Stmt, env: Env, on_division: DivHook) -> Optional[Env]:
    if isinstance(stmt, Assign):
        value = abstract_eval(stmt.value, env, on_division)
        updated = dict(env)
        updated[stmt.target] = value
        return updated
    if isinstance(stmt, Send):
        for arg in stmt.args:
            abstract_eval(arg, env, on_division)
        return env
    if isinstance(stmt, SetTimer):
        abstract_eval(stmt.duration, env, on_division)
        return env
    if isinstance(stmt, ResetTimer):
        return env
    if isinstance(stmt, If):
        abstract_eval(stmt.condition, env, on_division)
        then_env = abstract_exec(
            stmt.then_body, refine_env(env, stmt.condition, True), on_division
        )
        else_env = abstract_exec(
            stmt.else_body, refine_env(env, stmt.condition, False), on_division
        )
        return _join_envs(then_env, else_env)
    if isinstance(stmt, While):
        abstract_eval(stmt.condition, env, on_division)
        exit_env = refine_env(env, stmt.condition, False)
        current: Optional[Env] = env
        for round_ in range(WIDEN_AFTER + 2):
            body_in = refine_env(current, stmt.condition, True)
            if body_in is None:
                break
            body_out = abstract_exec(stmt.body, body_in, on_division)
            joined = _join_envs(current, body_out)
            if joined == current:
                break
            if round_ >= WIDEN_AFTER and current is not None and joined is not None:
                joined = {
                    name: current[name].widen(joined[name])
                    if name in current
                    else joined[name]
                    for name in joined
                }
            current = joined
        after_loop = refine_env(current, stmt.condition, False)
        return _join_envs(exit_env, after_loop)
    return env


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


def _transition_step(
    step: Step, env: Env, on_division: DivHook = None
) -> Tuple[Optional[State], Optional[Env]]:
    """Abstractly run a planned step from the leaf it was planned for.

    Returns ``(new_leaf, env)``; ``(None, None)`` when the guard is
    provably false under ``env``.
    """
    current: Optional[Env] = env
    guard = step.transition.guard
    if guard is not None:
        current = refine_env(current, guard, True)
        if on_division is not None:
            abstract_eval(guard, env, on_division)
        if current is None:
            return None, None
    for block in step.blocks:
        current = abstract_exec(block, current, on_division)
    return step.leaf, current


def analyze_machine(machine: StateMachine) -> Optional[MachineValues]:
    """Run the interval fixpoint; ``None`` when the machine cannot start."""
    return _fixpoint(machine, plan_machine(machine))


def _fixpoint(machine: StateMachine, plan: MachinePlan) -> Optional[MachineValues]:
    """The interval fixpoint of ``machine`` over its plan ``plan``."""
    if plan.start is None:
        return None
    env: Optional[Env] = {
        name: Interval.const(value) for name, value in machine.variables.items()
    }
    for block in plan.start.blocks:
        env = abstract_exec(block, env)
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
    # id(leaf) -> whether each candidate's guard could hold, as of its
    # latest visit
    verdicts: Dict[int, Dict[Transition, bool]] = {}

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
                updated = {
                    name: known[name].widen(updated[name])
                    if name in known
                    else updated[name]
                    for name in updated
                }
                if updated == known:
                    return
        state_envs[id(leaf)] = updated
        leaves[id(leaf)] = leaf
        worklist.append(leaf)

    push(plan.start.leaf, env)
    while worklist:
        leaf = worklist.pop()
        if leaf.is_final:
            continue
        current = state_envs[id(leaf)]
        if ran.get(id(leaf)) is current:
            continue
        ran[id(leaf)] = current
        holds = verdicts[id(leaf)] = {}
        for step in plan.steps[leaf]:
            new_leaf, out = _transition_step(step, current)
            holds[step.transition] = new_leaf is not None
            if new_leaf is not None:
                push(new_leaf, out)
    guard_holds: Dict[Transition, bool] = {}
    for holds in verdicts.values():
        for transition, held in holds.items():
            guard_holds[transition] = guard_holds.get(transition, False) or held
    return MachineValues(machine, state_envs, leaves, plan, guard_holds)


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

    # A004: division/modulo whose divisor provably straddles zero.  A final
    # pass over the fixpoint re-runs every block with a division hook.
    sites: Dict[Tuple[int, str], List] = {}
    where = {"current": ""}
    anchors = {"current": None}

    def on_division(expr: BinaryOp, divisor: Interval) -> None:
        key = (id(anchors["current"]), expr.unparse())
        entry = sites.get(key)
        if entry is None:
            sites[key] = [where["current"], anchors["current"], expr, divisor]
        else:
            entry[3] = entry[3].join(divisor)

    init_env: Optional[Env] = {
        name: Interval.const(value) for name, value in machine.variables.items()
    }
    start = values.plan.start
    for state in start.entries + start.descent:
        where["current"] = f"state {state.name!r} entry"
        anchors["current"] = state
        init_env = abstract_exec(state.entry, init_env, on_division)
        if init_env is None:
            break
    for leaf in values.leaves.values():
        if leaf.is_final:
            continue
        env = values.env_of(leaf)
        for step in values.plan.steps[leaf]:
            where["current"] = f"transition {step.transition.describe()!r}"
            anchors["current"] = step.transition
            _transition_step(step, env, on_division)

    for _, (where_str, anchor, expr, divisor) in sorted(
        sites.items(), key=lambda item: (item[1][0], item[1][2].unparse())
    ):
        if not divisor.contains(0) or divisor.is_top:
            continue
        if const_value(expr.right) == 0:
            continue  # D006 reports constant-zero divisors
        ctx.emit(
            findings,
            "A004",
            f"divisor {expr.right.unparse()} of {expr.unparse()} in "
            f"{where_str} has proven range {divisor} containing zero",
            label,
            (anchor,),
        )
