"""EFSM execution: run-to-completion steps over the state machine model.

The executor is deliberately time-free: it computes *what happens* (state
changes, statements executed, signals produced, timers armed) and leaves
*when and how long* to the system simulator's cost model.  This split lets
the same executor serve the full-platform simulation, the workstation
reference run, and direct unit tests.  It is observation-free too: the
system simulator logs the steps it returns, and traces them from the log.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.uml.action_compiler import compile_block, compile_guard

# The tree-walking ``execute``/``evaluate`` stay importable from here (the
# repository benchmark's span recorder looks them up in this module) even
# though steps run compiled functions; they are the reference semantics.
from repro.uml.actions import (  # noqa: F401
    RAND16_SEED,
    ActionEnvironment,
    SendIntent,
    evaluate,
    execute,
)
from repro.uml.plan import COMPLETION, Step, plan_machine, signal_key, timer_key
from repro.uml.statemachine import SignalTrigger, State, StateMachine

MAX_COMPLETION_CHAIN = 100


class StepOutcome:
    """Everything a run-to-completion step did.

    ``transitions`` names the transitions the step ran, in order, its
    completion chase included: their plan ids (:attr:`Step.id`) joined by
    commas, ``-`` when none ran.  ``sends`` and ``timer_ops`` are the
    lists the step's action blocks appended to, handed over rather than
    copied.  ``timer_ops`` is the only record of timer operations, in
    program order.
    """

    __slots__ = (
        "from_state",
        "to_state",
        "statements",
        "transitions",
        "guards_evaluated",
        "sends",
        "timer_ops",
    )

    def __init__(
        self,
        from_state: str,
        to_state: str,
        statements: int,
        transitions: str,
        guards_evaluated: int,
        sends: List[SendIntent],
        timer_ops: List[Tuple[str, str, int]],
    ) -> None:
        self.from_state = from_state
        self.to_state = to_state
        self.statements = statements
        self.transitions = transitions
        self.guards_evaluated = guards_evaluated
        self.sends = sends
        self.timer_ops = timer_ops

    def to_dict(self) -> dict:
        """A JSON-safe encoding for checkpoints of in-flight steps."""
        return {
            "from_state": self.from_state,
            "to_state": self.to_state,
            "statements": self.statements,
            "transitions": self.transitions,
            "guards_evaluated": self.guards_evaluated,
            "sends": [intent.to_dict() for intent in self.sends],
            "timer_ops": [list(item) for item in self.timer_ops],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StepOutcome":
        """Rebuild from :meth:`to_dict` output (restores inner tuples)."""
        return cls(
            data["from_state"],
            data["to_state"],
            data["statements"],
            data["transitions"],
            data["guards_evaluated"],
            [SendIntent.from_dict(item) for item in data["sends"]],
            [tuple(item) for item in data["timer_ops"]],
        )


class _StepEnvironment(ActionEnvironment):
    """Binds a process's variables; collects one step's sends and timer operations.

    Each executor keeps one and resets it at the start of every step.
    """

    def __init__(self, variables: Dict[str, int]) -> None:
        super().__init__()
        self.variables = variables  # shared reference: writes persist

    def reset(self, parameters: Dict[str, int]) -> None:
        """Start a step: fresh send and timer lists, ``rand16`` restarted."""
        self.parameters = parameters
        self.sent = []
        self.timer_ops = []
        self.rand_state = RAND16_SEED


class MachineTable:
    """What every executor of one machine reads and none changes.

    ``plan`` is the machine's :func:`~repro.uml.plan.plan_machine` plan.
    ``compiled`` maps ``(id(AST), parameter names)`` to ``(AST, compiled
    function)`` for the guards and action blocks compiled so far, each for
    the parameters of its step's trigger (:attr:`Step.parameters`); holding
    the AST keeps its id from being reused while the entry lives.
    ``blocks`` and ``guards`` map ``id(step)`` (the plan holds every step)
    to the step's block functions, in order, and to its guard's function,
    each filled on first use from ``compiled``.  A table is built from the machine as it is
    now, so the machine must not change while the table is used.
    """

    __slots__ = ("plan", "compiled", "blocks", "guards")

    def __init__(self, machine: StateMachine) -> None:
        self.plan = plan_machine(machine)
        self.compiled: Dict[tuple, Tuple[object, Callable[..., int]]] = {}
        self.blocks: Dict[int, Tuple[Callable[..., int], ...]] = {}
        self.guards: Dict[int, Callable[..., int]] = {}

    def _function(self, node, names: FrozenSet[str], compiler) -> Callable[..., int]:
        entry = self.compiled.get((id(node), names))
        if entry is None:
            entry = self.compiled[(id(node), names)] = (node, compiler(node, names))
        return entry[1]

    def step_blocks(self, step: Step) -> Tuple[Callable[..., int], ...]:
        """Compile ``step``'s blocks for its trigger's parameters."""
        functions = self.blocks[id(step)] = tuple(
            self._function(block, step.parameters, compile_block)
            for block in step.blocks
        )
        return functions

    def step_guard(self, step: Step) -> Callable[..., int]:
        """Compile ``step``'s guard for its trigger's parameters."""
        guard = self.guards[id(step)] = self._function(
            step.transition.guard, step.parameters, compile_guard
        )
        return guard


class ProcessExecutor:
    """Runtime state of one application process (one EFSM instance).

    Guards and action blocks run as functions compiled by
    :mod:`repro.uml.action_compiler` for the parameters of the step's
    trigger, looked up once per step per table.  The machine's hierarchy
    is resolved once per table (:func:`~repro.uml.plan.plan_machine`), and
    every step reads that plan.
    ``machine_tables`` maps machines to the :class:`MachineTable` their
    executors share; a machine missing from it gets a table, which is
    added to it.  Without it the executor builds a table of its own.
    """

    def __init__(
        self,
        name: str,
        machine: StateMachine,
        machine_tables: Optional[Dict[StateMachine, MachineTable]] = None,
    ) -> None:
        if machine.initial_state is None:
            raise SimulationError(
                f"machine {machine.name!r} of process {name!r} has no initial state"
            )
        self.name = name
        self.machine = machine
        self.variables: Dict[str, int] = dict(machine.variables)
        self.current: Optional[State] = None
        self.terminated = False
        tables = machine_tables if machine_tables is not None else {}
        table = tables.get(machine)
        if table is None:
            table = tables[machine] = MachineTable(machine)
        self._table = table
        self._blocks = table.blocks
        self._guards = table.guards
        self._start = table.plan.start
        # active state -> trigger key -> candidate steps in search order
        self._dispatch = table.plan.by_trigger
        self._environment = _StepEnvironment(self.variables)

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------

    def start(self) -> StepOutcome:
        """Enter the initial state (entry actions + completion chasing).

        A composite initial state is entered hierarchically: its entry
        actions run, then the initial-substate chain's, innermost last.
        """
        if self.current is not None:
            raise SimulationError(f"process {self.name!r} already started")
        return self._fire(self._start, {}, 0)

    def consume_signal(
        self, signal_name: str, args: Sequence[int]
    ) -> Tuple[Optional[StepOutcome], Optional[str]]:
        """Consume one signal; returns (outcome, None) or (None, drop reason).

        Transition lookup is hierarchical: the active leaf state is searched
        first, then its enclosing composite states (innermost first).  The
        drop reason is ``guards-false`` when candidates exist but none is
        enabled, ``no-transition`` when none exists, and ``not-started``
        when the process never started (its start was lost), so it has no
        active state.
        """
        if self.current is None:
            return None, "not-started"
        self._require_running()
        candidates = self._dispatch[self.current].get(signal_key(signal_name), ())
        guards = 0
        for step in candidates:
            transition = step.transition
            params = self._bind_parameters(transition.trigger, args)
            if transition.guard is not None:
                guards += 1
                if not self._guard_holds(step, params):
                    continue
            return self._fire(step, params, guards), None
        return None, "guards-false" if candidates else "no-transition"

    def fire_timer(self, timer_name: str) -> Tuple[Optional[StepOutcome], Optional[str]]:
        """Handle a timer expiry; returns (outcome, None) or (None, drop reason).

        The drop reasons are :meth:`consume_signal`'s.
        """
        if self.current is None:
            return None, "not-started"
        self._require_running()
        candidates = self._dispatch[self.current].get(timer_key(timer_name), ())
        guards = 0
        for step in candidates:
            if step.transition.guard is not None:
                guards += 1
                if not self._guard_holds(step, {}):
                    continue
            return self._fire(step, {}, guards), None
        return None, "guards-false" if candidates else "no-transition"

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The EFSM's run-time state: active state, variables, termination."""
        return {
            "current": self.current.name if self.current is not None else None,
            "variables": dict(self.variables),
            "terminated": self.terminated,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this (fresh) executor."""
        name = state["current"]
        if name is None:
            self.current = None
        else:
            found = self.machine.find_state(name)
            if found not in self._dispatch:
                raise SimulationError(
                    f"cannot restore process {self.name!r}: machine "
                    f"{self.machine.name!r} has no active state {name!r}"
                )
            self.current = found
        self.variables.clear()
        self.variables.update(state["variables"])
        self.terminated = bool(state["terminated"])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require_running(self) -> None:
        if self.terminated:
            raise SimulationError(f"process {self.name!r} has terminated")

    def _bind_parameters(
        self, trigger: SignalTrigger, args: Sequence[int]
    ) -> Dict[str, int]:
        names = trigger.parameter_names
        if len(args) < len(names):
            raise SimulationError(
                f"signal {trigger.signal_name!r} delivered {len(args)} argument(s) "
                f"but process {self.name!r} binds {len(names)}"
            )
        return dict(zip(names, args))

    def _guard_holds(self, step: Step, params: Dict[str, int]) -> bool:
        guard = self._guards.get(id(step)) or self._table.step_guard(step)
        return bool(guard(params, self.variables))

    def _fire(self, step: Step, params: Dict[str, int], guards: int) -> StepOutcome:
        """Run ``step`` and its completion chase; ``guards`` were evaluated
        to choose it."""
        source = self.current or self.machine.initial_state  # None before start
        environment = self._environment
        environment.reset(params)
        statements = self._run_step(step, environment)
        ran = step.id
        # a step entering no state (an internal transition) raises no
        # completion event
        if step.entries and not self.terminated:
            chased, chase_guards, ran = self._chase_completions(environment, ran)
            statements += chased
            guards += chase_guards
        return StepOutcome(
            source.name,
            self.current.name,
            statements,
            ran or "-",
            guards,
            environment.sent,
            environment.timer_ops,
        )

    def _run_step(self, step: Step, environment) -> int:
        """Run a planned step's exit, effect and entry blocks; move to its leaf.

        Returns the executed-statement count.
        """
        functions = self._blocks.get(id(step))
        if functions is None:
            functions = self._table.step_blocks(step)
        statements = 0
        for function in functions:
            statements += function(environment)
        self.current = step.leaf
        self.terminated = step.terminates
        return statements

    def _chase_completions(
        self, environment: _StepEnvironment, ran: Optional[str]
    ) -> Tuple[int, int, Optional[str]]:
        """Follow enabled completion transitions until none fires.

        Completion transitions of the active leaf are considered first,
        then those of its enclosing composite states.  An internal one
        runs its effect and ends the chase: it enters no state, so no new
        completion event occurs.  Returns the (statements, guards) spent
        and ``ran``, the ids run so far, with the chase's appended.
        """
        environment.parameters = {}
        statements = guards = 0
        for _ in range(MAX_COMPLETION_CHAIN):
            for step in self._dispatch[self.current].get(COMPLETION, ()):
                if step.transition.guard is not None:
                    guards += 1
                    if not self._guard_holds(step, {}):
                        continue
                statements += self._run_step(step, environment)
                ran = step.id if ran is None else f"{ran},{step.id}"
                if self.terminated or not step.entries:
                    return statements, guards, ran
                break
            else:
                return statements, guards, ran
        raise SimulationError(
            f"process {self.name!r} chained more than {MAX_COMPLETION_CHAIN} "
            "completion transitions (livelock in the model?)"
        )
