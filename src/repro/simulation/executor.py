"""EFSM execution: run-to-completion steps over the state machine model.

The executor is deliberately time-free: it computes *what happens* (state
changes, statements executed, signals produced, timers armed) and leaves
*when and how long* to the system simulator's cost model.  This split lets
the same executor serve the full-platform simulation, the workstation
reference run, and direct unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.observability.tracer import Tracer, efsm_track
from repro.uml.action_compiler import compile_block, compile_guard

# The tree-walking ``execute``/``evaluate`` stay importable from here (the
# repository benchmark's span recorder looks them up in this module) even
# though steps run compiled functions; they are the reference semantics.
from repro.uml.actions import ActionEnvironment, evaluate, execute  # noqa: F401
from repro.uml.plan import COMPLETION, Step, plan_machine, signal_key, timer_key
from repro.uml.statemachine import SignalTrigger, State, StateMachine

MAX_COMPLETION_CHAIN = 100


@dataclass
class SendIntent:
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
        return cls(
            signal=data["signal"], args=tuple(data["args"]), via=data["via"]
        )


@dataclass
class StepOutcome:
    """Everything a run-to-completion step did."""

    fired: bool = False
    from_state: str = ""
    to_state: str = ""
    trigger: str = ""
    statements: int = 0
    guards_evaluated: int = 0
    sends: List[SendIntent] = field(default_factory=list)
    timers_set: List[Tuple[str, int]] = field(default_factory=list)
    timers_reset: List[str] = field(default_factory=list)
    timer_ops: List[Tuple[str, str, int]] = field(default_factory=list)
    reached_final: bool = False

    def to_dict(self) -> dict:
        """A JSON-safe encoding for checkpoints of in-flight steps."""
        return {
            "fired": self.fired,
            "from_state": self.from_state,
            "to_state": self.to_state,
            "trigger": self.trigger,
            "statements": self.statements,
            "guards_evaluated": self.guards_evaluated,
            "sends": [intent.to_dict() for intent in self.sends],
            "timers_set": [list(item) for item in self.timers_set],
            "timers_reset": list(self.timers_reset),
            "timer_ops": [list(item) for item in self.timer_ops],
            "reached_final": self.reached_final,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StepOutcome":
        """Rebuild from :meth:`to_dict` output (restores inner tuples)."""
        return cls(
            fired=data["fired"],
            from_state=data["from_state"],
            to_state=data["to_state"],
            trigger=data["trigger"],
            statements=data["statements"],
            guards_evaluated=data["guards_evaluated"],
            sends=[SendIntent.from_dict(item) for item in data["sends"]],
            timers_set=[tuple(item) for item in data["timers_set"]],
            timers_reset=list(data["timers_reset"]),
            timer_ops=[tuple(item) for item in data["timer_ops"]],
            reached_final=data["reached_final"],
        )


class _StepEnvironment(ActionEnvironment):
    """Binds a process's variables; collects sends and timer operations."""

    def __init__(self, variables: Dict[str, int]) -> None:
        super().__init__()
        self.variables = variables  # shared reference: writes persist


class ProcessExecutor:
    """Runtime state of one application process (one EFSM instance).

    Guards and action blocks run as functions compiled by
    :mod:`repro.uml.action_compiler`, looked up once per AST per executor.
    Each executor resolves its machine's hierarchy once, at construction
    (:func:`~repro.uml.plan.plan_machine`), and every step reads that
    plan, so the machine must not change once its executor exists.

    With a :class:`~repro.observability.tracer.Tracer` installed, every
    fired transition emits an instant event on the process's ``efsm``
    track (timestamped by the tracer's bound clock); ``tracer=None`` adds
    no work to any step.
    """

    def __init__(
        self,
        name: str,
        machine: StateMachine,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if machine.initial_state is None:
            raise SimulationError(
                f"machine {machine.name!r} of process {name!r} has no initial state"
            )
        self.name = name
        self.machine = machine
        self.tracer = tracer
        self.variables: Dict[str, int] = dict(machine.variables)
        self.current: Optional[State] = None
        self.terminated = False
        # id(AST) -> (AST, compiled function); holding the AST keeps its id
        # from being reused while the entry lives
        self._compiled: Dict[int, Tuple[object, Callable[..., int]]] = {}
        plan = plan_machine(machine)
        self._start = plan.start
        # active state -> trigger key -> candidate steps in search order
        self._dispatch = plan.by_trigger

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
        return self._fire(self._start, {}, "start")

    def consume_signal(
        self, signal_name: str, args: Sequence[int]
    ) -> Tuple[Optional[StepOutcome], Optional[str]]:
        """Consume one signal; returns (outcome, None) or (None, drop reason).

        Transition lookup is hierarchical: the active leaf state is searched
        first, then its enclosing composite states (innermost first).
        """
        self._require_running()
        candidates = self._dispatch[self.current].get(signal_key(signal_name), ())
        guards = 0
        for step in candidates:
            transition = step.transition
            params = self._bind_parameters(transition.trigger, args)
            if transition.guard is not None:
                guards += 1
                if not self._guard_holds(transition.guard, params):
                    continue
            outcome = self._fire(step, params, signal_name)
            outcome.guards_evaluated += guards
            return outcome, None
        return None, "guards-false" if candidates else "no-transition"

    def fire_timer(self, timer_name: str) -> Tuple[Optional[StepOutcome], Optional[str]]:
        """Handle a timer expiry; returns (outcome, None) or (None, reason)."""
        self._require_running()
        guards = 0
        for step in self._dispatch[self.current].get(timer_key(timer_name), ()):
            guard = step.transition.guard
            if guard is not None:
                guards += 1
                if not self._guard_holds(guard, {}):
                    continue
            outcome = self._fire(step, {}, f"timer:{timer_name}")
            outcome.guards_evaluated += guards
            return outcome, None
        return None, "no-transition"

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
        if self.current is None:
            raise SimulationError(f"process {self.name!r} was never started")
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

    def _run(self, block, environment: _StepEnvironment) -> int:
        """Run a non-empty action block; returns its executed-statement count."""
        entry = self._compiled.get(id(block))
        if entry is None:
            entry = self._compiled[id(block)] = (block, compile_block(block))
        return entry[1](environment)

    def _guard_holds(self, guard, params: Dict[str, int]) -> bool:
        entry = self._compiled.get(id(guard))
        if entry is None:
            entry = self._compiled[id(guard)] = (guard, compile_guard(guard))
        return bool(entry[1](params, self.variables))

    def _fire(self, step: Step, params: Dict[str, int], trigger: str) -> StepOutcome:
        source = self.current or self.machine.initial_state  # None before start
        outcome = StepOutcome(fired=True, from_state=source.name, trigger=trigger)
        environment = _StepEnvironment(self.variables)
        environment.parameters = params
        self._run_step(step, outcome, environment)
        # a step entering no state (an internal transition) raises no
        # completion event
        if step.entries and not self.terminated:
            self._chase_completions(outcome, environment)
        outcome.to_state = self.current.name
        self._collect(outcome, environment)
        self._trace_step(outcome)
        return outcome

    def _run_step(self, step: Step, outcome: StepOutcome, environment) -> None:
        """Run a planned step's exit, effect and entry blocks; move to its leaf."""
        for block in step.blocks:
            outcome.statements += self._run(block, environment)
        self.current = step.leaf
        self.terminated = step.terminates

    def _chase_completions(
        self, outcome: StepOutcome, environment: _StepEnvironment
    ) -> None:
        """Follow enabled completion transitions until none fires.

        Completion transitions of the active leaf are considered first,
        then those of its enclosing composite states.  An internal one
        runs its effect and ends the chase: it enters no state, so no new
        completion event occurs.
        """
        environment.parameters = {}
        for _ in range(MAX_COMPLETION_CHAIN):
            for step in self._dispatch[self.current].get(COMPLETION, ()):
                guard = step.transition.guard
                if guard is not None:
                    outcome.guards_evaluated += 1
                    if not self._guard_holds(guard, {}):
                        continue
                self._run_step(step, outcome, environment)
                if self.terminated or not step.entries:
                    return
                break
            else:
                return
        raise SimulationError(
            f"process {self.name!r} chained more than {MAX_COMPLETION_CHAIN} "
            "completion transitions (livelock in the model?)"
        )

    def _trace_step(self, outcome: StepOutcome) -> None:
        """Emit the fired transition as an instant on the ``efsm`` track."""
        if self.tracer is None:
            return
        self.tracer.instant(
            outcome.trigger or "step",
            efsm_track(self.name),
            category="efsm",
            from_state=outcome.from_state,
            to_state=outcome.to_state,
            statements=outcome.statements,
            sends=len(outcome.sends),
        )

    def _collect(self, outcome: StepOutcome, environment: _StepEnvironment) -> None:
        outcome.sends.extend(
            SendIntent(signal, tuple(args), via)
            for signal, args, via in environment.sent
        )
        outcome.timers_set.extend(environment.timers_set)
        outcome.timers_reset.extend(environment.timers_reset)
        outcome.timer_ops.extend(environment.timer_ops)
        outcome.reached_final = self.terminated
