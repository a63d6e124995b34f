"""State machines: the behaviour of functional application components.

The paper models behaviour as "asynchronous communicating Extended Finite
State Machines" (EFSM).  A :class:`StateMachine` owns states, transitions and
a set of integer variables.  Transitions fire on signal receptions or timer
expirations, optionally guarded, and run an effect written in the textual
action language.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ModelError
from repro.uml.actions import Expr, Stmt, sent_signal_names
from repro.uml.action_lang import parse_actions, parse_expression
from repro.uml.element import NamedElement


class Trigger:
    """Abstract transition trigger."""

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class SignalTrigger(Trigger):
    """Fires when a matching signal is consumed from the input queue.

    ``parameter_names`` binds the signal's arguments to read-only names
    visible in the transition guard and effect.
    """

    def __init__(self, signal_name: str, parameter_names: Sequence[str] = ()) -> None:
        self.signal_name = signal_name
        self.parameter_names = list(parameter_names)

    def describe(self) -> str:
        if self.parameter_names:
            return f"{self.signal_name}({', '.join(self.parameter_names)})"
        return self.signal_name


class TimerTrigger(Trigger):
    """Fires when the named timer (armed via ``set_timer``) expires."""

    def __init__(self, timer_name: str) -> None:
        self.timer_name = timer_name

    def describe(self) -> str:
        return f"timer {self.timer_name}"


class CompletionTrigger(Trigger):
    """Fires immediately after the source state's entry actions complete."""

    def describe(self) -> str:
        return "completion"


class State(NamedElement):
    """A state with optional entry/exit actions, possibly composite.

    A state becomes composite by owning substates (``parent`` back-links).
    Entering a composite state descends into its ``initial_substate``;
    signals unhandled by the active leaf bubble up through its ancestors
    (UML hierarchical state machine semantics).
    """

    def __init__(self, name: str, entry: Sequence[Stmt] = (), exit: Sequence[Stmt] = ()) -> None:
        super().__init__(name)
        self.entry: List[Stmt] = list(entry)
        self.exit: List[Stmt] = list(exit)
        self.is_final = False
        self.parent: Optional["State"] = None
        self.substates: List["State"] = []
        self.initial_substate: Optional["State"] = None

    @property
    def is_composite(self) -> bool:
        return bool(self.substates)

    def ancestors(self) -> List["State"]:
        """Enclosing states, innermost first."""
        chain: List[State] = []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def path_from_root(self) -> List["State"]:
        """Root-most enclosing state down to (and including) this state."""
        return list(reversed([self] + self.ancestors()))

    def contains(self, other: "State") -> bool:
        """True if ``other`` is this state or nested (transitively) in it."""
        node: Optional[State] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False


class FinalState(State):
    """A state that terminates the machine when entered."""

    def __init__(self, name: str = "final") -> None:
        super().__init__(name)
        self.is_final = True


class Transition(NamedElement):
    """A guarded, triggered transition with an action-language effect."""

    def __init__(
        self,
        source: State,
        target: State,
        trigger: Optional[Trigger] = None,
        guard: Optional[Expr] = None,
        effect: Sequence[Stmt] = (),
        priority: int = 0,
        internal: bool = False,
    ) -> None:
        super().__init__()
        if internal and source is not target:
            raise ModelError(
                "internal transitions must have the same source and target "
                f"state, got {source.name!r} -> {target.name!r}"
            )
        self.source = source
        self.target = target
        self.trigger = trigger if trigger is not None else CompletionTrigger()
        self.guard = guard
        self.effect: List[Stmt] = list(effect)
        # Lower value = tried first among transitions sharing a trigger.
        self.priority = priority
        # Internal transitions run their effect without leaving the state:
        # no exit/entry actions execute (UML internal transition semantics).
        self.internal = internal

    def describe(self) -> str:
        guard = f" [{self.guard.unparse()}]" if self.guard is not None else ""
        arrow = "--(internal)" if self.internal else "--"
        return (
            f"{self.source.name} {arrow}{self.trigger.describe()}{guard}--> "
            f"{self.target.name}"
        )

    def __repr__(self) -> str:
        return f"Transition({self.describe()})"


class StateMachine(NamedElement):
    """An EFSM: states, transitions, integer variables, and an initial state.

    The builder-style API (:meth:`state`, :meth:`transition`,
    :meth:`variable`) accepts action-language source strings and parses them
    eagerly, so syntax errors surface at model-construction time.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.context = None  # owning Class, set by Class.set_behavior
        self.states: List[State] = []
        self.transitions: List[Transition] = []
        self.variables: Dict[str, int] = {}
        self.initial_state: Optional[State] = None

    # -- construction ---------------------------------------------------------

    def variable(self, name: str, initial: int = 0) -> None:
        """Declare an EFSM variable with its initial value."""
        if name in self.variables:
            raise ModelError(f"variable {name!r} already declared in {self.name!r}")
        self.variables[name] = initial

    def state(
        self,
        name: str,
        entry: str = "",
        exit: str = "",
        initial: bool = False,
        parent=None,
    ) -> State:
        """Add a state; ``entry``/``exit`` are action-language source.

        With ``parent`` (a state or its name) the new state becomes a
        substate of that composite state; ``initial=True`` then marks it as
        the parent's initial substate instead of the machine's initial
        state.
        """
        if self.find_state(name) is not None:
            raise ModelError(f"state {name!r} already exists in {self.name!r}")
        new_state = State(name, parse_actions(entry), parse_actions(exit))
        self.own(new_state)
        self.states.append(new_state)
        if parent is not None:
            parent_state = self._resolve(parent)
            if parent_state.is_final:
                raise ModelError("final states cannot contain substates")
            new_state.parent = parent_state
            parent_state.substates.append(new_state)
            if initial:
                if parent_state.initial_substate is not None:
                    raise ModelError(
                        f"composite state {parent_state.name!r} already has an "
                        "initial substate"
                    )
                parent_state.initial_substate = new_state
        elif initial:
            if self.initial_state is not None:
                raise ModelError(f"machine {self.name!r} already has an initial state")
            self.initial_state = new_state
        return new_state

    def final_state(self, name: str = "final") -> FinalState:
        final = FinalState(name)
        self.own(final)
        self.states.append(final)
        return final

    def transition(
        self,
        source,
        target,
        trigger: Optional[Trigger] = None,
        guard: str = "",
        effect: str = "",
        priority: int = 0,
        internal: bool = False,
    ) -> Transition:
        """Add a transition; ``source``/``target`` may be names or states."""
        source_state = self._resolve(source)
        target_state = self._resolve(target)
        guard_expr = parse_expression(guard) if guard else None
        new_transition = Transition(
            source_state,
            target_state,
            trigger=trigger,
            guard=guard_expr,
            effect=parse_actions(effect),
            priority=priority,
            internal=internal,
        )
        self.own(new_transition)
        self.transitions.append(new_transition)
        return new_transition

    def on_signal(
        self,
        source,
        target,
        signal: str,
        params: Sequence[str] = (),
        guard: str = "",
        effect: str = "",
        priority: int = 0,
        internal: bool = False,
    ) -> Transition:
        """Shorthand for a signal-triggered transition."""
        return self.transition(
            source,
            target,
            trigger=SignalTrigger(signal, params),
            guard=guard,
            effect=effect,
            priority=priority,
            internal=internal,
        )

    def on_timer(
        self,
        source,
        target,
        timer: str,
        guard: str = "",
        effect: str = "",
        priority: int = 0,
        internal: bool = False,
    ) -> Transition:
        """Shorthand for a timer-triggered transition."""
        return self.transition(
            source,
            target,
            trigger=TimerTrigger(timer),
            guard=guard,
            effect=effect,
            priority=priority,
            internal=internal,
        )

    def _resolve(self, state) -> State:
        if isinstance(state, State):
            if state not in self.states:
                raise ModelError(
                    f"state {state.name!r} does not belong to machine {self.name!r}"
                )
            return state
        found = self.find_state(state)
        if found is None:
            raise ModelError(f"no state named {state!r} in machine {self.name!r}")
        return found

    # -- queries ----------------------------------------------------------------

    def find_state(self, name: str) -> Optional[State]:
        for state in self.states:
            if state.name == name:
                return state
        return None

    def outgoing(self, state: State) -> List[Transition]:
        """Transitions leaving ``state``, in priority then declaration order."""
        candidates = [t for t in self.transitions if t.source is state]
        candidates.sort(key=lambda t: (t.priority, t.serial))
        return candidates

    def received_signal_names(self) -> List[str]:
        """All signal names the machine consumes (its input alphabet)."""
        names = {
            t.trigger.signal_name
            for t in self.transitions
            if isinstance(t.trigger, SignalTrigger)
        }
        return sorted(names)

    def timer_names(self) -> List[str]:
        names = {
            t.trigger.timer_name
            for t in self.transitions
            if isinstance(t.trigger, TimerTrigger)
        }
        return sorted(names)

    def sent_signal_names(self) -> List[str]:
        """All signal names the machine may emit (static over-approximation)."""
        return sent_signal_names(
            [stmt for stmts, _, _ in machine_blocks(self) for stmt in stmts]
        )


def machine_blocks(machine: StateMachine):
    """Yield every action block of a machine as ``(stmts, anchor, role)``.

    State entry and exit blocks come first, in state order, then transition
    effects in declaration order; empty blocks are skipped.  ``role`` is
    ``"entry"``, ``"exit"`` or ``"effect"``; :func:`block_where` words it.
    """
    for state in machine.states:
        if state.entry:
            yield state.entry, state, "entry"
        if state.exit:
            yield state.exit, state, "exit"
    for transition in machine.transitions:
        if transition.effect:
            yield transition.effect, transition, "effect"


def block_where(anchor, role: str) -> str:
    """Where a block sits, as findings quote it: ``state 'Idle' entry``,
    ``transition 'Idle --go--> Busy'`` or, for the role ``"guard"``,
    ``guard of transition 'Idle --go--> Busy'``."""
    if role == "effect":
        return f"transition {anchor.describe()!r}"
    if role == "guard":
        return f"guard of transition {anchor.describe()!r}"
    return f"state {anchor.name!r} {role}"
