"""One resolved form of a state machine's hierarchical transitions.

What a trigger does in a hierarchical EFSM is fixed by the model alone.
The active state's candidates are its own transitions, then each enclosing
state's, innermost first, each state's in ``(priority, serial)`` order
(:meth:`StateMachine.outgoing`).  Firing a candidate runs exit actions from
the active state up to (excluding) the least common ancestor (LCA) of its
source and target, then its effect, then entry actions from below the LCA
down to the target, then the target's initial-substate descent.

:func:`plan_machine` resolves all of this once per machine, together
with the states a run can enter.  The simulator's executor, the C
generator, the interval analysis, the EFSM rules and model validation
each build a plan and read it, so the back ends and the checkers share
one semantics; the simulation log names the steps a run took by their
transitions' ids.  A plan is read-only and never stored on
the model: a model edited after a plan was built needs a new plan, not an
invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.uml.actions import Stmt
from repro.uml.statemachine import (
    SignalTrigger,
    State,
    StateMachine,
    TimerTrigger,
    Transition,
    Trigger,
)

#: The key completion transitions are filed under.
COMPLETION = ("completion", None)


def signal_key(name: str) -> tuple:
    """The key transitions triggered by signal ``name`` are filed under."""
    return ("signal", name)


def timer_key(name: str) -> tuple:
    """The key transitions triggered by timer ``name`` are filed under."""
    return ("timer", name)


def terminates(state: State) -> bool:
    """Whether entering ``state`` ends the machine's run.

    Only a top-level final state does.  A nested final state is an active
    state like any other: its enclosing states' transitions still fire.
    """
    return state.is_final and state.parent is None


def trigger_key(trigger: Trigger) -> tuple:
    """The key a transition's trigger is filed under.

    That is ``("signal", name)``, ``("timer", name)`` or :data:`COMPLETION`.
    """
    if isinstance(trigger, SignalTrigger):
        return signal_key(trigger.signal_name)
    if isinstance(trigger, TimerTrigger):
        return timer_key(trigger.timer_name)
    return COMPLETION


def transition_ids(machine: StateMachine) -> Dict[Transition, str]:
    """Each transition's id: its index in ``machine.transitions``, as text."""
    return {transition: str(i) for i, transition in enumerate(machine.transitions)}


@dataclass
class Step:
    """What firing one transition from one active state runs, in order.

    ``exits`` (innermost first) run their exit actions, then the effect,
    then ``entries`` (outermost first, ending at the target) and
    ``descent`` (the target's initial-substate chain) their entry actions.
    ``blocks`` lists those action blocks in that order, empty ones left
    out.  An internal transition's step is effect-only and keeps the
    active state.  The start step has no transition and no id; it enters
    the initial state and descends.
    """

    transition: Optional[Transition]
    #: the transition's id (:func:`transition_ids`): how a log record names
    #: it, stable across rebuilds and XMI round trips
    id: Optional[str]
    exits: Tuple[State, ...]
    entries: Tuple[State, ...]
    descent: Tuple[State, ...]
    blocks: Tuple[List[Stmt], ...]
    #: the active state after the step
    leaf: State
    #: ``leaf`` is a top-level final state: the machine has terminated
    terminates: bool


@dataclass
class MachinePlan:
    """Every step a machine can take, resolved once (:func:`plan_machine`)."""

    #: entering the initial state; None when the machine has none
    start: Optional[Step]
    #: active state -> its candidates' steps in search order
    steps: Dict[State, Tuple[Step, ...]]
    #: active state -> trigger key -> the candidates for it, in search order
    by_trigger: Dict[State, Dict[tuple, List[Step]]]
    #: the states a run can enter: the leaves the steps reach from the
    #: start step and every state enclosing them (every state when the
    #: machine has no initial state)
    reachable: FrozenSet[State]


def _chain(node: Optional[State], stop: Optional[State]) -> List[State]:
    """``node`` and its enclosing states up to (excluding) ``stop``."""
    chain = []
    while node is not None and node is not stop:
        chain.append(node)
        node = node.parent
    return chain


def _step(
    transition: Optional[Transition],
    id: Optional[str],
    exits: List[State],
    entries: List[State],
    leaf: State,
) -> Step:
    """The step running ``exits``, the effect, ``entries``, then descending."""
    descent = []
    while leaf.initial_substate is not None:
        leaf = leaf.initial_substate
        descent.append(leaf)
    effect = transition.effect if transition is not None else []
    blocks = [state.exit for state in exits] + [effect]
    blocks += [state.entry for state in entries + descent]
    return Step(
        transition,
        id,
        tuple(exits),
        tuple(entries),
        tuple(descent),
        tuple(filter(None, blocks)),
        leaf,
        terminates(leaf),
    )


def _fire_step(active: State, transition: Transition, id: str) -> Step:
    """The step ``transition`` takes when ``active`` is the active state."""
    if transition.internal:
        return _step(transition, id, [], [], active)
    # the LCA is the innermost state strictly enclosing the source and the
    # target (None: the machine itself), so a self-transition exits and
    # re-enters its state
    target = transition.target
    enclosing = transition.source.ancestors()
    lca = target.parent
    while lca is not None and lca not in enclosing:
        lca = lca.parent
    return _step(transition, id, _chain(active, lca), _chain(target, lca)[::-1], target)


def plan_machine(machine: StateMachine) -> MachinePlan:
    """Resolve every step of ``machine``.

    The active states are the states with no initial substate (entering
    any other state descends further).  The plan reflects the machine as
    it is now; build a new one after editing the machine.
    """
    initial = machine.initial_state
    start = None if initial is None else _step(None, None, [], [initial], initial)
    outgoing = {state: machine.outgoing(state) for state in machine.states}
    ids = transition_ids(machine)
    steps: Dict[State, Tuple[Step, ...]] = {}
    by_trigger: Dict[State, Dict[tuple, List[Step]]] = {}
    for active in machine.states:
        if active.initial_substate is not None:
            continue
        steps[active] = tuple(
            _fire_step(active, transition, ids[transition])
            for source in _chain(active, None)
            for transition in outgoing[source]
        )
        table = by_trigger[active] = {}
        for step in steps[active]:
            table.setdefault(trigger_key(step.transition.trigger), []).append(step)
    return MachinePlan(start, steps, by_trigger, _reachable(machine, start, steps))


def _reachable(
    machine: StateMachine, start: Optional[Step], steps: Dict[State, Tuple[Step, ...]]
) -> FrozenSet[State]:
    """The states a run entering ``start`` and taking ``steps`` can enter."""
    if start is None:
        return frozenset(machine.states)
    leaves = {start.leaf}
    frontier = [start.leaf]
    while frontier:
        # a target outside the machine (a malformed model) has no steps
        for step in steps.get(frontier.pop(), ()):
            if step.leaf not in leaves:
                leaves.add(step.leaf)
                frontier.append(step.leaf)
    return frozenset(state for leaf in leaves for state in _chain(leaf, None))
