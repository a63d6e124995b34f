"""The resolved transition plan against a reference walk of the hierarchy.

The oracle below is the step walk the executor ran before the plan
existed (an internal transition runs its effect only; any other exits
from the active leaf up to the least common ancestor, runs the effect,
enters down to the target and descends), copied as it was.  For every
active state of every TUTWLAN machine, of generated models 0-119 and of
the hand-built nested machines, each planned step must equal that walk,
and the candidates must come in the ``[leaf] + ancestors()`` x
``outgoing()`` order.
"""

import functools

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.genmodel import config_for_seed, generate_model
from repro.uml import StateMachine
from repro.uml.plan import COMPLETION, plan_machine, signal_key, timer_key, trigger_key
from repro.uml.statemachine import SignalTrigger, TimerTrigger

from tests.codegen.test_cgen_hierarchy import (
    hierarchical_component,
    internal_completion_component,
    rebinding_component,
)
from tests.simulation.test_dispatch_tables import nested_machine
from tests.simulation.test_hierarchical_executor import traced_machine


# -- the oracle -------------------------------------------------------------


def _least_common_ancestor(source, target):
    """Innermost state containing both ends (None = machine root)."""
    source_chain = set(id(s) for s in source.ancestors())
    node = target.parent
    while node is not None:
        if id(node) in source_chain:
            return node
        node = node.parent
    return None


def reference_walk(current, transition):
    """What firing ``transition`` from ``current`` ran, in order.

    Returns ``(ran, new_leaf, terminated)``; ``ran`` lists
    ``("exit" | "effect" | "entry", element)`` records.
    """
    if transition.internal:
        # effect only; the process stays where it is (and is terminated
        # exactly when that is a top-level final state)
        terminated = current.is_final and current.parent is None
        return [("effect", transition)], current, terminated
    ran = []
    target = transition.target
    lca = _least_common_ancestor(transition.source, target)
    # exit from the active leaf upward to (exclusive) the LCA
    node = current
    while node is not None and node is not lca:
        ran.append(("exit", node))
        node = node.parent
    ran.append(("effect", transition))
    # enter from below the LCA down to the target
    for state in target.path_from_root():
        if lca is not None and (state is lca or not lca.contains(state)):
            continue  # the LCA and anything above it were never exited
        ran.append(("entry", state))
    # ... and descend the initial-substate chain
    node = target
    while node.initial_substate is not None:
        node = node.initial_substate
        ran.append(("entry", node))
    return ran, node, node.is_final and node.parent is None


def reference_start(machine):
    """What entering the initial state ran: its entry, then the descent."""
    node = machine.initial_state
    ran = [("entry", node)]
    while node.initial_substate is not None:
        node = node.initial_substate
        ran.append(("entry", node))
    return ran, node


def reference_candidates(machine, leaf):
    return [
        transition
        for source in [leaf] + leaf.ancestors()
        for transition in machine.outgoing(source)
    ]


def reference_reachable(machine):
    """Every state the reference walk enters from the start (every state
    of a machine without an initial state)."""
    if machine.initial_state is None:
        return set(machine.states)
    _, start = reference_start(machine)
    leaves, frontier = {start}, [start]
    while frontier:
        leaf = frontier.pop()
        for transition in reference_candidates(machine, leaf):
            _, new_leaf, _ = reference_walk(leaf, transition)
            if new_leaf not in leaves:
                leaves.add(new_leaf)
                frontier.append(new_leaf)
    return {state for leaf in leaves for state in [leaf] + leaf.ancestors()}


def planned(step):
    """A planned step as the oracle's records."""
    return (
        [("exit", state) for state in step.exits]
        + ([("effect", step.transition)] if step.transition is not None else [])
        + [("entry", state) for state in step.entries + step.descent]
    )


def same_blocks(step, ran):
    # each record's block is its element's attribute of the same name
    expected = [getattr(element, kind) for kind, element in ran]
    expected = [block for block in expected if block]
    return len(step.blocks) == len(expected) and all(
        a is b for a, b in zip(step.blocks, expected)
    )


# -- the machines -------------------------------------------------------------


def unique(machines):
    seen = {}
    for machine in machines:
        seen.setdefault(id(machine), machine)
    return list(seen.values())


def tutwlan_machines():
    machines = []
    for params in (None, TutmacParameters(arq_enabled=True)):
        application, _, _ = build_tutwlan_system(params=params)
        machines += [p.behavior for p in application.processes.values()]
    return unique(machines)


@functools.lru_cache(maxsize=None)
def generated_machines():
    machines = []
    for seed in range(120):
        application = generate_model(config_for_seed(seed)).application
        machines += [p.behavior for p in application.processes.values()]
    return tuple(unique(machines))


def nested_variants():
    """The hand-built nested machines, with handlers at every level."""
    busy = nested_machine()
    busy.on_signal("leaf", "by_leaf", "go", params=["a"], guard="a > 5")
    busy.on_signal("mid", "by_mid", "go", priority=-1)
    busy.on_signal("outer", "by_outer", "go", params=["a", "b"])
    busy.on_signal("outer", "outer", "stay", internal=True)
    busy.on_signal("by_leaf", "leaf", "back")  # enters two levels down
    busy.on_signal("mid", "leaf", "inward")  # source encloses the target
    busy.on_signal("leaf", "mid", "outward")  # target encloses the source
    busy.on_timer("mid", "by_mid", "t", guard="x == 1")
    busy.on_timer("leaf", "leaf", "t")
    busy.transition("by_mid", "outer", guard="x == 0")
    busy.transition("leaf", "leaf", guard="x > 100", internal=True)
    final = busy.final_state()
    busy.on_signal("outer", final, "die")

    completions = StateMachine("m")
    completions.variable("x", 0)
    completions.state("outer", initial=True)
    completions.state("a", parent="outer", initial=True, entry="x = x + 1;")
    completions.state("b", parent="outer", entry="x = x + 10;")
    completions.state("done", entry="x = x + 100;")
    completions.transition("a", "done", guard="x == 0")
    completions.transition("outer", "b", guard="x == 1")
    completions.transition("b", "done", guard="x == 0")
    completions.transition("outer", "done", guard="x == 11")

    nested_final = StateMachine("m")
    nested_final.state("comp", initial=True)
    nested_final.state("sub", parent="comp", initial=True)
    sub_done = nested_final.final_state("sub_done")
    sub_done.parent = nested_final.find_state("comp")
    nested_final.find_state("comp").substates.append(sub_done)
    nested_final.state("after")
    nested_final.on_signal("sub", sub_done, "finish")
    nested_final.on_signal("comp", "after", "move_on")

    return [
        busy,
        completions,
        nested_final,
        traced_machine(),
        hierarchical_component().classifier_behavior,
        rebinding_component().classifier_behavior,
        internal_completion_component().classifier_behavior,
    ]


SOURCES = {
    "tutwlan": tutwlan_machines,
    "genmodel": generated_machines,
    "nested": nested_variants,
}


@pytest.fixture(scope="module", params=sorted(SOURCES))
def machines(request):
    built = SOURCES[request.param]()
    assert built
    return built


def active_states(machine):
    return [state for state in machine.states if state.initial_substate is None]


# -- the properties -----------------------------------------------------------


def test_every_step_is_the_reference_walk(machines):
    checked = 0
    for machine in machines:
        plan = plan_machine(machine)
        for leaf in active_states(machine):
            for step in plan.steps[leaf]:
                ran, new_leaf, terminated = reference_walk(leaf, step.transition)
                where = f"{machine.name}: {step.transition.describe()} from {leaf.name}"
                assert planned(step) == ran, where
                assert same_blocks(step, ran), where
                assert step.leaf is new_leaf, where
                assert step.terminates == terminated, where
                checked += 1
    assert checked > 0


def test_the_start_step_is_the_reference_entry(machines):
    for machine in machines:
        start = plan_machine(machine).start
        ran, leaf = reference_start(machine)
        assert planned(start) == ran, machine.name
        assert same_blocks(start, ran), machine.name
        assert start.leaf is leaf
        assert start.exits == () and start.transition is None


def test_candidates_come_leaf_first_then_ancestors(machines):
    for machine in machines:
        plan = plan_machine(machine)
        assert list(plan.steps) == active_states(machine)
        for leaf in active_states(machine):
            expected = reference_candidates(machine, leaf)
            assert [step.transition for step in plan.steps[leaf]] == expected
            for key, group in plan.by_trigger[leaf].items():
                assert [step.transition for step in group] == [
                    t for t in expected if trigger_key(t.trigger) == key
                ]
            assert sum(len(g) for g in plan.by_trigger[leaf].values()) == len(expected)


def test_reachable_states_are_the_reference_walks(machines):
    for machine in machines:
        assert plan_machine(machine).reachable == reference_reachable(machine), (
            machine.name
        )


def corner_machines():
    """An internal transition, no initial state, a composite without an
    initial substate; each leaves states unreachable."""
    internal = StateMachine("internal")
    internal.state("s", initial=True)
    internal.state("x", parent="s", initial=True)
    internal.state("island")
    internal.on_signal("s", "s", "stay", internal=True)
    internal.on_signal("island", "s", "back")

    no_initial = StateMachine("no_initial")
    no_initial.state("a")
    no_initial.state("b")
    no_initial.on_signal("a", "b", "go")

    no_initial_substate = StateMachine("no_initial_substate")
    no_initial_substate.state("s", initial=True)
    no_initial_substate.state("a", parent="s", initial=True)
    no_initial_substate.state("c", parent="s")
    no_initial_substate.state("d", parent="c")
    no_initial_substate.state("out")
    no_initial_substate.state("never")
    no_initial_substate.on_signal("a", "c", "enter")
    no_initial_substate.on_signal("s", "out", "go")
    no_initial_substate.on_signal("d", "never", "leave")
    return {
        "internal": (internal, {"s", "x"}),
        "no_initial": (no_initial, {"a", "b"}),
        "no_initial_substate": (no_initial_substate, {"s", "a", "c", "out"}),
    }


@pytest.mark.parametrize("name", sorted(corner_machines()))
def test_reachable_corner_cases(name):
    machine, expected = corner_machines()[name]
    reachable = plan_machine(machine).reachable
    assert reachable == reference_reachable(machine)
    assert {state.name for state in reachable} == expected


def test_hierarchical_sources_are_covered():
    """Generated models exercise steps that leave and enter composites."""
    exits = entries = 0
    for machine in generated_machines():
        for steps in plan_machine(machine).steps.values():
            for step in steps:
                exits += len(step.exits) > 1
                entries += len(step.entries) > 1 or bool(step.descent)
    assert exits > 0 and entries > 0


class TestKeysAndShapes:
    def test_trigger_keys(self):
        assert trigger_key(SignalTrigger("go", ["a"])) == signal_key("go")
        assert trigger_key(TimerTrigger("t")) == timer_key("t")
        machine = nested_machine()
        machine.transition("idle", "outer")
        assert trigger_key(machine.transitions[-1].trigger) == COMPLETION

    def test_internal_steps_are_effect_only(self):
        machine = nested_variants()[0]
        plan = plan_machine(machine)
        leaf = machine.find_state("leaf")
        stay = plan.by_trigger[leaf][signal_key("stay")][0]
        assert (stay.exits, stay.entries, stay.descent) == ((), (), ())
        assert stay.leaf is leaf and not stay.terminates

    def test_composites_with_an_initial_substate_are_never_active(self):
        plan = plan_machine(traced_machine())
        assert sorted(state.name for state in plan.steps) == ["busy", "idle", "off"]

    def test_top_level_final_terminates_and_nested_final_does_not(self):
        busy, _, nested_final = nested_variants()[:3]
        die = plan_machine(busy).by_trigger[busy.find_state("leaf")][signal_key("die")]
        assert die[0].terminates
        sub = nested_final.find_state("sub")
        finish = plan_machine(nested_final).by_trigger[sub][signal_key("finish")]
        assert finish[0].leaf.is_final and not finish[0].terminates

    def test_a_machine_without_initial_state_has_no_start(self):
        machine = StateMachine("m")
        machine.state("a")
        assert plan_machine(machine).start is None

    def test_a_plan_is_a_snapshot_of_the_machine(self):
        machine = nested_machine()
        before = plan_machine(machine)
        machine.on_signal("leaf", "by_leaf", "go")
        leaf = machine.find_state("leaf")
        assert signal_key("go") not in before.by_trigger[leaf]
        assert signal_key("go") in plan_machine(machine).by_trigger[leaf]
