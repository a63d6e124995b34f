"""The per-run lookup tables: dispatch candidates, routes and bus paths.

Candidates for a trigger are resolved once per active leaf state: the
leaf's transitions, then each enclosing state's (innermost first), each
state's in ``(priority, serial)`` order.  These cases pin that order, the
guard-evaluation count charged to the step and the drop reasons.  Routes
and bus paths are resolved on first use, so a model error still surfaces
at the first send that needs it; and a whole run makes a bounded number
of model lookups, however long it simulates.  Nor does a run build
per-step bookkeeping: one step environment per executor, no snapshot
encoding unless a snapshot is taken, and kernel events that call bound
methods rather than fresh closures.
"""

import inspect

import pytest

from repro.application.model import ApplicationModel
from repro.cases.tutwlan import build_tutwlan_system
from repro.errors import MappingError, ModelError, SimulationError
from repro.genmodel import config_for_seed, generate_model
from repro.mapping import MappingModel
from repro.platform import standard_library
from repro.platform.model import PlatformModel
from repro.simulation import ProcessExecutor
from repro.simulation.executor import _StepEnvironment
from repro.simulation.kernel import EV_CALLBACK
from repro.simulation.system import SystemSimulation, _Activation
from repro.uml import StateMachine
from repro.uml.statemachine import State

from tests.conftest import build_pingpong, build_two_cpu_platform


def nested_machine():
    """idle -> outer{mid{leaf}}; `go` is handled at every level."""
    machine = StateMachine("m")
    machine.variable("x", 0)
    machine.state("idle", initial=True)
    machine.state("outer")
    machine.state("mid", parent="outer", initial=True)
    machine.state("leaf", parent="mid", initial=True)
    machine.state("by_leaf")
    machine.state("by_mid")
    machine.state("by_outer")
    machine.on_signal("idle", "outer", "enter")
    return machine


def spied(machine):
    """A started executor that counts every guard evaluation."""
    executor = ProcessExecutor("p", machine)
    executor.start()
    holds = executor._guard_holds
    executor.guard_calls = 0

    def counting(guard, params):
        executor.guard_calls += 1
        return holds(guard, params)

    executor._guard_holds = counting
    return executor


def entered(machine):
    executor = spied(machine)
    executor.consume_signal("enter", [])
    assert executor.current.name == "leaf"
    executor.guard_calls = 0
    return executor


class TestSearchOrder:
    def test_leaf_beats_ancestor_whatever_the_priority(self):
        machine = nested_machine()
        machine.on_signal("outer", "by_outer", "go", priority=-5)
        machine.on_signal("leaf", "by_leaf", "go", priority=9, guard="x == 0")
        executor = entered(machine)
        outcome, reason = executor.consume_signal("go", [])
        assert reason is None
        assert executor.current.name == "by_leaf"
        assert outcome.guards_evaluated == 1
        assert executor.guard_calls == 1

    def test_priority_then_declaration_order_within_a_state(self):
        machine = nested_machine()
        machine.on_signal("leaf", "by_outer", "go", priority=2)
        machine.on_signal("leaf", "by_mid", "go", priority=1, guard="x == 0")
        machine.on_signal("leaf", "by_leaf", "go", priority=1)
        executor = entered(machine)
        outcome, _ = executor.consume_signal("go", [])
        assert executor.current.name == "by_mid"
        assert outcome.guards_evaluated == 1

    def test_false_leaf_guard_falls_through_to_ancestors(self):
        machine = nested_machine()
        machine.on_signal("leaf", "by_leaf", "go", guard="x == 1")
        machine.on_signal("mid", "by_mid", "go", guard="x == 2")
        machine.on_signal("outer", "by_outer", "go", guard="x == 0")
        executor = entered(machine)
        outcome, reason = executor.consume_signal("go", [])
        assert reason is None
        assert executor.current.name == "by_outer"
        assert outcome.guards_evaluated == 3
        assert executor.guard_calls == 3


class TestDrops:
    def test_all_guards_false(self):
        machine = nested_machine()
        machine.on_signal("leaf", "by_leaf", "go", guard="x == 1")
        machine.on_signal("outer", "by_outer", "go", guard="x == 2")
        executor = entered(machine)
        assert executor.consume_signal("go", []) == (None, "guards-false")
        assert executor.guard_calls == 2
        assert executor.current.name == "leaf"

    def test_no_transition_at_any_level(self):
        machine = nested_machine()
        machine.on_signal("leaf", "by_leaf", "go", guard="x == 1")
        machine.on_timer("outer", "by_outer", "go")
        executor = entered(machine)
        assert executor.consume_signal("other", []) == (None, "no-transition")
        assert executor.fire_timer("other") == (None, "no-transition")
        assert executor.guard_calls == 0

    def test_trigger_handled_only_by_another_leaf(self):
        machine = nested_machine()
        machine.on_signal("idle", "by_leaf", "go")
        executor = entered(machine)
        assert executor.consume_signal("go", []) == (None, "no-transition")


class TestParameterBinding:
    def machine(self):
        machine = nested_machine()
        machine.on_signal("leaf", "by_leaf", "go", params=["a"], guard="a > 5")
        machine.on_signal("outer", "by_outer", "go", params=["a", "b"])
        return machine

    def test_short_tuple_raises_at_the_first_candidate(self):
        executor = entered(self.machine())
        with pytest.raises(SimulationError, match="delivered 0 .* binds 1"):
            executor.consume_signal("go", ())
        assert executor.guard_calls == 0

    def test_short_tuple_raises_at_the_ancestor_after_a_false_guard(self):
        executor = entered(self.machine())
        with pytest.raises(SimulationError, match="delivered 1 .* binds 2"):
            executor.consume_signal("go", (3,))
        assert executor.guard_calls == 1
        assert executor.current.name == "leaf"

    def test_tuple_long_enough_for_the_candidate_that_fires(self):
        executor = entered(self.machine())
        outcome, reason = executor.consume_signal("go", (7,))
        assert reason is None
        assert executor.current.name == "by_leaf"
        assert outcome.guards_evaluated == 1


class TestTimersAndCompletions:
    def test_timer_handled_by_an_ancestor(self):
        machine = nested_machine()
        machine.on_timer("leaf", "by_leaf", "t", guard="x == 1")
        machine.on_timer("mid", "by_mid", "t")
        machine.on_signal("outer", "by_outer", "t")  # a signal, not the timer
        executor = entered(machine)
        outcome, reason = executor.fire_timer("t")
        assert reason is None
        assert executor.current.name == "by_mid"
        assert outcome.trigger == "timer:t"
        assert outcome.guards_evaluated == 1

    def test_completion_chain_through_ancestors(self):
        machine = StateMachine("m")
        machine.variable("x", 0)
        machine.state("outer", initial=True)
        machine.state("a", parent="outer", initial=True, entry="x = x + 1;")
        machine.state("b", parent="outer", entry="x = x + 10;")
        machine.state("done", entry="x = x + 100;")
        machine.transition("a", "done", guard="x == 0")  # leaf: false
        machine.transition("outer", "b", guard="x == 1")  # ancestor: fires
        machine.transition("b", "done", guard="x == 0")  # leaf: false
        machine.transition("outer", "done", guard="x == 11")  # fires
        executor = ProcessExecutor("p", machine)
        outcome = executor.start()
        assert executor.current.name == "done"
        assert executor.variables["x"] == 111
        # a: a->done false, outer->b true; b: b->done false, outer->b
        # false, outer->done true; done: nothing left
        assert outcome.guards_evaluated == 5


class TestTablesBelongToOneExecutor:
    def test_a_model_edited_between_runs_needs_no_invalidation(self):
        machine = nested_machine()
        machine.on_signal("outer", "by_outer", "go")
        first = entered(machine)
        first.consume_signal("go", [])
        assert first.current.name == "by_outer"

        machine.on_signal("leaf", "by_leaf", "go")
        second = entered(machine)
        second.consume_signal("go", [])
        assert second.current.name == "by_leaf"

    def test_tables_are_left_out_of_the_snapshot(self):
        machine = nested_machine()
        machine.on_signal("outer", "by_outer", "go")
        executor = entered(machine)
        assert set(executor.state_dict()) == {"current", "variables", "terminated"}

    def test_a_snapshot_naming_a_state_that_cannot_be_active_is_rejected(self):
        executor = entered(nested_machine())
        snapshot = executor.state_dict()
        for name in ("mid", "nowhere"):  # a composite with an initial substate
            fresh = ProcessExecutor("p", nested_machine())
            with pytest.raises(SimulationError, match="no active state"):
                fresh.load_state_dict(dict(snapshot, current=name))


def pingpong_simulation(platform=None):
    application = build_pingpong()
    platform = platform if platform is not None else build_two_cpu_platform()
    mapping = MappingModel(application, platform)
    mapping.map("g1", "cpu1")
    mapping.map("g2", "cpu2")
    return application, SystemSimulation(application, platform, mapping)


def last_step(simulation):
    record = simulation.writer.records[-1]
    return record.process, record.trigger


class TestErrorsSurfaceAtFirstUse:
    def test_an_unroutable_send_raises_at_its_first_send(self):
        application, simulation = pingpong_simulation()
        application.top.connectors.clear()  # ping1.out now leads nowhere
        with pytest.raises(ModelError, match="no route for signal 'tick'"):
            simulation.run(5_000)
        assert last_step(simulation) == ("ping1", "timer:t")

    def test_an_unconnected_pe_pair_raises_at_its_first_transfer(self):
        platform = PlatformModel("Split", standard_library())
        platform.instantiate("cpu1", "NiosCPU")
        platform.instantiate("cpu2", "NiosCPU")
        platform.segment("seg1", "HIBISegment")
        platform.segment("seg2", "HIBISegment")
        platform.attach("cpu1", "seg1", address=0x100)
        platform.attach("cpu2", "seg2", address=0x200)
        _, simulation = pingpong_simulation(platform)
        with pytest.raises(MappingError, match="no communication path"):
            simulation.run(5_000)
        assert last_step(simulation) == ("ping1", "timer:t")


LOOKUPS = (
    (StateMachine, "outgoing"),
    (ApplicationModel, "route"),
    (ApplicationModel, "find_process"),
    (PlatformModel, "transfer_path"),
)

HIERARCHY_WALKS = ((State, "ancestors"), (State, "path_from_root"))


def call_counts(monkeypatch, lookups, build, duration_us):
    """Calls of ``lookups`` made while building and running one simulation."""
    counts = {}
    for owner, name in lookups:
        original = getattr(owner, name)
        counts[name] = 0

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    SystemSimulation(*build()).run(duration_us)
    monkeypatch.undo()
    return counts


def lookup_counts(monkeypatch, duration_us):
    """Model lookups made while constructing and running one TUTMAC simulation."""
    return call_counts(monkeypatch, LOOKUPS, build_tutwlan_system, duration_us)


def test_model_lookups_do_not_grow_with_simulated_time(monkeypatch):
    short = lookup_counts(monkeypatch, 100_000)
    long = lookup_counts(monkeypatch, 200_000)
    assert short == long
    assert short["route"] > 0 and short["transfer_path"] > 0


def generated_system():
    """Generated model 0: hierarchical machines whose steps leave states."""
    generated = generate_model(config_for_seed(0))
    return generated.application, generated.platform, generated.mapping


def test_the_hierarchy_is_not_resolved_per_step(monkeypatch):
    """Each executor resolves its machine's hierarchy once, when built.

    TUTWLAN cannot show this: almost all of its fired transitions are
    internal, and those never walked the hierarchy.
    """
    short = call_counts(monkeypatch, HIERARCHY_WALKS, generated_system, 3_000)
    long = call_counts(monkeypatch, HIERARCHY_WALKS, generated_system, 6_000)
    assert short == long


STEP_ENVIRONMENTS = ((_StepEnvironment, "__init__"),)


def test_each_executor_builds_one_step_environment(monkeypatch):
    """The environment is reset per step, never rebuilt."""
    for build, short_us, long_us in (
        (generated_system, 3_000, 6_000),
        (build_tutwlan_system, 100_000, 200_000),
    ):
        short = call_counts(monkeypatch, STEP_ENVIRONMENTS, build, short_us)
        long = call_counts(monkeypatch, STEP_ENVIRONMENTS, build, long_us)
        assert short == long == {"__init__": len(build()[0].processes)}


def test_activations_are_encoded_only_for_snapshots(monkeypatch):
    counts = call_counts(
        monkeypatch, ((_Activation, "to_dict"),), build_tutwlan_system, 100_000
    )
    assert counts == {"to_dict": 0}


def test_pending_events_hold_bound_methods_not_closures():
    simulation = SystemSimulation(*build_tutwlan_system())
    simulation.run(100_000)
    pending = simulation.kernel._heap
    assert pending
    assert all(inspect.ismethod(event[EV_CALLBACK]) for event in pending)
