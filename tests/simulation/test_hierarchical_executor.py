"""Executor semantics of hierarchical state machines."""

import pytest

from repro.uml import StateMachine

# every step these tests take is replayed from its EXEC fields
from tests.simulation.test_exec_record_replay import (
    ReplayingExecutor as ProcessExecutor,
)


def traced_machine():
    """off / on{idle, busy}: every entry/exit appends a digit to `trace`.

    trace digits: on.entry=1, idle.entry=2, busy.entry=3,
                  idle.exit=4, busy.exit=5, on.exit=6, off.entry=7.
    """
    machine = StateMachine("m")
    machine.variable("trace", 0)
    machine.state("off", initial=True, entry="trace = trace * 10 + 7;")
    machine.state("on", entry="trace = trace * 10 + 1;",
                  exit="trace = trace * 10 + 6;")
    machine.state("idle", parent="on", initial=True,
                  entry="trace = trace * 10 + 2;",
                  exit="trace = trace * 10 + 4;")
    machine.state("busy", parent="on",
                  entry="trace = trace * 10 + 3;",
                  exit="trace = trace * 10 + 5;")
    machine.on_signal("off", "on", "power")
    machine.on_signal("idle", "busy", "work")
    machine.on_signal("busy", "idle", "rest")
    machine.on_signal("on", "off", "power_off")
    return machine


def started(machine):
    executor = ProcessExecutor("p", machine)
    executor.start()
    return executor


class TestEntryDescent:
    def test_entering_composite_descends_to_initial_substate(self):
        executor = started(traced_machine())
        executor.variables["trace"] = 0
        executor.consume_signal("power", [])
        # on.entry (1) then idle.entry (2)
        assert executor.variables["trace"] == 12
        assert executor.current.name == "idle"

    def test_initial_state_descends_too(self):
        machine = StateMachine("m")
        machine.variable("trace", 0)
        machine.state("top", initial=True, entry="trace = trace * 10 + 1;")
        machine.state("inner", parent="top", initial=True,
                      entry="trace = trace * 10 + 2;")
        executor = ProcessExecutor("p", machine)
        outcome = executor.start()
        assert executor.current.name == "inner"
        assert executor.variables["trace"] == 12
        assert outcome.to_state == "inner"


class TestSiblingTransitions:
    def test_transition_between_substates_stays_inside(self):
        executor = started(traced_machine())
        executor.consume_signal("power", [])
        executor.variables["trace"] = 0
        executor.consume_signal("work", [])
        # idle.exit (4) then busy.entry (3); the composite is NOT re-entered
        assert executor.variables["trace"] == 43
        assert executor.current.name == "busy"


class TestBubbling:
    def test_signal_unhandled_by_leaf_bubbles_to_composite(self):
        executor = started(traced_machine())
        executor.consume_signal("power", [])
        executor.consume_signal("work", [])
        executor.variables["trace"] = 0
        outcome, reason = executor.consume_signal("power_off", [])
        assert reason is None
        # busy.exit (5), on.exit (6), off.entry (7)
        assert executor.variables["trace"] == 567
        assert executor.current.name == "off"

    def test_leaf_transition_shadows_composite(self):
        machine = traced_machine()
        # give the leaf its own power_off handling
        machine.on_signal("idle", "busy", "power_off")
        executor = ProcessExecutor("p", machine)
        executor.start()
        executor.consume_signal("power", [])
        executor.consume_signal("power_off", [])
        assert executor.current.name == "busy"  # leaf transition won

    def test_unknown_signal_still_drops(self):
        executor = started(traced_machine())
        executor.consume_signal("power", [])
        outcome, reason = executor.consume_signal("mystery", [])
        assert outcome is None
        assert reason == "no-transition"


class TestTimersInHierarchy:
    def test_composite_timer_fires_from_any_substate(self):
        machine = StateMachine("m")
        machine.state("run", initial=True, entry="set_timer(watchdog, 100);")
        machine.state("a", parent="run", initial=True)
        machine.state("b", parent="run")
        machine.state("dead")
        machine.on_signal("a", "b", "go")
        machine.on_timer("run", "dead", "watchdog")
        executor = ProcessExecutor("p", machine)
        executor.start()
        executor.consume_signal("go", [])
        assert executor.current.name == "b"
        outcome, reason = executor.fire_timer("watchdog")
        assert reason is None
        assert executor.current.name == "dead"


class TestCompletionsInHierarchy:
    def test_composite_completion_after_descent(self):
        machine = StateMachine("m")
        machine.variable("x", 0)
        machine.state("stage", initial=True)
        machine.state("inner", parent="stage", initial=True, entry="x = 5;")
        machine.state("done")
        # completion transition on the composite, guarded on inner's effect
        machine.transition("stage", "done", guard="x == 5")
        executor = ProcessExecutor("p", machine)
        outcome = executor.start()
        assert executor.current.name == "done"
        assert outcome.to_state == "done"


class TestInternalCompletion:
    def machine(self):
        machine = StateMachine("m")
        machine.variable("x", 0)
        machine.state("idle", initial=True)
        machine.state("s", entry="x = x + 1;", exit="x = x + 10;")
        machine.on_signal("idle", "s", "go")
        machine.transition("s", "s", guard="x < 3", effect="x = x + 100;",
                           internal=True)
        return machine

    def test_runs_its_effect_once_and_ends_the_chase(self):
        machine = self.machine()
        executor = started(machine)
        outcome, reason = executor.consume_signal("go", [])
        assert reason is None
        # s.entry, then the internal effect: no exit, no re-entry, and no
        # second completion event, so the guard runs once
        assert executor.variables["x"] == 101
        assert executor.current.name == "s"
        assert outcome.statements == 2
        assert outcome.guards_evaluated == 1

    def test_interval_analysis_covers_the_simulated_value(self):
        from repro.analysis.values import analyze_machine

        machine = self.machine()
        values = analyze_machine(machine)
        assert values.env_of(machine.find_state("s"))["x"].contains(101)


class TestNestedFinal:
    def test_top_level_final_terminates(self):
        machine = StateMachine("m")
        machine.state("a", initial=True)
        final = machine.final_state()
        machine.on_signal("a", final, "die")
        executor = ProcessExecutor("p", machine)
        executor.start()
        executor.consume_signal("die", [])
        assert executor.terminated

    def test_nested_final_does_not_terminate_machine(self):
        machine = StateMachine("m")
        machine.state("comp", initial=True)
        machine.state("sub", parent="comp", initial=True)
        nested_final = machine.final_state("sub_done")
        nested_final.parent = machine.find_state("comp")
        machine.find_state("comp").substates.append(nested_final)
        machine.state("after")
        machine.on_signal("sub", nested_final, "finish")
        machine.on_signal("comp", "after", "move_on")
        executor = ProcessExecutor("p", machine)
        executor.start()
        executor.consume_signal("finish", [])
        assert not executor.terminated
        executor.consume_signal("move_on", [])
        assert executor.current.name == "after"
