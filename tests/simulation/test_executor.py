"""EFSM executor: run-to-completion semantics."""

import pytest

from repro.errors import SimulationError
from repro.simulation import ProcessExecutor
from repro.uml import StateMachine
from repro.uml.statemachine import SignalTrigger, TimerTrigger


def machine():
    return StateMachine("m")


class TestStart:
    def test_start_runs_entry_and_completions(self):
        m = machine()
        m.variable("x", 0)
        m.state("a", initial=True, entry="x = 1;")
        m.state("b", entry="x = x + 10;")
        m.transition("a", "b")  # completion
        executor = ProcessExecutor("p", m)
        outcome = executor.start()
        assert outcome.from_state == "a"
        assert outcome.to_state == "b"
        assert outcome.transitions == "0"  # the chased completion
        assert outcome.statements == 2
        assert executor.variables["x"] == 11

    def test_guarded_completion_chain(self):
        m = machine()
        m.variable("x", 0)
        m.state("a", initial=True)
        m.state("b")
        m.state("c")
        m.transition("a", "b", guard="x == 0", effect="x = 1;")
        m.transition("b", "c", guard="x == 1")
        executor = ProcessExecutor("p", m)
        outcome = executor.start()
        assert outcome.to_state == "c"
        assert outcome.guards_evaluated >= 2

    def test_double_start_rejected(self):
        m = machine()
        m.state("a", initial=True)
        executor = ProcessExecutor("p", m)
        executor.start()
        with pytest.raises(SimulationError):
            executor.start()

    def test_missing_initial_state_rejected(self):
        m = machine()
        m.state("a")
        with pytest.raises(SimulationError):
            ProcessExecutor("p", m)

    def test_completion_livelock_detected(self):
        m = machine()
        m.state("a", initial=True)
        m.state("b")
        m.transition("a", "b")
        m.transition("b", "a")
        executor = ProcessExecutor("p", m)
        with pytest.raises(SimulationError):
            executor.start()


class TestSignals:
    def make_executor(self):
        m = machine()
        m.variable("total", 0)
        m.state("a", initial=True)
        m.state("b", entry="total = total + 100;")
        m.on_signal("a", "b", "go", params=["n"], guard="n > 0", effect="total = total + n;")
        m.on_signal("a", "a", "nop", internal=True)
        executor = ProcessExecutor("p", m)
        executor.start()
        return executor

    def test_consume_fires_matching_transition(self):
        executor = self.make_executor()
        outcome, reason = executor.consume_signal("go", [5])
        assert reason is None
        assert outcome.to_state == "b"
        assert executor.variables["total"] == 105

    def test_guard_false_drops(self):
        executor = self.make_executor()
        outcome, reason = executor.consume_signal("go", [-1])
        assert outcome is None
        assert reason == "guards-false"
        assert executor.current.name == "a"

    def test_unknown_signal_drops(self):
        executor = self.make_executor()
        outcome, reason = executor.consume_signal("mystery", [])
        assert outcome is None
        assert reason == "no-transition"

    def test_too_few_args_raises(self):
        executor = self.make_executor()
        with pytest.raises(SimulationError):
            executor.consume_signal("go", [])

    def test_extra_args_ignored(self):
        executor = self.make_executor()
        outcome, _ = executor.consume_signal("go", [1, 2, 3])
        assert outcome is not None

    def test_priority_selects_first_enabled(self):
        m = machine()
        m.variable("which", 0)
        m.state("a", initial=True)
        m.on_signal("a", "a", "s", effect="which = 2;", priority=2, internal=True)
        m.on_signal("a", "a", "s", effect="which = 1;", priority=1, internal=True)
        executor = ProcessExecutor("p", m)
        executor.start()
        executor.consume_signal("s", [])
        assert executor.variables["which"] == 1

    def test_guard_falls_through_to_lower_priority(self):
        m = machine()
        m.variable("which", 0)
        m.variable("gate", 0)
        m.state("a", initial=True)
        m.on_signal("a", "a", "s", guard="gate == 1", effect="which = 1;",
                    priority=0, internal=True)
        m.on_signal("a", "a", "s", effect="which = 2;", priority=1, internal=True)
        executor = ProcessExecutor("p", m)
        executor.start()
        executor.consume_signal("s", [])
        assert executor.variables["which"] == 2


class TestInternalVsExternal:
    def test_external_self_transition_reruns_entry(self):
        m = machine()
        m.variable("entries", 0)
        m.state("a", initial=True, entry="entries = entries + 1;")
        m.on_signal("a", "a", "ext")
        executor = ProcessExecutor("p", m)
        executor.start()
        executor.consume_signal("ext", [])
        assert executor.variables["entries"] == 2

    def test_internal_transition_skips_entry_exit(self):
        m = machine()
        m.variable("entries", 0)
        m.variable("exits", 0)
        m.state("a", initial=True, entry="entries = entries + 1;",
                exit="exits = exits + 1;")
        m.on_signal("a", "a", "int", internal=True)
        executor = ProcessExecutor("p", m)
        executor.start()
        executor.consume_signal("int", [])
        assert executor.variables["entries"] == 1
        assert executor.variables["exits"] == 0


class TestTimersAndSends:
    def test_timer_transition(self):
        m = machine()
        m.state("a", initial=True, entry="set_timer(t, 10);")
        m.state("b")
        m.on_timer("a", "b", "t")
        executor = ProcessExecutor("p", m)
        start_outcome = executor.start()
        assert start_outcome.timer_ops == [("set", "t", 10)]
        outcome, reason = executor.fire_timer("t")
        assert reason is None
        assert outcome.to_state == "b"

    def test_unexpected_timer_dropped(self):
        m = machine()
        m.state("a", initial=True)
        executor = ProcessExecutor("p", m)
        executor.start()
        outcome, reason = executor.fire_timer("ghost")
        assert outcome is None
        assert reason == "no-transition"

    def test_timer_with_all_guards_false_drops_like_a_signal(self):
        m = machine()
        m.variable("x", 0)
        m.state("a", initial=True)
        m.state("b")
        m.transition("a", "b", trigger=TimerTrigger("t"), guard="x > 0")
        m.transition("a", "b", trigger=SignalTrigger("go"), guard="x > 0")
        executor = ProcessExecutor("p", m)
        executor.start()
        assert executor.consume_signal("go", []) == (None, "guards-false")
        assert executor.fire_timer("t") == (None, "guards-false")
        assert executor.current.name == "a"

    def test_sends_collected_in_order(self):
        m = machine()
        m.state("a", initial=True)
        m.on_signal(
            "a", "a", "go",
            effect="send first(1) via p; send second(2) via q;",
            internal=True,
        )
        executor = ProcessExecutor("p", m)
        executor.start()
        outcome, _ = executor.consume_signal("go", [])
        assert [(s.signal, s.args, s.via) for s in outcome.sends] == [
            ("first", (1,), "p"),
            ("second", (2,), "q"),
        ]

    def test_exit_effect_entry_order(self):
        m = machine()
        m.variable("trace", 0)
        m.state("a", initial=True, exit="trace = trace * 10 + 1;")
        m.state("b", entry="trace = trace * 10 + 3;")
        m.on_signal("a", "b", "go", effect="trace = trace * 10 + 2;")
        executor = ProcessExecutor("p", m)
        executor.start()
        executor.consume_signal("go", [])
        assert executor.variables["trace"] == 123


class TestFinalState:
    def test_final_state_terminates(self):
        m = machine()
        m.state("a", initial=True)
        final = m.final_state()
        m.on_signal("a", final, "die")
        executor = ProcessExecutor("p", m)
        executor.start()
        outcome, _ = executor.consume_signal("die", [])
        assert outcome.to_state == final.name
        assert executor.terminated
        with pytest.raises(SimulationError):
            executor.consume_signal("anything", [])
