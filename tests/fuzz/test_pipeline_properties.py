"""Property-based differential checks over the whole flow.

Each generated configuration is driven through validate → lint →
simulate → checkpoint/resume → explore → prune by
:func:`repro.genmodel.pipeline.run_pipeline`, which raises
:class:`InvariantViolation` on the first broken cross-subsystem
invariant.  The CI smoke job (``tools/fuzz_smoke.py``) runs the same
pipeline over a larger seed corpus; these tests keep a representative
slice in the tier-1 suite.
"""

from __future__ import annotations

import pytest

from repro.errors import InvariantViolation
from repro.genmodel import (
    GeneratorConfig,
    config_for_seed,
    run_pipeline,
    shrink_config,
)
from repro.genmodel.pipeline import (
    candidate_specs,
    check_soundness,
    run_pipeline as _run_pipeline,
)

#: A slice of the smoke corpus covering all five topologies.
TIER1_SEEDS = (0, 1, 2, 3, 5)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_pipeline_invariants_hold(seed, tmp_path):
    counters = run_pipeline(
        config_for_seed(seed), workers=(0, 1), work_dir=str(tmp_path)
    )
    assert counters["stages"] == [
        "determinism",
        "validate",
        "lint",
        "actions",
        "simulate",
        "soundness",
        "resume",
        "explore",
        "prune",
    ]
    assert counters["actions_compared"] > 0
    assert counters["events"] > 0
    assert counters["interrupt_at"] > 0
    assert counters["candidates"] >= 2


def test_pipeline_worker_four_invariance(tmp_path):
    """One seed also checks the 4-worker ranking (cheap representative of
    the smoke job's full (0, 1, 4) sweep)."""
    counters = run_pipeline(
        config_for_seed(1), workers=(0, 1, 4), work_dir=str(tmp_path)
    )
    assert "explore" in counters["stages"]


def test_soundness_checks_flagged_transitions(tmp_path):
    """A001/A003 defect models carry provably dead transitions; the
    concrete simulation must never take them."""
    counters = run_pipeline(
        GeneratorConfig(seed=11, inject_defects=("A001", "A003")),
        workers=(0,),
        work_dir=str(tmp_path),
    )
    assert counters["flagged_checked"] >= 2
    assert "soundness" in counters["stages"]


def test_soundness_catches_executed_flagged_transition():
    """If a lint finding flags a transition the simulation does take,
    check_soundness must fail — guarding the harness itself."""
    from repro.analysis.core import Finding
    from repro.genmodel import generate_model
    from repro.genmodel.pipeline import simulate

    generated = generate_model(GeneratorConfig(seed=3))
    _, result = simulate(generated, 3_000)
    process = generated.application.processes["p0"]
    machine = process.component.classifier_behavior
    driver = next(
        t
        for t in machine.transitions
        if t.trigger is not None and "t_drive" in t.trigger.describe()
    )
    forged = type(
        "Report", (), {"findings": [Finding("A001", "warning", "x", "s", (driver,))]}
    )()
    with pytest.raises(InvariantViolation, match="soundness"):
        check_soundness(generated, forged, result)


def _soundness_inputs(machine, flagged):
    """A one-process model running ``machine``, an A003 finding on
    ``flagged``, and a result whose log holds one given EXEC record."""
    from types import SimpleNamespace

    from repro.analysis.core import Finding
    from repro.simulation.logfile import ExecRecord

    def run(fired, trigger="go"):
        record = ExecRecord(
            7,
            "p",
            "pe",
            1,
            1,
            fired.from_state,
            fired.to_state,
            trigger,
            fired.statements,
            fired.transitions,
        )
        return SimpleNamespace(log=SimpleNamespace(records=[record]))

    component = SimpleNamespace(classifier_behavior=machine)
    generated = SimpleNamespace(
        config=GeneratorConfig(seed=0),
        application=SimpleNamespace(processes={"p": SimpleNamespace(component=component)}),
    )
    report = SimpleNamespace(findings=[Finding("A003", "warning", "x", "m", (flagged,))])
    return generated, report, run


def test_soundness_sees_a_flagged_transition_fired_from_a_nested_composite():
    """A transition of composite ``s`` also fires while ``c``, a composite
    of ``s`` without an initial substate, is the active state; ``s`` itself,
    which has one, never is.  The oracle matches what the executor logs."""
    from repro.simulation.executor import ProcessExecutor
    from repro.uml.statemachine import StateMachine

    machine = StateMachine("m")
    machine.state("s", initial=True)
    machine.state("a", parent="s", initial=True)
    machine.state("c", parent="s")
    machine.state("d", parent="c")
    machine.state("out")
    machine.on_signal("a", "c", "enter")
    go = machine.on_signal("s", "out", "go")

    executor = ProcessExecutor("p", machine)
    started = executor.start()
    executor.consume_signal("enter", ())
    fired, _ = executor.consume_signal("go", ())
    assert (fired.from_state, fired.to_state) == ("c", "out")

    generated, report, run = _soundness_inputs(machine, go)
    with pytest.raises(InvariantViolation, match="soundness"):
        check_soundness(generated, report, run(fired))
    assert check_soundness(generated, report, run(started)) == 1


def test_soundness_sees_a_flagged_completion_transition_fired_at_start():
    """The start record names the composite initial state ``s`` as its
    ``from``, although the completion ``s --> out`` fires from ``a``."""
    from repro.simulation.executor import ProcessExecutor
    from repro.uml.statemachine import StateMachine

    machine = StateMachine("m")
    machine.state("s", initial=True)
    machine.state("a", parent="s", initial=True)
    machine.state("out")
    done = machine.transition("s", "out")

    fired = ProcessExecutor("p", machine).start()
    assert (fired.from_state, fired.to_state, fired.transitions) == ("s", "out", "0")

    generated, report, run = _soundness_inputs(machine, done)
    with pytest.raises(InvariantViolation, match="soundness"):
        check_soundness(generated, report, run(fired, "start"))


@pytest.mark.parametrize("flag", ["go", "completion"])
def test_soundness_sees_a_flagged_transition_of_a_step_with_a_completion_chase(flag):
    """``a --go--> b`` then the completion ``b --> c`` is one step, logged
    ``from=a to=c trigger=go``: ``(a, c)`` is neither transition's
    ``(from, to)``, so only the record's transition ids show that both
    ran."""
    from repro.simulation.executor import ProcessExecutor
    from repro.uml.statemachine import StateMachine

    machine = StateMachine("m")
    machine.variable("x", 0)
    machine.state("a", initial=True)
    machine.state("b")
    machine.state("c")
    go = machine.on_signal("a", "b", "go", effect="x = 1;")
    done = machine.transition("b", "c", effect="x = x + 1;")

    executor = ProcessExecutor("p", machine)
    executor.start()
    fired, _ = executor.consume_signal("go", ())
    assert (fired.from_state, fired.to_state) == ("a", "c")
    assert (fired.transitions, fired.statements) == ("0,1", 2)

    generated, report, run = _soundness_inputs(machine, go if flag == "go" else done)
    with pytest.raises(InvariantViolation, match="soundness"):
        check_soundness(generated, report, run(fired))


def test_actions_stage_catches_a_divergent_compiler(monkeypatch):
    """A compiled block that miscounts must fail the actions stage (and
    so shrink like any other stage)."""
    from repro.genmodel import generate_model
    from repro.genmodel import pipeline

    real = pipeline.compile_block

    def off_by_one(stmts, parameters):
        block = real(stmts, parameters)
        return lambda env: block(env) + 1

    generated = generate_model(config_for_seed(0))
    assert pipeline.check_actions(generated.application, seed=0) > 0
    monkeypatch.setattr(pipeline, "compile_block", off_by_one)
    with pytest.raises(InvariantViolation) as excinfo:
        pipeline.check_actions(generated.application, seed=0)
    assert excinfo.value.stage == "actions"


def test_simulate_stage_catches_a_log_handoff_that_loses_a_record(monkeypatch):
    """A run whose in-memory log is not its tutlog must fail the simulate
    stage (and so shrink like any other stage)."""
    from repro.genmodel import generate_model
    from repro.genmodel.pipeline import simulate
    from repro.simulation.logfile import LogFile
    from repro.simulation.system import SimulationResult

    def lossy(result):
        writer = result.writer
        return LogFile(dict(writer.meta), writer.records[:-1], writer.end_time_ps)

    generated = generate_model(config_for_seed(0))
    simulate(generated, 3_000)
    monkeypatch.setattr(SimulationResult, "log", property(lossy))
    with pytest.raises(InvariantViolation, match="in-memory log differs") as excinfo:
        simulate(generated, 3_000)
    assert excinfo.value.stage == "simulate"


def test_defect_configs_stop_after_lint():
    counters = run_pipeline(GeneratorConfig(seed=2, inject_defects=("D006",)))
    assert counters["stages"] == ["determinism", "validate", "lint"]


def test_candidate_enumeration_is_deterministic():
    from repro.genmodel import generate_model

    config = config_for_seed(3)
    generated = generate_model(config)
    first = [s.digest() for s in candidate_specs(config, generated, 3_000)]
    second = [s.digest() for s in candidate_specs(config, generated, 3_000)]
    assert first == second
    assert all(digest is not None for digest in first)


class TestShrinking:
    def test_shrinks_to_minimal_failing_config(self):
        """A synthetic predicate ("fails whenever fanout >= 3") must shrink
        to the smallest configuration still satisfying it."""
        start = GeneratorConfig(
            seed=4,
            n_processes=12,
            fanout=5,
            topology="mesh",
            n_segments=4,
            n_pes=8,
        )
        result = shrink_config(start, lambda cfg: cfg.fanout >= 3)
        assert result.config.fanout == 3
        assert result.config.n_processes == 2
        assert result.config.topology == "single"
        assert result.reductions > 0

    def test_shrink_is_deterministic(self):
        start = GeneratorConfig(seed=4, n_processes=10, n_pes=6)
        predicate = lambda cfg: cfg.n_pes >= 2
        first = shrink_config(start, predicate)
        second = shrink_config(start, predicate)
        assert first.config == second.config
        assert first.attempts == second.attempts

    def test_summary_names_repro_command(self):
        result = shrink_config(
            GeneratorConfig(seed=6, n_processes=8),
            lambda cfg: cfg.n_processes >= 3,
        )
        assert "python -m repro generate-model" in result.summary()
        assert "--seed 6" in result.summary()

    def test_repro_command_round_trips_defaults(self):
        from repro.genmodel import repro_command

        assert repro_command(GeneratorConfig()) == (
            "python -m repro generate-model --seed 0"
        )
