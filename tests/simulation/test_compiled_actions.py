"""The simulator's compiled actions against the tree-walking oracle.

The production path runs every guard and action block as a function
compiled for the parameters of its step's trigger.  Patching the
tree-walker (:func:`repro.uml.actions.execute` /
:func:`~repro.uml.actions.evaluate`) into the executor instead must not
change a byte of the tutlog, the Chrome trace, or the checkpoint and
resume state hashes of a 100 ms TUTMAC simulation, nor any step of a
machine whose blocks run in several scopes.
"""

import pytest

from repro.application import ApplicationModel
from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.checkpoint import (
    Checkpointer,
    CheckpointStore,
    EveryEvents,
    resume_simulation,
)
from repro.errors import ActionRuntimeError, SimulationInterrupted
from repro.faults.campaign import build_campaign_plan
from repro.genmodel.pipeline import action_sites
from repro.observability.export import render_chrome_trace
from repro.observability.tracer import Tracer
from repro.simulation import executor
from repro.simulation.executor import ProcessExecutor
from repro.simulation.system import SystemSimulation
from repro.uml import StateMachine
from repro.uml.actions import ActionEnvironment, evaluate, execute

DURATION_US = 100_000
STRIDE = 500
INTERRUPT_AT = 2_001


def _walked_block(stmts, _parameters):
    return lambda environment: execute(stmts, environment)


def _walked_guard(expr, _parameters):
    def guard(parameters, variables):
        environment = ActionEnvironment()
        environment.variables = variables
        environment.parameters = parameters
        return evaluate(expr, environment)

    return guard


def _simulation(arq: bool, traced: bool) -> SystemSimulation:
    params = TutmacParameters(arq_enabled=True) if arq else None
    application, platform, mapping = build_tutwlan_system(params=params)
    plan = build_campaign_plan(seed=7, fault_rate=0.05) if arq else None
    return SystemSimulation(
        application,
        platform,
        mapping,
        faults=plan,
        tracer=Tracer() if traced else None,
    )


def _checkpointed(simulation, root, interrupt=None):
    checkpointer = Checkpointer(
        CheckpointStore(root),
        EveryEvents(STRIDE),
        tag="t",
        interrupt_after_events=interrupt,
    )
    checkpointer.attach(simulation)
    try:
        return simulation.run(DURATION_US)
    finally:
        checkpointer.detach()


def _artefacts(root, arq: bool) -> dict:
    traced_sim = _simulation(arq, traced=True)
    traced = traced_sim.run(DURATION_US)
    interrupted = _simulation(arq, traced=False)
    with pytest.raises(SimulationInterrupted) as excinfo:
        _checkpointed(interrupted, root, interrupt=INTERRUPT_AT)
    resumed_sim = _simulation(arq, traced=False)
    resume_simulation(resumed_sim, excinfo.value.snapshot)
    resumed = _checkpointed(resumed_sim, root)
    return {
        "tutlog": traced.writer.render(),
        "trace": render_chrome_trace(traced_sim.tracer),
        "resumed_tutlog": resumed.writer.render(),
        "checkpoints": sorted(path.name for path in root.rglob("*.json")),
    }


@pytest.mark.parametrize("arq", [False, True], ids=["plain", "arq-faulted"])
def test_compiled_and_tree_walked_runs_are_byte_identical(tmp_path, monkeypatch, arq):
    compiled = _artefacts(tmp_path / "compiled", arq)
    assert compiled["resumed_tutlog"] == compiled["tutlog"]
    assert len(compiled["checkpoints"]) >= 8

    monkeypatch.setattr(executor, "compile_block", _walked_block)
    monkeypatch.setattr(executor, "compile_guard", _walked_guard)
    walked = _artefacts(tmp_path / "walked", arq)

    for key in compiled:
        assert walked[key] == compiled[key], key


def _scoped_machine() -> StateMachine:
    """``busy``'s entry and the ``k > 0`` guard read ``k``: a parameter
    on the signal paths, the declared variable on the timer path."""
    machine = StateMachine("scoped")
    machine.variable("k", 5)
    machine.variable("seen", 0)
    machine.state("idle", initial=True, entry="set_timer(t, 10);")
    machine.state("busy", entry="seen = seen + k;")
    machine.on_signal("idle", "busy", "go", params=["k"], guard="k > 0")
    machine.on_timer("idle", "busy", "t", guard="k > 0")
    machine.on_signal("busy", "idle", "back")
    machine.on_signal("busy", "busy", "poke", params=["k"], effect="k = k + 1;")
    machine.on_signal("busy", "busy", "zap", params=["k"], effect="k = 1 / 0;")
    return machine


SCRIPT = (
    ("timer", "t", ()),  # the timer path compiles first
    ("signal", "back", ()),
    ("signal", "go", (7,)),
    ("signal", "back", ()),
    ("signal", "go", (-1,)),  # the guard is false
    ("timer", "t", ()),
    ("signal", "poke", (3,)),
    ("signal", "zap", (3,)),
)


def _scripted_run():
    """Every step of :data:`SCRIPT` on a fresh executor, as comparable data."""
    process = ProcessExecutor("p", _scoped_machine())
    steps = [process.start().to_dict()]
    for kind, name, args in SCRIPT:
        try:
            if kind == "signal":
                outcome, reason = process.consume_signal(name, args)
            else:
                outcome, reason = process.fire_timer(name)
        except ActionRuntimeError as error:
            steps.append(("raised", str(error), dict(process.variables)))
            continue
        steps.append((outcome and outcome.to_dict(), reason, dict(process.variables)))
    return steps


def test_a_block_in_two_scopes_runs_like_the_tree_walker(monkeypatch):
    compiled = _scripted_run()
    # the timer path reads the variable k, the signal path the parameter
    assert [step[2]["seen"] for step in compiled[1:7]] == [5, 5, 12, 12, 12, 17]
    assert compiled[7][:2] == ("raised", "cannot assign to trigger parameter 'k'")
    # the value is evaluated before the write raises
    assert compiled[8][:2] == ("raised", "division by zero")

    monkeypatch.setattr(executor, "compile_block", _walked_block)
    monkeypatch.setattr(executor, "compile_guard", _walked_guard)
    assert _scripted_run() == compiled


def test_the_oracle_checks_every_scope_the_simulator_compiles():
    application = ApplicationModel("App")
    component = application.component("Scoped")
    machine = _scoped_machine()
    component.set_behavior(machine)
    application.process(application.top, "p", component)
    scopes = {}
    for _, node, names, _ in action_sites(application):
        scopes.setdefault(id(node), set()).add(names)
    entry = machine.find_state("busy").entry
    guard = machine.transitions[0].guard  # the timer's too: parses are shared
    assert scopes[id(entry)] == scopes[id(guard)] == {("k",), ()}


def test_tables_compile_once_per_block_and_scope(monkeypatch):
    """A run compiles one function per (block or guard, parameter names)
    it runs, and a second run sharing its tables compiles nothing."""
    compiled, ran = [], set()

    def counting(real):
        def compiler(node, names):
            key = (id(node), frozenset(names))
            compiled.append(key)
            function = real(node, names)
            return lambda *args: ran.add(key) or function(*args)

        return compiler

    monkeypatch.setattr(executor, "compile_block", counting(executor.compile_block))
    monkeypatch.setattr(executor, "compile_guard", counting(executor.compile_guard))
    tables = {}
    application, platform, mapping = build_tutwlan_system()
    SystemSimulation(application, platform, mapping, machine_tables=tables).run(20_000)
    assert len(compiled) == len(set(compiled))
    assert set(compiled) == ran
    assert len(ran) > 20

    compiled.clear()
    SystemSimulation(application, platform, mapping, machine_tables=tables).run(20_000)
    assert compiled == []
