"""The simulator's compiled actions against the tree-walking oracle.

The production path runs every guard and action block as a compiled
function.  Patching the tree-walker (:func:`repro.uml.actions.execute` /
:func:`~repro.uml.actions.evaluate`) into the executor instead must not
change a byte of the tutlog, the Chrome trace, or the checkpoint and
resume state hashes of a 100 ms TUTMAC simulation.
"""

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.checkpoint import (
    Checkpointer,
    CheckpointStore,
    EveryEvents,
    resume_simulation,
)
from repro.errors import SimulationInterrupted
from repro.faults.campaign import build_campaign_plan
from repro.observability.export import render_chrome_trace
from repro.observability.tracer import Tracer
from repro.simulation import executor
from repro.simulation.system import SystemSimulation
from repro.uml.actions import ActionEnvironment, evaluate, execute

DURATION_US = 100_000
STRIDE = 500
INTERRUPT_AT = 2_001


def _walked_block(stmts):
    return lambda environment: execute(stmts, environment)


def _walked_guard(expr):
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
