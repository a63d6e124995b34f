"""A PE crash window over the start of its processes.

Activations arriving inside a crash window are lost, starts included: a
process whose start is lost never runs, and each later activation of it
is dropped with reason ``not-started`` without executing anything.
"""

from collections import Counter

import pytest

from repro.cases.tutwlan import build_tutwlan_system
from repro.checkpoint import (
    Checkpointer,
    CheckpointStore,
    EveryEvents,
    resume_simulation,
)
from repro.errors import SimulationInterrupted
from repro.faults import PE_CRASH, FaultPlan, PEWindow
from repro.simulation import PS_PER_MS
from repro.simulation.system import SystemSimulation

DURATION_US = 20_000
#: processor1 runs defrag, mng, rca and rmng
CRASHED = ("defrag", "mng", "rca", "rmng")


def _simulation() -> SystemSimulation:
    application, platform, mapping = build_tutwlan_system()
    plan = FaultPlan(
        seed=1, pe_windows=[PEWindow("processor1", 0, 5 * PS_PER_MS, PE_CRASH)]
    )
    return SystemSimulation(application, platform, mapping, faults=plan)


def test_a_lost_start_leaves_the_process_dropping_its_activations():
    result = _simulation().run(DURATION_US)
    assert result.end_time_ps == DURATION_US * 1_000_000
    drops = result.log.drop_records
    lost_starts = sorted(drop.process for drop in drops if drop.signal == "start")
    assert lost_starts == list(CRASHED)
    assert {drop.reason for drop in drops if drop.signal == "start"} == {"pe-crash"}
    not_started = Counter(
        drop.process for drop in drops if drop.reason == "not-started"
    )
    assert not_started == {"rca": 75}
    # nothing ever ran for a process whose start was lost
    executed = {record.process for record in result.log.exec_records}
    assert executed.isdisjoint(CRASHED)


@pytest.mark.parametrize("interrupt_at", [40, 200], ids=["in-window", "after"])
def test_a_resumed_run_equals_the_uninterrupted_one(tmp_path, interrupt_at):
    whole = _simulation().run(DURATION_US).writer.render()
    interrupted = _simulation()
    checkpointer = Checkpointer(
        CheckpointStore(tmp_path),
        EveryEvents(50),
        tag="t",
        interrupt_after_events=interrupt_at,
    )
    checkpointer.attach(interrupted)
    with pytest.raises(SimulationInterrupted) as excinfo:
        interrupted.run(DURATION_US)
    checkpointer.detach()
    snapshot = excinfo.value.snapshot
    # 77 events of this run fall inside the 5 ms window
    assert (snapshot.now_ps < 5 * PS_PER_MS) == (interrupt_at < 77)
    resumed = _simulation()
    resume_simulation(resumed, snapshot)
    assert resumed.run(DURATION_US).writer.render() == whole
