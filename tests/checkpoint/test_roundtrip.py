"""Interrupt/resume round trips must replay byte-identically.

The acceptance bar for the checkpoint subsystem: a run interrupted at an
arbitrary event and resumed from its snapshot produces the **same bytes**
— tutlog, Chrome trace, aggregated metrics — as the uninterrupted run.
"""

import dataclasses

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.checkpoint import (
    Checkpointer,
    CheckpointStore,
    EveryEvents,
    resume_simulation,
)
from repro.errors import CheckpointError, SimulationError, SimulationInterrupted
from repro.faults.campaign import build_campaign_plan
from repro.observability.export import render_chrome_trace
from repro.observability.metrics import collect_metrics
from repro.observability.tracer import Tracer
from repro.simulation.system import SystemSimulation

from tests.simulation.test_golden_runs import stress_plan

DURATION_US = 20_000
STRIDE = 100
INTERRUPT_AT = 401


def build_simulation(faulted: bool, traced: bool = True):
    """A fresh TUTWLAN simulation (optionally ARQ + fault plan + tracer)."""
    if faulted:
        application, platform, mapping = build_tutwlan_system(
            params=TutmacParameters(arq_enabled=True)
        )
        plan = build_campaign_plan(seed=7, fault_rate=0.05)
    else:
        application, platform, mapping = build_tutwlan_system()
        plan = None
    tracer = Tracer() if traced else None
    return SystemSimulation(
        application, platform, mapping, faults=plan, tracer=tracer
    )


def run_to_completion(simulation, store_root, interrupt=None):
    checkpointer = Checkpointer(
        CheckpointStore(store_root),
        EveryEvents(STRIDE),
        tag="t",
        interrupt_after_events=interrupt,
    )
    checkpointer.attach(simulation)
    try:
        return simulation.run(DURATION_US), checkpointer
    finally:
        checkpointer.detach()


@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
class TestByteIdenticalResume:
    def test_interrupted_resume_reproduces_reference(self, tmp_path, faulted):
        reference_sim = build_simulation(faulted)
        reference, _ = run_to_completion(reference_sim, tmp_path / "ref")

        interrupted_sim = build_simulation(faulted)
        with pytest.raises(SimulationInterrupted) as excinfo:
            run_to_completion(
                interrupted_sim, tmp_path / "int", interrupt=INTERRUPT_AT
            )
        snapshot = excinfo.value.snapshot
        assert snapshot.dispatched == INTERRUPT_AT

        resumed_sim = build_simulation(faulted)
        resume_simulation(resumed_sim, snapshot)
        resumed, _ = run_to_completion(resumed_sim, tmp_path / "int")

        assert resumed.writer.render() == reference.writer.render()
        assert resumed.dispatched_events == reference.dispatched_events
        assert resumed.end_time_ps == reference.end_time_ps
        assert render_chrome_trace(resumed_sim.tracer) == render_chrome_trace(
            reference_sim.tracer
        )
        reference_metrics = collect_metrics(
            reference_sim.tracer, reference.end_time_ps
        )
        resumed_metrics = collect_metrics(resumed_sim.tracer, resumed.end_time_ps)
        assert resumed_metrics.to_dict() == reference_metrics.to_dict()

    def test_resume_without_tracer(self, tmp_path, faulted):
        reference_sim = build_simulation(faulted, traced=False)
        reference, _ = run_to_completion(reference_sim, tmp_path / "ref")

        interrupted_sim = build_simulation(faulted, traced=False)
        with pytest.raises(SimulationInterrupted) as excinfo:
            run_to_completion(
                interrupted_sim, tmp_path / "int", interrupt=INTERRUPT_AT
            )

        resumed_sim = build_simulation(faulted, traced=False)
        resume_simulation(resumed_sim, excinfo.value.snapshot)
        resumed, _ = run_to_completion(resumed_sim, tmp_path / "int")
        assert resumed.writer.render() == reference.writer.render()
        assert resumed.dispatched_events == reference.dispatched_events

    def test_checkpointing_leaves_artefacts_unchanged(self, tmp_path, faulted):
        """Snapshotting must not perturb the simulation: the tutlog and
        aggregated metrics match a run with no checkpointer at all (the
        trace alone gains the ``checkpoint`` instants)."""
        bare_sim = build_simulation(faulted)
        bare = bare_sim.run(DURATION_US)

        observed_sim = build_simulation(faulted)
        observed, checkpointer = run_to_completion(observed_sim, tmp_path / "ck")
        assert checkpointer.taken > 0

        assert observed.writer.render() == bare.writer.render()
        assert observed.dispatched_events == bare.dispatched_events
        bare_metrics = collect_metrics(bare_sim.tracer, bare.end_time_ps)
        observed_metrics = collect_metrics(
            observed_sim.tracer, observed.end_time_ps
        )
        assert observed_metrics.to_dict() == bare_metrics.to_dict()


class TestTracedSnapshotContent:
    def test_snapshot_holds_no_event_a_record_holds(self, tmp_path):
        """A traced snapshot keeps only the live trace events: its log
        records stand for the exec, signal, drop and fault events, which
        the trace gets from them when the run finishes."""
        simulation = SystemSimulation(
            *build_tutwlan_system(), faults=stress_plan(), tracer=Tracer()
        )
        checkpointer = Checkpointer(
            CheckpointStore(tmp_path), interrupt_after_events=2_500
        )
        checkpointer.attach(simulation)
        with pytest.raises(SimulationInterrupted) as excinfo:
            simulation.run(100_000)
        state = excinfo.value.snapshot.state

        records = {record["record"] for record in state["writer"]["records"]}
        assert records == {"EXEC", "SIG", "DROP", "FAULT"}
        fault_kinds = {
            record["kind"]
            for record in state["writer"]["records"]
            if record["record"] == "FAULT"
        }
        assert {"pe-stall", "pe-crash", "bus-drop", "signal-dup"} <= fault_kinds

        categories = {
            (event.get("category"), event["name"])
            for event in state["tracer"]["events"]
        }
        assert {category for category, _ in categories} >= {"efsm", "dispatch"}
        assert not {
            (category, name)
            for category, name in categories
            if category in ("exec", "signal", "drop")
            or (category == "fault" and name != "pe-stall")
        }
        # the interrupted run derived nothing either
        assert len(simulation.tracer.events) == len(state["tracer"]["events"])


class TestRestoreValidation:
    def test_snapshot_restored_onto_wrong_build_rejected(self, tmp_path):
        faulted_sim = build_simulation(faulted=True)
        with pytest.raises(SimulationInterrupted) as excinfo:
            run_to_completion(faulted_sim, tmp_path / "ck", interrupt=INTERRUPT_AT)
        plain_sim = build_simulation(faulted=False)
        with pytest.raises((SimulationError, CheckpointError)):
            resume_simulation(plain_sim, excinfo.value.snapshot)

    def test_restore_infidelity_detected_by_hash(self, tmp_path):
        simulation = build_simulation(faulted=False)
        with pytest.raises(SimulationInterrupted) as excinfo:
            run_to_completion(simulation, tmp_path / "ck", interrupt=INTERRUPT_AT)
        snapshot = excinfo.value.snapshot
        tampered_state = dict(snapshot.state, dropped=snapshot.state["dropped"] + 1)
        tampered = dataclasses.replace(snapshot, state=tampered_state)
        with pytest.raises(CheckpointError, match="does not reproduce"):
            resume_simulation(build_simulation(faulted=False), tampered)

    def test_restore_needs_fresh_simulation(self, tmp_path):
        simulation = build_simulation(faulted=False)
        with pytest.raises(SimulationInterrupted) as excinfo:
            run_to_completion(simulation, tmp_path / "ck", interrupt=INTERRUPT_AT)
        used = build_simulation(faulted=False)
        used.run(1_000)
        with pytest.raises(SimulationError):
            resume_simulation(used, excinfo.value.snapshot)

    def test_attach_refuses_occupied_hook(self, tmp_path):
        simulation = build_simulation(faulted=False)
        first = Checkpointer(CheckpointStore(tmp_path), EveryEvents(STRIDE))
        first.attach(simulation)
        second = Checkpointer(CheckpointStore(tmp_path), EveryEvents(STRIDE))
        with pytest.raises(CheckpointError, match="after_event"):
            second.attach(simulation)
