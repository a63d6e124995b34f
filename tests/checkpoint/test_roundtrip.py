"""Interrupt/resume round trips must replay byte-identically.

The acceptance bar for the checkpoint subsystem: a run interrupted at an
arbitrary event and resumed from its snapshot produces the **same bytes**
— tutlog, Chrome trace, aggregated metrics — as the uninterrupted run.
"""

import copy
import dataclasses

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.checkpoint import (
    Checkpointer,
    CheckpointStore,
    EveryEvents,
    resume_simulation,
    state_hash,
)
from repro.errors import CheckpointError, SimulationError, SimulationInterrupted
from repro.faults.campaign import build_campaign_plan
from repro.observability.export import render_chrome_trace
from repro.observability.metrics import collect_metrics
from repro.observability.tracer import Tracer
from repro.simulation.system import SystemSimulation

from tests.simulation.test_golden_runs import (
    TUTMAC_DURATION_US,
    TUTMAC_STRIDE,
    stress_plan,
)
from tests.simulation.test_rtos_scheduling import POLICIES, RUN_US, policy_simulation

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


def interrupted_mid_grant(tmp_path, traced=True):
    """The uninterrupted plain run, and a snapshot taken while a bus grant
    is in flight (the first such point from event ``INTERRUPT_AT`` on)."""
    reference_sim = build_simulation(faulted=False, traced=traced)
    kernel = reference_sim.kernel
    granted = []

    def probe():
        if (
            not granted
            and kernel.dispatched >= INTERRUPT_AT
            and any(segment.busy for segment in reference_sim.bus.segments.values())
        ):
            granted.append(kernel.dispatched)

    kernel.after_event = probe
    reference = reference_sim.run(DURATION_US)
    (interrupt_at,) = granted

    interrupted = build_simulation(faulted=False, traced=traced)
    checkpointer = Checkpointer(
        CheckpointStore(tmp_path), interrupt_after_events=interrupt_at
    )
    checkpointer.attach(interrupted)
    with pytest.raises(SimulationInterrupted) as excinfo:
        interrupted.run(DURATION_US)
    snapshot = excinfo.value.snapshot
    assert any(
        segment["active"] is not None
        for segment in snapshot.state["bus"]["segments"].values()
    )
    return reference_sim, reference, snapshot


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
        reference_metrics = collect_metrics(reference_sim.tracer, reference.account)
        resumed_metrics = collect_metrics(resumed_sim.tracer, resumed.account)
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
        bare_metrics = collect_metrics(bare_sim.tracer, bare.account)
        observed_metrics = collect_metrics(observed_sim.tracer, observed.account)
        assert observed_metrics.to_dict() == bare_metrics.to_dict()


class TestTracedSnapshotContent:
    def test_snapshot_holds_no_event_a_record_holds(self, tmp_path):
        """A traced snapshot keeps only the live trace events: its log
        records stand for the exec, efsm, signal, drop and fault events,
        which the trace gets from them when the run finishes."""
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
        assert {category for category, _ in categories} >= {"dispatch", "fault"}
        assert not {
            (category, name)
            for category, name in categories
            if category in ("exec", "efsm", "signal", "drop")
            or (category == "fault" and name != "pe-stall")
        }
        # the interrupted run derived nothing either
        assert len(simulation.tracer.events) == len(state["tracer"]["events"])

    def test_snapshot_holds_no_total_the_log_holds(self, tmp_path):
        """Drops and PE busy time are folded from the log's records, so a
        snapshot keeps no counter of them beside the records."""
        _, _, snapshot = interrupted_mid_grant(tmp_path)
        state = snapshot.state
        assert "dropped" not in state
        assert state["runtimes"]
        for runtime in state["runtimes"].values():
            assert "busy_ps" not in runtime

    def test_tracer_state_is_events_only_and_resume_mid_grant_is_exact(
        self, tmp_path
    ):
        """A bus grant's span is appended once, at release: a snapshot
        taken while the grant is in flight holds no open span, only the
        granted transfer's ``granted_ps``, and resuming from it closes
        the span exactly where the uninterrupted run did."""
        reference_sim, reference, snapshot = interrupted_mid_grant(tmp_path)
        assert list(snapshot.state["tracer"]) == ["events"]

        resumed_sim = build_simulation(faulted=False)
        resume_simulation(resumed_sim, snapshot)
        resumed = resumed_sim.run(DURATION_US)
        assert resumed.writer.render() == reference.writer.render()
        assert render_chrome_trace(resumed_sim.tracer) == render_chrome_trace(
            reference_sim.tracer
        )


def snapshot_rows(state):
    """In-flight rows of a snapshot: deliveries, timers, steps, grants."""
    return (
        len(state["deliveries"])
        + len(state["timers"])
        + sum(1 for pe in state["runtimes"].values() if pe["active_step"])
        + sum(1 for seg in state["bus"]["segments"].values() if seg["active"])
    )


class TestSnapshotRowsCoverThePendingEvents:
    """Every live kernel event is one in-flight row of the snapshot: the
    rows are read from the heap, so none is missed or counted twice."""

    def check(self, simulation, duration_us, stride):
        kernel = simulation.kernel
        points = []

        def hook():
            if kernel.dispatched % stride == 0:
                state = simulation.state_dict()
                points.append((snapshot_rows(state), kernel.pending))

        kernel.after_event = hook
        simulation.run(duration_us)
        assert points
        assert [rows for rows, _ in points] == [pending for _, pending in points]
        return len(points)

    def test_stress_traced_tutmac(self):
        simulation = SystemSimulation(
            *build_tutwlan_system(), faults=stress_plan(), tracer=Tracer()
        )
        assert self.check(simulation, TUTMAC_DURATION_US, TUTMAC_STRIDE) == 31

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rtos_policy(self, policy):
        assert self.check(policy_simulation(policy), RUN_US, 1) == 20


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
        tampered_state = copy.deepcopy(snapshot.state)
        runtime = next(iter(tampered_state["runtimes"].values()))
        runtime["seq"] += 1
        tampered = dataclasses.replace(snapshot, state=tampered_state)
        with pytest.raises(CheckpointError, match="does not reproduce"):
            resume_simulation(build_simulation(faulted=False), tampered)

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    def test_snapshot_in_the_previous_format_rejected(self, tmp_path, traced):
        """Snapshots written before in-flight work was read from the kernel
        heap kept open bus spans, a ``trace_handle`` per transfer and
        derived timer lists per in-flight step; snapshots written before
        the run account kept live ``dropped`` and per-PE ``busy_ps``
        counters; snapshots written before EXEC records named a step's
        transitions lack them in records and in-flight outcomes.  Resuming
        any of them fails with a CheckpointError, not a KeyError or a
        TypeError."""
        _, _, snapshot = interrupted_mid_grant(tmp_path, traced=traced)

        counted = copy.deepcopy(snapshot.state)
        records = counted["writer"]["records"]
        counted["dropped"] = sum(1 for r in records if r["record"] == "DROP")
        for name, runtime in counted["runtimes"].items():
            runtime["busy_ps"] = sum(
                r["duration_ps"]
                for r in records
                if r["record"] == "EXEC" and r["pe"] == name
            )
        old = dataclasses.replace(
            snapshot, state=counted, digest=state_hash(counted)
        )
        with pytest.raises(CheckpointError, match="does not reproduce"):
            resume_simulation(build_simulation(faulted=False, traced=traced), old)

        state = copy.deepcopy(snapshot.state)
        if traced:
            state["tracer"]["open"] = []
        for segment in state["bus"]["segments"].values():
            transfers = list(segment["queue"])
            if segment["active"] is not None:
                transfers.append(segment["active"]["transfer"])
            for transfer in transfers:
                del transfer["granted_ps"]
                transfer["trace_handle"] = None
        for runtime in state["runtimes"].values():
            if runtime["active_step"] is not None:
                ops = runtime["active_step"]["outcome"]["timer_ops"]
                runtime["active_step"]["outcome"].update(
                    timers_set=[[n, d] for op, n, d in ops if op == "set"],
                    timers_reset=[n for op, n, _ in ops if op == "reset"],
                )
        old = dataclasses.replace(snapshot, state=state, digest=state_hash(state))
        with pytest.raises(CheckpointError, match="granted_ps"):
            resume_simulation(build_simulation(faulted=False, traced=traced), old)

        # before EXEC records named a step's transitions: in-flight
        # outcomes had fired/trigger/reached_final and no transitions, and
        # EXEC records no statements or transitions
        previous = copy.deepcopy(snapshot.state)
        steps = [
            runtime["active_step"]
            for runtime in previous["runtimes"].values()
            if runtime["active_step"] is not None
        ]
        assert steps
        for step in steps:
            outcome = step["outcome"]
            del outcome["transitions"]
            outcome.update(fired=True, trigger="x", reached_final=False)
        old = dataclasses.replace(
            snapshot, state=previous, digest=state_hash(previous)
        )
        with pytest.raises(CheckpointError, match="transitions"):
            resume_simulation(build_simulation(faulted=False, traced=traced), old)

        # the writer's records alone, as a snapshot taken while no PE is
        # busy holds them
        previous = copy.deepcopy(snapshot.state)
        for record in previous["writer"]["records"]:
            if record["record"] == "EXEC":
                del record["statements"], record["transitions"]
        old = dataclasses.replace(
            snapshot, state=previous, digest=state_hash(previous)
        )
        with pytest.raises(CheckpointError, match="statements"):
            resume_simulation(build_simulation(faulted=False, traced=traced), old)

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
