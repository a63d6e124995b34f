"""The run account equals independent sums over the raw log records.

Every per-run total (PE busy time and steps, process cycles, drops,
faults, signal counts and latency) is one fold of the log's records,
:class:`~repro.simulation.logfile.RunAccount`.  These tests recompute
each total with plain loops over the records and compare, on runs that
reach every record kind, on the generated corpus and across a
checkpoint resume.
"""

from operator import itemgetter

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.checkpoint import Checkpointer, CheckpointStore, resume_simulation
from repro.errors import SimulationInterrupted
from repro.faults.campaign import build_campaign_plan
from repro.genmodel import config_for_seed, generate_model
from repro.genmodel.pipeline import DEFAULT_DURATION_US
from repro.observability.tracer import GROUP_PE, SpanEvent, Tracer
from repro.simulation import SystemSimulation, parse_log
from repro.simulation.logfile import (
    ENVIRONMENT_PE,
    DropRecord,
    ExecRecord,
    FaultRecord,
    RunAccount,
    SignalRecord,
)

from tests.simulation.test_golden_runs import TUTMAC_DURATION_US, stress_plan


def of(records, kind):
    return [record for record in records if isinstance(record, kind)]


def tally(items):
    """name -> number of occurrences, built without the account's code."""
    counts = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


def latency_summary(signals, field):
    """field value -> (count, total latency, max latency, bytes)."""
    summary = {}
    for value in {getattr(record, field) for record in signals}:
        chosen = [r for r in signals if getattr(r, field) == value]
        summary[value] = (
            len(chosen),
            sum(r.latency_ps for r in chosen),
            max(r.latency_ps for r in chosen),
            sum(r.bytes for r in chosen),
        )
    return summary


def account_latency(account, index):
    merged = account.latency_by(itemgetter(index))
    flow_bytes = {}
    for key, size in account.flow_bytes.items():
        flow_bytes[key[index]] = flow_bytes.get(key[index], 0) + size
    return {
        name: (h.count, h.total_ps, h.max_ps, flow_bytes[name])
        for name, h in merged.items()
    }


def assert_account_matches_records(result):
    account = result.account
    records = result.writer.records
    execs = of(records, ExecRecord)
    on_pe = [r for r in execs if r.pe != ENVIRONMENT_PE]
    signals = of(records, SignalRecord)

    pes = set(result.pes)
    assert set(account.pe_busy_ps) == set(account.pe_steps) == pes
    for pe in pes:
        assert account.pe_busy_ps[pe] == sum(
            r.duration_ps for r in on_pe if r.pe == pe
        )
        assert account.pe_steps[pe] == sum(1 for r in on_pe if r.pe == pe)
    processes = {r.process for r in execs}
    assert account.process_cycles == {
        p: sum(r.cycles for r in execs if r.process == p) for p in processes
    }
    assert account.process_steps == tally(r.process for r in execs)
    assert account.drops_by_reason == tally(r.reason for r in of(records, DropRecord))
    assert account.faults_by_kind == tally(r.kind for r in of(records, FaultRecord))
    assert account.dropped == len(of(records, DropRecord))
    assert sum(h.count for h in account.flow_latency.values()) == len(signals)
    assert account_latency(account, 3) == latency_summary(signals, "transport")
    assert account_latency(account, 2) == latency_summary(signals, "signal")
    assert account.end_time_ps == result.end_time_ps
    # folded once, and read by the result's own totals
    assert result.account is result.log.account
    assert result.pe_busy_ps == account.pe_busy_ps
    assert result.dropped_signals == account.dropped
    return account


def test_stress_traced_tutmac():
    """Every fault kind; the trace's exec spans agree with the account."""
    tracer = Tracer()
    simulation = SystemSimulation(
        *build_tutwlan_system(), faults=stress_plan(), tracer=tracer
    )
    result = simulation.run(TUTMAC_DURATION_US)
    account = assert_account_matches_records(result)
    assert set(account.faults_by_kind) == {
        "bus-corrupt", "bus-drop", "signal-drop", "signal-dup", "pe-stall",
        "pe-crash",
    }
    assert account.drops_by_reason["pe-crash"] > 0
    spans = [
        event
        for event in tracer.events
        if isinstance(event, SpanEvent) and event.track[0] == GROUP_PE
    ]
    for pe, busy in account.pe_busy_ps.items():
        assert busy == sum(s.duration_ps for s in spans if s.track[1] == pe)
    # processor3 runs nothing on TUTWLAN and still has its row
    assert account.pe_steps["processor3"] == 0


def test_arq_fault_campaign():
    application, platform, mapping = build_tutwlan_system(
        params=TutmacParameters(arq_enabled=True)
    )
    simulation = SystemSimulation(
        application,
        platform,
        mapping,
        faults=build_campaign_plan(seed=7, fault_rate=0.05),
    )
    account = assert_account_matches_records(simulation.run(TUTMAC_DURATION_US))
    assert account.faults_by_kind


def test_generated_corpus():
    for seed in range(120):
        generated = generate_model(config_for_seed(seed))
        result = SystemSimulation(
            generated.application, generated.platform, generated.mapping
        ).run(DEFAULT_DURATION_US)
        assert_account_matches_records(result)


def test_a_parsed_log_lists_only_the_pes_its_records_name():
    result = SystemSimulation(*build_tutwlan_system()).run(20_000)
    parsed = parse_log(result.writer.render()).account
    assert parsed == RunAccount.fold(result.writer.records, result.end_time_ps)
    assert "processor3" not in parsed.pe_busy_ps
    assert result.account.pe_busy_ps == {**parsed.pe_busy_ps, "processor3": 0}
    assert result.account.flow_latency == parsed.flow_latency
    assert result.account.flow_bytes == parsed.flow_bytes


def test_resumed_run_has_the_uninterrupted_account(tmp_path):
    def build():
        return SystemSimulation(
            *build_tutwlan_system(), faults=stress_plan(), tracer=Tracer()
        )

    reference = build().run(TUTMAC_DURATION_US)
    interrupted = build()
    checkpointer = Checkpointer(
        CheckpointStore(tmp_path), interrupt_after_events=2_500
    )
    checkpointer.attach(interrupted)
    with pytest.raises(SimulationInterrupted) as excinfo:
        interrupted.run(TUTMAC_DURATION_US)
    snapshot = excinfo.value.snapshot
    assert any(r["record"] == "DROP" for r in snapshot.state["writer"]["records"])

    resumed_sim = build()
    resume_simulation(resumed_sim, snapshot)
    resumed = resumed_sim.run(TUTMAC_DURATION_US)
    assert resumed.account == reference.account
    assert_account_matches_records(resumed)
