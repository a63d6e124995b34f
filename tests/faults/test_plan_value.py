"""A fault plan is a value: reusable, validated when built, carried whole
by exploration specs.

Each run injects through its own :class:`~repro.faults.FaultInjector`, so
a plan shared by several runs gives each the same log and a ledger of its
own.  The pins at the bottom fix the fault sweep's spec digests and result
hashes and the canned campaign's log: how a plan is built, encoded or
injected must not move them.
"""

import hashlib
import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import PAPER_MAPPING, build_tutwlan_system
from repro.errors import SimulationError
from repro.exploration import CandidateSpec
from repro.exploration.engine import evaluate_spec
from repro.faults import (
    PE_CRASH,
    PE_STALL,
    FaultPlan,
    PEWindow,
    build_campaign_plan,
    fault_sweep_specs,
    run_fault_campaign,
)
from repro.flow import run_design_flow
from repro.simulation import PS_PER_MS
from repro.simulation.system import SystemSimulation

TUTMAC = "repro.cases.tutwlan:exploration_factory"


def _arq_system():
    return build_tutwlan_system(params=TutmacParameters(arq_enabled=True))


class TestPlanValue:
    def test_equal_plans_compare_and_hash_equal(self):
        a = FaultPlan(
            seed=2,
            bus_drop_rate=0.1,
            droppable_signals=["pdu_tx", "pdu_ack"],
            protected_signals=("pdu_tx",),
            pe_windows=[PEWindow("processor1", 0, 10)],
        )
        b = FaultPlan(
            seed=2,
            bus_drop_rate=0.1,
            droppable_signals={"pdu_ack", "pdu_tx"},
            protected_signals={"pdu_tx"},
            pe_windows=(PEWindow("processor1", 0, 10),),
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a.droppable_signals == frozenset({"pdu_tx", "pdu_ack"})
        assert a.corruptible_signals is None
        assert a.pe_windows == (PEWindow("processor1", 0, 10),)
        assert a.to_json_dict() == b.to_json_dict()

    def test_a_plan_is_frozen_and_picklable(self):
        plan = build_campaign_plan(seed=3, fault_rate=0.2)
        with pytest.raises(FrozenInstanceError):
            plan.seed = 4
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_windows_are_encoded_only_when_present(self):
        plan = build_campaign_plan(seed=1)
        assert "pe_windows" not in plan.to_json_dict()
        window = PEWindow("processor1", 0, PS_PER_MS, PE_CRASH)
        windowed = FaultPlan(seed=1, pe_windows=[window])
        assert windowed.to_json_dict()["pe_windows"] == [
            {
                "pe": "processor1",
                "start_ps": 0,
                "end_ps": PS_PER_MS,
                "kind": PE_CRASH,
                "stall_factor": 4,
            }
        ]


class TestReusedPlan:
    """One plan, two runs: the same log and a ledger per run."""

    def test_two_simulations_share_a_plan(self):
        plan = build_campaign_plan(seed=3, fault_rate=0.2)
        first, second = (
            SystemSimulation(*_arq_system(), faults=plan).run(20_000)
            for _ in range(2)
        )
        assert first.writer.render() == second.writer.render()
        assert first.fault_stats is not second.fault_stats
        assert first.fault_stats == second.fault_stats
        # each run's META ledger counts that run's FAULT records only
        for result in (first, second):
            injected = int(result.log.meta["fault_injected"])
            assert injected == len(result.log.fault_records) > 0
            assert injected == result.fault_stats.injected

    def test_two_flows_share_a_plan(self, tmp_path):
        plan = build_campaign_plan(seed=3, fault_rate=0.2)
        results = [
            run_design_flow(
                *_arq_system(),
                str(tmp_path / run),
                duration_us=20_000,
                generate_c=False,
                faults=plan,
            )
            for run in ("a", "b")
        ]
        logs = [Path(result.log_path).read_bytes() for result in results]
        assert logs[0] == logs[1]
        assert results[0].report_text == results[1].report_text
        assert results[0].profiling.fault_stats == results[1].simulation.fault_stats


class TestSpecsCarryPlans:
    def test_an_invalid_rate_raises_when_the_spec_is_built(self):
        with pytest.raises(SimulationError, match="bus_corrupt_rate"):
            fault_sweep_specs((1,), fault_rate=2.0)

    def test_a_pe_window_changes_the_digest_and_reaches_the_run(self):
        def spec(kind):
            window = PEWindow("processor1", 0, 2 * PS_PER_MS, kind)
            return CandidateSpec.make(
                TUTMAC,
                dict(PAPER_MAPPING),
                duration_us=5_000,
                faults=FaultPlan(seed=1, pe_windows=[window]),
            )

        stall, crash = spec(PE_STALL), spec(PE_CRASH)
        assert stall.digest() != crash.digest()
        stalled, crashed = evaluate_spec(stall), evaluate_spec(crash)
        # a plan with no rates injects only through its windows
        assert stalled.fault_injected > 0
        assert crashed.fault_injected > 0
        assert stalled.stable_hash() != crashed.stable_hash()


#: label -> (spec digest, 5 ms result hash) of
#: ``fault_sweep_specs((1, 2, 3, 4), duration_us=5_000)``
SWEEP_PINS = {
    "seed=1": (
        "31da543bfce321078d2be5bcdb35ecc78768a8c493185c4bf2bf24970ab9058f",
        "3d90f9643ccb0da4366a215e9c0bfb7824a5cfd881368e3fcfbe70b60bac5867",
    ),
    "seed=2": (
        "bdc62f0977b4493b55396cc510a7422fd87eaa1fca78abbe1a3663de5fbf0671",
        "e2f5baa8fa42f6424937a4bd854775d03651199252b0ab39400911e59cfa8441",
    ),
    "seed=3": (
        "7a36f5d6c6c4fe7d6f76a9728a75c9e69b1d59a51dc10108366f9e1f99c54bf7",
        "97758c4521760f34fb4fb642fa02be07443efde59c0acd6a354d8d2909ac4d79",
    ),
    "seed=4": (
        "6efca816e58f8a79549f32187ddb5229de27f7705e876bae31621682b103727a",
        "97758c4521760f34fb4fb642fa02be07443efde59c0acd6a354d8d2909ac4d79",
    ),
}

#: SHA-256 of the ``run_fault_campaign(seed=1, duration_us=50_000)`` tutlog
CAMPAIGN_TUTLOG = "21c28b9dc14c660515d0a8fae71c6ae8d28ccfa1aa5b218e4a4751b89f132dd6"


class TestPins:
    def test_fault_sweep_digests_and_result_hashes(self):
        specs = fault_sweep_specs((1, 2, 3, 4), duration_us=5_000)
        pinned = {
            spec.label: (spec.digest(), evaluate_spec(spec).stable_hash())
            for spec in specs
        }
        assert pinned == SWEEP_PINS

    def test_campaign_tutlog(self):
        campaign = run_fault_campaign(seed=1, duration_us=50_000)
        text = campaign.simulation.writer.render()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CAMPAIGN_TUTLOG
