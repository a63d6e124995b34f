"""EXEC records name the transitions each step ran, as the plan names them.

Replaying a record's transition ids through the machine's plan, from its
``from`` state (from the start step's leaf for a process's first record),
must land on its ``to`` state.  :class:`ReplayingExecutor` applies the
same check to every step a test drives through an executor directly.
"""

import pytest

from repro.cases.tutmac import TutmacParameters
from repro.cases.tutwlan import build_tutwlan_system
from repro.faults.campaign import build_campaign_plan
from repro.genmodel import config_for_seed, generate_model
from repro.genmodel.pipeline import DEFAULT_DURATION_US
from repro.simulation import ProcessExecutor
from repro.simulation.system import SystemSimulation
from repro.tutprofile import TUT_PROFILE
from repro.uml.plan import plan_machine, transition_ids
from repro.uml.statemachine import StateMachine
from repro.uml.visitor import iter_tree
from repro.uml.xmi import model_to_xml, xml_to_model

from tests.simulation.test_golden_runs import TUTMAC_DURATION_US, stress_plan


def replay(plan, machine, from_state, transitions, start):
    """The state a step lands in when it takes ``transitions`` (ids joined
    by commas, ``-`` for none) from ``from_state``; a start step takes them
    from the start step's leaf."""
    if start:
        assert from_state == machine.initial_state.name
        leaf = plan.start.leaf
    else:
        leaf = machine.find_state(from_state)
    for id in [] if transitions == "-" else transitions.split(","):
        (step,) = [step for step in plan.steps[leaf] if step.id == id]
        leaf = step.leaf
    return leaf.name


class ReplayingExecutor(ProcessExecutor):
    """A process executor that replays every outcome it returns."""

    def _replayed(self, outcome, start=False):
        if outcome is not None:
            plan = plan_machine(self.machine)
            landed = replay(
                plan, self.machine, outcome.from_state, outcome.transitions, start
            )
            assert landed == outcome.to_state, outcome.transitions
        return outcome

    def start(self):
        return self._replayed(super().start(), start=True)

    def consume_signal(self, signal_name, args):
        outcome, reason = super().consume_signal(signal_name, args)
        return self._replayed(outcome), reason

    def fire_timer(self, timer_name):
        outcome, reason = super().fire_timer(timer_name)
        return self._replayed(outcome), reason


def replay_log(simulation, duration_us):
    """Run ``simulation`` and replay each of its EXEC records; returns how
    many there were."""
    log = simulation.run(duration_us).log
    plans = {}
    started = set()
    for record in log.exec_records:
        machine = simulation.executors[record.process].machine
        if machine not in plans:
            plans[machine] = plan_machine(machine)
        start = record.process not in started
        started.add(record.process)
        assert not start or record.trigger == "start", record
        landed = replay(
            plans[machine], machine, record.from_state, record.transitions, start
        )
        assert landed == record.to_state, record
    return len(log.exec_records)


@pytest.mark.parametrize("variant", ["plain", "arq", "stress"])
def test_every_tutwlan_record_replays(variant):
    """TUTWLAN plain, ARQ under the seed-7 campaign plan, and plain under
    the golden runs' stress plan, which reaches every fault kind."""
    if variant == "arq":
        system = build_tutwlan_system(params=TutmacParameters(arq_enabled=True))
        plan = build_campaign_plan(seed=7, fault_rate=0.05)
    else:
        system = build_tutwlan_system()
        plan = stress_plan() if variant == "stress" else None
    simulation = SystemSimulation(*system, faults=plan)
    assert replay_log(simulation, TUTMAC_DURATION_US) > 1_000


def test_every_corpus_record_replays():
    total = 0
    for seed in range(120):
        generated = generate_model(config_for_seed(seed))
        simulation = SystemSimulation(
            generated.application, generated.platform, generated.mapping
        )
        total += replay_log(simulation, DEFAULT_DURATION_US)
    assert total > 10_000


def test_a_chased_completion_is_named_after_the_step_that_raised_it():
    machine = StateMachine("m")
    machine.state("a", initial=True)
    machine.state("b")
    machine.state("c")
    machine.on_signal("a", "b", "go")
    machine.transition("b", "c")
    executor = ReplayingExecutor("p", machine)
    assert executor.start().transitions == "-"
    outcome, _ = executor.consume_signal("go", ())
    assert (outcome.from_state, outcome.to_state, outcome.transitions) == (
        "a",
        "c",
        "0,1",
    )


def _ids_by_machine(model):
    return {
        (machine.context.name, machine.name): {
            id: transition.describe()
            for transition, id in transition_ids(machine).items()
        }
        for machine in iter_tree(model)
        if isinstance(machine, StateMachine)
    }


def test_transition_ids_survive_a_rebuild_and_an_xmi_round_trip():
    model = build_tutwlan_system()[0].model
    ids = _ids_by_machine(model)
    assert len(ids) == 11
    assert _ids_by_machine(build_tutwlan_system()[0].model) == ids
    recovered = xml_to_model(model_to_xml(model), profiles=[TUT_PROFILE])
    assert _ids_by_machine(recovered) == ids
