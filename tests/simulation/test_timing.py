"""Step pricing: each step's EXEC cycles are its work at its process's rates.

A step costs ``(TRANSITION_BASE_STATEMENTS + statements + GUARD_STATEMENTS
* guards) * cycles per statement + sends * signal dispatch cycles``, plus
the context switch cycles when its PE last ran another process.  The
simulator holds the formula's only copy, so these tests read the prices
off the log of small runs.
"""

import pytest

from repro.application import ApplicationModel
from repro.errors import SimulationError
from repro.mapping import MappingModel
from repro.platform import PlatformModel, ProcessingElementSpec, standard_library
from repro.simulation import SystemSimulation, WORKSTATION_SPEC, timer_duration_ps
from repro.simulation.kernel import PS_PER_US
from repro.simulation.timing import GUARD_STATEMENTS, TRANSITION_BASE_STATEMENTS
from repro.uml import Port


def spec(**overrides):
    defaults = dict(
        name="PE",
        frequency_hz=100_000_000,
        cycles_per_statement={"general": 10, "dsp": 20, "hardware": 5},
        context_switch_cycles=50,
        signal_dispatch_cycles=7,
    )
    defaults.update(overrides)
    return ProcessingElementSpec(**defaults)


def start_steps(processes, pe_spec=None):
    """Each process's start step as ``(cycles, duration_ps)``.

    ``processes`` maps a name (their start order) to ``(entry, process
    type, false completion guards)``; all run on one PE built from
    ``pe_spec``.  An entry may send ``out`` to an environment sink.
    """
    app = ApplicationModel("Priced")
    app.signal("out")
    sink = app.component("Sink")
    sink.add_port(Port("inp", provided=["out"]))
    app.behavior(sink).state("s", initial=True)
    app.process(app.top, "sink", sink, environment=True)
    for name, (entry, process_type, guards) in processes.items():
        worker = app.component(f"W{name}")
        worker.add_port(Port("o", required=["out"]))
        machine = app.behavior(worker)
        machine.variable("a", 0)
        machine.state("s", initial=True, entry=entry)
        machine.state("done")
        for _ in range(guards):
            machine.transition("s", "done", guard="a > 1")
        app.process(app.top, name, worker, process_type=process_type)
        app.connect(app.top, (name, "o"), ("sink", "inp"))
        app.group(f"g{name}", process_type=process_type)
        app.assign(name, f"g{name}")
    library = standard_library()
    library.add_processing_element(pe_spec or spec())
    platform = PlatformModel("OnePE", library)
    platform.instantiate("pe", "PE")
    mapping = MappingModel(app, platform)
    for name in processes:
        mapping.map(f"g{name}", "pe")
    result = SystemSimulation(app, platform, mapping).run(100)
    return {
        record.process: (record.cycles, record.duration_ps)
        for record in result.log.exec_records
        if record.trigger == "start"
    }


def cycles(entry, process_type="general", guards=0, pe_spec=None):
    return start_steps({"p": (entry, process_type, guards)}, pe_spec)["p"][0]


STATEMENTS = "a = 1; " * 10


class TestStepCost:
    def test_statement_cost(self):
        assert cycles(STATEMENTS) == (TRANSITION_BASE_STATEMENTS + 10) * 10

    def test_guards_charged(self):
        with_guards = cycles("", guards=3)
        assert with_guards - cycles("") == 3 * GUARD_STATEMENTS * 10

    def test_sends_charged(self):
        # each send is a statement too
        with_sends = cycles("send out() via o; send out() via o;")
        assert with_sends - cycles("a = 1; a = 1;") == 2 * 7

    def test_context_switch_charged(self):
        steps = start_steps({"p": ("", "general", 0), "q": ("", "general", 0)})
        # q starts right after p on the same PE
        assert steps["q"][0] - steps["p"][0] == 50

    def test_process_type_selects_cost(self):
        general = cycles(STATEMENTS, "general")
        assert cycles(STATEMENTS, "dsp") == 2 * general
        assert cycles(STATEMENTS, "hardware") == general // 2

    def test_duration_respects_frequency(self):
        fast = start_steps(
            {"p": (STATEMENTS, "general", 0)}, spec(frequency_hz=200_000_000)
        )["p"]
        slow = start_steps(
            {"p": (STATEMENTS, "general", 0)}, spec(frequency_hz=50_000_000)
        )["p"]
        assert fast[0] == slow[0]
        assert slow[1] == 4 * fast[1]

    def test_a_negative_price_raises_at_the_step(self):
        # the spec does not check switch cycles; the step's conversion does
        with pytest.raises(SimulationError, match="non-negative"):
            start_steps(
                {"p": ("", "general", 0), "q": ("", "general", 0)},
                spec(context_switch_cycles=-1000),
            )


class TestTimerDuration:
    def test_microsecond_units(self):
        assert timer_duration_ps(1) == PS_PER_US
        assert timer_duration_ps(250) == 250 * PS_PER_US


class TestWorkstationSpec:
    def test_attribution_excludes_scheduler_overhead(self):
        # the paper's profiling attributes application work only
        assert WORKSTATION_SPEC.context_switch_cycles == 0

    def test_uniform_statement_cost(self):
        costs = set(WORKSTATION_SPEC.cycles_per_statement.values())
        assert len(costs) == 1
