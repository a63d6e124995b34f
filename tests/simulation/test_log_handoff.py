"""A run's in-memory log is the log its file holds.

``SimulationResult.log`` is built from the writer's own records instead of
rendering the tutlog and parsing it back.  These tests prove the two equal
(records, meta and end time) on the runs that matter, and that profiling
either one yields the same report, byte for byte.
"""

import pytest

from repro import genmodel
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
from repro.flow import run_design_flow
from repro.genmodel.pipeline import DEFAULT_DURATION_US
from repro.mapping import MappingModel
from repro.profiling import analyze, render_report
from repro.profiling.groupinfo import group_info_from_model
from repro.simulation import SystemSimulation, parse_log, read_log

from tests.conftest import build_pingpong, build_two_cpu_platform

DURATION_US = 50_000


def assert_same_log(log, other):
    assert log.meta == other.meta
    assert log.records == other.records
    assert log.end_time_ps == other.end_time_ps


def assert_matches_file(result):
    assert_same_log(result.log, parse_log(result.writer.render()))


def report(log, application):
    return render_report(analyze(log, group_info_from_model(application.model)))


def tutmac(arq=False, faulted=False):
    params = TutmacParameters(arq_enabled=True) if arq else None
    application, platform, mapping = build_tutwlan_system(params=params)
    plan = build_campaign_plan(seed=7, fault_rate=0.05) if faulted else None
    return application, SystemSimulation(application, platform, mapping, faults=plan)


@pytest.mark.parametrize(
    "arq, faulted", [(False, False), (True, True)], ids=["plain", "arq-faulted"]
)
def test_tutmac_log_equals_its_file(arq, faulted):
    application, simulation = tutmac(arq, faulted)
    result = simulation.run(DURATION_US)
    assert_matches_file(result)
    if faulted:
        assert result.log.fault_records
        assert "fault_kinds" in result.log.meta
    parsed = parse_log(result.writer.render())
    assert report(result.log, application) == report(parsed, application)


def test_resumed_log_equals_its_file_and_the_uninterrupted_log(tmp_path):
    _, uninterrupted = tutmac(arq=True, faulted=True)
    expected = uninterrupted.run(DURATION_US).log

    def checkpointed(simulation, interrupt=None):
        checkpointer = Checkpointer(
            CheckpointStore(tmp_path),
            EveryEvents(500),
            tag="handoff",
            interrupt_after_events=interrupt,
        )
        checkpointer.attach(simulation)
        try:
            return simulation.run(DURATION_US)
        finally:
            checkpointer.detach()

    _, interrupted = tutmac(arq=True, faulted=True)
    with pytest.raises(SimulationInterrupted) as excinfo:
        checkpointed(interrupted, interrupt=1_200)
    _, resumed_simulation = tutmac(arq=True, faulted=True)
    resume_simulation(resumed_simulation, excinfo.value.snapshot)
    resumed = checkpointed(resumed_simulation)
    assert_matches_file(resumed)
    assert_same_log(resumed.log, expected)


def test_every_corpus_model_log_equals_its_file():
    for seed in range(120):
        generated = genmodel.generate_model(genmodel.config_for_seed(seed))
        simulation = SystemSimulation(
            generated.application, generated.platform, generated.mapping
        )
        result = simulation.run(DEFAULT_DURATION_US)
        assert result.log.records, seed
        assert_matches_file(result)


def test_design_flow_profiles_what_it_wrote(tmp_path):
    application, platform, mapping = build_tutwlan_system()
    flow = run_design_flow(
        application, platform, mapping, str(tmp_path), duration_us=20_000,
        generate_c=False,
    )
    written = read_log(flow.log_path)
    assert_same_log(written, flow.simulation.log)
    title = f"Profiling report: {application.top.name}"
    from_file = render_report(
        analyze(written, group_info_from_model(application.model)), title=title
    )
    assert from_file == flow.report_text


def test_meta_is_spelled_the_way_the_file_reads_it_back(tmp_path):
    application = build_pingpong()
    platform = build_two_cpu_platform()
    mapping = MappingModel(application, platform)
    mapping.map("g1", "cpu1")
    mapping.map("g2", "cpu2")
    application.top.name = "Ping Pong"
    platform.top.name = "two cpus=1 bus "
    result = SystemSimulation(application, platform, mapping).run(5_000)
    result.writer.meta["note"] = "first line\nsecond line\r\n"
    path = tmp_path / "run.tutlog"
    result.writer.write(path)
    assert result.log.meta == {
        "application": "Ping Pong",
        "note": "first line second line",
        "platform": "two cpus=1 bus",
    }
    assert_same_log(read_log(path), result.log)
