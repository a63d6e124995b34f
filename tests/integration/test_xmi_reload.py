"""Serialise → parse → rebuild the three views → simulate identically.

The strongest round-trip property the tool flow can have: a design saved
to XMI and reloaded behaves *bit-identically* in simulation — so model
interchange between tools (the paper's TAU G2 ↔ profiling tool split)
loses nothing.
"""

import re

import pytest

from repro.application import ApplicationModel
from repro.errors import MappingError
from repro.mapping import MappingModel
from repro.platform import PlatformModel, standard_library
from repro.simulation import SystemSimulation, run_reference_simulation
from repro.tutprofile import fresh_profile
from repro.uml import model_to_xml, xml_to_model


def reload_system(edit=None):
    """TUTWLAN through XMI; ``edit(application, platform, mapping)`` first."""
    from repro.cases.tutwlan import build_tutwlan_system

    application, platform, mapping = build_tutwlan_system()
    if edit is not None:
        edit(application, platform, mapping)
    xml = model_to_xml(application.model)
    profile = fresh_profile()
    parsed = xml_to_model(xml, profiles=[profile])
    reloaded_app = ApplicationModel.from_model(parsed, profile=profile)
    reloaded_platform = PlatformModel.from_model(
        parsed, standard_library(profile=profile), profile=profile
    )
    reloaded_mapping = MappingModel.from_model(
        reloaded_app, reloaded_platform, profile=profile
    )
    return reloaded_app, reloaded_platform, reloaded_mapping


class TestApplicationReload:
    def test_structures_recovered(self):
        application, _, _ = reload_system()
        assert set(application.processes) == {
            "msduRec", "msduDel", "frag", "defrag", "crc",
            "mng", "rmng", "rca", "user", "phy", "mngUser",
        }
        assert {p.name for p in application.environment_processes()} == {
            "user", "phy", "mngUser"
        }
        assert sorted(application.groups) == [
            "group1", "group2", "group3", "group4"
        ]
        assert application.group_of("rca") == "group1"

    def test_boundary_bindings_survive(self):
        application, _, _ = reload_system()
        assert application.boundary_bindings == {
            "pUser": ("user", "pMac"),
            "pPhy": ("phy", "pMac"),
            "pMngUser": ("mngUser", "pMng"),
        }

    def test_routing_works_after_reload(self):
        application, _, _ = reload_system()
        assert application.route("user", "msdu_req") == ("msduRec", "pUser")
        assert application.route("frag", "pdu_tx") == ("rca", "DataPort")

    def test_signals_recovered_with_sizes(self):
        application, _, _ = reload_system()
        assert application.find_signal("msdu_req").size_bytes() > 1024


class TestPlatformReload:
    def test_topology_recovered(self):
        _, platform, _ = reload_system()
        assert set(platform.processing_elements) == {
            "processor1", "processor2", "processor3", "accelerator1"
        }
        assert platform.transfer_path("processor1", "accelerator1") == [
            "hibisegment1", "bridge", "hibisegment2"
        ]

    def test_specs_rebound_from_library(self):
        _, platform, _ = reload_system()
        assert platform.pe("accelerator1").spec.component_type == "hw accelerator"
        assert platform.segments["bridge"].is_bridge

    def test_wrapper_parameters_recovered(self):
        _, platform, _ = reload_system()
        wrapper = platform.wrapper_of("processor1", "hibisegment1")
        assert wrapper.spec.address == 0x100

    def test_extension_after_reload(self):
        """The reloaded platform is a live facade: it can keep growing."""
        _, platform, _ = reload_system()
        platform.instantiate("extra", "NiosCPU")
        platform.attach("extra", "hibisegment2")
        assert platform.transfer_path("extra", "processor3") == ["hibisegment2"]


class TestMappingReload:
    def test_assignment_recovered(self):
        _, _, mapping = reload_system()
        assert mapping.assignment() == {
            "group1": "processor1",
            "group2": "processor2",
            "group3": "processor1",
            "group4": "accelerator1",
        }
        mapping.check_complete()


    def test_a_pe_that_cannot_run_its_group_is_rejected_before_the_run(self):
        # a reloaded mapping never passed map(): the simulator's gate checks
        # every pair, so the run does not die on its first step
        def repoint(application, platform, mapping):
            mapping.mappings["group1"].suppliers[:] = [
                platform.pe("accelerator1").part
            ]

        reloaded = reload_system(repoint)
        assert reloaded[2].pe_of_group("group1") == "accelerator1"
        message = (
            "group 'group1' (general) cannot run on 'accelerator1' "
            "(hw accelerator)"
        )
        with pytest.raises(MappingError, match=re.escape(message)):
            SystemSimulation(*reloaded)


class TestBitIdenticalSimulation:
    def test_platform_run_identical(self):
        from repro.cases.tutwlan import build_tutwlan_system

        original = SystemSimulation(*build_tutwlan_system()).run(30_000)
        reloaded = SystemSimulation(*reload_system()).run(30_000)
        assert original.writer.render() == reloaded.writer.render()

    def test_reference_run_identical(self):
        from repro.cases.tutmac import build_tutmac

        application = build_tutmac()
        xml = model_to_xml(application.model)
        profile = fresh_profile()
        reloaded = ApplicationModel.from_model(
            xml_to_model(xml, profiles=[profile]), profile=profile
        )
        first = run_reference_simulation(build_tutmac(), duration_us=30_000)
        second = run_reference_simulation(reloaded, duration_us=30_000)
        assert first.writer.render() == second.writer.render()


class TestRtosSurvivesReload:
    def test_rtos_configuration_round_trips(self):
        from repro.platform import standard_library

        application, platform, mapping = __import__(
            "repro.cases.tutwlan", fromlist=["build_tutwlan_system"]
        ).build_tutwlan_system()
        platform.configure_rtos(
            "processor1",
            scheduling="round-robin",
            dispatch_overhead_cycles=77,
            tick_period_us=50,
        )
        xml = model_to_xml(application.model)
        profile = fresh_profile()
        parsed = xml_to_model(xml, profiles=[profile])
        reloaded = PlatformModel.from_model(
            parsed, standard_library(profile=profile), profile=profile
        )
        pe = reloaded.pe("processor1")
        assert pe.has_rtos()
        assert pe.scheduling_policy() == "round-robin"
        assert pe.dispatch_overhead_cycles() == 77
        assert pe.tick_period_us() == 50
        # an unconfigured processor stays RTOS-free
        assert not reloaded.pe("processor2").has_rtos()
