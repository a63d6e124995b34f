"""MappingModel: map/unmap/remap semantics, fixedness, completeness."""

import pytest

from repro.errors import MappingError
from repro.mapping import MappingModel
from repro.platform import PlatformModel, ProcessingElementSpec, standard_library
from repro.tutprofile.tags import ComponentType, ProcessType


class TestMapping:
    def test_map_creates_stereotyped_dependency(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        dependency = mapping.map("g1", "cpu1")
        assert dependency.has_stereotype("PlatformMapping")
        assert mapping.pe_of_group("g1") == "cpu1"

    def test_pe_of_process_follows_group(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        assert mapping.pe_of_process("ping1") == "cpu1"
        assert mapping.pe_of_process("pong1") == "cpu2"

    def test_unknown_group_or_pe(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        with pytest.raises(MappingError):
            mapping.map("ghost", "cpu1")
        with pytest.raises(MappingError):
            mapping.map("g1", "ghost")

    def test_double_map_rejected(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        with pytest.raises(MappingError):
            mapping.map("g1", "cpu2")

    def test_remap_moves_group(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.remap("g1", "cpu2")
        assert mapping.pe_of_group("g1") == "cpu2"

    def test_fixed_mapping_cannot_change(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1", fixed=True)
        assert mapping.is_fixed("g1")
        with pytest.raises(MappingError):
            mapping.unmap("g1")
        with pytest.raises(MappingError):
            mapping.remap("g1", "cpu2")

    def test_unmap_missing(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        with pytest.raises(MappingError):
            mapping.unmap("g1")

    def test_groups_on(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu1")
        assert mapping.groups_on("cpu1") == ["g1", "g2"]
        assert mapping.groups_on("cpu2") == []

    def test_assignment_snapshot(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        assert mapping.assignment() == {"g1": "cpu1", "g2": "cpu2"}


class TestTypeCompatibility:
    # these tests add mapping views, so they build their own system instead
    # of mutating the session-scoped fixture

    def _fresh_system(self):
        from repro.cases.tutwlan import build_tutwlan_platform
        from repro.cases.tutmac import build_tutmac

        application = build_tutmac()
        platform = build_tutwlan_platform(profile=application.profile)
        return application, platform

    def test_hardware_group_fits_cpu_and_accelerator(self):
        # a hardware-type group runs natively on the accelerator but may
        # also fall back to software on a general-purpose CPU (ablation A4)
        application, platform = self._fresh_system()
        mapping = MappingModel(application, platform, view_name="TestView")
        mapping.map("group4", "processor1")
        mapping.remap("group4", "accelerator1")
        assert mapping.pe_of_group("group4") == "accelerator1"

    def test_general_group_rejected_on_accelerator(self):
        application, platform = self._fresh_system()
        mapping = MappingModel(application, platform, view_name="TestView2")
        with pytest.raises(MappingError):
            mapping.map("group1", "accelerator1")

    def test_pe_without_a_cycle_cost_for_the_group_type_is_rejected(self, pingpong):
        # Tables 2 and 3 let a general CPU host hardware groups, but the
        # simulator could not time a statement this CPU has no cost for
        library = standard_library()
        library.add_processing_element(
            ProcessingElementSpec(
                name="SoftCPU",
                component_type=ComponentType.GENERAL,
                cycles_per_statement={ProcessType.GENERAL: 10},
            )
        )
        platform = PlatformModel("Soft", library)
        platform.instantiate("soft", "SoftCPU")
        pingpong.group("hw", process_type=ProcessType.HARDWARE)
        mapping = MappingModel(pingpong, platform)
        with pytest.raises(MappingError) as excinfo:
            mapping.map("hw", "soft")
        assert str(excinfo.value) == (
            "group 'hw' (hardware) cannot run on 'soft' (general)"
        )
        mapping.map("g1", "soft")


class TestCompleteness:
    def test_check_complete_passes_for_full_mapping(self, pingpong_system):
        _, _, mapping = pingpong_system
        mapping.check_complete()

    def test_unmapped_group_detected(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        with pytest.raises(MappingError) as excinfo:
            mapping.check_complete()
        assert "g2" in str(excinfo.value)

    def test_ungrouped_process_detected(self, pingpong, two_cpu_platform):
        pingpong.unassign("pong1")
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        with pytest.raises(MappingError) as excinfo:
            mapping.check_complete()
        assert "pong1" in str(excinfo.value)

    def test_describe(self, pingpong_system):
        _, _, mapping = pingpong_system
        text = mapping.describe()
        assert "g1 -> cpu1" in text
