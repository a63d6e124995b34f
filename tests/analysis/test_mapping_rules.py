"""Platform-aware mapping rules M001-M005 and the static estimator."""

import re

import pytest

from repro.analysis import (
    run_lint,
    static_application_profile,
    static_mapping_estimate,
)
from repro.application import ApplicationModel
from repro.cases.tutwlan import build_tutwlan_system
from repro.errors import MappingError
from repro.mapping import MappingModel
from repro.platform import PlatformModel, standard_library
from repro.tutprofile import APPLICATION_PROCESS, PLATFORM_MAPPING, TUT_PROFILE
from repro.uml.dependency import Dependency


def bridged_platform():
    """Two CPUs on different HIBI segments joined by a bridge."""
    platform = PlatformModel("Bridged", standard_library())
    platform.instantiate("cpu1", "NiosCPU")
    platform.instantiate("cpu2", "NiosCPU")
    platform.segment("segA", "HIBISegment")
    platform.segment("segB", "HIBISegment")
    platform.segment("bridge", "HIBIBridgeSegment")
    platform.attach("cpu1", "segA", address=0x100)
    platform.attach("cpu2", "segB", address=0x200)
    platform.attach("segA", "bridge", address=0x300)
    platform.attach("segB", "bridge", address=0x400)
    return platform


def single_cpu_platform():
    platform = PlatformModel("OneCpu", standard_library())
    platform.instantiate("cpu1", "NiosCPU")
    platform.segment("seg1", "HIBISegment")
    platform.attach("cpu1", "seg1", address=0x100)
    return platform


def tiny_app(process_type="general"):
    """One process in one group of its ProcessType, no signal traffic."""
    app = ApplicationModel("Tiny")
    component = app.component("C")
    machine = app.behavior(component)
    machine.state("idle", initial=True, entry="set_timer(t, 10);")
    machine.on_timer("idle", "idle", "t")
    app.process(app.top, "p1", component, process_type=process_type)
    app.group("g", process_type=process_type)
    app.assign("p1", "g")
    return app


class TestStaticProfile:
    def test_pingpong_profile(self, pingpong):
        profile = static_application_profile(pingpong)
        assert profile.statement_weight["g1"] > 0
        assert profile.statement_weight["g2"] > 0
        assert profile.relation.group_types == {"g1": "general", "g2": "general"}
        assert profile.pair_bytes[("g1", "g2")] > 0
        assert profile.pair_bytes[("g2", "g1")] > 0


class TestStaticEstimate:
    def test_all_on_one_pe_pays_the_load_share(self, pingpong, two_cpu_platform):
        profile = static_application_profile(pingpong)
        estimate = static_mapping_estimate(
            profile, two_cpu_platform, {"g1": "cpu1", "g2": "cpu1"}
        )
        assert estimate.infeasible is None
        assert estimate.cross_bytes == 0
        assert estimate.max_share == 1.0
        assert estimate.cost == pytest.approx(1000.0)

    def test_split_mapping_pays_wire_bytes(self, pingpong, two_cpu_platform):
        profile = static_application_profile(pingpong)
        estimate = static_mapping_estimate(
            profile, two_cpu_platform, {"g1": "cpu1", "g2": "cpu2"}
        )
        assert estimate.infeasible is None
        assert estimate.cross_bytes > 0
        assert estimate.max_share < 1.0
        assert estimate.bridge_bytes == 0

    def test_bridge_crossing_is_counted(self, pingpong):
        profile = static_application_profile(pingpong)
        estimate = static_mapping_estimate(
            profile, bridged_platform(), {"g1": "cpu1", "g2": "cpu2"}
        )
        assert estimate.bridge_bytes > 0

    def test_unmapped_group_is_infeasible(self, pingpong, two_cpu_platform):
        profile = static_application_profile(pingpong)
        estimate = static_mapping_estimate(
            profile, two_cpu_platform, {"g1": "cpu1"}
        )
        assert estimate.cost == float("inf")
        assert "'g2' is not mapped" in estimate.infeasible

    def test_unknown_pe_is_infeasible(self, pingpong, two_cpu_platform):
        profile = static_application_profile(pingpong)
        estimate = static_mapping_estimate(
            profile, two_cpu_platform, {"g1": "cpu1", "g2": "ghost"}
        )
        assert "no PE named 'ghost'" in estimate.infeasible

    def test_incompatible_type_is_infeasible(self):
        app = tiny_app()
        platform = single_cpu_platform()
        platform.instantiate("acc", "CRCAccelerator")
        platform.attach("acc", "seg1", address=0x200)
        profile = static_application_profile(app)
        estimate = static_mapping_estimate(profile, platform, {"g": "acc"})
        assert "cannot run on" in estimate.infeasible


def lint_mapped(app, platform, mapping, rule):
    return run_lint(app, platform, mapping).by_rule(rule)


class TestCompleteness:
    def test_m001_fires_on_unmapped_group(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        findings = lint_mapped(pingpong, two_cpu_platform, mapping, "M001")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "'g2'" in findings[0].message

    def test_m001_fires_on_dangling_mapping(self, pingpong, two_cpu_platform):
        pingpong.group("g3")
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        mapping.map("g3", "cpu2")
        findings = lint_mapped(pingpong, two_cpu_platform, mapping, "M001")
        assert len(findings) == 1
        assert "dangles" in findings[0].message

    def test_m001_fires_on_ungrouped_process(self, pingpong, two_cpu_platform):
        pingpong.process(
            pingpong.top, "stray1", pingpong.processes["pong1"].component
        )
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        findings = lint_mapped(pingpong, two_cpu_platform, mapping, "M001")
        assert len(findings) == 1
        assert "'stray1'" in findings[0].message

    def test_complete_mapping_is_clean(self, pingpong_system):
        assert lint_mapped(*pingpong_system, "M001") == []


class TestOvercommit:
    def test_m002_fires_when_one_pe_hoards_the_load(
        self, pingpong, two_cpu_platform
    ):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu1")
        findings = lint_mapped(pingpong, two_cpu_platform, mapping, "M002")
        assert len(findings) == 1
        assert "100%" in findings[0].message
        assert "'cpu1'" in findings[0].message

    def test_split_mapping_is_clean(self, pingpong_system):
        assert lint_mapped(*pingpong_system, "M002") == []

    def test_single_pe_platform_has_no_alternative(self, pingpong):
        # everything on the only PE: nothing could move, so no warning
        platform = single_cpu_platform()
        mapping = MappingModel(pingpong, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu1")
        assert lint_mapped(pingpong, platform, mapping, "M002") == []


class TestChattySplitAndBridge:
    def test_m003_and_m004_fire_across_the_bridge(self, pingpong):
        platform = bridged_platform()
        mapping = MappingModel(pingpong, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        report = run_lint(pingpong, platform, mapping)
        (m003,) = report.by_rule("M003")
        assert "'g1'" in m003.message and "'g2'" in m003.message
        assert "disjoint HIBI segments" in m003.message
        (m004,) = report.by_rule("M004")
        assert "bridge" in m004.message

    def test_same_segment_split_is_clean(self, pingpong_system):
        report = run_lint(*pingpong_system)
        assert report.by_rule("M003") == []
        assert report.by_rule("M004") == []

    def test_same_pe_on_bridged_platform_is_clean(self, pingpong):
        platform = bridged_platform()
        mapping = MappingModel(pingpong, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu1")
        report = run_lint(pingpong, platform, mapping)
        assert report.by_rule("M003") == []
        assert report.by_rule("M004") == []


class TestFixedContradictions:
    def test_m005_fires_on_duplicate_mapping(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        # a second «PlatformMapping» for g1, as a hand-edited model might
        # carry it (MappingModel.map refuses, so build the dependency raw)
        duplicate = Dependency(
            "g1_to_cpu2",
            client=pingpong.groups["g1"],
            supplier=two_cpu_platform.pe("cpu2").part,
        )
        mapping.package.add(duplicate)
        TUT_PROFILE.apply(duplicate, PLATFORM_MAPPING, Fixed=False)
        findings = lint_mapped(pingpong, two_cpu_platform, mapping, "M005")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "2 «PlatformMapping»" in findings[0].message
        assert "cpu1, cpu2" in findings[0].message

    def test_m005_fires_on_fixed_type_contradiction(self):
        app = tiny_app(process_type="hardware")
        platform = single_cpu_platform()
        platform.instantiate("acc", "CRCAccelerator")
        platform.attach("acc", "seg1", address=0x200)
        mapping = MappingModel(app, platform)
        mapping.map("g", "acc", fixed=True)
        # the model is edited after mapping: the group becomes general,
        # which the accelerator cannot execute, and Fixed pins it there
        app.groups["g"].stereotype_application("ProcessGroup").set(
            "ProcessType", "general"
        )
        findings = lint_mapped(app, platform, mapping, "M005")
        assert len(findings) == 1
        assert "cannot" in findings[0].message

    def test_m005_fires_on_fixed_unknown_pe(self):
        app = tiny_app()
        platform = single_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1", fixed=True)
        platform.pe("cpu1").part.name = "ghost"  # stale hand-edited model
        findings = lint_mapped(app, platform, mapping, "M005")
        assert len(findings) == 1
        assert "unknown PE 'ghost'" in findings[0].message

    def test_movable_mapping_is_not_a_contradiction(self):
        app = tiny_app(process_type="hardware")
        platform = single_cpu_platform()
        platform.instantiate("acc", "CRCAccelerator")
        platform.attach("acc", "seg1", address=0x200)
        mapping = MappingModel(app, platform)
        mapping.map("g", "acc", fixed=False)
        app.groups["g"].stereotype_application("ProcessGroup").set(
            "ProcessType", "general"
        )
        # not Fixed: the flow may remap it, so M005 stays quiet
        assert lint_mapped(app, platform, mapping, "M005") == []

    def test_m001_fires_on_a_movable_mapping_to_an_incompatible_pe(self):
        app = tiny_app(process_type="hardware")
        platform = single_cpu_platform()
        platform.instantiate("acc", "CRCAccelerator")
        platform.attach("acc", "seg1", address=0x200)
        mapping = MappingModel(app, platform)
        mapping.map("g", "acc", fixed=False)
        app.groups["g"].stereotype_application("ProcessGroup").set(
            "ProcessType", "general"
        )
        message = "group 'g' (general) cannot run on 'acc' (hw accelerator)"
        with pytest.raises(MappingError, match=re.escape(message)):
            mapping.check_complete()
        (finding,) = lint_mapped(app, platform, mapping, "M001")
        assert (finding.severity, finding.subject, finding.message) == (
            "error", "group g", message
        )
        assert finding.elements == (app.groups["g"],)

    def test_m001_fires_on_a_movable_mapping_to_an_unknown_pe(self):
        app = tiny_app()
        platform = single_cpu_platform()
        mapping = MappingModel(app, platform)
        mapping.map("g", "cpu1", fixed=False)
        platform.pe("cpu1").part.name = "ghost"  # stale hand-edited model
        message = "platform has no PE named 'ghost'"
        with pytest.raises(MappingError, match=re.escape(message)):
            mapping.check_complete()
        report = run_lint(app, platform, mapping)
        (finding,) = report.by_rule("M001")
        assert (finding.severity, finding.subject, finding.message) == (
            "error", "group g", message
        )
        assert finding.elements == (app.groups["g"],)
        assert report.by_rule("M005") == []


class TestUntimedMember:
    """A PE with no cycle cost for a member process's own ProcessType is a
    defect ``check_complete()`` raises on; lint reports it with the same
    words, as M005 on a Fixed mapping and as M001 otherwise."""

    MESSAGE = (
        "process 'crc' (general) of group 'group4' cannot run on "
        "'accelerator1' (hw accelerator): the PE has no cycle cost for its type"
    )

    def retagged_tutwlan(self):
        application, platform, mapping = build_tutwlan_system()
        part = application.processes["crc"].part
        part.stereotype_application(APPLICATION_PROCESS).set("ProcessType", "general")
        with pytest.raises(MappingError) as excinfo:
            mapping.check_complete()
        assert str(excinfo.value) == self.MESSAGE
        return application, platform, mapping

    def test_m001_fires_on_a_movable_mapping(self):
        application, platform, mapping = self.retagged_tutwlan()
        report = run_lint(application, platform, mapping)
        (finding,) = report.by_rule("M001")
        assert (finding.severity, finding.subject, finding.message) == (
            "error", "group group4", self.MESSAGE
        )
        assert finding.elements == (application.groups["group4"],)
        assert report.by_rule("M005") == []

    def test_m005_fires_on_a_fixed_mapping(self):
        application, platform, mapping = self.retagged_tutwlan()
        dependency = mapping.mappings["group4"]
        dependency.stereotype_application(PLATFORM_MAPPING).set("Fixed", True)
        report = run_lint(application, platform, mapping)
        (finding,) = report.by_rule("M005")
        assert (finding.severity, finding.subject, finding.message) == (
            "error", "group group4", self.MESSAGE
        )
        assert finding.elements == (dependency,)
        assert report.by_rule("M001") == []


class TestSuppression:
    def test_comment_on_group_suppresses_m001(self, pingpong, two_cpu_platform):
        mapping = MappingModel(pingpong, two_cpu_platform)
        mapping.map("g1", "cpu1")
        pingpong.groups["g2"].add_comment(
            "tutlint: disable=M001 -- mapped in a later design iteration"
        )
        report = run_lint(pingpong, two_cpu_platform, mapping)
        assert report.by_rule("M001")[0].suppressed
        assert report.active == [] or all(
            f.rule != "M001" for f in report.active
        )

    def test_comment_on_group_suppresses_m003(self, pingpong):
        platform = bridged_platform()
        mapping = MappingModel(pingpong, platform)
        mapping.map("g1", "cpu1")
        mapping.map("g2", "cpu2")
        pingpong.groups["g1"].add_comment(
            "tutlint: disable=M003 -- bridge latency measured acceptable"
        )
        report = run_lint(pingpong, platform, mapping)
        (m003,) = report.by_rule("M003")
        assert m003.suppressed


class TestShippedSystemIsClean:
    def test_tutwlan_has_no_mapping_findings(self, tutwlan_system):
        application, platform, mapping = tutwlan_system
        report = run_lint(application, platform, mapping)
        for rule in ("M001", "M002", "M003", "M004", "M005"):
            assert report.by_rule(rule) == []
