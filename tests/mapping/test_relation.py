"""One mapping relation: every reader agrees on which mappings exist.

:class:`repro.mapping.model.MappingRelation` answers which PEs a group may
run on and what is wrong with an assignment.  ``MappingModel.map`` plus
``check_complete`` (the simulator's gate), the static pruning estimator
and ``enumerate_assignments`` must agree with it over the TUTWLAN sweep,
hand-made defective TUTWLAN assignments and the generated corpus.
"""

import itertools

import pytest

from repro.analysis import run_lint, static_application_profile, static_mapping_estimate
from repro.cases.tutwlan import PAPER_MAPPING, build_tutwlan_system, exploration_factory
from repro.errors import MappingError
from repro.exploration import CandidateSpec, enumerate_assignments
from repro.genmodel import config_for_seed, generate_model
from repro.genmodel.pipeline import candidate_specs
from repro.mapping import MappingModel, MappingRelation
from repro.mapping.model import (
    CANNOT_RUN,
    UNGROUPED_PROCESS,
    UNKNOWN_GROUP,
    UNKNOWN_PE,
    UNMAPPED_GROUP,
    UNTIMED_MEMBER,
)
from repro.simulation import SystemSimulation
from repro.tutprofile import APPLICATION_PROCESS
from repro.uml.instance import InstanceSpecification

#: Hand-made TUTWLAN assignments with one defect each, and its kind.
DEFECTIVE_TUTWLAN = {
    "type-mismatch": ({**PAPER_MAPPING, "group1": "accelerator1"}, CANNOT_RUN),
    "unknown-pe": ({**PAPER_MAPPING, "group1": "ghost"}, UNKNOWN_PE),
    "unknown-group": ({**PAPER_MAPPING, "ghost": "processor1"}, UNKNOWN_GROUP),
    "missing-group": (
        {g: pe for g, pe in PAPER_MAPPING.items() if g != "group4"},
        UNMAPPED_GROUP,
    ),
}


def defective_tutwlan_specs(duration_us=1_000):
    """One exploration candidate per hand-made defect, in table order."""
    return [
        CandidateSpec.make(
            "repro.cases.tutwlan:exploration_factory",
            assignment,
            duration_us=duration_us,
            label=name,
        )
        for name, (assignment, _) in DEFECTIVE_TUTWLAN.items()
    ]


def map_and_check(mapping, assignment):
    """Re-map ``mapping`` pair by pair, then check it: True if either raises."""
    for group_name in list(mapping.mappings):
        mapping.unmap(group_name)
    try:
        for group_name, pe_name in sorted(assignment.items()):
            mapping.map(group_name, pe_name)
        mapping.check_complete()
    except MappingError:
        return True
    return False


def assert_agreement(application, platform, assignments):
    relation = MappingRelation.of(application)
    profile = static_application_profile(application)
    mapping = MappingModel(application, platform, view_name="AgreementView")
    for assignment in assignments:
        defects = relation.defects(platform, assignment)
        assert map_and_check(mapping, assignment) == bool(defects), assignment
        estimate = static_mapping_estimate(profile, platform, assignment)
        infeasible = any(d.kind != UNGROUPED_PROCESS for d in defects)
        assert (estimate.infeasible is not None) == infeasible, assignment
    domains = [relation.pes_for(platform, group) for group in relation.required]
    assert enumerate_assignments(application, platform) == [
        dict(zip(relation.required, combination))
        for combination in itertools.product(*domains)
    ]


class TestTutwlan:
    def test_sweep_and_hand_made_defects_agree(self):
        application, platform = exploration_factory()
        sweep = enumerate_assignments(application, platform)
        assert len(sweep) == 108
        defective = [assignment for assignment, _ in DEFECTIVE_TUTWLAN.values()]
        assert_agreement(application, platform, sweep + defective)

    @pytest.mark.parametrize("name", sorted(DEFECTIVE_TUTWLAN))
    def test_each_hand_made_assignment_has_its_one_defect(self, name):
        application, platform = exploration_factory()
        assignment, kind = DEFECTIVE_TUTWLAN[name]
        (defect,) = MappingRelation.of(application).defects(platform, assignment)
        assert defect.kind == kind
        profile = static_application_profile(application)
        estimate = static_mapping_estimate(profile, platform, assignment)
        assert estimate.infeasible == str(defect)
        assert estimate.cost == float("inf")

    def test_compatible_pes_follow_the_type_tables(self):
        application, platform = exploration_factory()
        relation = MappingRelation.of(application)
        assert relation.pes_for(platform, "group1") == [
            "processor1", "processor2", "processor3"
        ]
        assert relation.pes_for(platform, "group4") == [
            "accelerator1", "processor1", "processor2", "processor3"
        ]


class TestMemberTypes:
    """The simulator prices a step by the *process's* ProcessType, so a PE
    needs a cycle cost for every member's type, not only the group's."""

    MESSAGE = (
        "process 'crc' (general) of group 'group4' cannot run on "
        "'accelerator1' (hw accelerator): the PE has no cycle cost for its type"
    )

    def retagged_tutwlan(self):
        """TUTWLAN with its hardware group's crc process tagged general."""
        application, platform, mapping = build_tutwlan_system()
        part = application.processes["crc"].part
        part.stereotype_application(APPLICATION_PROCESS).set("ProcessType", "general")
        return application, platform, mapping

    def test_the_gate_names_the_member_before_the_run(self):
        application, platform, mapping = self.retagged_tutwlan()
        relation = MappingRelation.of(application)
        (defect,) = relation.defects(platform, mapping.assignment())
        assert (defect.kind, str(defect)) == (UNTIMED_MEMBER, self.MESSAGE)
        with pytest.raises(MappingError) as excinfo:
            SystemSimulation(application, platform, mapping)
        assert str(excinfo.value) == self.MESSAGE
        assert relation.pes_for(platform, "group4") == [
            "processor1", "processor2", "processor3"
        ]
        assert_agreement(application, platform, [mapping.assignment()])

    def test_map_rejects_the_pe(self):
        application, platform, mapping = self.retagged_tutwlan()
        mapping.unmap("group4")
        with pytest.raises(MappingError) as excinfo:
            mapping.map("group4", "accelerator1")
        assert str(excinfo.value) == self.MESSAGE
        mapping.map("group4", "processor1")
        mapping.check_complete()


class TestGeneratedCorpus:
    def test_own_and_candidate_assignments_agree(self):
        for seed in range(120):
            generated = generate_model(config_for_seed(seed))
            specs = candidate_specs(generated.config, generated, 3_000)
            assignments = [generated.mapping.assignment()]
            assignments += [spec.mapping_dict for spec in specs]
            assert_agreement(generated.application, generated.platform, assignments)

    def test_an_ungrouped_process_fails_the_gate_but_not_the_estimate(self):
        config = config_for_seed(3).replace(inject_defects=("M001",))
        generated = generate_model(config)
        assignment = generated.mapping.assignment()
        relation = MappingRelation.of(generated.application)
        kinds = [d.kind for d in relation.defects(generated.platform, assignment)]
        assert kinds == [UNGROUPED_PROCESS]
        assert_agreement(generated.application, generated.platform, [assignment])


class TestGroupingToANonGroup:
    """A «ProcessGrouping» may name an element that is no «ProcessGroup»
    (validation's R5-grouping-supplier); that element still needs a PE."""

    def test_the_gate_and_lint_name_it_as_an_unmapped_group(self):
        application, platform, mapping = build_tutwlan_system()
        phantom = InstanceSpecification("phantom")
        application.grouping_package.add(phantom)
        (grouping,) = [g for g in application.groupings if g.client.name == "rca"]
        grouping.suppliers[:] = [phantom]
        with pytest.raises(MappingError, match="unmapped groups: phantom"):
            mapping.check_complete()
        findings = run_lint(application, platform, mapping).by_rule("M001")
        assert [f.subject for f in findings] == ["group phantom"]
