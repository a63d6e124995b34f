"""The per-process design-view cache behind ``build_system``.

A candidate re-maps one cached system instead of rebuilding it.  The
contract: every result equals the one a freshly built system gives, one
view's model never piles up mapping packages, a builder runs once per
``(builder, grouping, arq)`` until another key replaces its view, and
nothing but the cache itself holds on to a built application.
"""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest

import repro.exploration.spec as spec_module
from repro.cases.tutmac.protocol import PAPER_GROUPING
from repro.cases.tutwlan import PAPER_MAPPING, build_tutwlan_system, exploration_factory
from repro.errors import MappingError
from repro.exploration import (
    CandidateSpec,
    build_system,
    evaluate,
    evaluate_spec,
    mapping_sweep_specs,
    run_candidates,
    summarize,
)
from repro.exploration.spec import design_view
from repro.faults import fault_sweep_specs
from repro.mapping.model import MappingModel
from repro.simulation.system import SystemSimulation
from repro.tutprofile import PLATFORM_MAPPING
from repro.uml.dependency import Dependency

from tests.conftest import build_pingpong, build_two_cpu_platform

TUTMAC = "repro.cases.tutwlan:exploration_factory"

#: The paper grouping with ``frag`` moved from group2 to group3.
CUSTOM_GROUPING = dict(PAPER_GROUPING, frag="group3")

#: Keywords each builder call received, for the counting builder below.
BUILDS = []


def counting_factory(grouping=None, arq=False):
    """A named builder that records every call."""
    BUILDS.append((grouping, arq))
    return build_pingpong(), build_two_cpu_platform()


def unnamed_builder(calls, tag):
    def builder():
        calls.append(tag)
        return build_pingpong(), build_two_cpu_platform()

    return builder


@pytest.fixture(autouse=True)
def fresh_view(monkeypatch):
    """Each test starts on an empty view cache and leaves the shared one alone."""
    monkeypatch.setattr(spec_module, "_cached", None)
    BUILDS.clear()


def fresh_result(spec):
    """``spec`` evaluated on a system built for it alone, no cache involved."""
    kwargs = {}
    if spec.grouping is not None:
        kwargs["grouping"] = spec.grouping_dict
    if spec.arq:
        kwargs["arq"] = True
    application, platform = exploration_factory(**kwargs)
    mapping = MappingModel(application, platform, view_name="ExploreMapping")
    for group_name, pe_name in spec.mapping:
        mapping.map(group_name, pe_name)
    return evaluate(
        application,
        platform,
        mapping,
        duration_us=spec.duration_us,
        faults=spec.faults,
    )


def interleaved_specs():
    plain = mapping_sweep_specs(TUTMAC, duration_us=3_000, limit=4)
    arq = fault_sweep_specs((1, 2, 3), fault_rate=0.08, duration_us=5_000)
    grouped = [
        CandidateSpec.make(
            TUTMAC,
            dict(PAPER_MAPPING, group3=pe),
            grouping=CUSTOM_GROUPING,
            duration_us=3_000,
        )
        for pe in ("processor1", "processor2", "processor3")
    ]
    return plain, arq, grouped


def test_warm_view_results_equal_fresh_builds():
    specs = mapping_sweep_specs(TUTMAC, duration_us=2_000)
    assert len(specs) == 108
    for spec in specs:
        assert evaluate_spec(spec).stable_hash() == fresh_result(spec).stable_hash(), (
            spec.label
        )


def test_interleaved_keys_match_each_key_run_alone():
    groups = interleaved_specs()
    alone = [[evaluate_spec(spec).stable_hash() for spec in specs] for specs in groups]
    interleaved = [[], [], []]
    for row in itertools.zip_longest(*groups):
        for key, spec in enumerate(row):
            if spec is not None:
                interleaved[key].append(evaluate_spec(spec).stable_hash())
    assert interleaved == alone
    # and the custom grouping gives what a fresh build of it gives
    grouped = groups[2]
    assert alone[2] == [fresh_result(spec).stable_hash() for spec in grouped]


def test_a_swept_view_holds_one_mapping_package():
    specs = mapping_sweep_specs(TUTMAC, duration_us=1_000)
    run_candidates(specs[:12], workers=0)
    for spec in specs:
        build_system(spec)
    view = design_view(TUTMAC)
    packages = [
        element
        for element in view.application.model.packaged_elements
        if element.name == "ExploreMapping"
    ]
    assert packages == [view.mapping.package]
    dependencies = packages[0].members_of_type(Dependency)
    assert all(d.has_stereotype(PLATFORM_MAPPING) for d in dependencies)
    groups = sorted(d.client.name for d in dependencies)
    assert groups == sorted(dict(specs[-1].mapping))
    assert view.mapping.assignment() == dict(specs[-1].mapping)


def test_a_builder_runs_once_per_key_until_another_key_replaces_it():
    builder = "tests.exploration.test_views:counting_factory"
    specs = mapping_sweep_specs(builder, duration_us=2_000)
    shorter = mapping_sweep_specs(builder, duration_us=1_000)
    run_candidates(specs, workers=0)
    run_candidates(shorter, workers=0)
    assert BUILDS == [(None, False)]
    grouping = (("ping", "g0"),)
    design_view(builder, grouping)
    design_view(builder, grouping)
    assert BUILDS == [(None, False), ({"ping": "g0"}, False)]
    # the second key replaced the first one's view
    design_view(builder)
    assert BUILDS == [(None, False), ({"ping": "g0"}, False), (None, False)]


def test_unnamed_builders_never_share_a_view():
    calls = []
    first = unnamed_builder(calls, "first")
    view = design_view(first)
    assert design_view(first) is view
    # the cache holds the builder itself, so no later builder can take
    # over its identity while its view is cached
    first_ref = weakref.ref(first)
    del first, view
    gc.collect()
    assert first_ref() is not None
    second = unnamed_builder(calls, "second")
    design_view(second)
    assert calls == ["first", "second"]
    # replaced by another key's view, the first builder is let go
    gc.collect()
    assert first_ref() is None
    third = unnamed_builder(calls, "third")
    design_view(third)
    assert calls == ["first", "second", "third"]


@pytest.mark.parametrize(
    "broken",
    [
        # group3 is general: the accelerator cannot run it
        dict(PAPER_MAPPING, group3="accelerator1"),
        # no such PE
        dict(PAPER_MAPPING, group4="processor9"),
    ],
    ids=["type-mismatch", "unknown-pe"],
)
def test_a_failed_remap_leaves_the_next_candidate_unchanged(broken):
    # the broken pair sorts after groups that map, so the view is left
    # part-mapped
    spec = CandidateSpec.make(TUTMAC, dict(PAPER_MAPPING), duration_us=3_000)
    expected = evaluate_spec(spec).stable_hash()
    with pytest.raises(MappingError):
        evaluate_spec(CandidateSpec.make(TUTMAC, broken, duration_us=3_000))
    assert 0 < len(design_view(TUTMAC).mapping.mappings) < len(PAPER_MAPPING)
    assert evaluate_spec(spec).stable_hash() == expected
    assert fresh_result(spec).stable_hash() == expected


def test_an_incomplete_mapping_fails_like_a_fresh_build():
    # the view mapped group2 for the candidate before
    evaluate_spec(CandidateSpec.make(TUTMAC, dict(PAPER_MAPPING), duration_us=1_000))
    partial = dict(PAPER_MAPPING)
    del partial["group2"]
    spec = CandidateSpec.make(TUTMAC, partial, duration_us=1_000)
    with pytest.raises(MappingError, match="unmapped groups: group2"):
        evaluate_spec(spec)
    with pytest.raises(MappingError, match="unmapped groups: group2"):
        fresh_result(spec)


def test_runs_outside_the_engine_keep_no_reference_to_the_application():
    application, platform, mapping = build_tutwlan_system()
    result = SystemSimulation(application, platform, mapping).run(2_000)
    summarize(result, application)
    references = [
        weakref.ref(application),
        weakref.ref(application.model),
        weakref.ref(application.find_process("rca").behavior),
    ]
    del application, platform, mapping, result
    gc.collect()
    assert [reference() for reference in references] == [None, None, None]
