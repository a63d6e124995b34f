"""The TUTWLAN terminal platform and the paper's mapping (Figures 7 and 8).

Figure 7: four processing elements — three NiosCPU-class processors and a
CRC-32 hardware accelerator — on two HIBI segments joined by a bridge
segment (``processor1``/``processor2`` on ``hibisegment1``;
``processor3``/``accelerator1`` on ``hibisegment2``).

Figure 8: group1 and group3 map to processor1, group2 to processor2, and
group4 to accelerator1.  (Processor3 is left free — the paper's figure
maps no group onto it, keeping it available for architecture exploration.)
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.application.model import ApplicationModel
from repro.mapping.model import MappingModel, MappingRelation
from repro.platform.library import PlatformLibrary, standard_library
from repro.platform.model import PlatformModel

PLATFORM_NAME = "TutwlanTerminal"

#: The paper's mapping (Figure 8).
PAPER_MAPPING: Dict[str, str] = {
    "group1": "processor1",
    "group2": "processor2",
    "group3": "processor1",
    "group4": "accelerator1",
}


def build_tutwlan_platform(
    library: Optional[PlatformLibrary] = None,
    profile=None,
    model=None,
) -> PlatformModel:
    """Build the TUTWLAN terminal platform of Figure 7."""
    if library is None:
        library = standard_library(profile=profile)
    platform = PlatformModel(PLATFORM_NAME, library, profile=profile, model=model)
    platform.instantiate("processor1", "NiosCPU", priority=0)
    platform.instantiate("processor2", "NiosCPU", priority=1)
    platform.instantiate("processor3", "NiosCPU", priority=2)
    platform.instantiate("accelerator1", "CRCAccelerator", priority=3)
    platform.segment("hibisegment1", "HIBISegment")
    platform.segment("hibisegment2", "HIBISegment")
    platform.segment("bridge", "HIBIBridgeSegment")
    platform.attach("processor1", "hibisegment1", address=0x100, priority_class=0)
    platform.attach("processor2", "hibisegment1", address=0x200, priority_class=1)
    platform.attach("processor3", "hibisegment2", address=0x300, priority_class=0)
    platform.attach("accelerator1", "hibisegment2", address=0x400, priority_class=1)
    platform.attach("hibisegment1", "bridge", address=0x500)
    platform.attach("hibisegment2", "bridge", address=0x600)
    return platform


def build_paper_mapping(
    application: ApplicationModel,
    platform: PlatformModel,
    mapping_overrides: Optional[Dict[str, str]] = None,
    view_name: str = "MappingView",
) -> MappingModel:
    """Map the TUTMAC groups onto the platform as in Figure 8.

    ``mapping_overrides`` replaces entries of the paper's assignment
    (used by the mapping ablation benchmarks).
    """
    assignment = dict(PAPER_MAPPING)
    if mapping_overrides:
        assignment.update(mapping_overrides)
    mapping = MappingModel(application, platform, view_name=view_name)
    for group_name, pe_name in assignment.items():
        if group_name in application.groups and application.processes_in(group_name):
            mapping.map(group_name, pe_name)
    # Map any extra groups (custom groupings) onto the first PE that may run
    # them: accelerator1 for hardware groups, processor1 for the others.
    relation = MappingRelation.of(application)
    for group_name in application.groups:
        if group_name not in assignment and application.processes_in(group_name):
            mapping.map(group_name, relation.pes_for(platform, group_name)[0])
    return mapping


def exploration_factory(grouping: Optional[Dict[str, str]] = None, arq: bool = False):
    """Engine builder: a fresh TUTMAC ``(application, platform)`` pair.

    This is the importable ``"repro.cases.tutwlan:exploration_factory"``
    builder that :class:`repro.exploration.CandidateSpec` references, so
    worker processes can rebuild the system without pickling UML objects.
    ``grouping`` overrides the paper's process-group assignment; ``arq``
    enables the retransmitting protocol variant used by fault campaigns.
    """
    from repro.cases.tutmac import TutmacParameters, build_tutmac

    params = TutmacParameters(arq_enabled=True) if arq else None
    application = build_tutmac(params=params, grouping=grouping)
    platform = build_tutwlan_platform(
        profile=application.profile, model=application.model
    )
    return application, platform


def build_tutwlan_system(
    params=None,
    grouping: Optional[Dict[str, str]] = None,
    mapping_overrides: Optional[Dict[str, str]] = None,
):
    """Convenience: the full TUTMAC-on-TUTWLAN system.

    Returns ``(application, platform, mapping)`` sharing one UML model so a
    single XMI document carries all three design views.
    """
    from repro.cases.tutmac import build_tutmac

    application = build_tutmac(params=params, grouping=grouping)
    platform = build_tutwlan_platform(
        profile=application.profile, model=application.model
    )
    mapping = build_paper_mapping(
        application, platform, mapping_overrides=mapping_overrides
    )
    return application, platform, mapping
