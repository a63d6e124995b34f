"""Platform-aware mapping lint (rules M001-M005) and the static estimator.

The paper's Figure 2 closes the PSM loop by hand: a designer reads the
profiling report and re-groups/re-maps.  This pass checks the mapping
view *before* any simulation: completeness (M001), statically
overcommitted PEs (M002), chatty group pairs split across HIBI segments
(M003), bridge saturation (M004) and contradictory «PlatformMapping»
dependencies (M005).

The numbers behind M002-M004 come from :func:`static_application_profile`
(per-group statement weights plus the directed group-to-group traffic
matrix priced in wire bytes) and :func:`static_mapping_estimate`, which
scores one assignment without simulating: computation seconds per PE from
``cycles_per_statement``/``frequency_hz``, communication bytes weighted
by segment hop count, and a scalar ``cost`` shaped like the exploration
objective (bytes + 1000 * max PE share).  The exploration engine reuses
exactly this estimate as its pre-simulation pruning oracle
(``run_candidates(prune_static=...)``), so the lint rules and the pruner
can never disagree about what "expensive" means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.core import Finding, LintContext, register_rule
from repro.analysis.sigflow import signal_flow_matrix
from repro.application.model import ENVIRONMENT_GROUP
from repro.mapping.model import (
    CANNOT_RUN,
    UNGROUPED_PROCESS,
    UNKNOWN_PE,
    UNMAPPED_GROUP,
    UNTIMED_MEMBER,
    MappingRelation,
)
from repro.uml.actions import walk_statements
from repro.uml.classifier import Signal
from repro.uml.dependency import Dependency
from repro.uml.statemachine import machine_blocks
from repro.tutprofile import PLATFORM_MAPPING

register_rule(
    "M001",
    "unmapped-or-dangling-group",
    "error",
    "A process group with members has no «PlatformMapping» dependency (the "
    "flow cannot place its processes), a non-environment process belongs to "
    "no group, a movable mapping names a PE the platform lacks, places the "
    "group on a PE that cannot run its ProcessType or places a member "
    "process on a PE with no cycle cost for its own, or a mapping points at "
    "an empty group — what MappingModel.check_complete() rejects, except "
    "the Fixed mappings M005 reports.",
)
register_rule(
    "M002",
    "pe-overcommitted",
    "warning",
    "The static load estimate concentrates almost all computation on one "
    "PE while other compatible PEs sit idle, so the mapping wastes the "
    "platform's parallelism before any simulation is run.",
)
register_rule(
    "M003",
    "chatty-pair-split",
    "warning",
    "Two process groups that exchange a dominant share of the static "
    "traffic are mapped to PEs on disjoint HIBI segments, so their "
    "conversation pays bridge latency on every signal.",
)
register_rule(
    "M004",
    "bridge-saturated",
    "warning",
    "The static signal-flow matrix routes a dominant share of all "
    "inter-PE bytes across a bridge segment, making the bridge the "
    "bottleneck of the whole interconnect.",
)
register_rule(
    "M005",
    "fixed-mapping-contradiction",
    "error",
    "The «PlatformMapping» dependencies contradict each other or the type "
    "system: duplicate mappings for one group, or a Fixed mapping whose "
    "process type, or a member process's own type, cannot execute on the "
    "target PE.",
)

#: The relation's defects in where a mapping places a group: M001 reports
#: them on a movable mapping, M005 on a Fixed one.
_PLACEMENT_DEFECTS = (UNKNOWN_PE, CANNOT_RUN, UNTIMED_MEMBER)

#: M002 fires when one PE's static load share exceeds this and at least one
#: other compatible PE carries (almost) nothing.
OVERCOMMIT_SHARE = 0.90

#: M003 fires when a split pair carries at least this share of all
#: cross-group traffic bytes.
CHATTY_PAIR_SHARE = 0.35

#: M004 fires when bridge-crossing bytes are at least this share of all
#: inter-PE bytes.
BRIDGE_SATURATION_SHARE = 0.60


# ---------------------------------------------------------------------------
# Static profile + estimator (exploration's pruning oracle)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticProfile:
    """What the estimator needs from an application, computed once.

    ``statement_weight`` counts action-language statements per group (a
    static stand-in for computation volume); ``relation`` is the
    application's :class:`~repro.mapping.model.MappingRelation`;
    ``pair_bytes`` prices the directed group-to-group signal flow in wire
    bytes (send sites times :meth:`Signal.size_bytes`).
    """

    statement_weight: Dict[str, int]
    relation: MappingRelation
    pair_bytes: Dict[Tuple[str, str], int]

    def total_pair_bytes(self) -> int:
        return sum(self.pair_bytes.values())


@dataclass
class StaticEstimate:
    """One assignment scored without simulation."""

    cost: float
    pe_seconds: Dict[str, float]
    max_share: float
    cross_bytes: int
    bridge_bytes: int
    infeasible: Optional[str] = None


def _signal_bytes(application, signal_name: str) -> int:
    declared = application.signals.get(signal_name)
    if declared is None:
        return Signal.HEADER_BITS // 8
    return declared.size_bytes()


def static_application_profile(application) -> StaticProfile:
    """Group statement weights and the directed group traffic matrix."""
    assignment = application.group_assignment()
    weights: Dict[str, int] = {}
    for name, process in sorted(application.processes.items()):
        if process.is_environment:
            continue
        group = application.group_of(name)
        if group is None:
            continue
        machine = process.component.classifier_behavior
        count = 0
        if machine is not None:
            for stmts, _, _ in machine_blocks(machine):
                count += sum(1 for _ in walk_statements(stmts))
        weights[group] = weights.get(group, 0) + count
    pair_bytes: Dict[Tuple[str, str], int] = {}
    for (sender, receiver), signals in signal_flow_matrix(application).items():
        group_a = assignment.get(sender)
        group_b = assignment.get(receiver)
        if ENVIRONMENT_GROUP in (group_a, group_b) or None in (group_a, group_b):
            continue
        if group_a == group_b:
            continue
        total = sum(
            count * _signal_bytes(application, signal)
            for signal, count in signals.items()
        )
        key = (group_a, group_b)
        pair_bytes[key] = pair_bytes.get(key, 0) + total
    return StaticProfile(weights, MappingRelation.of(application), pair_bytes)


def static_mapping_estimate(
    profile: StaticProfile, platform, assignment: Dict[str, str]
) -> StaticEstimate:
    """Score ``assignment`` (group name -> PE name) on ``platform``.

    An assignment the mapping relation finds a defect in (an ungrouped
    process aside) gets ``infeasible`` set to its first defect and an
    infinite cost, so pruning and ranking need no special cases.
    """
    relation = profile.relation
    for defect in relation.defects(platform, assignment):
        if defect.kind != UNGROUPED_PROCESS:
            return StaticEstimate(float("inf"), {}, 0.0, 0, 0, infeasible=str(defect))
    pe_seconds: Dict[str, float] = {}
    for group, weight in sorted(profile.statement_weight.items()):
        pe_name = assignment[group]
        spec = platform.pe(pe_name).spec
        cycles = spec.cycles_per_statement[relation.group_types[group]]
        seconds = weight * cycles / float(spec.frequency_hz)
        pe_seconds[pe_name] = pe_seconds.get(pe_name, 0.0) + seconds

    bridges = {
        name for name, segment in platform.segments.items() if segment.is_bridge
    }
    cross_bytes = 0
    bridge_bytes = 0
    for (group_a, group_b), size in sorted(profile.pair_bytes.items()):
        pe_a, pe_b = assignment[group_a], assignment[group_b]
        if pe_a == pe_b:
            continue
        path = platform.transfer_path(pe_a, pe_b)
        cross_bytes += size * max(1, len(path))
        if len(path) > 1 or any(segment in bridges for segment in path):
            bridge_bytes += size

    total_seconds = sum(pe_seconds.values())
    max_share = (
        max(pe_seconds.values()) / total_seconds if total_seconds > 0 else 0.0
    )
    cost = cross_bytes + 1000.0 * max_share
    return StaticEstimate(cost, pe_seconds, max_share, cross_bytes, bridge_bytes)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_mapping(ctx: LintContext, findings: List[Finding]) -> None:
    """Run the mapping rules (M001-M005); needs platform and mapping views."""
    application, platform, mapping = ctx.application, ctx.platform, ctx.mapping
    if application is None or platform is None or mapping is None:
        return
    profile = static_application_profile(application)
    relation = profile.relation
    assignment = mapping.assignment()
    defects = relation.defects(platform, assignment)

    # M001: completeness, the relation's unmapped groups and ungrouped
    # processes, every defect of a movable mapping (an unknown PE, a PE
    # that cannot run the group or cannot time a member), plus mappings of
    # groups without members.  M005 reports a Fixed mapping's defects.
    for defect in defects:
        name = defect.name
        if defect.kind == UNMAPPED_GROUP:
            members = len(application.processes_in(name))
            message = (
                f"process group {name!r} has {members} member process(es) "
                "but no «PlatformMapping» dependency"
            )
            group = application.groups.get(name)
            ctx.emit(findings, "M001", message, f"group {name}", (group,))
        elif defect.kind == UNGROUPED_PROCESS:
            message = (
                f"process {name!r} belongs to no process group and can never "
                "be mapped"
            )
            part = application.processes[name].part
            ctx.emit(findings, "M001", message, f"process {name}", (part,))
        elif defect.kind in _PLACEMENT_DEFECTS and not mapping.is_fixed(name):
            group = application.groups.get(name)
            ctx.emit(findings, "M001", str(defect), f"group {name}", (group,))
    for group_name, group in sorted(application.groups.items()):
        mapped = group_name in assignment and group_name != ENVIRONMENT_GROUP
        if mapped and group_name not in relation.required:
            ctx.emit(
                findings,
                "M001",
                f"«PlatformMapping» of group {group_name!r} dangles: the "
                "group has no member processes",
                f"group {group_name}",
                (mapping.mappings.get(group_name), group),
            )

    estimate = static_mapping_estimate(profile, platform, assignment)

    # M002: one PE hoards the static load while a compatible peer idles.
    if estimate.infeasible is None:
        total_seconds = sum(estimate.pe_seconds.values())
        if total_seconds > 0:
            for pe_name, seconds in sorted(estimate.pe_seconds.items()):
                share = seconds / total_seconds
                if share < OVERCOMMIT_SHARE:
                    continue
                movable = [
                    group
                    for group, mapped_pe in sorted(assignment.items())
                    if mapped_pe == pe_name
                    and len(relation.pes_for(platform, group)) > 1
                ]
                if not movable:
                    continue  # nothing could run elsewhere anyway
                ctx.emit(
                    findings,
                    "M002",
                    f"PE {pe_name!r} carries {share:.0%} of the static load "
                    f"estimate; group(s) {', '.join(movable)} could move to "
                    "an idle compatible PE",
                    f"pe {pe_name}",
                    (platform.pe(pe_name).part,),
                )

    # M003: chatty pair split across disjoint segments.
    total_pair = profile.total_pair_bytes()
    if total_pair > 0:
        seen_pairs = set()
        for (group_a, group_b) in sorted(profile.pair_bytes):
            pair = tuple(sorted((group_a, group_b)))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            volume = profile.pair_bytes.get((pair[0], pair[1]), 0) + profile.pair_bytes.get(
                (pair[1], pair[0]), 0
            )
            share = volume / total_pair
            if share < CHATTY_PAIR_SHARE:
                continue
            pe_a = assignment.get(pair[0])
            pe_b = assignment.get(pair[1])
            if pe_a is None or pe_b is None or pe_a == pe_b:
                continue
            if set(platform.segments_of(pe_a)) & set(platform.segments_of(pe_b)):
                continue
            ctx.emit(
                findings,
                "M003",
                f"groups {pair[0]!r} (on {pe_a}) and {pair[1]!r} (on {pe_b}) "
                f"exchange {share:.0%} of all cross-group bytes across "
                "disjoint HIBI segments",
                f"groups {pair[0]}<->{pair[1]}",
                (application.groups.get(pair[0]), application.groups.get(pair[1])),
            )

    # M004: the bridge carries a dominant share of all inter-PE bytes.  The
    # share is computed over *unweighted* bytes — ``estimate.cross_bytes``
    # multiplies by hop count, which would cap a 3-hop bridge path at 1/3.
    # A feasible assignment maps every group that sends or receives.
    raw_cross_bytes = estimate.infeasible is None and sum(
        size
        for (group_a, group_b), size in profile.pair_bytes.items()
        if assignment[group_a] != assignment[group_b]
    )
    if raw_cross_bytes:
        bridge_share = estimate.bridge_bytes / raw_cross_bytes
        if bridge_share >= BRIDGE_SATURATION_SHARE:
            bridge_parts = tuple(
                segment.part
                for name, segment in sorted(platform.segments.items())
                if segment.is_bridge
            )
            ctx.emit(
                findings,
                "M004",
                f"{bridge_share:.0%} of the statically estimated inter-PE "
                "bytes cross a bridge segment; the bridge becomes the "
                "interconnect bottleneck",
                "platform bridge",
                bridge_parts,
            )

    # M005: contradictory «PlatformMapping» dependencies.
    by_group: Dict[str, List[Dependency]] = {}
    for dependency in mapping.package.members_of_type(Dependency):
        if not dependency.has_stereotype(PLATFORM_MAPPING):
            continue
        if len(dependency.clients) != 1 or len(dependency.suppliers) != 1:
            continue
        by_group.setdefault(dependency.client.name, []).append(dependency)
    for group_name, dependencies in sorted(by_group.items()):
        if len(dependencies) > 1:
            targets = ", ".join(
                sorted(dependency.supplier.name for dependency in dependencies)
            )
            ctx.emit(
                findings,
                "M005",
                f"group {group_name!r} has {len(dependencies)} "
                f"«PlatformMapping» dependencies ({targets}); the flow keeps "
                "an arbitrary one",
                f"group {group_name}",
                tuple(dependencies),
            )
    for defect in defects:
        if not mapping.is_fixed(defect.name):
            continue
        if defect.kind == UNKNOWN_PE:
            message = (
                f"fixed mapping of group {defect.name!r} targets unknown PE "
                f"{defect.pe!r}"
            )
        elif defect.kind == CANNOT_RUN:
            message = (
                f"fixed mapping pins group {defect.name!r} "
                f"({defect.group_type}) to {defect.pe!r} ({defect.pe_type}), "
                "which cannot execute it"
            )
        elif defect.kind == UNTIMED_MEMBER:
            message = str(defect)
        else:
            continue
        subject = f"group {defect.name}"
        ctx.emit(findings, "M005", message, subject, (mapping.mappings[defect.name],))
