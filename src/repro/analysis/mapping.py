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
from repro.tutprofile.tags import process_runs_on
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
    "no group, or a mapping points at an empty group — the lint-grade twin "
    "of MappingModel.check_complete().",
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
    "process type cannot execute on the target PE.",
)

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
    static stand-in for computation volume); ``pair_bytes`` prices the
    directed group-to-group signal flow in wire bytes (send sites times
    :meth:`Signal.size_bytes`).
    """

    statement_weight: Dict[str, int]
    group_types: Dict[str, str]
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

    def to_json_dict(self) -> dict:
        payload = {
            "cost": round(self.cost, 6),
            "max_share": round(self.max_share, 6),
            "cross_bytes": self.cross_bytes,
            "bridge_bytes": self.bridge_bytes,
        }
        if self.infeasible is not None:
            payload["infeasible"] = self.infeasible
        return payload


def _signal_bytes(application, signal_name: str) -> int:
    declared = application.signals.get(signal_name)
    if declared is None:
        return Signal.HEADER_BITS // 8
    return declared.size_bytes()


def static_application_profile(application) -> StaticProfile:
    """Group statement weights and the directed group traffic matrix."""
    assignment = application.group_assignment()
    group_types = {
        name: group.tag("ProcessGroup", "ProcessType", "general")
        for name, group in sorted(application.groups.items())
    }
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
            for _, stmts, _ in machine_blocks(machine):
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
    return StaticProfile(weights, group_types, pair_bytes)


def static_mapping_estimate(
    profile: StaticProfile, platform, assignment: Dict[str, str]
) -> StaticEstimate:
    """Score ``assignment`` (group name -> PE name) on ``platform``.

    An infeasible assignment — missing group, unknown PE, or a process
    type the PE cannot execute — gets ``infeasible`` set and an infinite
    cost, so pruning and ranking need no special cases.
    """
    pe_seconds: Dict[str, float] = {}
    for group, weight in sorted(profile.statement_weight.items()):
        pe_name = assignment.get(group)
        if pe_name is None:
            return StaticEstimate(
                float("inf"), {}, 0.0, 0, 0,
                infeasible=f"group {group!r} is not mapped",
            )
        if pe_name not in platform.processing_elements:
            return StaticEstimate(
                float("inf"), {}, 0.0, 0, 0,
                infeasible=f"platform has no PE named {pe_name!r}",
            )
        pe = platform.pe(pe_name)
        group_type = profile.group_types.get(group, "general")
        if not process_runs_on(group_type, pe.spec.component_type):
            return StaticEstimate(
                float("inf"), {}, 0.0, 0, 0,
                infeasible=(
                    f"group {group!r} ({group_type}) cannot run on "
                    f"{pe_name!r} ({pe.spec.component_type})"
                ),
            )
        cycles = pe.spec.cycles_per_statement.get(group_type)
        if cycles is None:
            return StaticEstimate(
                float("inf"), {}, 0.0, 0, 0,
                infeasible=(
                    f"PE {pe_name!r} has no cycle cost for {group_type!r}"
                ),
            )
        seconds = weight * cycles / float(pe.spec.frequency_hz)
        pe_seconds[pe_name] = pe_seconds.get(pe_name, 0.0) + seconds

    bridges = {
        name for name, segment in platform.segments.items() if segment.is_bridge
    }
    cross_bytes = 0
    bridge_bytes = 0
    for (group_a, group_b), size in sorted(profile.pair_bytes.items()):
        pe_a = assignment.get(group_a)
        pe_b = assignment.get(group_b)
        if pe_a is None or pe_b is None or pe_a == pe_b:
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


def _compatible_pes(profile: StaticProfile, platform, group: str) -> List[str]:
    group_type = profile.group_types.get(group, "general")
    return [
        name
        for name, pe in sorted(platform.processing_elements.items())
        if process_runs_on(group_type, pe.spec.component_type)
    ]


def check_mapping(ctx: LintContext, findings: List[Finding]) -> None:
    """Run the mapping rules (M001-M005); needs platform and mapping views."""
    application, platform, mapping = ctx.application, ctx.platform, ctx.mapping
    if application is None or platform is None or mapping is None:
        return

    # M001: completeness — the lint-grade twin of check_complete().
    for group_name, group in sorted(application.groups.items()):
        if group_name == ENVIRONMENT_GROUP:
            continue
        members = application.processes_in(group_name)
        mapped = mapping.pe_of_group(group_name) is not None
        if members and not mapped:
            ctx.emit(
                findings,
                "M001",
                f"process group {group_name!r} has "
                f"{len(members)} member process(es) but no «PlatformMapping» "
                "dependency",
                f"group {group_name}",
                (group,),
            )
        elif not members and mapped:
            ctx.emit(
                findings,
                "M001",
                f"«PlatformMapping» of group {group_name!r} dangles: the "
                "group has no member processes",
                f"group {group_name}",
                (mapping.mappings.get(group_name), group),
            )
    for name, process in sorted(application.processes.items()):
        if process.is_environment or application.group_of(name) is not None:
            continue
        ctx.emit(
            findings,
            "M001",
            f"process {name!r} belongs to no process group and can never "
            "be mapped",
            f"process {name}",
            (process.part,),
        )

    profile = static_application_profile(application)
    assignment = mapping.assignment()
    estimate = static_mapping_estimate(profile, platform, assignment)

    # M002: one PE hoards the static load while a compatible peer idles.
    if estimate.infeasible is None and len(estimate.pe_seconds) >= 0:
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
                    and len(_compatible_pes(profile, platform, group)) > 1
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
    raw_cross_bytes = sum(
        size
        for (group_a, group_b), size in profile.pair_bytes.items()
        if assignment.get(group_a) is not None
        and assignment.get(group_b) is not None
        and assignment[group_a] != assignment[group_b]
    )
    if estimate.infeasible is None and raw_cross_bytes > 0:
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
    for group_name in sorted(mapping.mappings):
        if not mapping.is_fixed(group_name):
            continue
        pe_name = mapping.pe_of_group(group_name)
        if pe_name not in platform.processing_elements:
            ctx.emit(
                findings,
                "M005",
                f"fixed mapping of group {group_name!r} targets unknown PE "
                f"{pe_name!r}",
                f"group {group_name}",
                (mapping.mappings[group_name],),
            )
            continue
        group_type = profile.group_types.get(group_name, "general")
        pe = platform.pe(pe_name)
        if not process_runs_on(group_type, pe.spec.component_type):
            ctx.emit(
                findings,
                "M005",
                f"fixed mapping pins group {group_name!r} ({group_type}) to "
                f"{pe_name!r} ({pe.spec.component_type}), which cannot "
                "execute it",
                f"group {group_name}",
                (mapping.mappings[group_name],),
            )
