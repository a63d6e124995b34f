"""Cross-process signal-flow analysis (rules S001-S004).

Builds the static send/receive matrix of the application from the
behaviours (every ``send`` statement) and the composite-structure routing
(:meth:`ApplicationModel.send_destinations`), then checks it for:

* sends that route nowhere (S002) or to processes that never trigger on
  the signal (S001 — "lost signals");
* triggers on signals nothing ever sends (S003 — "dead receivers");
* request/reply cycles between process groups mapped to PEs on different
  HIBI segments, which can deadlock when both directions saturate the
  finite wrapper FIFOs (S004 — needs the platform and mapping views).

The matrix itself (:func:`signal_flow_matrix`) is the static twin of the
profiler's *measured* signal-count matrix (paper Figure 2): the profiler
counts transfers that happened in one simulation; this counts send
statements that can route, so the two can be cross-referenced.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.core import Finding, LintContext, register_rule
from repro.uml.actions import Send, walk_statements
from repro.uml.statemachine import machine_blocks

register_rule(
    "S001",
    "lost-signal",
    "error",
    "The send routes to a process whose state machine never triggers on the "
    "signal, so every delivery is dropped at the receiver's queue.",
)
register_rule(
    "S002",
    "unrouted-send",
    "error",
    "No connector path carries the signal from the sending process, so the "
    "send faults (or vanishes) at run time.",
)
register_rule(
    "S003",
    "dead-receiver",
    "warning",
    "The state machine waits on a signal no process (or environment "
    "boundary) ever sends to it, so the triggered transitions are dead.",
)
register_rule(
    "S004",
    "cross-segment-cycle",
    "warning",
    "Two process groups on PEs of different HIBI segments send to each "
    "other (request/reply); with finite wrapper FIFOs both directions can "
    "fill across the bridge and deadlock the bus.",
)


def _machine_of(process) -> Optional[object]:
    return process.component.classifier_behavior


def process_sends(application) -> List[Tuple[str, Send, str, object]]:
    """Every send site: ``(process, stmt, where, anchor)`` over all behaviours."""
    sites = []
    seen_components: Dict[int, List[Tuple[Send, str, object]]] = {}
    for name, process in sorted(application.processes.items()):
        machine = _machine_of(process)
        if machine is None:
            continue
        key = id(machine)
        if key not in seen_components:
            collected = []
            for where, stmts, anchor in machine_blocks(machine):
                for stmt in walk_statements(stmts):
                    if isinstance(stmt, Send):
                        collected.append((stmt, where, anchor))
            seen_components[key] = collected
        for stmt, where, anchor in seen_components[key]:
            sites.append((name, stmt, where, anchor))
    return sites


def signal_flow_matrix(application) -> Dict[Tuple[str, str], Dict[str, int]]:
    """Static send matrix: ``(sender, receiver) -> {signal: send-site count}``.

    Counts distinct routable send statements, so a cell's signals are the
    alphabet that *can* flow on that edge — compare with the profiler's
    measured per-run counts (paper Figure 2).
    """
    matrix: Dict[Tuple[str, str], Dict[str, int]] = {}
    for sender, stmt, _, _ in process_sends(application):
        for receiver, _ in application.send_destinations(sender, stmt.signal, stmt.via):
            cell = matrix.setdefault((sender, receiver), {})
            cell[stmt.signal] = cell.get(stmt.signal, 0) + 1
    return matrix


def group_flow_matrix(application) -> Dict[Tuple[str, str], Set[str]]:
    """Group-level aggregation of the signal-flow matrix (Figure 2 shape)."""
    assignment = application.group_assignment()
    matrix: Dict[Tuple[str, str], Set[str]] = {}
    for (sender, receiver), signals in signal_flow_matrix(application).items():
        key = (assignment.get(sender), assignment.get(receiver))
        matrix.setdefault(key, set()).update(signals)
    return matrix


def check_application(ctx: LintContext, findings: List[Finding]) -> None:
    """Run all signal-flow rules over the application (plus platform/mapping
    when present for S004)."""
    application = ctx.application

    received: Dict[str, Set[str]] = {}
    for name, process in application.processes.items():
        machine = _machine_of(process)
        received[name] = set(machine.received_signal_names()) if machine else set()

    # S001/S002 per send site; collect the delivery matrix along the way.
    delivered_to: Dict[str, Set[str]] = {name: set() for name in received}
    for sender, stmt, where, anchor in process_sends(application):
        destinations = application.send_destinations(sender, stmt.signal, stmt.via)
        if not destinations:
            via = f" via {stmt.via!r}" if stmt.via else ""
            ctx.emit(
                findings,
                "S002",
                f"send {stmt.signal!r}{via} in {where} has no route to any "
                "process",
                f"process {sender}",
                (anchor,),
            )
            continue
        for receiver, _port in destinations:
            delivered_to[receiver].add(stmt.signal)
            process = application.processes[receiver]
            if process.is_environment:
                continue  # the testbench absorbs whatever crosses the boundary
            if stmt.signal not in received[receiver]:
                ctx.emit(
                    findings,
                    "S001",
                    f"send {stmt.signal!r} in {where} routes to process "
                    f"{receiver!r}, which never triggers on it",
                    f"process {sender}",
                    (anchor, application.processes[receiver].part),
                )

    # S003: triggers never fed by any send.
    for name in sorted(received):
        process = application.processes[name]
        if process.is_environment:
            continue
        machine = _machine_of(process)
        for signal in sorted(received[name] - delivered_to[name]):
            ctx.emit(
                findings,
                "S003",
                f"process {name!r} triggers on signal {signal!r} but no "
                "send ever routes it there",
                f"process {name}",
                (machine, process.part),
            )

    if ctx.platform is not None and ctx.mapping is not None:
        _check_cross_segment_cycles(ctx, findings)


def _check_cross_segment_cycles(ctx: LintContext, findings: List[Finding]) -> None:
    application, platform, mapping = ctx.application, ctx.platform, ctx.mapping
    group_matrix = group_flow_matrix(application)
    groups = sorted(
        g for g in application.groups if mapping.pe_of_group(g) is not None
    )
    for i, group_a in enumerate(groups):
        for group_b in groups[i + 1:]:
            forward = group_matrix.get((group_a, group_b))
            backward = group_matrix.get((group_b, group_a))
            if not forward or not backward:
                continue
            pe_a = mapping.pe_of_group(group_a)
            pe_b = mapping.pe_of_group(group_b)
            if pe_a == pe_b:
                continue
            segments_a = set(platform.segments_of(pe_a))
            segments_b = set(platform.segments_of(pe_b))
            if segments_a & segments_b:
                continue  # same segment: the wrapper pair cannot cross-block
            depths = []
            for pe, segments in ((pe_a, segments_a), (pe_b, segments_b)):
                for segment in sorted(segments):
                    depths.append(platform.wrapper_of(pe, segment).spec.rx_buffer_words)
            depth = min(depths) if depths else 0
            ctx.emit(
                findings,
                "S004",
                f"groups {group_a!r} (on {pe_a}) and {group_b!r} (on {pe_b}) "
                f"exchange request/reply traffic "
                f"({', '.join(sorted(forward))} / {', '.join(sorted(backward))}) "
                "across different HIBI segments; with wrapper FIFOs of "
                f"{depth} word(s) both directions can fill the bridge and "
                "deadlock",
                f"groups {group_a}<->{group_b}",
                (application.groups[group_a], application.groups[group_b]),
            )
