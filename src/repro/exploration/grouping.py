"""Process-grouping strategies (paper Section 3.1).

"The grouping can be performed according to different criteria, such as the
preliminary scheduling of application processes, workload distribution,
communication between process groups, dependencies between process groups,
and size of a process group."  The paper groups manually; its future work
announces "tools for automatic grouping according to the profiling
information and process types" — these are those tools.

Every strategy returns a ``{process name: group name}`` assignment that
:func:`repro.cases.tutmac.build_tutmac` (or any application builder taking
a grouping) can apply.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.plan import _hash_site
from repro.profiling.analysis import ProfilingData


def per_process_grouping(process_names, process_types: Dict[str, str]) -> Dict[str, str]:
    """One group per process (the finest granularity, maximal bus traffic)."""
    return {name: f"g_{name}" for name in process_names}


def single_group_grouping(process_names, process_types: Dict[str, str]) -> Dict[str, str]:
    """Everything in one group per process type (coarsest mappable form).

    Hardware processes cannot share a group with software ones (a group has
    one ProcessType), so they get their own group.
    """
    assignment = {}
    for name in process_names:
        kind = process_types.get(name, "general")
        assignment[name] = "g_hw" if kind == "hardware" else "g_sw"
    return assignment


def round_robin_grouping(
    process_names, process_types: Dict[str, str], group_count: int, seed: int = 1
) -> Dict[str, str]:
    """A deterministic arbitrary grouping (the 'uninformed designer')."""
    assignment = {}
    software = [n for n in process_names if process_types.get(n) != "hardware"]
    hardware = [n for n in process_names if process_types.get(n) == "hardware"]
    # deterministic shuffle: sort by a seeded FNV-1a hash of the name,
    # which (unlike ``hash``) does not change with PYTHONHASHSEED
    software.sort(key=lambda n: _hash_site(f"{seed}:{n}"))
    for index, name in enumerate(software):
        assignment[name] = f"g{index % max(1, group_count - (1 if hardware else 0))}"
    for name in hardware:
        assignment[name] = "g_hw"
    return assignment


def communication_minimizing_grouping(
    profiling: ProfilingData,
    process_types: Dict[str, str],
    group_count: int,
) -> Dict[str, str]:
    """Greedy merge: start per-process, repeatedly merge the pair of groups
    with the heaviest mutual signal traffic until ``group_count`` remain.

    This implements the paper's stated objective: "The objective in grouping
    has been to minimize the communication between process groups" (§4.1).
    Hardware-type processes are kept in their own group(s) since a group's
    ProcessType must be executable by one component instance.
    """
    traffic = profiling.process_signals
    names = sorted(process_types)
    clusters: Dict[str, List[str]] = {}
    for name in names:
        clusters[name] = [name]

    def kind_of(cluster: List[str]) -> str:
        return process_types.get(cluster[0], "general")

    def weight(a: str, b: str) -> int:
        total = 0
        for pa in clusters[a]:
            for pb in clusters[b]:
                total += traffic.get((pa, pb), 0) + traffic.get((pb, pa), 0)
        return total

    while len(clusters) > group_count:
        best: Optional[Tuple[str, str]] = None
        best_weight = -1
        keys = sorted(clusters)
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                if kind_of(clusters[a]) != kind_of(clusters[b]):
                    continue
                w = weight(a, b)
                if w > best_weight:
                    best_weight = w
                    best = (a, b)
        if best is None:
            break  # only incompatible clusters remain
        a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]

    assignment: Dict[str, str] = {}
    for index, key in enumerate(sorted(clusters)):
        for name in clusters[key]:
            assignment[name] = f"group{index + 1}"
    return assignment


def external_traffic(assignment: Dict[str, str], profiling: ProfilingData) -> int:
    """Signals that would cross group boundaries under ``assignment``."""
    total = 0
    for (sender, receiver), count in profiling.process_signals.items():
        group_a = assignment.get(sender)
        group_b = assignment.get(receiver)
        if group_a is None or group_b is None:
            continue  # environment endpoints do not count
        if group_a != group_b:
            total += count
    return total
