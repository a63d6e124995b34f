"""Platform mapping (paper Section 3.3).

"When both an application and platform have been defined, each group of
application processes is mapped to a platform component instance.  Mapping
is performed by defining a dependency between a process group and a
platform component instance."

:class:`MappingModel` owns those «PlatformMapping» dependencies and answers
the central query of the whole flow: *which PE runs this process?*
:class:`MappingRelation` states once which mappings are legal; mapping,
simulation, exploration and lint all read it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import MappingError
from repro.uml.dependency import Dependency
from repro.uml.packages import Package
from repro.tutprofile import PLATFORM_MAPPING, PROCESS_GROUP, TUT_PROFILE
from repro.tutprofile.tags import ProcessType, process_runs_on
from repro.application.model import ApplicationModel, ENVIRONMENT_GROUP
from repro.platform.model import PlatformModel

#: The kinds of :class:`MappingDefect`, and how each reads.
UNKNOWN_GROUP = "unknown-group"
UNKNOWN_PE = "unknown-pe"
CANNOT_RUN = "cannot-run"
UNTIMED_MEMBER = "untimed-member"
UNMAPPED_GROUP = "unmapped-group"
UNGROUPED_PROCESS = "ungrouped-process"
_DEFECT_TEXT = {
    UNKNOWN_GROUP: "application has no process group {name!r}",
    UNKNOWN_PE: "platform has no PE named {pe!r}",
    CANNOT_RUN: "group {name!r} ({group_type}) cannot run on {pe!r} ({pe_type})",
    UNTIMED_MEMBER: "process {process!r} ({process_type}) of group {name!r} "
    "cannot run on {pe!r} ({pe_type}): the PE has no cycle cost for its type",
    UNMAPPED_GROUP: "group {name!r} is not mapped",
    UNGROUPED_PROCESS: "process {name!r} belongs to no process group",
}


class MappingDefect(NamedTuple):
    """One thing wrong with an assignment: ``name`` is the group (the
    process, for an ungrouped process), ``pe`` the PE it names and
    ``process`` the member that PE cannot time."""

    kind: str
    name: str
    pe: Optional[str] = None
    group_type: Optional[str] = None
    pe_type: Optional[str] = None
    process: Optional[str] = None
    process_type: Optional[str] = None

    def __str__(self) -> str:
        return _DEFECT_TEXT[self.kind].format_map(self._asdict())


def process_type_of(group) -> str:
    """A «ProcessGroup»'s ProcessType (Table 2); untagged means general."""
    return group.tag(PROCESS_GROUP, "ProcessType", ProcessType.GENERAL)


def runs_on(group_type: str, spec) -> bool:
    """Whether a group of ``group_type`` may run on a PE of ``spec``.

    Tables 2 and 3 must allow the pair, and the PE must have a cycle cost
    for the type, or the simulator cannot time a statement of that type."""
    return spec.supports(group_type) and process_runs_on(group_type, spec.component_type)


class MappingRelation(NamedTuple):
    """Which PEs a group may run on, and what is wrong with an assignment.

    :meth:`of` reads each group's ProcessType, the groups that need a PE,
    the non-environment processes that no group holds and each grouped
    one's own ProcessType, which the simulator prices its steps by."""

    group_types: Dict[str, str]
    required: Tuple[str, ...] = ()
    ungrouped: Tuple[str, ...] = ()
    #: ``(group, process, ProcessType)`` of every grouped non-environment
    #: process: a PE the group runs on needs a cycle cost for each type
    members: Tuple[Tuple[str, str, str], ...] = ()

    @classmethod
    def of(cls, application: ApplicationModel) -> "MappingRelation":
        groups = application.groups
        held = {
            n for n in groups if n != ENVIRONMENT_GROUP and application.processes_in(n)
        }
        # process -> its group (None: ungrouped), even one that is no «ProcessGroup»
        placed = {
            name: application.group_of(name)
            for name, process in sorted(application.processes.items())
            if not process.is_environment
        }
        return cls(
            {name: process_type_of(group) for name, group in sorted(groups.items())},
            tuple(sorted(held.union(placed.values()) - {None})),
            tuple(name for name, group in placed.items() if group is None),
            tuple(
                (group, name, application.processes[name].process_type())
                for name, group in placed.items()
                if group is not None
            ),
        )

    def _untimed(self, group_name: str, spec) -> Optional[Tuple[str, str]]:
        """The first member of ``group_name``, with its ProcessType, that a
        PE of ``spec`` has no cycle cost for; ``None`` when it times all."""
        for group, process, process_type in self.members:
            if group == group_name and not spec.supports(process_type):
                return process, process_type
        return None

    def pes_for(self, platform: PlatformModel, group_name: str) -> List[str]:
        """The PEs ``group_name`` may run on, by name."""
        group_type = self.group_types.get(group_name)
        pes = sorted(platform.processing_elements.items())
        return [
            name
            for name, pe in pes
            if runs_on(group_type, pe.spec)
            and self._untimed(group_name, pe.spec) is None
        ]

    def defects(
        self, platform: PlatformModel, assignment: Mapping[str, str]
    ) -> List[MappingDefect]:
        """Every defect of ``assignment`` (group name -> PE name): at most
        one per group, in name order, then one per ungrouped process."""
        found = []
        for name in sorted(set(self.required).union(assignment)):
            pe_name = assignment.get(name)
            group_type = self.group_types.get(name)
            pe = platform.processing_elements.get(pe_name)
            if pe_name is None:
                found.append(MappingDefect(UNMAPPED_GROUP, name))
            elif group_type is None:
                found.append(MappingDefect(UNKNOWN_GROUP, name, pe_name))
            elif pe is None:
                found.append(MappingDefect(UNKNOWN_PE, name, pe_name))
            elif not runs_on(group_type, pe.spec):
                pe_type = pe.spec.component_type
                found.append(
                    MappingDefect(CANNOT_RUN, name, pe_name, group_type, pe_type)
                )
            elif self._untimed(name, pe.spec) is not None:
                process, process_type = self._untimed(name, pe.spec)
                pe_type = pe.spec.component_type
                found.append(
                    MappingDefect(
                        UNTIMED_MEMBER, name, pe_name, group_type, pe_type,
                        process, process_type,
                    )
                )
        found.extend(MappingDefect(UNGROUPED_PROCESS, name) for name in self.ungrouped)
        return found


class MappingModel:
    """Maps the process groups of an application onto platform instances."""

    def __init__(
        self,
        application: ApplicationModel,
        platform: PlatformModel,
        profile=None,
        view_name: str = "MappingView",
    ) -> None:
        self.application = application
        self.platform = platform
        self.profile = profile if profile is not None else TUT_PROFILE
        self.package = Package(view_name)
        # The mapping view lives in the application's model so one XMI file
        # can carry all three views (the profiling tool parses one document).
        self.application.model.add(self.package)
        self.mappings: Dict[str, Dependency] = {}  # group name -> dependency

    # ------------------------------------------------------------------
    # reconstruction from a (possibly XMI-parsed) UML model
    # ------------------------------------------------------------------

    @classmethod
    def from_model(
        cls,
        application: ApplicationModel,
        platform: PlatformModel,
        profile=None,
        view_name: str = "MappingView",
    ) -> "MappingModel":
        """Rebuild the mapping view from dependencies found in the model."""
        mapping = cls.__new__(cls)
        mapping.application = application
        mapping.platform = platform
        mapping.profile = profile if profile is not None else TUT_PROFILE
        package = application.model.member(view_name)
        if package is None:
            raise MappingError(f"model has no {view_name} package")
        mapping.package = package
        mapping.mappings = {}
        for dependency in package.members_of_type(Dependency):
            if not dependency.has_stereotype(PLATFORM_MAPPING):
                continue
            if len(dependency.clients) != 1 or len(dependency.suppliers) != 1:
                continue  # cross-model reference lost in serialisation
            mapping.mappings[dependency.client.name] = dependency
        return mapping

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def map(self, group_name: str, pe_name: str, fixed: bool = False) -> Dependency:
        """Map ``group_name`` onto ``pe_name`` if the relation allows it."""
        group = self.application.groups.get(group_name)
        # the relation over this one group: no other group is required
        known = {} if group is None else {group_name: process_type_of(group)}
        members = tuple(
            (group_name, process.name, process.process_type())
            for process in self.application.processes_in(group_name)
            if not process.is_environment
        )
        relation = MappingRelation(known, members=members)
        defects = relation.defects(self.platform, {group_name: pe_name})
        if defects:
            raise MappingError(str(defects[0]))
        if group_name in self.mappings:
            raise MappingError(
                f"group {group_name!r} is already mapped; unmap it first"
            )
        pe = self.platform.pe(pe_name)
        dependency = Dependency(
            f"{group_name}_to_{pe_name}", client=group, supplier=pe.part
        )
        self.package.add(dependency)
        self.profile.apply(dependency, PLATFORM_MAPPING, Fixed=fixed)
        self.mappings[group_name] = dependency
        return dependency

    def unmap(self, group_name: str) -> None:
        """Remove a group's mapping; fixed mappings refuse (paper §3.3)."""
        dependency = self.mappings.get(group_name)
        if dependency is None:
            raise MappingError(f"group {group_name!r} is not mapped")
        if dependency.tag(PLATFORM_MAPPING, "Fixed", False):
            raise MappingError(
                f"mapping of {group_name!r} is fixed and cannot be changed "
                "automatically"
            )
        del self.mappings[group_name]
        self.package.disown(dependency)
        self.package.packaged_elements.remove(dependency)

    def remap(self, group_name: str, pe_name: str, fixed: bool = False) -> Dependency:
        """Move a (non-fixed) group to a different PE."""
        if group_name in self.mappings:
            self.unmap(group_name)
        return self.map(group_name, pe_name, fixed=fixed)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def pe_of_group(self, group_name: str) -> Optional[str]:
        dependency = self.mappings.get(group_name)
        if dependency is None:
            return None
        # supplier is the PE part; recover the instance name
        return dependency.supplier.name

    def pe_of_process(self, process_name: str) -> Optional[str]:
        """The PE a process executes on; ``None`` for environment processes."""
        process = self.application.find_process(process_name)
        if process.is_environment:
            return None
        group_name = self.application.group_of(process_name)
        if group_name is None:
            return None
        return self.pe_of_group(group_name)

    def groups_on(self, pe_name: str) -> List[str]:
        return sorted(
            group
            for group, dependency in self.mappings.items()
            if dependency.supplier.name == pe_name
        )

    def is_fixed(self, group_name: str) -> bool:
        dependency = self.mappings.get(group_name)
        return bool(
            dependency is not None and dependency.tag(PLATFORM_MAPPING, "Fixed", False)
        )

    def assignment(self) -> Dict[str, str]:
        """Mapping group name -> PE name for all mapped groups."""
        return {g: d.supplier.name for g, d in self.mappings.items()}

    def check_complete(self) -> None:
        """Raise on the relation's defects: unmapped groups and ungrouped
        processes together, else the first pair it rejects (a mapping
        rebuilt from a model never passed :meth:`map`)."""
        defects = MappingRelation.of(self.application).defects(
            self.platform, self.assignment()
        )
        missing = [d.name for d in defects if d.kind == UNMAPPED_GROUP]
        ungrouped = [d.name for d in defects if d.kind == UNGROUPED_PROCESS]
        parts = [f"unmapped groups: {', '.join(missing)}"] if missing else []
        if ungrouped:
            parts.append("ungrouped processes: " + ", ".join(ungrouped))
        if defects:
            raise MappingError("; ".join(parts) or str(defects[0]))

    def describe(self) -> str:
        lines = ["Platform mapping:"]
        for group_name in sorted(self.mappings):
            fixed = " (fixed)" if self.is_fixed(group_name) else ""
            lines.append(
                f"  {group_name} -> {self.pe_of_group(group_name)}{fixed}"
            )
        return "\n".join(lines)
