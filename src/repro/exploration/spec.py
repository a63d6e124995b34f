"""Picklable candidate specifications for the exploration engine.

A :class:`CandidateSpec` describes one design point of the paper's
Figure 2 loop — a grouping, a group→PE mapping, an optional fault plan and
a simulation horizon — **by value**, so it can cross a process boundary
and be hashed for the on-disk result cache.  No UML objects are ever
pickled; the fault plan is a frozen :class:`~repro.faults.FaultPlan`,
itself a value, which each evaluation's simulation injects through a
fresh :class:`~repro.faults.FaultInjector`.

The paper keeps the application, the platform and the mapping as
separate views, so a candidate that only changes the mapping does not
rebuild the application.  Each process caches one :class:`DesignView`,
keyed by ``(builder, grouping, arq)``: the built system, one reusable
mapping view and each machine's plan and compiled code.
:func:`build_system` re-maps the cached view for every candidate, and a
spec with another key replaces it.

The builder is referenced by dotted path (``"module:callable"``).  A
builder callable must return a fresh ``(application, platform)`` pair per
call; it may accept ``grouping=`` (process→group dict) and ``arq=``
keyword arguments, which are only passed when the spec sets them.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import ExplorationError
from repro.faults.plan import FaultPlan

#: Bump when the spec encoding changes incompatibly: old cache entries
#: then miss instead of deserialising garbage.
SPEC_SCHEMA = 1


Builder = Union[str, Callable]


def builder_ref(builder: Builder) -> Optional[str]:
    """The ``"module:callable"`` path of ``builder``, or None.

    None means the builder cannot be re-imported by name (a lambda, a
    closure, an unsaved interactive definition): such candidates still
    evaluate serially in-process but cannot be cached or shipped to
    worker processes.
    """
    if isinstance(builder, str):
        return builder
    module = getattr(builder, "__module__", None)
    qualname = getattr(builder, "__qualname__", "")
    if not module or not qualname or "<" in qualname or "." in qualname:
        return None
    try:
        resolved = getattr(importlib.import_module(module), qualname, None)
    except ImportError:
        return None
    return f"{module}:{qualname}" if resolved is builder else None


def resolve_builder(builder: Builder) -> Callable:
    """The live callable behind a builder reference."""
    if callable(builder):
        return builder
    module_name, _, attr = builder.partition(":")
    if not attr:
        raise ExplorationError(
            f"builder reference {builder!r} is not of the form 'module:callable'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ExplorationError(f"cannot import builder module {module_name!r}: {exc}")
    target = getattr(module, attr, None)
    if not callable(target):
        raise ExplorationError(f"builder {builder!r} does not name a callable")
    return target


@dataclass(frozen=True)
class CandidateSpec:
    """One design point, encoded by value.

    ``mapping`` and ``grouping`` are sorted name-pair tuples (hashable,
    canonical); use :attr:`mapping_dict`/:attr:`grouping_dict` for the
    dict views.  ``label`` is presentation-only and excluded from the
    content hash — two specs differing only in label share a cache entry.
    """

    builder: Builder
    mapping: Tuple[Tuple[str, str], ...]
    grouping: Optional[Tuple[Tuple[str, str], ...]] = None
    duration_us: int = 20_000
    faults: Optional[FaultPlan] = None
    arq: bool = False
    label: str = field(default="", compare=False)

    @staticmethod
    def make(
        builder: Builder,
        mapping: Dict[str, str],
        grouping: Optional[Dict[str, str]] = None,
        duration_us: int = 20_000,
        faults: Optional[FaultPlan] = None,
        arq: bool = False,
        label: str = "",
    ) -> "CandidateSpec":
        """Build a spec from plain dicts (canonicalises the pair order)."""
        return CandidateSpec(
            builder=builder,
            mapping=tuple(sorted(mapping.items())),
            grouping=tuple(sorted(grouping.items())) if grouping else None,
            duration_us=duration_us,
            faults=faults,
            arq=arq,
            label=label,
        )

    @property
    def mapping_dict(self) -> Dict[str, str]:
        return dict(self.mapping)

    @property
    def grouping_dict(self) -> Optional[Dict[str, str]]:
        return dict(self.grouping) if self.grouping is not None else None

    # -- canonical encoding / hashing ----------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        ref = builder_ref(self.builder)
        return {
            "schema": SPEC_SCHEMA,
            "builder": ref if ref is not None else repr(self.builder),
            "mapping": dict(self.mapping),
            "grouping": dict(self.grouping) if self.grouping is not None else None,
            "duration_us": self.duration_us,
            "faults": self.faults.to_json_dict() if self.faults is not None else None,
            "arq": self.arq,
        }

    def sort_key(self) -> str:
        """Canonical JSON of the spec — the deterministic ranking tie-break."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> Optional[str]:
        """Content hash (cache key), or None when the builder has no name."""
        if builder_ref(self.builder) is None:
            return None
        return hashlib.sha256(self.sort_key().encode("utf-8")).hexdigest()


Pairs = Tuple[Tuple[str, str], ...]


class DesignView:
    """One built system, re-mapped per candidate, and what its runs share.

    A view holds the builder's ``(application, platform)``, the one
    ``ExploreMapping`` view of the application's model that every
    candidate re-maps, and each machine's
    :class:`~repro.simulation.executor.MachineTable`, keyed by machine.
    Runs may share all of it: each simulation's executors own all run
    state, and nothing writes to the model during a run.  The mapping is
    the one part a candidate changes (:meth:`remap`).
    """

    def __init__(self, application, platform) -> None:
        from repro.mapping.model import MappingModel

        self.application = application
        self.platform = platform
        self.mapping = MappingModel(
            application, platform, view_name="ExploreMapping"
        )
        #: machine -> its :class:`~repro.simulation.executor.MachineTable`,
        #: filled by the first run
        self.machine_tables: dict = {}

    def remap(self, assignment: Pairs):
        """Map exactly ``assignment``'s (group, PE) pairs, in order.

        Every earlier mapping is removed first, so the view ends up as a
        freshly built one would, errors included.  A pair that raises
        :class:`~repro.errors.MappingError` leaves the view part-mapped
        until the next re-map.
        """
        mapping = self.mapping
        for group_name in list(mapping.mappings):
            mapping.unmap(group_name)
        for group_name, pe_name in assignment:
            mapping.map(group_name, pe_name)
        return mapping


#: The process's one cached view as ``(key, view)``, keyed by (builder
#: reference or unnamed builder, grouping, arq); a campaign evaluates
#: candidates of one key, and a view for another key replaces it
_cached: Optional[Tuple[tuple, DesignView]] = None


def _build(builder: Builder, grouping: Optional[Pairs], arq: bool):
    """Call ``builder`` with the keywords a spec sets (a view-cache miss)."""
    target = resolve_builder(builder)
    parameters = inspect.signature(target).parameters
    accepts_var_kw = any(
        p.kind == inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    kwargs = {}
    if grouping is not None:
        if "grouping" not in parameters and not accepts_var_kw:
            raise ExplorationError(
                f"spec sets a grouping but builder {builder_ref(builder)!r} "
                "does not accept a 'grouping' keyword"
            )
        kwargs["grouping"] = dict(grouping)
    if arq:
        if "arq" not in parameters and not accepts_var_kw:
            raise ExplorationError(
                f"spec sets arq=True but builder {builder_ref(builder)!r} "
                "does not accept an 'arq' keyword"
            )
        kwargs["arq"] = True
    return target(**kwargs)


def design_view(
    builder: Builder, grouping: Optional[Pairs] = None, arq: bool = False
) -> DesignView:
    """This process's view of the system ``builder`` builds.

    The process caches the view of the last ``(builder, grouping, arq)``
    asked for, so the builder runs once per key until a call with another
    key replaces the view.  A builder is keyed by its ``"module:callable"``
    reference, or, when it has none (a lambda, a closure), by the callable
    object itself.  ``grouping`` is a spec's sorted (process, group) pairs.
    """
    global _cached
    reference = builder_ref(builder)
    key = (reference if reference is not None else builder, grouping, arq)
    if _cached is None or _cached[0] != key:
        _cached = (key, DesignView(*_build(builder, grouping, arq)))
    return _cached[1]


def build_system(spec: CandidateSpec):
    """The live ``(application, platform, mapping)`` triple of ``spec``.

    This is the worker-side entry point.  The system comes from the
    process's cached :func:`design_view` for the spec's builder, grouping
    and arq, re-mapped to the spec's mapping.  The three objects are the
    view's own and shared: the next call for the same key re-maps the
    returned mapping, and a change to the application or platform reaches
    every later candidate of that key.  A caller that needs a system of
    its own calls the builder.  A forked worker inherits its parent's view
    and re-maps its own copy; no UML objects are ever pickled.
    """
    view = design_view(spec.builder, spec.grouping, spec.arq)
    return view.application, view.platform, view.remap(spec.mapping)
