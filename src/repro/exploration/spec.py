"""Picklable candidate specifications for the exploration engine.

A :class:`CandidateSpec` describes one design point of the paper's
Figure 2 loop — a grouping, a group→PE mapping, an optional fault plan and
a simulation horizon — **by value**, so it can cross a process boundary
and be hashed for the on-disk result cache.  Workers rebuild the live
system from the spec with :func:`build_system`; no UML objects are ever
pickled.

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

#: Bump when the spec encoding changes incompatibly: old cache entries
#: then miss instead of deserialising garbage.
SPEC_SCHEMA = 1


@dataclass(frozen=True)
class FaultSpec:
    """Picklable mirror of :class:`repro.faults.FaultPlan` constructor args.

    A spec only carries the plan *parameters*; the live plan (with its RNG
    and mutable stats) is rebuilt inside the worker via :meth:`build_plan`.
    """

    seed: int = 0
    bus_corrupt_rate: float = 0.0
    bus_drop_rate: float = 0.0
    signal_drop_rate: float = 0.0
    signal_dup_rate: float = 0.0
    corruptible_signals: Optional[Tuple[str, ...]] = None
    droppable_signals: Optional[Tuple[str, ...]] = None
    protected_signals: Tuple[str, ...] = ()

    def build_plan(self):
        from repro.faults.plan import FaultPlan

        return FaultPlan(
            seed=self.seed,
            bus_corrupt_rate=self.bus_corrupt_rate,
            bus_drop_rate=self.bus_drop_rate,
            signal_drop_rate=self.signal_drop_rate,
            signal_dup_rate=self.signal_dup_rate,
            corruptible_signals=self.corruptible_signals,
            droppable_signals=self.droppable_signals,
            protected_signals=self.protected_signals,
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "bus_corrupt_rate": self.bus_corrupt_rate,
            "bus_drop_rate": self.bus_drop_rate,
            "signal_drop_rate": self.signal_drop_rate,
            "signal_dup_rate": self.signal_dup_rate,
            "corruptible_signals": (
                sorted(self.corruptible_signals)
                if self.corruptible_signals is not None
                else None
            ),
            "droppable_signals": (
                sorted(self.droppable_signals)
                if self.droppable_signals is not None
                else None
            ),
            "protected_signals": sorted(self.protected_signals),
        }


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
    faults: Optional[FaultSpec] = None
    arq: bool = False
    label: str = field(default="", compare=False)

    @staticmethod
    def make(
        builder: Builder,
        mapping: Dict[str, str],
        grouping: Optional[Dict[str, str]] = None,
        duration_us: int = 20_000,
        faults: Optional[FaultSpec] = None,
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
            "faults": self.faults.to_json_dict() if self.faults else None,
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


def build_system(spec: CandidateSpec):
    """Rebuild the live ``(application, platform, mapping)`` triple.

    This is the worker-side entry point: everything is constructed fresh
    from the spec, because simulation consumes executor state and live
    UML objects cannot be shared between design points (or processes).
    """
    from repro.mapping.model import MappingModel

    builder = resolve_builder(spec.builder)
    parameters = inspect.signature(builder).parameters
    accepts_var_kw = any(
        p.kind == inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    kwargs = {}
    if spec.grouping is not None:
        if "grouping" not in parameters and not accepts_var_kw:
            raise ExplorationError(
                f"spec sets a grouping but builder {builder_ref(spec.builder)!r} "
                "does not accept a 'grouping' keyword"
            )
        kwargs["grouping"] = dict(spec.grouping)
    if spec.arq:
        if "arq" not in parameters and not accepts_var_kw:
            raise ExplorationError(
                f"spec sets arq=True but builder {builder_ref(spec.builder)!r} "
                "does not accept an 'arq' keyword"
            )
        kwargs["arq"] = True
    application, platform = builder(**kwargs)
    mapping = MappingModel(application, platform, view_name="ExploreMapping")
    for group_name, pe_name in spec.mapping:
        mapping.map(group_name, pe_name)
    return application, platform, mapping
