"""Span recorder: host-clock spans around the public calls into each layer.

The recorder times ``repro`` from the outside.  It swaps selected module
and class attributes for timing wrappers *where their callers look them
up* (``repro.simulation.executor.execute`` rather than
``repro.uml.actions.execute``), so ``src/repro`` runs unchanged and only
the calls listed in ``_TARGETS`` become spans.  Uninstalling restores
every original attribute.

Self time is a span's duration minus the durations of its direct
children.  Work a layer does outside a timed call lands in the nearest
timed ancestor: bus arbitration callbacks dispatched by the kernel count
as ``simulation.kernel`` (the residual of ``SystemSimulation.run``), and
caller glue nobody times lands in the per-op root span ``op``.

Per-layer self times, call counts and the counters are aggregated on the
fly.  Full span records (name, start, end, parent, op) are kept in memory
only while :attr:`SpanRecorder.keep` is set, and written out once as
Chrome-trace JSON by :func:`write_chrome_trace`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.  ``op`` is the per-op root span.
LAYERS = (
    "op",
    "uml.actions",
    "simulation.executor",
    "simulation.kernel",
    "simulation.bus",
    "simulation.logfile",
    "model_build",
    "exploration",
    "analysis",
    "artefacts",
    "genmodel",
    "observability",
)

#: Deterministic counters bumped at the same boundaries as the spans,
#: reported per op by the traced run.
COUNTERS = (
    "uml.actions.statements",
    "simulation.executor.steps",
    "simulation.kernel.events",
    "simulation.bus.bytes",
    "simulation.logfile.records",
    "simulation.logfile.bytes",
    "model_build.parses",
    "exploration.cache.hits",
    "exploration.cache.misses",
    "analysis.findings",
    "artefacts.xmi_bytes",
    "artefacts.files",
)

#: Counters of simulated behaviour that only the fingerprint prints.
#: ``simulation.executor.statements`` sums ``StepOutcome.statements``, the
#: program's own count, which does not depend on how actions are executed.
FINGERPRINT_COUNTERS = (
    "simulation.executor.statements",
    "simulation.kernel.dropped",
    "simulation.logfile.cycles",
)

Counter = Callable[[Dict[str, int], tuple, dict, object], None]


def _statements(counts, args, kwargs, result):
    counts["uml.actions.statements"] += result


def _started(counts, args, kwargs, result):
    counts["simulation.executor.steps"] += 1
    counts["simulation.executor.statements"] += result.statements


def _stepped(counts, args, kwargs, result):
    outcome = result[0]
    if outcome is not None:
        counts["simulation.executor.steps"] += 1
        counts["simulation.executor.statements"] += outcome.statements


def _simulated(counts, args, kwargs, result):
    counts["simulation.kernel.events"] += result.dispatched_events
    counts["simulation.kernel.dropped"] += result.dropped_signals


def _transferred(counts, args, kwargs, result):
    size = kwargs["size_bytes"] if "size_bytes" in kwargs else args[3]
    counts["simulation.bus.bytes"] += size


def _recorded(counts, args, kwargs, result):
    counts["simulation.logfile.records"] += 1


def _executed(counts, args, kwargs, result):
    counts["simulation.logfile.records"] += 1
    counts["simulation.logfile.cycles"] += kwargs["cycles"]


def _rendered(counts, args, kwargs, result):
    counts["simulation.logfile.bytes"] += len(result)


def _parsed(counts, args, kwargs, result):
    counts["model_build.parses"] += 1


def _cache_loaded(counts, args, kwargs, result):
    key = "exploration.cache.misses" if result is None else "exploration.cache.hits"
    counts[key] += 1


def _linted(counts, args, kwargs, result):
    counts["analysis.findings"] += len(result.findings)


def _validated(counts, args, kwargs, result):
    counts["analysis.findings"] += len(result.issues)


def _exported(counts, args, kwargs, result):
    counts["artefacts.xmi_bytes"] += len(result)


def _generated(counts, args, kwargs, result):
    counts["artefacts.files"] += len(result.files)


# (module, class or None, attribute, layer, counter)
_TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[Counter]], ...] = (
    ("repro.simulation.executor", None, "execute", "uml.actions", _statements),
    ("repro.simulation.executor", None, "evaluate", "uml.actions", None),
    ("repro.simulation.executor", "ProcessExecutor", "start", "simulation.executor", _started),
    ("repro.simulation.executor", "ProcessExecutor", "consume_signal", "simulation.executor", _stepped),
    ("repro.simulation.executor", "ProcessExecutor", "fire_timer", "simulation.executor", _stepped),
    ("repro.simulation.system", "SystemSimulation", "run", "simulation.kernel", _simulated),
    ("repro.simulation.kernel", "Kernel", "schedule", "simulation.kernel", None),
    ("repro.simulation.kernel", "Kernel", "cancel", "simulation.kernel", None),
    ("repro.simulation.bus", "HibiBus", "transfer", "simulation.bus", _transferred),
    ("repro.simulation.logfile", "LogWriter", "exec_step", "simulation.logfile", _executed),
    ("repro.simulation.logfile", "LogWriter", "signal", "simulation.logfile", _recorded),
    ("repro.simulation.logfile", "LogWriter", "drop", "simulation.logfile", _recorded),
    ("repro.simulation.logfile", "LogWriter", "fault", "simulation.logfile", _recorded),
    ("repro.simulation.logfile", "LogWriter", "finish", "simulation.logfile", None),
    ("repro.simulation.logfile", "LogWriter", "render", "simulation.logfile", _rendered),
    ("repro.simulation.logfile", "LogWriter", "write", "simulation.logfile", None),
    ("repro.simulation.system", None, "parse_log", "simulation.logfile", None),
    ("repro.cases.tutwlan", None, "build_tutwlan_system", "model_build", None),
    ("repro.exploration.engine", None, "build_system", "model_build", None),
    ("repro.uml.statemachine", None, "parse_actions", "model_build", _parsed),
    ("repro.uml.statemachine", None, "parse_expression", "model_build", _parsed),
    ("repro.exploration.engine", None, "run_candidates", "exploration", None),
    ("repro.exploration.engine", None, "evaluate", "exploration", None),
    ("repro.exploration.objectives", None, "summarize", "exploration", None),
    ("repro.exploration.cache", "ResultCache", "load", "exploration", _cache_loaded),
    ("repro.exploration.cache", "ResultCache", "store", "exploration", None),
    ("repro.analysis", None, "run_lint", "analysis", _linted),
    ("repro.flow.design_flow", None, "validate_model", "analysis", _validated),
    ("repro.flow.design_flow", None, "check_design_rules", "analysis", _validated),
    ("repro.uml.validation", None, "validate_model", "analysis", _validated),
    ("repro.tutprofile.rules", None, "check_design_rules", "analysis", _validated),
    ("repro.flow.design_flow", None, "model_to_xml", "artefacts", _exported),
    ("repro.flow.design_flow", None, "group_info_from_xmi", "artefacts", None),
    ("repro.flow.design_flow", None, "analyze", "artefacts", None),
    ("repro.exploration.objectives", None, "analyze", "artefacts", None),
    ("repro.flow.design_flow", None, "render_report", "artefacts", None),
    ("repro.flow.design_flow", None, "generate_project", "artefacts", _generated),
    ("repro.genmodel", None, "generate_model", "genmodel", None),
    ("repro.exploration.objectives", None, "summarize_result", "observability", None),
)

#: The call whose subtree is the simulation: spans ending inside it also
#: feed :attr:`SpanRecorder.sim_self_s` (the simulate-time split).
_SIMULATION_CALL = ("repro.simulation.system", "SystemSimulation", "run")


class SpanRecorder:
    """Aggregates spans per layer; optionally keeps every span record.

    Single-threaded by design: the benchmark runs every workload serially
    in one thread, and the clean-op guard fails any op that leaves a
    thread behind.
    """

    def __init__(self) -> None:
        self._layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        self.self_s: List[float] = [0.0] * len(LAYERS)
        self.sim_self_s: List[float] = [0.0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS + FINGERPRINT_COUNTERS, 0)
        # child-duration accumulators, one per open span; the base slot
        # absorbs spans closed outside any op
        self._stack: List[float] = [0.0]
        self._ids: List[int] = [0]
        self._next_id = 1
        self._sim_depth = 0
        self._op_id = -1
        self._op_start = 0.0
        self._saved: List[Tuple[object, str, object]] = []
        #: while True, every closed span is appended to :attr:`spans`
        self.keep = False
        #: (id, parent id, name, layer, start_s, end_s, op id)
        self.spans: List[Tuple[int, int, str, str, float, float, int]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Replace every target attribute with its timing wrapper."""
        if self._saved:
            raise RuntimeError("span recorder is already installed")
        wrappers: Dict[int, object] = {}
        for module_name, class_name, attribute, layer, counter in _TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                name = f"{layer}.{class_name + '.' if class_name else ''}{attribute}"
                simulation = (module_name, class_name, attribute) == _SIMULATION_CALL
                wrapper = self._wrap(original, name, layer, counter, simulation)
                wrappers[id(original)] = wrapper
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []

    def _wrap(self, fn, name: str, layer: str, counter, simulation: bool):
        recorder = self
        stack = self._stack
        ids = self._ids
        self_s = self.self_s
        sim_self_s = self.sim_self_s
        calls = self.calls
        counts = self.counts
        index = self._layer_index[layer]

        def timed(*args, **kwargs):
            keep = recorder.keep
            if keep:
                span_id = recorder._next_id
                recorder._next_id = span_id + 1
                ids.append(span_id)
            if simulation:
                recorder._sim_depth += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                own = duration - stack.pop()
                stack[-1] += duration
                self_s[index] += own
                calls[index] += 1
                if recorder._sim_depth:
                    sim_self_s[index] += own
                if simulation:
                    recorder._sim_depth -= 1
                if keep:
                    ids.pop()
                    recorder.spans.append(
                        (span_id, ids[-1], name, layer, start, end, recorder._op_id)
                    )
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(timed)

    # ------------------------------------------------------------------
    # per-op root spans
    # ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op; every layer span nests inside it."""
        if len(self._stack) != 1:
            raise RuntimeError("an op is already open")
        self._op_id = op_id
        if self.keep:
            self._ids.append(self._next_id)
            self._next_id += 1
        self._stack.append(0.0)
        self._op_start = perf_counter()

    def end_op(self) -> float:
        """Close the op's root span; returns its duration in seconds."""
        end = perf_counter()
        duration = end - self._op_start
        self.self_s[0] += duration - self._stack.pop()
        self.calls[0] += 1
        if self.keep:
            span_id = self._ids.pop()
            self.spans.append(
                (span_id, 0, "op", "op", self._op_start, end, self._op_id)
            )
        return duration

    def reset(self) -> None:
        """Zero every aggregate (after a warm-up op); keeps installation."""
        for values in (self.self_s, self.sim_self_s):
            values[:] = [0.0] * len(values)
        self.calls[:] = [0] * len(self.calls)
        for key in self.counts:
            self.counts[key] = 0
        self.spans.clear()


def write_chrome_trace(spans, path: str, metadata: Dict[str, object]) -> None:
    """Write kept spans as Chrome-trace JSON (load in ui.perfetto.dev).

    Times are microseconds from the first kept span, unrounded, so that
    a reader can re-derive self times exactly.
    """
    origin = min((span[4] for span in spans), default=0.0)
    events = [
        {
            "name": name,
            "cat": layer,
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"id": span_id, "parent": parent, "op": op_id},
        }
        for span_id, parent, name, layer, start, end, op_id in sorted(
            spans, key=lambda span: (span[4], span[0])
        )
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "metadata": metadata}, handle)
        handle.write("\n")
