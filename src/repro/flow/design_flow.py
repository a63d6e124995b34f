"""The end-to-end design and profiling flow (paper Figures 1 and 2).

``run_design_flow`` executes every box of Figure 2 in order:

1. validate the UML model (well-formedness + TUT-Profile design rules);
2. serialise the model to XMI (the document external tools parse);
3. profiling stage 1 — model parsing → process-group information;
4. automatic code generation (C project with instrumentation);
5. simulation → simulation log-file;
6. profiling stage 3 — combine log + group info → profiling report.

Artefacts land in a work directory; the returned :class:`FlowResult`
carries both the file paths and the in-memory analysis objects so callers
(e.g. the improvement loop) can continue without re-reading files.

Every step runs under error capture.  By default a failing step aborts the
flow by re-raising, exactly as before; with ``continue_on_error=True`` the
failure is recorded in :attr:`FlowResult.failures`, steps that depend on
the missing artefact are recorded as skipped, and independent steps still
run — so one broken stage yields a partial result instead of nothing.

With ``explore_factory`` the flow closes the Figure 2 loop: after
profiling it runs the profiling-guided mapping improvement loop on the
exploration engine (cache-aware via ``explore_cache_dir``) and writes the
accepted-move history to ``exploration.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.application.model import ApplicationModel
from repro.codegen.project import GeneratedProject, generate_project
from repro.mapping.model import MappingModel
from repro.platform.model import PlatformModel
from repro.profiling.analysis import ProfilingData, analyze
from repro.profiling.groupinfo import group_info_from_xmi
from repro.profiling.report import render_report
from repro.simulation.system import SimulationResult, SystemSimulation
from repro.tutprofile.rules import check_design_rules
from repro.uml.validation import validate_model
from repro.uml.xmi import model_to_xml
from repro.util.fsio import ensure_parent

#: The mandatory Figure 2 steps.  The optional "lint" step (``lint=True``)
#: runs between validation and XMI export and is not required for
#: :attr:`FlowResult.succeeded`.
FLOW_STEPS = (
    "validate",
    "export-xmi",
    "parse-group-info",
    "generate-code",
    "simulate",
    "profile",
)

#: Figure 1's inventory: the tools and target of the TUT-Profile flow and
#: our stand-in for each (documented substitutions, see DESIGN.md §2).
FLOW_INVENTORY = {
    "TUT-Profile": "repro.tutprofile",
    "Telelogic TAU G2": "repro.uml (metamodel + XMI + validation)",
    "UML Profiling tool": "repro.profiling",
    "Code generation": "repro.codegen",
    "Simulation": "repro.simulation",
    "Altera FPGA prototype": "repro.platform + repro.simulation (HIBI model)",
}


@dataclass
class StepFailure:
    """One failed (or dependency-skipped) flow step."""

    step: str
    error: str
    exception: Optional[BaseException] = None
    skipped: bool = False

    def __str__(self) -> str:
        prefix = "skipped" if self.skipped else "failed"
        return f"{self.step}: {prefix}: {self.error}"


@dataclass
class FlowResult:
    """Artefacts and analyses of one flow execution.

    With ``continue_on_error`` some fields may be ``None`` (the producing
    step failed or was skipped); :attr:`failures` lists what went wrong and
    :attr:`succeeded` is True only for a clean full run.
    """

    work_directory: str
    xmi_path: Optional[str] = None
    log_path: Optional[str] = None
    report_path: Optional[str] = None
    code_directory: Optional[str] = None
    simulation: Optional[SimulationResult] = None
    profiling: Optional[ProfilingData] = None
    report_text: Optional[str] = None
    lint_report: Optional[object] = None  # repro.analysis.LintReport when lint=True
    # repro.exploration.MappingCandidate history when explore_factory is set
    exploration: Optional[list] = None
    # repro.observability.MetricsReport when trace=True
    metrics: Optional[object] = None
    steps_run: tuple = ()
    artifacts: Dict[str, str] = field(default_factory=dict)
    failures: List[StepFailure] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return not self.failures and set(FLOW_STEPS) <= set(self.steps_run)

    def failure_for(self, step: str) -> Optional[StepFailure]:
        for failure in self.failures:
            if failure.step == step:
                return failure
        return None


class _FlowRunner:
    """Per-step error capture shared by all six steps."""

    def __init__(self, continue_on_error: bool) -> None:
        self.continue_on_error = continue_on_error
        self.steps_run: List[str] = []
        self.failures: List[StepFailure] = []

    def failed(self, step: str) -> bool:
        return any(f.step == step for f in self.failures)

    def run(self, step: str, thunk, *, requires: tuple = ()):
        """Run one step; returns its value, or None when it failed/skipped."""
        broken = [dep for dep in requires if self.failed(dep)]
        if broken:
            self.failures.append(
                StepFailure(
                    step=step,
                    error=f"dependency step {broken[0]!r} did not complete",
                    skipped=True,
                )
            )
            return None
        try:
            value = thunk()
        except Exception as exc:  # noqa: BLE001 — the point is capture
            if not self.continue_on_error:
                raise
            self.failures.append(
                StepFailure(step=step, error=f"{type(exc).__name__}: {exc}", exception=exc)
            )
            return None
        self.steps_run.append(step)
        return value


def run_design_flow(
    application: ApplicationModel,
    platform: PlatformModel,
    mapping: MappingModel,
    work_directory: str,
    duration_us: int = 100_000,
    generate_c: bool = True,
    strict: bool = True,
    continue_on_error: bool = False,
    faults=None,
    lint: bool = False,
    lint_config=None,
    trace: bool = False,
    explore_factory=None,
    explore_cache_dir: Optional[str] = None,
    explore_duration_us: int = 20_000,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_events: int = 5_000,
) -> FlowResult:
    """Run the complete Figure 2 flow; artefacts go to ``work_directory``.

    ``faults`` is an optional :class:`repro.faults.FaultPlan` handed to the
    simulator (a plan is a value: flows that share one run identically,
    each with its own ledger, ``simulation.fault_stats``);
    ``continue_on_error`` records step failures in the result
    instead of raising, still running whatever does not depend on them.
    ``lint=True`` inserts a tutlint static-analysis step after validation:
    error-severity findings abort the flow (via :class:`AnalysisError`)
    before any code is generated or simulated; ``lint_config`` (a
    :class:`repro.analysis.LintConfig`) tunes that step's rule selection
    and severities.
    ``trace=True`` runs the simulation under an observability tracer and
    adds a "trace" step that writes ``trace.json`` (Chrome-trace JSON,
    loadable in ui.perfetto.dev) and ``metrics.json`` (the aggregated
    :class:`~repro.observability.metrics.MetricsReport` in the shared CLI
    envelope) next to the other artefacts.
    ``explore_factory`` (a fresh-``(application, platform)`` builder, see
    :mod:`repro.exploration.spec`) appends an optional "explore" step that
    improves the mapping from the profiling feedback and records the move
    history as the ``exploration`` artefact.
    ``checkpoint_dir`` makes the simulate step resumable: the simulation
    snapshots every ``checkpoint_every_events`` dispatched events (tag
    ``flow``) and, when the directory already holds a snapshot, *resumes*
    from the latest one — the continued run's artefacts are byte-identical
    to an uninterrupted flow (see ``docs/checkpoint.md``).
    """
    os.makedirs(work_directory, exist_ok=True)
    runner = _FlowRunner(continue_on_error)

    # 1. validation
    def _validate() -> bool:
        wellformed = validate_model(application.model)
        rules = check_design_rules(application.model)
        if platform.model is not application.model:
            platform_report = check_design_rules(platform.model)
            rules.issues.extend(platform_report.issues)
        if strict:
            wellformed.raise_on_errors()
            rules.raise_on_errors()
        return True

    runner.run("validate", _validate)

    # 1b. optional static analysis (tutlint) — fail fast before codegen.
    lint_report = None
    if lint:
        def _lint():
            from repro.analysis import run_lint
            from repro.errors import AnalysisError

            report = run_lint(application, platform, mapping, config=lint_config)
            if report.errors:
                summary = "; ".join(str(f) for f in report.errors[:5])
                raise AnalysisError(
                    f"{len(report.errors)} lint error(s): {summary}",
                    report.errors,
                )
            return report

        lint_report = runner.run("lint", _lint, requires=("validate",))

    # 2. XMI export
    def _export_xmi() -> str:
        xmi_text = model_to_xml(application.model)
        path = os.path.join(work_directory, "model.xmi")
        with open(ensure_parent(path), "w", encoding="utf-8") as handle:
            handle.write(xmi_text)
        return xmi_text

    xmi_text = runner.run("export-xmi", _export_xmi)
    xmi_path = (
        os.path.join(work_directory, "model.xmi") if xmi_text is not None else None
    )

    # 3. profiling stage 1: parse the XML presentation for group info
    group_info = runner.run(
        "parse-group-info",
        lambda: group_info_from_xmi(xmi_text, profiles=[application.profile]),
        requires=("export-xmi",),
    )

    # 4. code generation (with instrumentation)
    code_directory = os.path.join(work_directory, "generated")

    def _generate() -> Optional[GeneratedProject]:
        if not generate_c:
            return None
        project = generate_project(application, code_directory, instrument=True)
        project.write()
        return project

    # A failed lint blocks code generation: that is the point of linting
    # before codegen (the satellites downstream of it still depend on the
    # artefacts, so they cascade as skipped).
    runner.run("generate-code", _generate, requires=("lint",) if lint else ())
    if runner.failed("generate-code"):
        code_directory = None

    # 5. simulation → log-file
    log_path = os.path.join(work_directory, "simulation.tutlog")
    tracer = None
    if trace:
        from repro.observability import Tracer

        tracer = Tracer()

    def _simulate() -> SimulationResult:
        simulation = SystemSimulation(
            application, platform, mapping, faults=faults, tracer=tracer
        )
        if checkpoint_dir is None:
            result = simulation.run(duration_us)
        else:
            from repro.checkpoint import Checkpointer, CheckpointStore, EveryEvents

            checkpointer = Checkpointer(
                CheckpointStore(checkpoint_dir),
                EveryEvents(checkpoint_every_events),
                tag="flow",
            )
            result = checkpointer.run(simulation, duration_us)
        result.writer.write(log_path)
        return result

    result = runner.run("simulate", _simulate)
    if result is None:
        log_path = None

    # 5b. optional observability export: trace.json + metrics.json
    metrics_report = None
    trace_path = metrics_path = None
    if trace:
        trace_path = os.path.join(work_directory, "trace.json")
        metrics_path = os.path.join(work_directory, "metrics.json")

        def _trace():
            from repro.observability import collect_metrics, write_chrome_trace
            from repro.util.jsonout import envelope

            write_chrome_trace(
                tracer,
                trace_path,
                metadata={
                    "application": application.top.name,
                    "platform": platform.top.name,
                },
            )
            group_of = (
                dict(group_info.process_to_group)
                if group_info is not None
                else None
            )
            report = collect_metrics(tracer, result.account, group_of=group_of)
            with open(ensure_parent(metrics_path), "w", encoding="utf-8") as handle:
                json.dump(
                    envelope("trace-metrics", report.to_dict()),
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
            return report

        metrics_report = runner.run("trace", _trace, requires=("simulate",))
        if metrics_report is None:
            trace_path = metrics_path = None

    # 6. profiling stage 3: combine and report
    report_path = os.path.join(work_directory, "profiling_report.txt")

    def _profile():
        profiling = analyze(result.log, group_info)
        report_text = render_report(
            profiling, title=f"Profiling report: {application.top.name}"
        )
        with open(ensure_parent(report_path), "w", encoding="utf-8") as handle:
            handle.write(report_text + "\n")
        return profiling, report_text

    profiled = runner.run(
        "profile", _profile, requires=("parse-group-info", "simulate")
    )
    if profiled is not None:
        profiling, report_text = profiled
    else:
        profiling, report_text, report_path = None, None, None

    # 7. optional exploration: close the Figure 2 loop (profile → remap)
    exploration = None
    exploration_path = None
    if explore_factory is not None:
        exploration_path = os.path.join(work_directory, "exploration.json")
        engine_runs: list = []

        def _explore():
            from repro.exploration import improvement_loop

            history = improvement_loop(
                explore_factory,
                mapping.assignment(),
                duration_us=explore_duration_us,
                cache_dir=explore_cache_dir,
                runs_out=engine_runs,
            )
            counters: Dict[str, int] = {}
            for engine_run in engine_runs:
                for key, value in engine_run.supervisor_counters().items():
                    counters[key] = counters.get(key, 0) + value
            payload = {
                "initial_assignment": mapping.assignment(),
                "steps": [
                    {
                        "assignment": candidate.assignment,
                        "cost": candidate.cost,
                        "bus_bytes": candidate.result.bus_bytes,
                        "max_pe_utilization": candidate.result.max_pe_utilization,
                    }
                    for candidate in history
                ],
                "supervisor": counters,
            }
            with open(ensure_parent(exploration_path), "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            return history

        exploration = runner.run("explore", _explore, requires=("simulate",))
        if exploration is None:
            exploration_path = None

    artifacts: Dict[str, str] = {}
    if exploration_path is not None:
        artifacts["exploration"] = exploration_path
    if xmi_path is not None:
        artifacts["xmi"] = xmi_path
    if log_path is not None:
        artifacts["log"] = log_path
    if trace_path is not None:
        artifacts["trace"] = trace_path
    if metrics_path is not None:
        artifacts["metrics"] = metrics_path
    if report_path is not None:
        artifacts["report"] = report_path
    if code_directory is not None:
        artifacts["code"] = code_directory

    return FlowResult(
        work_directory=work_directory,
        xmi_path=xmi_path,
        log_path=log_path,
        report_path=report_path,
        code_directory=code_directory,
        simulation=result,
        profiling=profiling,
        report_text=report_text,
        lint_report=lint_report,
        exploration=exploration,
        metrics=metrics_report,
        steps_run=tuple(runner.steps_run),
        artifacts=artifacts,
        failures=runner.failures,
    )
