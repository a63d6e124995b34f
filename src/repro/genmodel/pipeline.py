"""The differential fuzz pipeline: one generated model through the flow.

:func:`run_pipeline` drives a single :class:`GeneratorConfig` through
generate → validate → lint → actions → simulate → checkpoint/resume →
explore → prune and checks the cross-subsystem invariants the repo's tools
promise:

* **determinism** — generating the same configuration twice yields the
  byte-identical blueprint;
* **clean-by-construction** — a model generated without injected defects
  validates, passes the design rules and lints without errors (and
  without any value-analysis findings), and simulates with activity;
* **one action semantics** — every block and guard of the model, run
  under seeded valuations, behaves the same as the compiled function the
  simulator executes and through the tree-walking oracle
  (:func:`repro.uml.actions.execute` / :func:`~repro.uml.actions.evaluate`);
* **log hand-off** — the in-memory log a run hands to profiling equals
  its rendered tutlog parsed back (records, meta, end time);
* **soundness** — a transition the interval analysis flags as dead
  (A001/A003) is never taken by the concrete simulation;
* **resume fidelity** — interrupting mid-run and resuming from the
  snapshot reproduces the uninterrupted run byte-for-byte (tutlog,
  Chrome trace, aggregated metrics);
* **worker invariance** — the exploration ranking (digests, result
  hashes, costs) is identical for every worker count;
* **prune safety** — static pruning never drops the candidate the full
  simulation ranks first.

Any violated invariant raises :class:`repro.errors.InvariantViolation`
carrying the stage name and the configuration, which the fuzz harness
feeds to the shrinker (:mod:`repro.genmodel.shrink`) to report the
smallest configuration that still fails.
"""

from __future__ import annotations

import itertools
import random
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkpoint import Checkpointer, CheckpointStore, EveryEvents
from repro.errors import InvariantViolation, SimulationInterrupted
from repro.exploration.engine import run_candidates
from repro.exploration.pruning import PruneConfig, prune_candidates
from repro.exploration.spec import CandidateSpec
from repro.genmodel.build import (
    GeneratedModel,
    blueprint_json,
    build_from_blueprint,
    generate_blueprint,
)
from repro.genmodel.config import GeneratorConfig
from repro.genmodel.factory import builder_token
from repro.analysis import run_lint
from repro.mapping.model import MappingRelation
from repro.observability.export import render_chrome_trace
from repro.observability.metrics import collect_metrics
from repro.observability.tracer import Tracer
from repro.simulation.logfile import LogFile, parse_log
from repro.simulation.system import SimulationResult, SystemSimulation
from repro.tutprofile.rules import check_design_rules
from repro.uml.action_compiler import compile_block, compile_guard
from repro.uml.actions import ActionEnvironment, Expr, evaluate, execute
from repro.uml.plan import transition_ids
from repro.uml.statemachine import SignalTrigger, Transition
from repro.uml.validation import validate_model

#: Defect sets the pipeline may still *simulate*: the injected dead-guard
#: machines (A001/A003) are behaviourally inert by construction, which is
#: exactly what the soundness invariant replays.  Every other defect is
#: checked at the lint stage only — e.g. a D006 division by zero would
#: crash the interpreter by design, and an M001 ungrouped process cannot
#: even be mapped.
SIMULATABLE_DEFECTS = frozenset({"A001", "A003"})

#: Default simulated horizon (µs): long enough for hundreds of events at
#: the default drive period, short enough for a 25-seed CI budget.
DEFAULT_DURATION_US = 3_000

#: Checkpoint stride (dispatched events between snapshots).
CHECKPOINT_STRIDE = 100

#: Cap on enumerated exploration candidates per pipeline run.
MAX_CANDIDATES = 6

#: Seeded valuations each block and guard runs under in the actions stage.
ACTION_VALUATIONS = 8


def _fail(stage: str, message: str, config: GeneratorConfig) -> None:
    raise InvariantViolation(stage, message, config=config)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def check_determinism(config: GeneratorConfig) -> str:
    """Generate twice; return the canonical blueprint JSON."""
    first = blueprint_json(generate_blueprint(config))
    second = blueprint_json(generate_blueprint(config))
    if first != second:
        _fail(
            "determinism",
            "two generations of the same configuration produced different "
            f"blueprints ({len(first)} vs {len(second)} bytes)",
            config,
        )
    return first


def check_wellformed(generated: GeneratedModel) -> None:
    """Validation and design rules must hold even for defect models."""
    config = generated.config
    report = validate_model(generated.application.model)
    errors = [issue for issue in report.issues if issue.severity == "error"]
    if errors:
        _fail(
            "validate",
            "generated model fails UML well-formedness: "
            + "; ".join(str(issue) for issue in errors[:3]),
            config,
        )
    rules = check_design_rules(generated.application.model)
    rule_errors = [
        issue for issue in rules.issues if issue.severity == "error"
    ]
    # M001 deliberately leaves a process ungrouped (R5 warning only); the
    # M005 duplicate mapping is the one injected design-rule error.
    expected = "M005" in config.inject_defects
    if rule_errors and not expected:
        _fail(
            "design-rules",
            "generated model violates TUT-Profile design rules: "
            + "; ".join(str(issue) for issue in rule_errors[:3]),
            config,
        )


def check_lint(generated: GeneratedModel):
    """Run tutlint; clean configs must produce no errors and no A-findings."""
    config = generated.config
    report = run_lint(
        generated.application, generated.platform, generated.mapping
    )
    if not config.inject_defects:
        if report.errors:
            _fail(
                "lint",
                "defect-free generated model has lint errors: "
                + "; ".join(
                    f"{f.rule}: {f.message}" for f in report.errors[:3]
                ),
                config,
            )
        value_findings = [
            f for f in report.active if f.rule.startswith("A")
        ]
        if value_findings:
            _fail(
                "lint",
                "defect-free generated model has value-analysis findings: "
                + "; ".join(
                    f"{f.rule}: {f.message}" for f in value_findings[:3]
                ),
                config,
            )
    return report


def _run_action(run, environment: ActionEnvironment, rand_state: bool = True):
    try:
        result = run()
    except Exception as exc:  # the error itself is part of the outcome
        result = (type(exc).__name__, str(exc))
    return (
        result,
        environment.variables,
        environment.sent,
        environment.timer_ops,
        environment.rand_state if rand_state else None,
    )


def action_outcomes(node, variables: Dict[str, int], parameters: Dict[str, int]):
    """Run a guard (an expression) or a block (a statement list) twice.

    Returns ``(oracle, compiled)``: the outcome under the tree-walker and
    under the compiled function the simulator calls.  An outcome is the
    result (value, statement count, or exception type and message) plus
    the environment afterwards: variables, sends, timer operations and,
    for blocks, ``rand16`` state (a compiled guard keeps its own, fresh
    per evaluation, as the simulator's guards always are).
    """
    oracle_env = ActionEnvironment(variables)
    oracle_env.parameters = dict(parameters)
    compiled_env = ActionEnvironment(variables)
    compiled_env.parameters = dict(parameters)
    if isinstance(node, Expr):
        guard = compile_guard(node)
        return (
            _run_action(lambda: evaluate(node, oracle_env), oracle_env, False),
            _run_action(
                lambda: guard(compiled_env.parameters, compiled_env.variables),
                compiled_env,
                False,
            ),
        )
    block = compile_block(node)
    return (
        _run_action(lambda: execute(node, oracle_env), oracle_env),
        _run_action(lambda: block(compiled_env), compiled_env),
    )


def action_sites(application):
    """Every guard and action block of an application's state machines.

    Yields ``(description, guard or block, trigger parameter names,
    declared variables)``, each machine once.
    """
    seen = set()
    for _, process in sorted(application.processes.items()):
        machine = process.component.classifier_behavior
        if machine is None or id(machine) in seen:
            continue
        seen.add(id(machine))
        declared = dict(machine.variables)
        for state in machine.states:
            yield f"{machine.name}.{state.name} entry", state.entry, (), declared
            yield f"{machine.name}.{state.name} exit", state.exit, (), declared
        for transition in machine.transitions:
            trigger = transition.trigger
            params = (
                tuple(trigger.parameter_names)
                if isinstance(trigger, SignalTrigger)
                else ()
            )
            where = f"{machine.name}: {transition.describe()}"
            if transition.guard is not None:
                yield f"{where} guard", transition.guard, params, declared
            yield f"{where} effect", transition.effect, params, declared


def _valuation(rng: random.Random, name: str, declared: Dict[str, int]) -> int:
    draw = rng.randrange(6)
    if draw == 0 and name in declared:
        return declared[name]
    if draw == 1:
        return rng.choice((0, 1, -1))
    if draw == 2:
        # beyond float precision: C division must stay exact here
        return rng.randrange(-(2**70), 2**70)
    return rng.randrange(-16, 17)


def check_actions(
    application, seed: int, config: Optional[GeneratorConfig] = None
) -> int:
    """Compiled and tree-walked actions must agree on every block and guard.

    Each runs under :data:`ACTION_VALUATIONS` valuations, drawn from
    ``seed``, of its machine's declared variables and its trigger's
    parameters.  Returns the number of comparisons made.
    """
    rng = random.Random(seed)
    compared = 0
    for where, node, params, declared in action_sites(application):
        for _ in range(ACTION_VALUATIONS):
            variables = {name: _valuation(rng, name, declared) for name in declared}
            parameters = {name: _valuation(rng, name, {}) for name in params}
            oracle, compiled = action_outcomes(node, variables, parameters)
            if oracle != compiled:
                _fail(
                    "actions",
                    f"{where} differs compiled vs tree-walked under "
                    f"variables={variables} parameters={parameters}: "
                    f"oracle {oracle!r}, compiled {compiled!r}",
                    config,
                )
            compared += 1
    return compared


def simulate(
    generated: GeneratedModel,
    duration_us: int,
    tracer: Optional[Tracer] = None,
) -> Tuple[SystemSimulation, SimulationResult]:
    """One fresh simulation of the generated system.

    Fails the stage when the run's in-memory log is not its tutlog parsed
    back.
    """
    config = generated.config
    simulation = SystemSimulation(
        generated.application,
        generated.platform,
        generated.mapping,
        tracer=tracer,
    )
    try:
        result = simulation.run(duration_us)
    except Exception as exc:
        _fail(
            "simulate",
            f"simulation raised {type(exc).__name__}: {exc}",
            config,
        )
    if not config.inject_defects and result.dispatched_events == 0:
        _fail("simulate", "simulation dispatched no events", config)
    mismatch = _log_mismatch(result.log, parse_log(result.writer.render()))
    if mismatch is not None:
        _fail(
            "simulate", f"in-memory log differs from its tutlog: {mismatch}", config
        )
    return simulation, result


def _log_mismatch(log: LogFile, parsed: LogFile) -> Optional[str]:
    """Where ``log`` first departs from ``parsed``, or None if they agree."""
    if log.meta != parsed.meta:
        return f"meta {log.meta!r} != {parsed.meta!r}"
    for index, (record, read) in enumerate(zip(log.records, parsed.records)):
        if record != read:
            return f"record {index}: {record!r} != {read!r}"
    if len(log.records) != len(parsed.records):
        return f"{len(log.records)} records != {len(parsed.records)} parsed"
    if log.end_time_ps != parsed.end_time_ps:
        return f"end time {log.end_time_ps} != {parsed.end_time_ps}"
    return None


def check_soundness(
    generated: GeneratedModel, report, result: SimulationResult
) -> int:
    """No transition flagged dead by A001/A003 may execute concretely.

    A log record takes a flagged transition when its process runs the
    machine owning it and its ``transitions`` name the transition's id.
    Returns the number of flagged transitions checked.
    """
    config = generated.config
    flagged: List[Tuple[str, Transition]] = []
    for finding in report.findings:
        if finding.rule not in ("A001", "A003"):
            continue
        for element in finding.elements:
            if isinstance(element, Transition):
                flagged.append((finding.rule, element))
    if not flagged:
        return 0

    # process -> id -> (rule, transition) of the flagged transitions its
    # machine owns
    watched: Dict[str, Dict[str, Tuple[str, Transition]]] = {}
    for name, process in generated.application.processes.items():
        machine = process.component.classifier_behavior
        if machine is not None:
            ids = transition_ids(machine)
            watched[name] = {ids[t]: (rule, t) for rule, t in flagged if t in ids}

    from repro.simulation.logfile import ExecRecord

    for record in result.log.records:
        if not isinstance(record, ExecRecord) or not watched.get(record.process):
            continue
        for transition_id in record.transitions.split(","):
            if transition_id in watched[record.process]:
                rule, transition = watched[record.process][transition_id]
                _fail(
                    "soundness",
                    f"{rule} flagged transition {transition.describe()!r} as "
                    f"dead, but process {record.process!r} executed it at "
                    f"{record.time_ps} ps",
                    config,
                )
    return len(flagged)


def check_resume(
    config: GeneratorConfig,
    blueprint: Dict[str, object],
    duration_us: int,
    work_dir: str,
) -> int:
    """Interrupt/resume must replay the uninterrupted run byte-for-byte.

    Every run resumes from its store's latest snapshot, so ``work_dir``
    must hold none from an earlier check.  Returns the interrupt point
    used (0 = too few events to interrupt).
    """
    def checkpointed_run(simulation, store, interrupt=None):
        # resumes from the store's latest snapshot when there is one
        checkpointer = Checkpointer(
            CheckpointStore(store),
            EveryEvents(CHECKPOINT_STRIDE),
            tag="fuzz",
            interrupt_after_events=interrupt,
        )
        return checkpointer.run(simulation, duration_us)

    reference_model = build_from_blueprint(blueprint, config=config)
    reference_sim = SystemSimulation(
        reference_model.application,
        reference_model.platform,
        reference_model.mapping,
        tracer=Tracer(),
    )
    try:
        reference = checkpointed_run(reference_sim, f"{work_dir}/ref")
    except Exception as exc:
        _fail(
            "resume",
            f"reference simulation raised {type(exc).__name__}: {exc}",
            config,
        )
    if reference.dispatched_events < 2:
        return 0
    interrupt_at = max(1, reference.dispatched_events // 2)

    interrupted_model = build_from_blueprint(blueprint, config=config)
    interrupted_sim = SystemSimulation(
        interrupted_model.application,
        interrupted_model.platform,
        interrupted_model.mapping,
        tracer=Tracer(),
    )
    snapshot = None
    try:
        checkpointed_run(
            interrupted_sim, f"{work_dir}/interrupted", interrupt=interrupt_at
        )
    except SimulationInterrupted as exc:
        snapshot = exc.snapshot
    if snapshot is None:
        _fail(
            "resume",
            f"simulation was not interrupted at event {interrupt_at} "
            f"(reference dispatched {reference.dispatched_events})",
            config,
        )

    resumed_model = build_from_blueprint(blueprint, config=config)
    resumed_sim = SystemSimulation(
        resumed_model.application,
        resumed_model.platform,
        resumed_model.mapping,
        tracer=Tracer(),
    )
    # the interruption's snapshot is the latest in the interrupted store
    resumed = checkpointed_run(resumed_sim, f"{work_dir}/interrupted")

    if resumed.writer.render() != reference.writer.render():
        _fail(
            "resume",
            f"resumed tutlog differs from the uninterrupted run "
            f"(interrupted at event {interrupt_at})",
            config,
        )
    if resumed.dispatched_events != reference.dispatched_events:
        _fail(
            "resume",
            f"resumed run dispatched {resumed.dispatched_events} events, "
            f"reference {reference.dispatched_events}",
            config,
        )
    if resumed.end_time_ps != reference.end_time_ps:
        _fail(
            "resume",
            f"resumed run ended at {resumed.end_time_ps} ps, reference "
            f"{reference.end_time_ps} ps",
            config,
        )
    if render_chrome_trace(resumed_sim.tracer) != render_chrome_trace(
        reference_sim.tracer
    ):
        _fail("resume", "resumed Chrome trace differs from reference", config)
    reference_metrics = collect_metrics(
        reference_sim.tracer, reference.account
    ).to_dict()
    resumed_metrics = collect_metrics(resumed_sim.tracer, resumed.account).to_dict()
    if resumed_metrics != reference_metrics:
        _fail("resume", "resumed metrics differ from reference", config)
    return interrupt_at


def candidate_specs(
    config: GeneratorConfig,
    generated: GeneratedModel,
    duration_us: int,
    limit: int = MAX_CANDIDATES,
) -> List[CandidateSpec]:
    """A deterministic candidate enumeration over the generated mapping space.

    Varies the assignment of each group over (up to) the two extreme PEs
    it may run on, capped at ``limit`` candidates — enough spread for
    the ranking/pruning invariants without exploding the budget.
    """
    token = builder_token(config)
    relation = MappingRelation.of(generated.application)
    groups = sorted(relation.group_types)
    compatible = [relation.pes_for(generated.platform, g) for g in groups]
    choices = [sorted({pes[0], pes[-1]}) for pes in compatible]
    specs: List[CandidateSpec] = []
    for index, combo in enumerate(
        itertools.islice(itertools.product(*choices), limit)
    ):
        specs.append(
            CandidateSpec.make(
                token,
                dict(zip(groups, combo)),
                duration_us=duration_us,
                label=f"gen-c{index}",
            )
        )
    return specs


def _ranking_signature(run) -> List[Tuple[Optional[str], str, float]]:
    return [
        (o.spec.digest(), o.result.stable_hash(), o.cost)
        for o in run.ranking()
    ]


def check_exploration(
    config: GeneratorConfig,
    specs: Sequence[CandidateSpec],
    workers: Sequence[int],
) -> Dict[str, object]:
    """Ranking must be invariant across worker counts; pruning must keep
    the simulated winner.  Returns exploration counters."""
    runs = {count: run_candidates(specs, workers=count) for count in workers}
    baseline_workers = workers[0]
    baseline = _ranking_signature(runs[baseline_workers])
    for count in workers[1:]:
        signature = _ranking_signature(runs[count])
        if signature != baseline:
            _fail(
                "explore",
                f"ranking with workers={count} differs from "
                f"workers={baseline_workers}",
                config,
            )

    kept, pruned, _ = prune_candidates(list(specs), PruneConfig())
    best_digest = baseline[0][0]
    kept_digests = {specs[index].digest() for index in kept}
    if best_digest not in kept_digests:
        dropped = next(
            (p for p in pruned if p.digest == best_digest), None
        )
        _fail(
            "prune",
            "static pruning dropped the simulated top-1 candidate: "
            + (dropped.detail if dropped else best_digest or "<uncached>"),
            config,
        )
    return {
        "candidates": len(specs),
        "pruned": len(pruned),
        "best_cost": baseline[0][2],
    }


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def run_pipeline(
    config: GeneratorConfig,
    duration_us: int = DEFAULT_DURATION_US,
    workers: Sequence[int] = (0, 1),
    explore: bool = True,
    resume: bool = True,
    work_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Drive one configuration through every stage; return its counters.

    Raises :class:`InvariantViolation` on the first violated invariant.
    Defect-injecting configurations stop after the lint stage unless
    their defects are all in :data:`SIMULATABLE_DEFECTS`.
    """
    counters: Dict[str, object] = {
        "config": config.to_dict(),
        "stages": [],
    }

    def done(stage: str) -> None:
        counters["stages"].append(stage)

    blueprint_text = check_determinism(config)
    counters["blueprint_bytes"] = len(blueprint_text)
    done("determinism")

    blueprint = generate_blueprint(config)
    generated = build_from_blueprint(blueprint, config=config)
    check_wellformed(generated)
    done("validate")

    report = check_lint(generated)
    counters["lint_active"] = len(report.active)
    done("lint")

    simulatable = not config.inject_defects or set(
        config.inject_defects
    ) <= SIMULATABLE_DEFECTS
    if not simulatable:
        return counters

    counters["actions_compared"] = check_actions(
        generated.application, config.seed, config=config
    )
    done("actions")

    _, result = simulate(generated, duration_us)
    counters["events"] = result.dispatched_events
    counters["dropped"] = result.dropped_signals
    done("simulate")

    counters["flagged_checked"] = check_soundness(generated, report, result)
    done("soundness")

    if resume:
        if work_dir is None:
            with tempfile.TemporaryDirectory(prefix="genfuzz-") as tmp:
                counters["interrupt_at"] = check_resume(
                    config, blueprint, duration_us, tmp
                )
        else:
            counters["interrupt_at"] = check_resume(
                config, blueprint, duration_us, work_dir
            )
        done("resume")

    if explore:
        specs = candidate_specs(config, generated, duration_us)
        counters.update(check_exploration(config, specs, list(workers)))
        done("explore")
        done("prune")
    return counters
