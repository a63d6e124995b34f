"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables`` — print the profile's Tables 1-3;
* ``tutmac`` — run the workstation reference simulation and print the
  Table 4 profiling report;
* ``flow`` — run the full Figure 2 design flow on the TUTMAC/TUTWLAN
  system, writing XMI, generated C, the log-file and the report; with
  ``--fault-rate`` the simulation runs under a seeded fault plan;
* ``faults`` — run a seeded fault-injection campaign on the ARQ-enabled
  TUTMAC model and print the recovery ledger;
* ``explore`` — design-space exploration on the supervised candidate-
  evaluation engine: an exhaustive TUTMAC mapping sweep (default) or a
  multi-seed fault-campaign sweep, with ``--workers`` fan-out, a
  ``--cache-dir`` content-addressed result cache, static pruning of
  provably bad candidates (``--prune-static``/``--prune-margin``) and a
  fault-tolerance policy (``--timeout``, ``--max-retries``).
  Exit codes: 0 clean, 3 interrupted (Ctrl-C, SIGTERM or
  ``--interrupt-after-events`` — completed results are flushed to the
  cache for resume), 4 completed but with quarantined candidates
  (partial ranking; the failure ledger is in the JSON output);
* ``checkpoint`` — operate on simulation snapshot stores:
  ``inspect`` lists a store's snapshots and ``diff`` structurally
  compares two snapshot files; an interrupted ``flow --checkpoint-dir``
  run resumes by running the same command again (byte-identical
  artefacts, see ``docs/checkpoint.md``);
* ``timeline`` — simulate on the TUTWLAN platform and draw a text Gantt
  of the processors;
* ``trace`` — run the example system under the observability tracer and
  print per-PE/bus metrics (``--format text|json``) or the Chrome-trace
  JSON that loads in ui.perfetto.dev (``--format chrome``);
* ``validate <model.xmi>`` — parse an XMI file and run UML well-formedness
  plus the TUT-Profile design rules over it;
* ``lint [model.xmi]`` — run the tutlint static-analysis engine (EFSM,
  dataflow, interval value-analysis, signal-flow and platform-mapping
  passes) over an XMI file or, by default, the built-in TUTMAC/TUTWLAN
  system; ``--rules A001,M002`` restricts the run to listed rules and
  ``--list-rules`` prints the catalogue.

``validate`` and ``lint`` share ``--format text|json`` and a
severity-threshold exit code (``--fail-on``).  Every ``--format json``
output (except ``trace --format chrome``, which must stay a plain
Chrome-trace container) uses the shared envelope
``{"schema": "repro.<kind>/1", "results": ...}`` from
:mod:`repro.util.jsonout`.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_tables(args) -> int:
    from repro.tutprofile import TUT_PROFILE, render_table1, render_table2, render_table3

    print(render_table1(TUT_PROFILE))
    print()
    print(render_table2(TUT_PROFILE))
    print()
    print(render_table3(TUT_PROFILE))
    return 0


def _cmd_tutmac(args) -> int:
    from repro.cases.tutmac import build_tutmac
    from repro.profiling import profile_run, render_report
    from repro.simulation import run_reference_simulation

    application = build_tutmac()
    result = run_reference_simulation(application, duration_us=args.duration_us)
    data = profile_run(result, application)
    print(render_report(data, title="TUTMAC profiling report (workstation reference)"))
    return 0


def _cmd_flow(args) -> int:
    from repro.cases.tutwlan import build_tutwlan_system
    from repro.flow import run_design_flow

    faults = None
    if args.fault_rate > 0.0:
        from repro.cases.tutmac.params import TutmacParameters
        from repro.faults import build_campaign_plan

        application, platform, mapping = build_tutwlan_system(
            params=TutmacParameters(arq_enabled=True)
        )
        faults = build_campaign_plan(seed=args.seed, fault_rate=args.fault_rate)
    else:
        application, platform, mapping = build_tutwlan_system()
    result = run_design_flow(
        application,
        platform,
        mapping,
        args.workdir,
        duration_us=args.duration_us,
        faults=faults,
        lint=args.lint,
        trace=args.trace,
        explore_factory=(
            "repro.cases.tutwlan:exploration_factory" if args.explore else None
        ),
        explore_cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_events=args.checkpoint_every_events,
    )
    print(result.report_text)
    print()
    print("artefacts:")
    for kind, path in sorted(result.artifacts.items()):
        print(f"  {kind:<8} {path}")
    return 0


def _explore_sweep_specs(args):
    """The candidate list an ``explore`` invocation describes."""
    from repro.exploration import mapping_sweep_specs
    from repro.faults import fault_sweep_specs

    if args.mode == "mappings":
        return mapping_sweep_specs(
            "repro.cases.tutwlan:exploration_factory",
            duration_us=args.duration_us,
            limit=args.limit,
        )
    seeds = [int(seed) for seed in args.seeds.split(",") if seed.strip()]
    return fault_sweep_specs(
        seeds, fault_rate=args.fault_rate, duration_us=args.duration_us
    )


def _render_explore_run(run, args) -> int:
    """Render a finished campaign as text or the ``repro.explore/1`` JSON.

    Returns the campaign exit code: 0 clean, 4 quarantined candidates
    (partial ranking — see docs/exploration.md).
    """
    exit_code = 4 if run.quarantined else 0

    if args.format == "json":
        from repro.util.jsonout import render_envelope

        print(render_envelope("explore", run.to_json_dict(top=args.top)))
        return exit_code

    from repro.util.tables import render_table

    rows = []
    for rank, outcome in enumerate(run.ranking()[: args.top]):
        result = outcome.result
        row = [
            rank + 1,
            round(outcome.cost, 1),
            result.bus_bytes,
            f"{result.max_pe_utilization:.1%}",
        ]
        if args.mode == "faults":
            row += [
                result.fault_injected,
                result.fault_recovered,
                result.fault_residual,
            ]
        row += [
            "cache" if outcome.cached else f"{outcome.elapsed_s:.2f}s",
            outcome.spec.label,
        ]
        rows.append(row)
    headers = ["Rank", "Cost", "Bus bytes", "Peak util"]
    if args.mode == "faults":
        headers += ["Injected", "Recovered", "Residual"]
    headers += ["Time", "Candidate"]
    title = (
        "TUTMAC mapping sweep"
        if args.mode == "mappings"
        else "TUTMAC fault-campaign sweep"
    )
    print(render_table(headers, rows, title=f"{title} (top {len(rows)})"))
    print()
    print(
        f"evaluated {run.evaluated} of {len(run.outcomes)} candidates "
        f"({run.cache_hits} cache hits) in {run.wall_s:.2f}s "
        f"with workers={run.workers}"
    )
    if run.pruned:
        infeasible = sum(1 for r in run.pruned if r.reason == "infeasible")
        print(
            f"pruned {len(run.pruned)} of {run.candidates_submitted} "
            "candidates statically "
            f"({infeasible} infeasible, {len(run.pruned) - infeasible} "
            f"dominated; margin {run.prune_margin:g})"
        )
    counters = run.supervisor_counters()
    if any(counters.values()) or run.quarantined:
        print(
            "failures: "
            f"{counters['timeouts']} timeouts, {counters['crashes']} crashes, "
            f"{counters['errors']} errors; {counters['retries']} retries, "
            f"{len(run.quarantined)} quarantined"
        )
    return exit_code


def _cmd_explore(args) -> int:
    import signal

    from repro.exploration import (
        PruneConfig,
        SupervisorConfig,
        parse_worker_faults,
        run_candidates,
    )

    specs = _explore_sweep_specs(args)

    def progress(outcome, done, total):
        origin = "cache" if outcome.cached else f"{outcome.elapsed_s:.2f}s"
        print(
            f"[{done}/{total}] cost={outcome.cost:.1f} ({origin}) "
            f"{outcome.spec.label}",
            file=sys.stderr,
        )

    from repro.errors import ExplorationError, SimulationInterrupted

    try:
        supervisor = SupervisorConfig(
            timeout_s=args.timeout,
            max_retries=args.max_retries,
        )
        worker_faults = parse_worker_faults(args.inject_worker_fault)
        prune = None
        if args.prune_static:
            prune = (
                PruneConfig(margin=args.prune_margin)
                if args.prune_margin is not None
                else PruneConfig()
            )
        elif args.prune_margin is not None:
            raise ExplorationError("--prune-margin requires --prune-static")
    except ExplorationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # a polite SIGTERM (timeout(1), CI job cancellation, kill <pid>) must
    # take the same clean-shutdown path as Ctrl-C: terminate the pool,
    # flush completed results to the cache, exit 3
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    try:
        run = run_candidates(
            specs,
            workers=args.workers,
            cache_dir=args.cache_dir,
            progress=progress if args.format == "text" else None,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every_events=args.checkpoint_every_events,
            interrupt_after_events=args.interrupt_after_events,
            supervisor=supervisor,
            worker_faults=worker_faults,
            prune_static=prune,
        )
    except SimulationInterrupted as exc:
        print(
            f"interrupted: {exc} — re-run the same command (without "
            "--interrupt-after-events) to resume",
            file=sys.stderr,
        )
        return 3
    except KeyboardInterrupt:
        print(
            "interrupted: campaign stopped — completed results were "
            "flushed to the cache; re-run the same command to resume",
            file=sys.stderr,
        )
        return 3
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)

    # exit-code contract: 0 clean, 3 interrupted (above), 4 completed but
    # with quarantined candidates (partial ranking — see docs/exploration.md)
    return _render_explore_run(run, args)


def _cmd_checkpoint(args) -> int:
    from repro.checkpoint import CheckpointStore, diff_states
    from repro.errors import CheckpointError

    if args.action == "inspect":
        store = CheckpointStore(args.dir)
        rows = []
        for path in store.list(args.tag):
            try:
                snapshot = store.load(path)
            except CheckpointError as exc:
                print(f"unreadable: {path}: {exc}", file=sys.stderr)
                continue
            rows.append(
                {
                    "tag": snapshot.tag,
                    "dispatched": snapshot.dispatched,
                    "now_ps": snapshot.now_ps,
                    "state_hash": snapshot.digest,
                    "path": str(path),
                }
            )
        if args.format == "json":
            from repro.util.jsonout import render_envelope

            print(render_envelope("checkpoint-list", rows, meta={"dir": args.dir}))
            return 0
        if not rows:
            print(f"no snapshots under {args.dir}")
            return 0
        from repro.util.tables import render_table

        print(
            render_table(
                ["Tag", "Events", "Time (ps)", "Hash", "Path"],
                [
                    [
                        row["tag"],
                        row["dispatched"],
                        row["now_ps"],
                        row["state_hash"][:12],
                        row["path"],
                    ]
                    for row in rows
                ],
                title=f"snapshots in {args.dir}",
            )
        )
        return 0

    # diff
    store = CheckpointStore(".")  # load() only needs the paths
    left = store.load(args.first)
    right = store.load(args.second)
    lines = diff_states(left.state, right.state)
    if not lines:
        print("snapshots are identical")
        return 0
    for line in lines:
        print(line)
    return 1


def _cmd_faults(args) -> int:
    from repro.faults import run_fault_campaign
    from repro.profiling import render_fault_section, render_report

    campaign = run_fault_campaign(
        seed=args.seed, fault_rate=args.fault_rate, duration_us=args.duration_us
    )
    if args.full_report:
        print(render_report(campaign.profiling, title="Fault campaign report"))
    else:
        print(render_fault_section(campaign.profiling))
    stats = campaign.stats
    ok = stats.injected == stats.detected == stats.recovered + stats.residual
    return 0 if ok else 1


def _cmd_timeline(args) -> int:
    from repro.cases.tutwlan import build_tutwlan_system
    from repro.diagrams import timeline_text, utilization_summary
    from repro.simulation import SystemSimulation

    result = SystemSimulation(*build_tutwlan_system()).run(args.duration_us)
    window_ps = args.window_us * 1_000_000
    print(timeline_text(result.log, width=args.width, end_ps=window_ps))
    print()
    print(utilization_summary(result.log))
    return 0


def _cmd_trace(args) -> int:
    from repro.cases.tutwlan import build_tutwlan_system
    from repro.observability import (
        Tracer,
        collect_metrics,
        render_chrome_trace,
        render_metrics_text,
        write_chrome_trace,
    )
    from repro.profiling.groupinfo import group_info_from_model
    from repro.simulation import SystemSimulation

    application, platform, mapping = build_tutwlan_system()
    tracer = Tracer()
    simulation = SystemSimulation(application, platform, mapping, tracer=tracer)
    result = simulation.run(args.duration_us)
    metadata = {
        "application": application.top.name,
        "platform": platform.top.name,
        "duration_us": args.duration_us,
    }
    if args.out:
        write_chrome_trace(tracer, args.out, metadata=metadata)
    if args.format == "chrome":
        print(render_chrome_trace(tracer, metadata))
        return 0
    group_of = dict(group_info_from_model(application.model).process_to_group)
    report = collect_metrics(tracer, result.account, group_of=group_of)
    if args.format == "json":
        from repro.util.jsonout import render_envelope

        print(render_envelope("trace-metrics", report.to_dict(), meta=metadata))
        return 0
    print(render_metrics_text(report))
    if args.out:
        print()
        print(f"trace written to {args.out} (open it in ui.perfetto.dev)")
    return 0


def _cmd_validate(args) -> int:
    from repro.analysis import render_records, validation_records
    from repro.tutprofile import TUT_PROFILE, check_design_rules
    from repro.uml import read_model, validate_model

    model = read_model(args.model, profiles=[TUT_PROFILE])
    wellformed = validate_model(model)
    rules = check_design_rules(model)
    records = validation_records(wellformed, source="wellformedness")
    records += validation_records(rules, source="design-rules")
    print(
        render_records(
            records,
            format=args.format,
            title=f"validation: {args.model}",
            meta={"model": args.model},
            kind="validate",
        )
    )
    if args.fail_on == "never":
        return 0
    severities = {r["severity"] for r in records}
    if "error" in severities:
        return 1
    if args.fail_on == "warning" and "warning" in severities:
        return 1
    return 0


def _load_lint_inputs(model_path):
    """The (application, platform, mapping) triple for the lint command.

    Without a path the built-in TUTMAC-on-TUTWLAN system is linted; with
    one, the XMI document's views are reconstructed (platform and mapping
    are optional — purely behavioural rules still run without them).
    """
    if model_path is None:
        from repro.cases.tutwlan import build_tutwlan_system

        return build_tutwlan_system()

    from repro.application.model import ApplicationModel
    from repro.errors import ReproError
    from repro.tutprofile import TUT_PROFILE
    from repro.uml import read_model

    model = read_model(model_path, profiles=[TUT_PROFILE])
    application = ApplicationModel.from_model(model)
    platform = mapping = None
    try:
        from repro.mapping.model import MappingModel
        from repro.platform.library import standard_library
        from repro.platform.model import PlatformModel

        platform = PlatformModel.from_model(
            model, standard_library(profile=application.profile)
        )
        mapping = MappingModel.from_model(application, platform)
    except ReproError:
        platform = mapping = None
    return application, platform, mapping


def _cmd_lint(args) -> int:
    from repro.analysis import (
        LintConfig,
        lint_records,
        render_matrix,
        render_records,
        render_rule_catalogue,
        rule_catalogue_records,
        run_lint,
        signal_flow_matrix,
    )
    from repro.errors import LintConfigError

    if args.list_rules:
        if args.format == "json":
            from repro.util.jsonout import render_envelope

            print(render_envelope("lint-rules", rule_catalogue_records()))
        else:
            print(render_rule_catalogue())
        return 0

    selected = None
    if args.rules is not None:
        selected = [
            rule_id.strip() for rule_id in args.rules.split(",") if rule_id.strip()
        ]
    application, platform, mapping = _load_lint_inputs(args.model)
    config = LintConfig(fail_on=args.fail_on, rules=selected)
    try:
        report = run_lint(application, platform, mapping, config=config)
    except LintConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = lint_records(report, show_suppressed=args.show_suppressed)
    subject = args.model or "TUTMAC/TUTWLAN (built-in)"
    meta = {"model": subject}
    if args.matrix and args.format == "json":
        meta["matrix"] = {
            f"{sender} -> {receiver}": signals
            for (sender, receiver), signals in signal_flow_matrix(application).items()
        }
    print(
        render_records(
            records,
            format=args.format,
            title=f"tutlint: {subject}",
            meta=meta,
            kind="lint",
        )
    )
    if args.matrix and args.format == "text":
        print()
        print(render_matrix(signal_flow_matrix(application)))
    return report.exit_code(args.fail_on)


def _cmd_generate_model(args) -> int:
    from repro.errors import GeneratorError
    from repro.genmodel import (
        GeneratorConfig,
        blueprint_json,
        builder_token,
        generate_blueprint,
        generate_model,
        known_defects,
    )

    if args.list_defects:
        for rule in known_defects():
            print(rule)
        return 0

    defects = ()
    if args.defects:
        if args.defects.strip() == "all":
            defects = tuple(known_defects())
        else:
            defects = tuple(
                rule.strip() for rule in args.defects.split(",") if rule.strip()
            )
    try:
        config = GeneratorConfig(
            seed=args.seed,
            n_processes=args.processes,
            efsm_depth=args.depth,
            fanout=args.fanout,
            n_variables=args.variables,
            guard_terms=args.guard_terms,
            request_reply=args.request_reply,
            drive_period_us=args.drive_period_us,
            topology=args.topology,
            n_segments=args.segments,
            n_pes=args.pes,
            heterogeneous=not args.homogeneous,
            n_groups=args.groups,
            inject_defects=defects,
        )
    except GeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.print_token:
        print(builder_token(config))
        return 0

    try:
        if args.format == "json":
            text = blueprint_json(generate_blueprint(config))
            if args.out:
                with open(args.out, "w", encoding="ascii") as handle:
                    handle.write(text + "\n")
                print(f"blueprint written to {args.out}")
            else:
                print(text)
        else:
            if not args.out:
                print(
                    "error: --format xmi requires --out", file=sys.stderr
                )
                return 2
            from repro.uml import write_model

            generated = generate_model(config)
            write_model(generated.application.model, args.out)
            print(f"model written to {args.out}")
    except GeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TUT-Profile (DATE 2005) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("tables", help="print profile Tables 1-3").set_defaults(
        handler=_cmd_tables
    )

    tutmac = subparsers.add_parser(
        "tutmac", help="Table 4: TUTMAC on the workstation reference"
    )
    tutmac.add_argument("--duration-us", type=int, default=200_000)
    tutmac.set_defaults(handler=_cmd_tutmac)

    flow = subparsers.add_parser("flow", help="run the full Figure 2 design flow")
    flow.add_argument("--workdir", default="./tut_flow_output")
    flow.add_argument("--duration-us", type=int, default=100_000)
    flow.add_argument(
        "--seed", type=int, default=1, help="fault-plan seed (with --fault-rate)"
    )
    flow.add_argument(
        "--fault-rate",
        type=_rate,
        default=0.0,
        help="per-transfer corruption probability; 0 disables fault injection",
    )
    flow.add_argument(
        "--lint",
        action="store_true",
        help="run tutlint static analysis before code generation",
    )
    flow.add_argument(
        "--trace",
        action="store_true",
        help="simulate under the observability tracer and write trace.json "
        "(Perfetto) and metrics.json artefacts",
    )
    flow.add_argument(
        "--explore",
        action="store_true",
        help="close the Figure 2 loop: improve the mapping from profiling "
        "feedback and write exploration.json",
    )
    flow.add_argument(
        "--cache-dir",
        default=None,
        help="exploration result cache directory (with --explore)",
    )
    flow.add_argument(
        "--checkpoint-dir",
        default=None,
        help="snapshot the simulation here and resume from the latest "
        "snapshot when one exists (see docs/checkpoint.md)",
    )
    flow.add_argument(
        "--checkpoint-every-events",
        type=int,
        default=5_000,
        help="snapshot stride in dispatched events (with --checkpoint-dir)",
    )
    flow.set_defaults(handler=_cmd_flow)

    explore = subparsers.add_parser(
        "explore",
        help="parallel design-space exploration with result caching",
    )
    explore.add_argument(
        "--mode",
        choices=("mappings", "faults"),
        default="mappings",
        help="sweep all TUTMAC mappings, or one fault campaign per seed",
    )
    explore.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = serial in-process, same ranking)",
    )
    explore.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache; warm re-runs evaluate nothing",
    )
    explore.add_argument(
        "--top", type=int, default=10, help="candidates shown in the ranking"
    )
    explore.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    explore.add_argument("--duration-us", type=int, default=20_000)
    explore.add_argument(
        "--limit", type=int, default=None, help="cap the number of candidates"
    )
    explore.add_argument(
        "--seeds",
        default="1,2,3,4",
        help="comma-separated fault-plan seeds (--mode faults)",
    )
    explore.add_argument("--fault-rate", type=_rate, default=0.05)
    explore.add_argument(
        "--prune-static",
        action="store_true",
        help="skip candidates the static mapping estimator proves "
        "infeasible or dominated, before any simulation (the skipped "
        "candidates are recorded in the pruned ledger)",
    )
    explore.add_argument(
        "--prune-margin",
        type=float,
        default=None,
        help="dominance factor for --prune-static: keep candidates within "
        "this multiple of the best static estimate (default 3.0)",
    )
    explore.add_argument(
        "--checkpoint-dir",
        default=None,
        help="snapshot in-flight candidate simulations here; re-running "
        "the same command resumes the campaign (pair with --cache-dir)",
    )
    explore.add_argument(
        "--checkpoint-every-events",
        type=int,
        default=5_000,
        help="snapshot stride in dispatched kernel events",
    )
    explore.add_argument(
        "--interrupt-after-events",
        type=int,
        default=None,
        help="deterministically interrupt the (serial) campaign after this "
        "many events — exits 3 with a final snapshot, for resume testing",
    )
    explore.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-candidate wall-clock timeout in seconds (parallel "
        "workers only); a timed-out attempt counts as one failure",
    )
    explore.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="failed attempts retried per candidate (with exponential "
        "backoff) before it is quarantined (recorded in the failure "
        "ledger, excluded from the ranking)",
    )
    explore.add_argument(
        "--inject-worker-fault",
        action="append",
        default=[],
        metavar="INDEX:MODE[:COUNT]",
        help="inject a worker fault at candidate INDEX: one of "
        "crash|hang|slow|flaky|poison, repeated COUNT attempts "
        "(testing aid; repeatable)",
    )
    explore.set_defaults(handler=_cmd_explore)

    checkpoint = subparsers.add_parser(
        "checkpoint", help="inspect or diff simulation snapshots"
    )
    checkpoint_actions = checkpoint.add_subparsers(dest="action", required=True)
    inspect = checkpoint_actions.add_parser(
        "inspect", help="list the snapshots in a store directory"
    )
    inspect.add_argument("--dir", default="./checkpoints")
    inspect.add_argument("--tag", default=None, help="only this snapshot tag")
    inspect.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    inspect.set_defaults(handler=_cmd_checkpoint)
    diff = checkpoint_actions.add_parser(
        "diff", help="structurally compare two snapshot files"
    )
    diff.add_argument("first")
    diff.add_argument("second")
    diff.set_defaults(handler=_cmd_checkpoint)

    faults = subparsers.add_parser(
        "faults", help="seeded fault-injection campaign on ARQ-enabled TUTMAC"
    )
    faults.add_argument("--seed", type=int, default=1)
    faults.add_argument("--fault-rate", type=_rate, default=0.05)
    faults.add_argument("--duration-us", type=int, default=200_000)
    faults.add_argument(
        "--full-report",
        action="store_true",
        help="print the whole profiling report, not just the fault ledger",
    )
    faults.set_defaults(handler=_cmd_faults)

    timeline = subparsers.add_parser(
        "timeline", help="text Gantt of the TUTWLAN processors"
    )
    timeline.add_argument("--duration-us", type=int, default=10_000)
    timeline.add_argument("--window-us", type=int, default=3_000)
    timeline.add_argument("--width", type=int, default=100)
    timeline.set_defaults(handler=_cmd_timeline)

    trace = subparsers.add_parser(
        "trace",
        help="traced example simulation: per-PE/bus metrics + Perfetto export",
    )
    trace.add_argument(
        "target",
        nargs="?",
        choices=("examples",),
        default="examples",
        help="what to trace (the built-in TUTMAC-on-TUTWLAN example system)",
    )
    trace.add_argument("--duration-us", type=int, default=10_000)
    trace.add_argument(
        "--format",
        choices=("text", "json", "chrome"),
        default="text",
        help="metrics tables, enveloped metrics JSON, or Chrome-trace JSON",
    )
    trace.add_argument(
        "--out",
        default=None,
        help="also write the Chrome-trace JSON to this path",
    )
    trace.set_defaults(handler=_cmd_trace)

    validate = subparsers.add_parser("validate", help="validate an XMI model file")
    validate.add_argument("model")
    validate.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    validate.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    validate.set_defaults(handler=_cmd_validate)

    lint = subparsers.add_parser(
        "lint", help="run tutlint static analysis over a model"
    )
    lint.add_argument(
        "model",
        nargs="?",
        default=None,
        help="XMI model file (default: the built-in TUTMAC/TUTWLAN system)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include findings silenced by tutlint: disable= comments",
    )
    lint.add_argument(
        "--matrix",
        action="store_true",
        help="also print the static signal-flow matrix (Figure 2's static twin)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run exclusively (e.g. A001,M002); "
        "unknown ids are rejected with exit code 2",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue (text table, or the "
        "repro.lint-rules/1 envelope with --format json) and exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    generate = subparsers.add_parser(
        "generate-model",
        help="generate a seeded synthetic TUT-Profile model",
    )
    generate.add_argument("--seed", type=int, default=0, help="generator seed")
    generate.add_argument(
        "--processes", type=int, default=4, help="token-ring length"
    )
    generate.add_argument(
        "--depth", type=int, default=2, help="EFSM state-hierarchy depth"
    )
    generate.add_argument(
        "--fanout", type=int, default=2,
        help="guarded token-handling alternatives per EFSM",
    )
    generate.add_argument(
        "--variables", type=int, default=2, help="scratch variables per EFSM"
    )
    generate.add_argument(
        "--guard-terms", type=int, default=2,
        help="comparison terms per generated guard",
    )
    generate.add_argument(
        "--request-reply", type=int, default=1,
        help="client/server request-reply chains",
    )
    generate.add_argument(
        "--drive-period-us", type=int, default=200,
        help="token-injection timer period (µs)",
    )
    generate.add_argument(
        "--topology",
        choices=("single", "paper", "chain", "star", "mesh"),
        default="paper",
        help="HIBI segment/bridge layout",
    )
    generate.add_argument(
        "--segments", type=int, default=2,
        help="HIBI segments (chain/star/mesh topologies)",
    )
    generate.add_argument(
        "--pes", type=int, default=3, help="processing elements"
    )
    generate.add_argument(
        "--homogeneous",
        action="store_true",
        help="all NiosCPU instead of alternating NiosCPU/NiosDSP",
    )
    generate.add_argument(
        "--groups", type=int, default=3, help="process groups"
    )
    generate.add_argument(
        "--defects",
        default="",
        metavar="IDS",
        help="comma-separated lint rule ids whose defect constructions "
        "to inject (e.g. E003,A001), or 'all'",
    )
    generate.add_argument(
        "--list-defects",
        action="store_true",
        help="print the injectable rule ids and exit",
    )
    generate.add_argument(
        "--format",
        choices=("json", "xmi"),
        default="json",
        help="blueprint JSON (canonical bytes) or an XMI model document",
    )
    generate.add_argument(
        "--out", default=None, help="output path (stdout for json)"
    )
    generate.add_argument(
        "--print-token",
        action="store_true",
        help="print the exploration builder token for this configuration",
    )
    generate.set_defaults(handler=_cmd_generate_model)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
