"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list processors|benchmarks|configurations|experiments|nodes`` —
  catalog views (``nodes`` includes the projected 22-7 nm operating
  points, flagged as synthetic);
* ``measure <benchmark> <processor> [--cores N --threads N --clock GHZ
  --no-turbo --quick]`` — one measurement through the full pipeline;
* ``experiment <id>`` — regenerate one paper artifact (``table1``..``fig12``);
* ``findings`` — evaluate the thirteen findings;
* ``dataset <out.csv> [--configs stock|45nm|all]`` — export the run dataset;
* ``figure <fig2|fig3|fig7c|fig11|fig12>`` — draw a character figure;
* ``project [--nodes 22,14,10,7 --samples N --area MM2 --tdp W --seed S
  --out DIR]`` — synthesize post-2011 candidate machines and search the
  per-node Pareto frontiers (docs/projection.md); ``--out`` writes the
  canonical ``frontier.json`` dataset and the extended fig12-style
  ``figure.txt``, byte-identical at any ``--jobs``/kernel setting;
* ``stats`` — run a small sweep and print the telemetry summary table;
* ``serve [--host H --port P --store DB --slo SPEC --event-log PATH
  ...]`` — run the measurement campaign as an HTTP service (see
  docs/service.md);
* ``top [--url U --interval S --once]`` — live ops dashboard for a
  running server (polls ``/healthz``, ``/slo``, ``/metrics``).

Global telemetry flags (before the command):

* ``--trace PATH.jsonl`` — export a span per experiment/measurement;
* ``--trace-chrome PATH.json`` — also export the spans as a Chrome-trace
  file loadable in ``chrome://tracing`` / Perfetto;
* ``--metrics`` — dump Prometheus-style exposition after the command;
* ``--progress`` — live rate/ETA line on stderr (composes with
  ``--quick``: totals reflect the scaled invocation counts);
* ``--jobs N`` — worker processes for sweeps (default ``auto`` = CPU
  count; ``none`` forces the in-process path).  Results, health, and
  checkpoints are byte-identical at any worker count.

Robustness flags on ``measure`` and ``dataset`` (see docs/robustness.md):

* ``--inject PLAN`` — arm a fault plan (``demo``, ``ci``, ``chaos``, or a
  JSON path);
* ``--max-retries N`` — bound per-invocation retries (default 3);
* ``--checkpoint PATH`` — append each new result to a JSONL checkpoint;
* ``--resume PATH`` — preload a checkpoint before running (commonly the
  same path as ``--checkpoint``, so a killed campaign picks up where it
  stopped).

``--checkpoint`` also writes a ``<path>.meta`` sidecar recording the run
fingerprint (root seed, invocation scale, fault plan); ``--resume``
refuses a checkpoint whose sidecar mismatches the current run (exit
code 4) instead of silently mixing incompatible datasets.

Exit codes: 0 success, 2 usage error or bad input (one ``error:`` line,
no traceback), 3 measurement failed, 4 resume / store fingerprint or
schema mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.ledger import CheckpointMismatch, run_fingerprint
from repro.core.study import Study
from repro.experiments.findings import evaluate_all
from repro.faults.errors import MeasurementError
from repro.faults.injector import install as install_faults, uninstall as uninstall_faults
from repro.faults.plan import PlanError, plan_from_arg
from repro.faults.retry import RetryPolicy
from repro.experiments.registry import EXPERIMENTS, EXTENSIONS, run_experiment
from repro.hardware.catalog import ATOM_45, CORE_I7_45, PROCESSORS
from repro.hardware.config import (
    UnsupportedConfigurationError,
    resolve_pair,
    stock,
)
from repro.hardware.configurations import (
    all_configurations,
    node_45nm_configurations,
    stock_configurations,
)
from repro.obs.export import render_prometheus, render_summary
from repro.obs.progress import ProgressReporter
from repro.obs.tracing import default_tracer
from repro.projection import (
    ProjectionQueryError,
    evaluate_projection_finding,
    parse_query,
    search,
)
from repro.reporting import figures
from repro.reporting.tables import render_experiment, render_rows
from repro.workloads.catalog import BENCHMARKS, benchmark


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Measured Power, Performance, and "
        "Scaling' (ASPLOS 2011)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run 20%% of the paper's repetition protocol",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH.jsonl",
        default=None,
        help="record tracing spans and export them as JSONL on exit",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="PATH.json",
        default=None,
        help="also export recorded spans as a Chrome-trace / Perfetto "
        "JSON file on exit (implies tracing)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="dump Prometheus-style metrics exposition after the command",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="show a live rate/ETA progress line on stderr",
    )
    parser.add_argument(
        "--jobs",
        metavar="N",
        default="auto",
        help="worker processes for sweeps: an integer, 'auto' (CPU "
        "count; the default), or 'none' to force the in-process path — "
        "results are byte-identical at any setting",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.25,
        metavar="S",
        help="seconds between worker heartbeats (default 0.25)",
    )
    parser.add_argument(
        "--liveness-misses",
        type=int,
        default=4,
        metavar="K",
        help="missed heartbeats before a worker is declared dead, "
        "killed, and its chunk requeued (default 4)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_robustness_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--inject",
            metavar="PLAN",
            default=None,
            help="arm a fault plan: 'demo', 'ci', 'chaos', or a JSON "
            "plan path",
        )
        cmd.add_argument(
            "--max-retries",
            type=int,
            default=None,
            metavar="N",
            help="retries per invocation before quarantine (default 3)",
        )
        cmd.add_argument(
            "--checkpoint",
            metavar="PATH",
            default=None,
            help="append each newly measured result to a JSONL checkpoint",
        )
        cmd.add_argument(
            "--resume",
            metavar="PATH",
            default=None,
            help="preload a JSONL checkpoint before running",
        )

    list_cmd = commands.add_parser("list", help="catalog views")
    list_cmd.add_argument(
        "what",
        choices=(
            "processors",
            "benchmarks",
            "configurations",
            "experiments",
            "nodes",
        ),
    )

    measure = commands.add_parser("measure", help="measure one benchmark")
    measure.add_argument("benchmark")
    measure.add_argument("processor")
    measure.add_argument("--cores", type=int, default=None)
    measure.add_argument("--threads", type=int, default=None)
    measure.add_argument("--clock", type=float, default=None)
    measure.add_argument("--no-turbo", action="store_true")
    add_robustness_flags(measure)

    experiment = commands.add_parser("experiment", help="regenerate an artifact")
    experiment.add_argument(
        "experiment_id", choices=sorted(EXPERIMENTS) + sorted(EXTENSIONS)
    )

    commands.add_parser("findings", help="evaluate the thirteen findings")

    dataset = commands.add_parser("dataset", help="export the run dataset")
    dataset.add_argument("output")
    dataset.add_argument(
        "--configs", choices=("stock", "45nm", "all"), default="stock"
    )
    add_robustness_flags(dataset)

    figure = commands.add_parser("figure", help="draw a character figure")
    figure.add_argument(
        "figure_id", choices=("fig2", "fig3", "fig7c", "fig11", "fig12")
    )

    project = commands.add_parser(
        "project",
        help="search Pareto frontiers over synthesized post-2011 machines",
    )
    # Text values: repro.projection.parse_query, shared with GET /project.
    project.add_argument(
        "--nodes",
        metavar="NM[,NM...]",
        help="comma-separated projected nodes to search (default all four)",
    )
    project.add_argument(
        "--samples",
        metavar="N",
        help="candidate machines per node (default 512; the four-node "
        "default searches 2048 configurations)",
    )
    project.add_argument(
        "--area",
        metavar="MM2",
        help="die area budget per candidate in mm^2 (default 260)",
    )
    project.add_argument(
        "--tdp",
        metavar="W",
        help="package power budget per candidate in watts (default 130)",
    )
    project.add_argument(
        "--seed",
        metavar="S",
        help="candidate-generator seed (default 0)",
    )
    project.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write frontier.json (canonical dataset bytes) and "
        "figure.txt (extended fig12) into DIR",
    )
    add_robustness_flags(project)

    commands.add_parser(
        "stats",
        help="run a small demonstration sweep and print the telemetry "
        "summary table",
    )

    serve_cmd = commands.add_parser(
        "serve", help="run the campaign as an HTTP measurement service"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 picks an ephemeral port and prints it)",
    )
    serve_cmd.add_argument(
        "--store",
        metavar="PATH.sqlite",
        default=None,
        help="SQLite result store; warm-starts the cache across restarts "
        "(default: in-memory, lost on exit)",
    )
    serve_cmd.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="in-flight job bound before requests get 429 (default 64)",
    )
    serve_cmd.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="per-client measure requests per second (default: unlimited)",
    )
    serve_cmd.add_argument(
        "--burst",
        type=float,
        default=5.0,
        metavar="B",
        help="per-client burst allowance when --rate is set (default 5)",
    )
    serve_cmd.add_argument(
        "--cache-cap",
        type=int,
        default=None,
        metavar="N",
        help="LRU-bound the in-memory result cache to N pairs "
        "(default: unbounded; the store still holds everything)",
    )
    serve_cmd.add_argument(
        "--inject",
        metavar="PLAN",
        default=None,
        help="arm a server-wide fault plan: 'demo', 'ci', 'chaos', or a "
        "JSON path",
    )
    serve_cmd.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per invocation before quarantine (default 3)",
    )
    serve_cmd.add_argument(
        "--slo",
        metavar="SPEC",
        default=None,
        help="declare SLO targets for GET /slo, e.g. "
        "'p99=250ms,avail=99.9' (latency clauses take us/ms/s suffixes)",
    )
    serve_cmd.add_argument(
        "--event-log",
        metavar="PATH.jsonl",
        default=None,
        help="append one JSON line per served /measure correlating "
        "request id, trace id, and store row",
    )
    serve_cmd.add_argument(
        "--no-trace",
        action="store_true",
        help="disable per-request tracing (GET /trace will hold no data)",
    )
    serve_cmd.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="S",
        help="bound the SIGTERM drain: after S seconds in-flight "
        "measurements are cancelled and the final health report printed "
        "(default: wait for them indefinitely)",
    )
    serve_cmd.add_argument(
        "--recover",
        action="store_true",
        help="replay unfinished journalled requests from --store before "
        "serving fresh traffic (see docs/robustness.md)",
    )

    top_cmd = commands.add_parser(
        "top", help="live ops dashboard for a running campaign server"
    )
    top_cmd.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the server to watch (default %(default)s)",
    )
    top_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between refreshes (default 2)",
    )
    top_cmd.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    return parser


def _list(what: str) -> str:
    if what == "processors":
        rows = [
            {
                "key": spec.key,
                "label": spec.label,
                "uarch": spec.family.name,
                "config": spec.cmp_smt,
                "clock_ghz": spec.stock_clock.ghz,
                "node_nm": spec.node.nanometers,
                "tdp_w": spec.tdp_w,
            }
            for spec in PROCESSORS
        ]
    elif what == "benchmarks":
        rows = [
            {
                "name": b.name,
                "suite": b.suite.value,
                "group": b.group.value,
                "reference_s": b.reference_seconds,
            }
            for b in BENCHMARKS
        ]
    elif what == "configurations":
        rows = [{"key": c.key, "label": c.label} for c in all_configurations()]
    elif what == "nodes":
        from repro.hardware.technology import ALL_NODES

        rows = [
            {
                "node_nm": node.nanometers,
                "kind": "projected/synthetic" if node.synthetic else "measured",
                "nominal_v": node.nominal_voltage.value,
                "v_floor": (
                    node.voltage_floor.value
                    if node.voltage_floor is not None
                    else "-"
                ),
                "cap_scale": node.capacitance_scale,
                "leak_scale": node.leakage_scale,
                "dark_frac": node.dark_silicon_fraction,
            }
            for node in sorted(
                ALL_NODES.values(), key=lambda n: -n.nanometers
            )
        ]
    else:
        rows = [{"id": eid, "kind": "paper artifact"} for eid in EXPERIMENTS]
        rows += [{"id": eid, "kind": "extension"} for eid in EXTENSIONS]
    return render_rows(rows)


def _measure(args: argparse.Namespace, study: Study) -> str:
    bench, config = resolve_pair(
        args.benchmark,
        processor_key=args.processor,
        cores=args.cores,
        threads=args.threads,
        clock=args.clock,
        turbo=False if args.no_turbo else None,
    )
    result = study.measure(bench, config)
    return render_rows([result.as_row()])


def _findings(study: Study) -> str:
    rows = [
        {
            "id": report.finding_id,
            "holds": "yes" if report.holds else "NO",
            "statement": report.statement,
        }
        for report in evaluate_all(study)
    ]
    return render_rows(rows, max_width=78)


def _stats(study: Study) -> str:
    """Run a tiny 2-benchmark x 2-config sweep twice (the second pass is
    fully cached) and render the resulting telemetry."""
    benches = (benchmark("mcf"), benchmark("db"))
    configs = (stock(CORE_I7_45), stock(ATOM_45))
    for _ in range(2):
        study.run(configs, benches)
    lines = [
        "== telemetry after a 2 benchmark x 2 configuration sweep "
        "(run twice; second pass cached) ==",
        render_summary(),
    ]
    return "\n".join(lines)


def _dataset(args: argparse.Namespace, study: Study) -> str:
    configs = {
        "stock": stock_configurations,
        "45nm": node_45nm_configurations,
        "all": all_configurations,
    }[args.configs]()
    results = study.run(configs)
    path = results.to_csv(args.output)
    lines = [f"wrote {len(results)} rows to {path}"]
    health = results.health
    if health is not None and (
        health.total_failures
        or health.quarantined
        or health.restored_pairs
        or health.remeasured_outliers
    ):
        lines.append(health.summary())
    return "\n".join(lines)


def _project(args: argparse.Namespace, study: Study) -> str:
    """Run the frontier search and render/persist its artifacts."""
    query = parse_query(vars(args), default_samples=512)
    budget = query.budget
    # jobs=None inherits the worker count the study was built with, so
    # the global --jobs flag governs the sweep.
    dataset = search(
        study=study,
        nodes=query.nodes,
        samples=query.samples,
        budget=budget,
        seed=query.seed,
    )
    report = evaluate_projection_finding(dataset)
    rows = []
    for frontier in dataset.frontiers:
        outcomes = frontier.outcomes
        rows.append(
            {
                "node_nm": frontier.node_nm,
                "candidates": len(outcomes),
                "efficient": len(frontier.efficient_keys),
                "best_perf": round(frontier.best_performance(), 2),
                "best_perf_per_energy": round(frontier.best_efficiency(), 1),
                "median_dark": round(
                    sorted(o.candidate.dark_fraction for o in outcomes)[
                        len(outcomes) // 2
                    ],
                    3,
                ),
            }
        )
    lines = [
        f"searched {dataset.candidate_count()} candidate machines over "
        f"{len(query.nodes)} projected node(s) "
        f"(budget {budget.area_mm2:g} mm^2 / {budget.tdp_w:g} W, "
        f"seed {dataset.seed})",
        render_rows(rows),
        f"finding {report.finding_id} "
        f"({'holds' if report.holds else 'DOES NOT HOLD'}): "
        f"{report.statement}",
    ]
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dataset_path = out_dir / "frontier.json"
        dataset_path.write_bytes(dataset.to_json_bytes())
        figure_path = out_dir / "figure.txt"
        figure = figures.projection_figure(dataset) + "\n"
        figure_path.write_bytes(figure.encode("ascii"))
        lines.append(f"wrote {dataset_path} and {figure_path}")
    return "\n".join(lines)


def _serve(
    args: argparse.Namespace,
    study: Study,
    jobs: Optional[int | str],
    fingerprint: dict[str, object],
) -> int:
    # Imported here so the plain CLI never pays for the service stack.
    from repro.service.server import CampaignServer, serve
    from repro.service.store import StoreError

    if args.recover and args.store is None:
        print(
            "error: --recover replays the journal in --store; an "
            "in-memory store has nothing to recover",
            file=sys.stderr,
        )
        return 2
    try:
        server = CampaignServer(
            study=study,
            host=args.host,
            port=args.port,
            store=args.store,
            fingerprint=fingerprint,
            max_pending=args.queue_depth,
            jobs=jobs,
            rate=args.rate,
            burst=args.burst,
            slo=args.slo,
            event_log=args.event_log,
            trace_requests=not args.no_trace,
            drain_timeout=args.drain_timeout,
            recover=args.recover,
        )
    except StoreError as exc:
        # The store was written by an incompatible schema or a run with
        # different parameters — same class of mismatch as a stale
        # --resume checkpoint.  The message carries its own hint.
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        serve(server)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "top":
        # A pure HTTP client: no study, no tracer, no checkpoint state.
        from repro.obs.top import run_top

        return run_top(
            args.url,
            interval_s=args.interval,
            iterations=1 if args.once else None,
            clear=not args.once,
        )
    tracer = default_tracer()
    for trace_arg in (args.trace, args.trace_chrome):
        if trace_arg:
            # Fail before the (possibly long) run, not at export time.
            parent = Path(trace_arg).resolve().parent
            if not parent.is_dir():
                print(
                    f"error: trace directory does not exist: {parent}",
                    file=sys.stderr,
                )
                return 2
            tracer.enable()
    progress = ProgressReporter(stream=sys.stderr) if args.progress else None

    # Robustness options exist only on measure/dataset/serve; default
    # elsewhere.
    inject = getattr(args, "inject", None)
    max_retries = getattr(args, "max_retries", None)
    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    plan = None
    if inject is not None:
        try:
            plan = plan_from_arg(inject)
        except PlanError as exc:
            print(f"error: --inject: {exc}", file=sys.stderr)
            return 2
    scale = 0.2 if args.quick else 1.0
    fingerprint = run_fingerprint(invocation_scale=scale, plan=plan)
    if checkpoint is not None:
        parent = Path(checkpoint).resolve().parent
        if not parent.is_dir():
            print(
                f"error: --checkpoint directory does not exist: {parent}",
                file=sys.stderr,
            )
            return 2
    jobs: Optional[int | str]
    if args.jobs in ("none", "1") or args.jobs is None:
        # jobs=1 through the pool would be pure overhead from the CLI;
        # the in-process path produces the identical bytes.
        jobs = None
    elif args.jobs == "auto":
        jobs = "auto"
    else:
        try:
            jobs = int(args.jobs)
        except ValueError:
            print(
                f"error: --jobs must be an integer, 'auto', or 'none', "
                f"got {args.jobs!r}",
                file=sys.stderr,
            )
            return 2
        if jobs < 0:
            print("error: --jobs cannot be negative", file=sys.stderr)
            return 2
    study = Study(
        invocation_scale=scale,
        progress=progress,
        retry=RetryPolicy(max_retries=max_retries)
        if max_retries is not None
        else None,
        checkpoint_path=checkpoint,
        jobs=jobs,
        cache_capacity=getattr(args, "cache_cap", None),
        # The server reuses its worker pool across request batches.
        reuse_pool=args.command == "serve",
        heartbeat_s=args.heartbeat_interval,
        liveness_misses=args.liveness_misses,
    )
    try:
        restored = study.ledger.resume(resume, fingerprint)
    except FileNotFoundError:
        print(f"error: --resume file does not exist: {resume}", file=sys.stderr)
        return 2
    except CheckpointMismatch as exc:
        print(
            f"error: --resume checkpoint is from a different run ({exc})\n"
            "hint: re-run with the flags that wrote it (same "
            "--quick/--inject) or start a fresh --checkpoint",
            file=sys.stderr,
        )
        return 4
    if restored is not None:
        print(f"resumed {restored} results from {resume}", file=sys.stderr)
    if plan is not None:
        install_faults(plan)

    try:
        if args.command == "list":
            print(_list(args.what))
        elif args.command == "measure":
            print(_measure(args, study))
        elif args.command == "experiment":
            print(render_experiment(run_experiment(args.experiment_id, study)))
        elif args.command == "findings":
            print(_findings(study))
        elif args.command == "dataset":
            print(_dataset(args, study))
        elif args.command == "figure":
            renderer = {
                "fig2": figures.figure2,
                "fig3": figures.figure3,
                "fig7c": figures.figure7c,
                "fig11": figures.figure11,
                "fig12": figures.figure12,
            }[args.figure_id]
            print(renderer(study))
        elif args.command == "project":
            print(_project(args, study))
        elif args.command == "stats":
            print(_stats(study))
        elif args.command == "serve":
            code = _serve(args, study, jobs, fingerprint)
            if code != 0:
                return code
    except MeasurementError as exc:
        # A single quarantined pair fails `measure` outright; sweeps
        # (`dataset`) absorb failures into CampaignHealth instead.
        print(f"error: measurement failed: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedConfigurationError, ProjectionQueryError) as exc:
        # A bad name, setting or projection query: one line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if inject is not None:
            uninstall_faults()
        if progress is not None:
            progress.finish()
        if args.trace:
            tracer.export_jsonl(args.trace)
        if args.trace_chrome:
            tracer.export_chrome_trace(args.trace_chrome)
    if args.metrics:
        print(render_prometheus(), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
