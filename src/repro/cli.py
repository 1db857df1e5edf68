"""Command-line interface: ``tableau-repro`` / ``python -m repro``.

Subcommands map onto the paper's artifacts:

* ``plan``      — generate and describe a scheduling table (Secs. 5-6);
* ``overheads`` — reproduce Table 1 or 2;
* ``delay``     — reproduce a Fig. 5/6 cell (intrinsic latency or ping);
* ``web``       — reproduce a Fig. 7/8 operating point;
* ``scaling``   — reproduce the Fig. 3/4 planner sweeps;
* ``report``    — run the full claim checklist (paper vs. measured);
* ``chaos``     — run the stack under runtime fault injection with the
  health layer (watchdogs, (U, L) monitors, quarantine, recovery);
* ``serve``     — run the scheduler-as-a-service control plane under
  streaming tenant churn and report service-level metrics; with
  ``--journal`` the run is crash-recoverable (``--crash-plan`` arms
  seeded crashpoints, ``--recover`` replays the WAL after a crash).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import MS, Planner, make_vm
from repro.experiments import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    format_sweep,
    format_table,
    full_sweep,
    intrinsic_latency,
    overhead_table,
    ping_latency,
    run_web_load,
    schedulers_for,
)
from repro.topology import Topology, uniform, xeon_16core, xeon_48core
from repro.workloads import KIB


def _topology(name: str) -> Topology:
    if name == "16core":
        return xeon_16core()
    if name == "48core":
        return xeon_48core()
    return uniform(int(name))


def cmd_plan(args: argparse.Namespace) -> int:
    topology = _topology(args.topology)
    vms = [
        make_vm(f"vm{i:03d}", args.utilization, int(args.latency_ms * MS))
        for i in range(args.vms)
    ]
    result = Planner(topology).plan(vms)
    stats = result.stats
    print(
        f"method={stats.method} generation={stats.generation_seconds * 1e3:.1f}ms "
        f"table={stats.table_bytes / 1024:.1f}KiB splits={stats.split_tasks}"
    )
    task = result.task_of(vms[0].vcpus[0].name)
    print(
        f"per-vCPU reservation: {task.cost / MS:.3f}ms every "
        f"{task.period / MS:.3f}ms; worst blackout "
        f"{result.table.max_blackout_ns(task.name) / MS:.3f}ms "
        f"(goal {args.latency_ms}ms)"
    )
    if args.verbose:
        for cpu in sorted(result.table.cores):
            table = result.table.cores[cpu]
            print(f"  pCPU {cpu}: {len(table.allocations)} allocations, "
                  f"{table.utilization:.1%} reserved")
    return 0


def cmd_overheads(args: argparse.Namespace) -> int:
    topology = _topology(args.topology)
    paper = PAPER_TABLE2 if topology.num_cores > 16 else PAPER_TABLE1
    rows = overhead_table(topology, duration_s=args.seconds)
    print(format_table(rows, paper))
    return 0


def cmd_delay(args: argparse.Namespace) -> int:
    capped = not args.uncapped
    for scheduler in schedulers_for(capped):
        if args.probe == "intrinsic":
            result = intrinsic_latency(
                scheduler, capped, args.background, duration_s=args.seconds
            )
            print(
                f"{scheduler:>9s}: max {result.max_delay_ms:7.2f} ms, "
                f"mean {result.mean_delay_ms:6.2f} ms"
            )
        else:
            result = ping_latency(
                scheduler, capped, args.background, duration_s=args.seconds
            )
            print(
                f"{scheduler:>9s}: avg {result.avg_ms:7.2f} ms, "
                f"max {result.max_ms:7.2f} ms"
            )
    return 0


def cmd_web(args: argparse.Namespace) -> int:
    capped = not args.uncapped
    for scheduler in schedulers_for(capped):
        result = run_web_load(
            scheduler,
            args.rate,
            args.size_kib * KIB,
            capped=capped,
            background=args.background,
            duration_s=args.seconds,
        )
        point = result.point
        print(
            f"{scheduler:>9s}: achieved {point.achieved_rate:8.1f} req/s, "
            f"mean {point.latency.mean_ms:8.2f} ms, "
            f"p99 {point.latency.p99_ms:8.2f} ms, "
            f"NIC {result.nic_utilization:.1%}"
        )
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    points = full_sweep(repetitions=args.repetitions)
    print(format_sweep(points))
    if args.csv:
        from repro.analysis import scaling_rows, write_csv

        count = write_csv(scaling_rows(points), args.csv)
        print(f"wrote {count} rows to {args.csv}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import generate_report

    print(generate_report(duration_s=args.seconds))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import runtime_preset
    from repro.health import run_chaos
    from repro.metrics import chaos_report_json, format_chaos_report

    faults = (
        None
        if args.fault_plan == "none"
        else runtime_preset(args.fault_plan, seed=args.seed)
    )
    result = run_chaos(
        faults,
        seconds=args.seconds,
        seed=args.seed,
        topology=_topology(args.topology),
        health=args.health,
        strict_audit=args.strict_audit,
        engine=args.engine,
    )
    print(format_chaos_report(result))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(chaos_report_json(result) + "\n")
        print(f"wrote {args.report}")
    return 0 if result.audit_clean else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import (
        format_campaign,
        load_matrix,
        run_campaign,
        write_aggregate,
    )

    matrix = load_matrix(args.matrix)
    if args.engine is not None:
        from dataclasses import replace

        matrix = replace(matrix, engines=(args.engine,))
    result = run_campaign(
        matrix,
        workers=args.workers,
        log_path=args.log,
        resume=args.resume,
        shard_timeout_s=args.shard_timeout,
    )
    print(format_campaign(result))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(result.report, indent=2, sort_keys=True) + "\n"
            )
        print(f"wrote {args.report}")
    if args.aggregate:
        write_aggregate(result.aggregate, args.aggregate)
        print(f"wrote {args.aggregate}")
    return 0 if result.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.faults import SimulatedCrash, crashes_armed, parse_crash_plan
    from repro.metrics import (
        format_service_report,
        service_report,
        service_report_json,
    )
    from repro.service import (
        ChurnConfig,
        SchedulerService,
        ServiceConfig,
        ServiceJournal,
        resume_service,
        run_service,
    )

    if args.hours is not None:
        seconds = args.hours * 3600.0
    else:
        seconds = args.seconds
    churn = ChurnConfig(
        seed=args.seed,
        arrival_rate_per_s=args.arrival_rate,
        target_population=args.population,
    )
    config = ServiceConfig(batch_window_ms=args.batch_window_ms)
    if args.queue_limit is not None:
        config = replace(config, queue_limit=args.queue_limit)
    if args.journal is None and (args.recover or args.crash_plan):
        print(
            "serve: --recover and --crash-plan require --journal",
            file=sys.stderr,
        )
        return 2
    journal = None
    if args.journal is not None:
        journal = ServiceJournal(args.journal)
        if journal.healed_bytes:
            print(
                f"journal: healed {journal.healed_bytes} torn-tail "
                f"byte(s) in {args.journal}",
                file=sys.stderr,
            )
        if journal.records and not args.recover:
            print(
                f"serve: journal {args.journal} already holds "
                f"{len(journal.records)} record(s); replay it with "
                "--recover or point --journal at a fresh path",
                file=sys.stderr,
            )
            journal.close()
            return 2
    plan = (
        parse_crash_plan(args.crash_plan, seed=args.seed)
        if args.crash_plan
        else None
    )
    try:
        with crashes_armed(plan):
            if args.recover:
                service = SchedulerService.recover(
                    _topology(args.topology),
                    journal,
                    config=config,
                    scheduler=args.scheduler,
                )
                resume_service(service, seconds, churn=churn)
            else:
                service = run_service(
                    _topology(args.topology),
                    duration_s=seconds,
                    churn=churn,
                    config=config,
                    scheduler=args.scheduler,
                    journal=journal,
                )
    except SimulatedCrash as crash:
        print(
            f"serve: simulated crash at {crash.point} "
            f"(call {crash.call_index}); journal is durable at "
            f"{args.journal} — rerun with --recover",
            file=sys.stderr,
        )
        return 3
    if service.journal is not None:
        service.journal.close()
    report = service_report(service)
    if args.json:
        print(service_report_json(report), end="")
    else:
        print(format_service_report(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(service_report_json(report))
        if not args.json:
            print(f"wrote {args.report}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.lint import (
        format_human,
        format_json,
        format_suppressions,
        iter_rules,
        lint_paths,
    )

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.id:24s} [{rule.family}] {rule.description}")
        return 0
    rules = args.rules.split(",") if args.rules else None
    report = lint_paths(
        args.paths, rules=rules, cache_path=args.cache, jobs=args.jobs
    )
    if args.graph:
        graph = report.callgraph
        if graph is None:
            print("no call graph: flow passes did not run", file=sys.stderr)
            return 2
        with open(args.graph, "w", encoding="utf-8") as handle:
            if args.graph.endswith(".dot"):
                handle.write(graph.to_dot())
            else:
                json_module.dump(
                    graph.to_json_dict(), handle, indent=2, sort_keys=True
                )
                handle.write("\n")
        print(f"wrote {args.graph}")
    if args.list_suppressions:
        print(format_suppressions(report))
        return 0
    rendered = format_json(report) if args.format == "json" else format_human(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tableau-repro",
        description="Reproduction of Tableau (EuroSys 2018): table-driven "
        "VM scheduling with guaranteed utilization and latency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="generate a scheduling table")
    plan.add_argument("--vms", type=int, default=48)
    plan.add_argument("--utilization", type=float, default=0.25)
    plan.add_argument("--latency-ms", type=float, default=20.0)
    plan.add_argument("--topology", default="16core",
                      help="16core | 48core | <n> (default: 16core)")
    plan.add_argument("--verbose", action="store_true")
    plan.set_defaults(func=cmd_plan)

    overheads = sub.add_parser("overheads", help="reproduce Table 1/2")
    overheads.add_argument("--topology", default="16core")
    overheads.add_argument("--seconds", type=float, default=0.8)
    overheads.set_defaults(func=cmd_overheads)

    delay = sub.add_parser("delay", help="reproduce a Fig. 5/6 cell")
    delay.add_argument("--probe", choices=("intrinsic", "ping"),
                       default="intrinsic")
    delay.add_argument("--background", choices=("none", "io", "cpu"),
                       default="io")
    delay.add_argument("--uncapped", action="store_true")
    delay.add_argument("--seconds", type=float, default=1.5)
    delay.set_defaults(func=cmd_delay)

    web = sub.add_parser("web", help="reproduce a Fig. 7/8 point")
    web.add_argument("--rate", type=float, default=800.0)
    web.add_argument("--size-kib", type=int, default=1)
    web.add_argument("--background", choices=("none", "io", "cpu"),
                     default="io")
    web.add_argument("--uncapped", action="store_true")
    web.add_argument("--seconds", type=float, default=1.5)
    web.set_defaults(func=cmd_web)

    scaling = sub.add_parser("scaling", help="reproduce Figs. 3/4")
    scaling.add_argument("--repetitions", type=int, default=1)
    scaling.add_argument("--csv", default=None,
                         help="also write the series to this CSV file")
    scaling.set_defaults(func=cmd_scaling)

    report = sub.add_parser(
        "report", help="run the paper-vs-measured claim checklist"
    )
    report.add_argument("--seconds", type=float, default=0.5,
                        help="simulated seconds per runtime measurement")
    report.set_defaults(func=cmd_report)

    chaos = sub.add_parser(
        "chaos",
        help="run the stack under runtime fault injection with health "
        "supervision; exits non-zero if the invariant audit is dirty",
    )
    chaos.add_argument(
        "--fault-plan",
        default="chaos",
        help="runtime fault preset: none | lost-ipi | delayed-ipi | "
        "clock-skew | timer-jitter | stuck-vcpu | table-corrupt | chaos "
        "(default: chaos)",
    )
    chaos.add_argument("--seconds", type=float, default=0.5,
                       help="simulated seconds (default: 0.5)")
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument("--topology", default="16core")
    chaos.add_argument(
        "--health",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="enable the health layer (watchdogs, monitors, quarantine, "
        "recovery); --no-health shows unsupervised fault behavior",
    )
    chaos.add_argument(
        "--strict-audit",
        action="store_true",
        help="crash on the first invariant violation instead of recording",
    )
    chaos.add_argument(
        "--report",
        default=None,
        help="also write the JSON report to this path (the CI artifact)",
    )
    chaos.add_argument(
        "--engine",
        choices=("object", "array"),
        default="object",
        help="dispatch backend: object (per-event dispatch) or array "
        "(batched table playback; bit-identical output, default: object)",
    )
    chaos.set_defaults(func=cmd_chaos)

    campaign = sub.add_parser(
        "campaign",
        help="run an experiment campaign (matrix of scheduler x density "
        "x seed x fault-preset shards) on a process pool with a "
        "resumable run log",
    )
    campaign.add_argument(
        "--matrix",
        default="fig6-smoke",
        help="builtin matrix name (fig6, fig6-smoke, service, "
        "service-smoke) or a JSON matrix file (default: fig6-smoke)",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width; 1 runs serially (default: 1)",
    )
    campaign.add_argument(
        "--log",
        default=None,
        help="JSONL run log; shard records stream here as they finish",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip shards that already have an ok record in --log",
    )
    campaign.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="per-shard deadline in seconds (parallel runs only)",
    )
    campaign.add_argument(
        "--report",
        default=None,
        help="write the full JSON report (timings, cache stats) here",
    )
    campaign.add_argument(
        "--aggregate",
        default=None,
        help="write the deterministic aggregate JSON here (byte-stable "
        "across worker counts and resume boundaries)",
    )
    campaign.add_argument(
        "--engine",
        choices=("object", "array"),
        default=None,
        help="override the matrix's dispatch-backend axis with a single "
        "backend (default: honor the matrix's engines field)",
    )
    campaign.set_defaults(func=cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help="run the scheduler-as-a-service control plane under a "
        "seeded streaming tenant churn workload (simulated clock) and "
        "print the deterministic service report",
    )
    serve.add_argument(
        "--seconds",
        type=float,
        default=300.0,
        help="simulated service lifetime (default: 300)",
    )
    serve.add_argument(
        "--hours",
        type=float,
        default=None,
        help="simulated lifetime in hours (overrides --seconds)",
    )
    serve.add_argument(
        "--arrival-rate",
        type=float,
        default=4.0,
        help="mean tenant request arrival rate per second before "
        "diurnal shaping (default: 4.0)",
    )
    serve.add_argument(
        "--population",
        type=int,
        default=32,
        help="churn generator's target tenant population (default: 32)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=1000.0,
        help="base batch-flush window; bursts inside one window share "
        "one replan and one table push (default: 1000)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="admission queue bound; excess requests are rejected "
        "with reason 'backpressure' (default: service default)",
    )
    serve.add_argument(
        "--scheduler",
        choices=("tableau", "credit", "credit2", "rtds"),
        default="tableau",
        help="control-plane planning model (default: tableau)",
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--topology", default="16core",
                       help="16core | 48core | <n> (default: 16core)")
    serve.add_argument(
        "--report",
        default=None,
        help="also write the canonical JSON report to this path (the "
        "byte-compared CI artifact)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="print the canonical JSON report instead of the summary",
    )
    serve.add_argument(
        "--journal",
        default=None,
        help="append-only tenant WAL; makes the run crash-recoverable "
        "(every admitted request is durable before it takes effect)",
    )
    serve.add_argument(
        "--crash-plan",
        default=None,
        help="arm seeded crashpoints, e.g. 'service.admit@3' or "
        "'service.commit@2+,service.flush.pre-push'; the process "
        "exits 3 at the first firing, leaving the journal durable "
        "(requires --journal)",
    )
    serve.add_argument(
        "--recover",
        action="store_true",
        help="rebuild the service by replaying --journal (crash "
        "restart), then resume the churn stream from the journaled "
        "RNG checkpoint and run to --seconds",
    )
    serve.set_defaults(func=cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific static analysis (determinism, "
        "time-units, hot-path, error-handling, layering rules); exits "
        "non-zero on findings",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (json is the CI artifact)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    lint.add_argument(
        "--graph",
        default=None,
        metavar="PATH",
        help="export the resolved call graph (.dot for Graphviz, "
        "anything else as JSON)",
    )
    lint.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="incremental cache file: unchanged files skip parsing",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse and summarize files on N worker processes",
    )
    lint.add_argument(
        "--list-suppressions",
        action="store_true",
        help="print every # repro: allow[...] comment with per-id "
        "liveness and exit",
    )
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
