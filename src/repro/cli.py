"""Command-line interface.

    python -m repro list
    python -m repro run fib-10 --policy splice --processors 4 \\
        --fault 600:2 --fault 900:1 --seed 7 --trace
    python -m repro run balanced:4:2:30 --nemesis partition:start=0.3,dur=0.25,group=0-1
    python -m repro run fib-10 --policy splice --dry-run
    python -m repro run --spec-json spec.json
    python -m repro figures
    python -m repro exp list
    python -m repro exp run rollback-vs-splice --workers 4
    python -m repro exp show chaos-storm --json
    python -m repro exp runs
    python -m repro exp resume smoke-79ab12cd34ef --workers 4
    python -m repro faults list
    python -m repro faults describe partition
    python -m repro check list
    python -m repro check run balanced:4:2:30 --nemesis chaos:drop=0.15,notify=1
    python -m repro check search balanced:4:2:30 --seed 1 --attempts 10
    python -m repro check search balanced:3:2:10 --strategy coverage --rounds 24 \\
        --corpus-out results/check/corpus.json
    python -m repro check corpus run tests/baselines/corpus
    python -m repro report run rollback-vs-splice --replications 5
    python -m repro report compare rollback-vs-splice --axis policy
    python -m repro perf run --quick
    python -m repro perf compare BENCH_core.json

``run`` builds one canonical :class:`~repro.api.RunSpec` from its flags
(or loads one with ``--spec-json FILE``), then executes it and prints
the run summary (and optionally the recovery trace); ``--dry-run``
prints the resolved canonical spec JSON without running.  ``figures``
regenerates every paper figure; ``list`` shows the available workload
and policy names.  The ``exp`` subcommands drive the scenario registry
(:mod:`repro.exp`): ``exp list`` shows every registered scenario, ``exp
show`` prints one spec's axes and parameters (``--json`` emits the
fully-expanded RunSpec list), and ``exp run`` executes a sweep with
process-pool fan-out, on-disk result caching, and a crash-safe progress
ledger (see ``docs/SCENARIOS.md``).  ``exp runs`` lists ledgered runs
with their progress fractions and ``exp resume RUN-ID`` completes an
interrupted sweep from its ledger, re-running only the unfinished
points — byte-identical to an uninterrupted run (see
``docs/LEDGER.md``).  The ``faults`` subcommands drive the
fault-model registry (:mod:`repro.faults`): ``faults list`` shows
every registered nemesis model and ``faults describe`` one model's
parameters and spec grammar (see ``docs/FAULTS.md``).  The ``check``
subcommands drive the trace-oracle subsystem (:mod:`repro.check`):
``check list`` shows the oracle catalog, ``check run`` evaluates one
run — or, with ``--scenario``, a whole grid — against the invariants,
``check search`` hunts nemesis schedules for violations — blind random
draws or, with ``--strategy coverage``, feedback-driven frontier
mutation over coverage signatures — and shrinks them to minimal
reproducers with a deterministic ledger under ``results/check/``, and
``check corpus run`` replays a saved reproducer corpus as a regression
gate (see ``docs/CHECK.md``).  The ``report``
subcommands drive the statistical reporting subsystem
(:mod:`repro.report`): ``report run`` aggregates a (replicated) sweep
into per-point median/IQR/bootstrap-CI summaries, ``report compare``
pairs two scenarios — or two values of one axis — with delta confidence
intervals, and ``report list`` shows where each scenario's report
lands; Markdown + JSON pairs are written under ``results/reports/``
(see ``docs/REPORTS.md``).  The ``perf``
subcommands drive the
benchmark subsystem (:mod:`repro.perf`): ``perf list`` shows the
registered benchmarks, ``perf run`` measures them into canonical JSON
(``BENCH_core.json``), and ``perf compare`` gates a fresh run against a
committed baseline (see ``docs/PERFORMANCE.md``).

Spec failures exit with code 2 and a one-line structured diagnostic
(the offending token, the allowed values, and its position) rather than
a traceback — see :class:`~repro.errors.SpecError`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import Experiment, FaultSpec, PolicySpec, RunSpec, Session
from repro.api.specs import POLICY_TABLE, SCHEDULERS, TOPOLOGIES, policy_usage
from repro.errors import ReproError, SpecError
from repro.util.tables import format_table
from repro.workloads.suite import WORKLOADS

#: argparse choices mirror the spec layer's allowed values, so adding a
#: policy/topology/scheduler in repro.api is enough for the CLI.
#: Policies take parameters (``replicated:K``, ``incremental:persist=MODE``),
#: so ``--policy`` validates through the spec grammar instead of a choices
#: list; this tuple is the bare-name catalog, a view of the policy table.
POLICIES = tuple(POLICY_TABLE)

#: The ``--policy`` help string, derived from the same table (pinned by
#: tests/test_docs.py).
POLICY_HELP = " | ".join(policy_usage(name) for name in POLICIES) + " (default: rollback)"

TRACE_KINDS = (
    "node_failed",
    "failure_detected",
    "recovery_reissue",
    "twin_created",
    "result_orphan_rerouted",
    "result_salvaged",
    "task_aborted",
)


def _parse_policy(text: str) -> str:
    """One ``--policy`` flag value, via the shared PolicySpec grammar.

    Returns the raw string (downstream spec-building re-parses it);
    parameterized specs like ``replicated:3`` or ``incremental:persist=
    durable`` can't pass an argparse choices list, so validation runs
    through the grammar and its structured diagnostic is re-raised
    verbatim as an ArgumentTypeError.
    """
    try:
        PolicySpec.parse(text)
    except SpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _parse_fault(text: str):
    """One ``TIME:NODE`` flag value, via the shared FaultSpec grammar.

    Argparse renders type errors cleanly, so the SpecError message is
    re-raised verbatim as an ArgumentTypeError — the diagnostic is
    byte-identical to what the programmatic API raises.
    """
    from repro.sim import Fault

    try:
        spec = FaultSpec.parse(text, mode="time")
    except SpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if spec.mode != "time":
        # a "frac:" prefix would silently turn the fraction into an
        # absolute sim time; fractions belong to scenario grids
        raise argparse.ArgumentTypeError(
            f"--fault takes absolute TIME:NODE, not {text!r}"
        )
    if len(spec.entries) != 1:
        raise argparse.ArgumentTypeError(
            f"one fault per --fault flag (repeat the flag), got {text!r}"
        )
    return Fault(*spec.entries[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lin & Keller (ICPP 1986) distributed-recovery reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and policies")
    sub.add_parser("figures", help="regenerate every paper figure")

    run = sub.add_parser("run", help="run a workload on the simulated machine")
    run.add_argument(
        "workload",
        nargs="?",
        default=None,
        help=(
            "workload spec: a name from `repro list` or a spec string "
            "(balanced:DEPTH:FANOUT:WORK, prog:NAME:ARG:..., ...)"
        ),
    )
    # Run-shaping flags default to None sentinels: _runspec_from_args
    # fills in the real defaults (rollback / 4 / complete / gradient /
    # 0 / 3), and *any* explicitly-given flag — even at its default
    # value — conflicts with --spec-json.
    run.add_argument(
        "--policy", type=_parse_policy, default=None, metavar="POLICY",
        help=POLICY_HELP
    )
    run.add_argument("--processors", type=int, default=None, help="default: 4")
    run.add_argument(
        "--topology", choices=TOPOLOGIES, default=None, help="default: complete"
    )
    run.add_argument(
        "--scheduler", choices=SCHEDULERS, default=None, help="default: gradient"
    )
    run.add_argument("--seed", type=int, default=None, help="default: 0")
    run.add_argument(
        "--replication", type=int, default=None,
        help="k for --policy replicated (default: 3)",
    )
    run.add_argument(
        "--fault",
        type=_parse_fault,
        action="append",
        default=[],
        metavar="TIME:NODE",
        help="kill NODE at TIME (repeatable)",
    )
    run.add_argument(
        "--nemesis",
        default=None,
        metavar="SPEC",
        help=(
            "fault-model composition, e.g. "
            "'partition:start=0.3,dur=0.25,group=0-1' (see `repro faults list`; "
            "×T params are fractions of the fault-free baseline makespan)"
        ),
    )
    run.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help=(
            "open-loop arrival process, e.g. "
            "'poisson:rate=0.01,horizon=1500,cap=6,overflow=backpressure' "
            "(processes: poisson, bursty, diurnal; see docs/LOAD.md)"
        ),
    )
    run.add_argument(
        "--spec-json",
        default=None,
        metavar="FILE",
        help="load the RunSpec from a canonical JSON document ('-' = stdin) "
        "instead of building it from flags",
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved canonical RunSpec JSON and exit without running",
    )
    run.add_argument("--trace", action="store_true", help="print recovery trace")

    exp = sub.add_parser("exp", help="scenario registry: declarative sweeps")
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)
    exp_sub.add_parser("list", help="list registered scenarios")
    exp_show = exp_sub.add_parser("show", help="print one scenario's spec")
    exp_show.add_argument("scenario", help="scenario name (see `repro exp list`)")
    exp_show.add_argument(
        "--json",
        action="store_true",
        help="emit the fully-expanded point list (with canonical RunSpecs "
        "for machine scenarios) as canonical JSON",
    )
    exp_run = exp_sub.add_parser("run", help="run a scenario sweep")
    exp_run.add_argument("scenario", help="scenario name (see `repro exp list`)")
    exp_run.add_argument(
        "--workers", type=int, default=1, help="process-pool width (1 = serial)"
    )
    exp_run.add_argument(
        "--cache-dir",
        default="results",
        help="result-cache root (default: ./results)",
    )
    exp_run.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the cache"
    )
    exp_run.add_argument(
        "--force", action="store_true", help="recompute even if cached"
    )
    exp_run.add_argument(
        "--json", action="store_true", help="print the raw result JSON payload"
    )
    exp_run.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="crash-safe progress-ledger directory (default: "
        "<cache-dir>/ledger; see `repro exp resume`)",
    )
    exp_run.add_argument(
        "--no-ledger",
        action="store_true",
        help="record no progress ledger (the run cannot be resumed)",
    )

    exp_runs = exp_sub.add_parser(
        "runs", help="list ledgered sweep runs and their progress"
    )
    exp_runs.add_argument(
        "--cache-dir",
        default="results",
        help="result-cache root the default ledger dir derives from "
        "(default: ./results)",
    )
    exp_runs.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="ledger directory (default: <cache-dir>/ledger)",
    )
    exp_runs.add_argument(
        "--json", action="store_true", help="emit the run list as canonical JSON"
    )

    exp_resume = exp_sub.add_parser(
        "resume", help="complete an interrupted sweep from its ledger"
    )
    exp_resume.add_argument(
        "run_id", help="run identifier (see `repro exp runs`)"
    )
    exp_resume.add_argument(
        "--workers", type=int, default=1, help="process-pool width (1 = serial)"
    )
    exp_resume.add_argument(
        "--cache-dir",
        default="results",
        help="result-cache root (default: ./results)",
    )
    exp_resume.add_argument(
        "--no-cache", action="store_true", help="do not write the result cache"
    )
    exp_resume.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="ledger directory (default: <cache-dir>/ledger)",
    )
    exp_resume.add_argument(
        "--json", action="store_true", help="print the raw result JSON payload"
    )

    faults = sub.add_parser("faults", help="fault-model (nemesis) registry")
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_sub.add_parser("list", help="list registered fault models")
    faults_desc = faults_sub.add_parser(
        "describe", help="print one fault model's parameters and an example spec"
    )
    faults_desc.add_argument("model", help="model name (see `repro faults list`)")

    check = sub.add_parser(
        "check", help="trace oracles and adversarial schedule search"
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)
    check_sub.add_parser("list", help="list the oracle catalog")

    def _check_common(p) -> None:
        p.add_argument(
            "--horizon", type=float, default=None, metavar="FRAC",
            help="bounded-recovery horizon as a multiple of the baseline "
            "makespan (default: 3.0)",
        )
        p.add_argument(
            "--horizon-time", type=float, default=None, metavar="TIME",
            help="absolute bounded-recovery horizon in sim-time units "
            "(overrides --horizon; the default for open-loop runs, where "
            "no finite baseline makespan exists)",
        )
        p.add_argument(
            "--json", action="store_true", help="emit canonical JSON"
        )

    check_run = check_sub.add_parser(
        "run", help="run one spec (or a whole scenario) under the oracles"
    )
    check_run.add_argument(
        "workload", nargs="?", default=None,
        help="workload spec (omit when using --scenario)",
    )
    check_run.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="check every machine point of a registered scenario instead "
        "of one flag-built spec",
    )
    check_run.add_argument(
        "--policy", type=_parse_policy, default=None, metavar="POLICY",
        help=POLICY_HELP
    )
    check_run.add_argument("--processors", type=int, default=None, help="default: 4")
    check_run.add_argument("--seed", type=int, default=None, help="default: 0")
    check_run.add_argument(
        "--fault", type=_parse_fault, action="append", default=[],
        metavar="TIME:NODE", help="kill NODE at TIME (repeatable)",
    )
    check_run.add_argument(
        "--nemesis", default=None, metavar="SPEC",
        help="fault-model composition to check under (see `repro faults list`)",
    )
    check_run.add_argument(
        "--arrivals", default=None, metavar="SPEC",
        help="open-loop arrival process to check under (see docs/LOAD.md)",
    )
    check_run.add_argument(
        "--oracle", action="append", default=[], metavar="NAME",
        help="evaluate only this oracle (repeatable; default: all; "
        "see `repro check list`)",
    )
    _check_common(check_run)

    check_search = check_sub.add_parser(
        "search", help="search random nemesis schedules for oracle violations"
    )
    check_search.add_argument(
        "workload", nargs="?", default=None,
        help="base workload spec (omit when using --scenario)",
    )
    check_search.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="take the base spec from a registered scenario's first machine "
        "point (faults and nemesis cleared — the searcher owns that axis)",
    )
    check_search.add_argument(
        "--policy", type=_parse_policy, default=None, metavar="POLICY",
        help=POLICY_HELP
    )
    check_search.add_argument("--processors", type=int, default=None, help="default: 4")
    check_search.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    check_search.add_argument(
        "--attempts", type=int, default=12, metavar="N",
        help="schedules to try before giving up (default: 12)",
    )
    check_search.add_argument(
        "--models", default=None, metavar="M1,M2",
        help="comma-separated fault models the generator may draw "
        "(default: all generatable models)",
    )
    check_search.add_argument(
        "--max-clauses", type=int, default=2, metavar="N",
        help="max composed clauses per schedule (default: 2)",
    )
    check_search.add_argument(
        "--strategy", choices=("random", "coverage"), default="random",
        help="schedule generation: blind random draws (default) or "
        "coverage-guided frontier mutation (see docs/CHECK.md)",
    )
    check_search.add_argument(
        "--rounds", type=int, default=None, metavar="N",
        help="evaluation budget for --strategy coverage "
        "(default: --attempts)",
    )
    check_search.add_argument(
        "--maximize", action="store_true",
        help="steer coverage mutation toward the worst bounded-recovery "
        "margin (no violation needed; reported as `worst`)",
    )
    check_search.add_argument(
        "--corpus-out", default=None, metavar="PATH",
        help="also write the shrunk reproducers as a repro-corpus/1 "
        "document (replayable via `repro check corpus run`)",
    )
    check_search.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="ledger directory (default: results/check)",
    )
    check_search.add_argument(
        "--no-write", action="store_true", help="search only; write no ledger"
    )
    check_search.add_argument(
        "--expect", choices=("violation", "clean"), default=None,
        help="fail (exit 1) unless the search ends this way — the CI gate",
    )
    _check_common(check_search)

    check_corpus = check_sub.add_parser(
        "corpus", help="replay a pinned reproducer corpus as a regression gate"
    )
    corpus_sub = check_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_run = corpus_sub.add_parser(
        "run", help="re-execute every corpus entry; fail on any regression"
    )
    corpus_run.add_argument(
        "path",
        help="a repro-corpus/1 JSON file, or a directory of them "
        "(e.g. tests/baselines/corpus)",
    )
    corpus_run.add_argument(
        "--json", action="store_true", help="emit canonical JSON"
    )

    report = sub.add_parser(
        "report", help="statistical reports over (replicated) scenario sweeps"
    )
    report_sub = report.add_subparsers(dest="report_command", required=True)
    report_sub.add_parser(
        "list", help="list scenarios and where their reports land"
    )

    def _report_common(p) -> None:
        p.add_argument(
            "--replications", type=int, default=None, metavar="N",
            help="replicates per grid point (default: the registered spec's, "
            "usually 1); replicate seeds are derived deterministically",
        )
        p.add_argument(
            "--workers", type=int, default=1, help="process-pool width (1 = serial)"
        )
        p.add_argument(
            "--cache-dir", default="results",
            help="sweep result-cache root (default: ./results)",
        )
        p.add_argument(
            "--out-dir", default=None, metavar="DIR",
            help="where the Markdown+JSON pair is written "
            "(default: <cache-dir>/reports)",
        )
        p.add_argument(
            "--force", action="store_true",
            help="recompute the sweep even if cached",
        )
        p.add_argument(
            "--level", type=float, default=0.95,
            help="confidence level for the bootstrap intervals (default: 0.95)",
        )
        p.add_argument(
            "--boot", type=int, default=1000, metavar="B",
            help="bootstrap resamples (default: 1000)",
        )
        p.add_argument(
            "--no-write", action="store_true",
            help="print only; write no report files",
        )
        p.add_argument(
            "--json", action="store_true",
            help="print the canonical report JSON instead of the Markdown",
        )

    report_run = report_sub.add_parser(
        "run", help="aggregate one scenario's sweep into a statistical report"
    )
    report_run.add_argument("scenario", help="scenario name (see `repro exp list`)")
    _report_common(report_run)
    report_cmp = report_sub.add_parser(
        "compare",
        help="pair two scenarios (or two values of one axis) with delta CIs",
    )
    report_cmp.add_argument("scenario", help="base scenario name")
    report_cmp.add_argument(
        "other", nargs="?", default=None,
        help="second scenario (cells joined on the shared axes); omit to "
        "compare within one scenario via --axis",
    )
    report_cmp.add_argument(
        "--axis", default=None,
        help="within-scenario comparison axis (e.g. policy); the baseline "
        "is the axis's first value unless --baseline is given",
    )
    report_cmp.add_argument(
        "--baseline", default=None,
        help="baseline value of --axis (default: its first value)",
    )
    _report_common(report_cmp)

    perf = sub.add_parser("perf", help="benchmark subsystem: measure and compare")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_sub.add_parser("list", help="list registered benchmarks")
    perf_run = perf_sub.add_parser("run", help="run benchmarks, emit canonical JSON")
    perf_run.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="BENCH",
        help="run only this benchmark (repeatable; default: all)",
    )
    perf_run.add_argument(
        "--quick",
        action="store_true",
        help="fewer warmup passes and trials (same workloads) — the CI smoke mode",
    )
    perf_run.add_argument(
        "--out",
        default=None,
        help=(
            "where to write the result JSON (default: ./BENCH_core.json in "
            "full mode; quick mode writes nothing unless --out is given, so "
            "it cannot clobber the committed full-mode baseline)"
        ),
    )
    perf_run.add_argument(
        "--no-write", action="store_true", help="measure and print only; write nothing"
    )
    perf_run.add_argument(
        "--json", action="store_true", help="print the raw result JSON payload"
    )
    perf_cmp = perf_sub.add_parser(
        "compare", help="compare a benchmark run against a baseline"
    )
    perf_cmp.add_argument("baseline", help="baseline JSON (e.g. BENCH_core.json)")
    perf_cmp.add_argument(
        "current",
        nargs="?",
        default=None,
        help="current-run JSON; omitted = run a fresh --quick suite now",
    )
    perf_cmp.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="regression ratio (current/baseline median) that fails the gate",
    )
    return parser


def cmd_list(out) -> int:
    rows = [[name, WORKLOADS[name]().name] for name in sorted(WORKLOADS)]
    print(format_table(["workload", "builds"], rows, title="Workloads"), file=out)
    print(file=out)
    print(
        format_table(
            ["policy", "class", "recovery"],
            [
                [policy_usage(name), entry.build.__name__, entry.help]
                for name, entry in POLICY_TABLE.items()
            ],
            title="Policies",
        ),
        file=out,
    )
    return 0


def cmd_figures(out) -> int:
    from repro.analysis.figures import all_figures

    status = 0
    for report in all_figures():
        print(report, file=out)
        print(file=out)
        if not report.ok:
            status = 1
    return status


def _runspec_from_args(args) -> RunSpec:
    """Resolve the ``repro run`` flags (or --spec-json) into a RunSpec."""
    import json as _json

    if args.spec_json is not None:
        if args.workload is not None:
            raise SpecError(
                "--spec-json replaces the workload argument; give one or the other",
                field="workload", value=args.workload,
            )
        # The document is the whole experiment: silently overlaying (or
        # worse, ignoring) flag-level overrides would run a different
        # spec than the one named, so any explicitly-given run-shaping
        # flag — even at its default value — is an error.
        overridden = [
            flag
            for flag, given in (
                ("--policy", args.policy),
                ("--processors", args.processors),
                ("--topology", args.topology),
                ("--scheduler", args.scheduler),
                ("--seed", args.seed),
                ("--replication", args.replication),
                ("--fault", args.fault or None),
                ("--nemesis", args.nemesis),
                ("--arrivals", args.arrivals),
            )
            if given is not None
        ]
        if overridden:
            raise SpecError(
                f"--spec-json carries the whole experiment; drop {', '.join(overridden)} "
                "or edit the JSON document instead",
                field="spec-json", value=overridden,
            )
        try:
            if args.spec_json == "-":
                payload = _json.load(sys.stdin)
            else:
                with open(args.spec_json, "r", encoding="utf-8") as fh:
                    payload = _json.load(fh)
        except (OSError, ValueError) as exc:
            raise SpecError(
                f"cannot read RunSpec JSON from {args.spec_json}: {exc}",
                field="spec-json", value=args.spec_json,
            ) from None
        return RunSpec.from_json(payload).validate()
    if args.workload is None:
        raise SpecError(
            "a workload (or --spec-json FILE) is required", field="workload"
        )
    # Only explicitly-given flags reach the builder; the defaults are
    # owned by Experiment/MachineSpec in repro.api, not restated here.
    # Bare `replicated` defers k to the machine's replication factor,
    # so --replication governs it without a special case.
    builder = Experiment().workload(args.workload)
    for flag, setter in (
        (args.policy, builder.policy),
        (args.processors, builder.processors),
        (args.topology, builder.topology),
        (args.scheduler, builder.scheduler),
        (args.replication, builder.replication),
        (args.seed, builder.seed),
        (args.nemesis, builder.nemesis),
        (args.arrivals, builder.arrivals),
    ):
        if flag is not None:
            setter(flag)
    for fault in args.fault:
        builder.fault(fault.time, fault.node, mode="time")
    return builder.build()


def cmd_run(args, out) -> int:
    try:
        spec = _runspec_from_args(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        print(spec.canonical_json(), file=out, end="")
        return 0
    try:
        handle = Session(collect_trace=True).run(spec)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = handle.result
    print(result.summary(), file=out)
    metrics_rows = result.metrics.summary_rows()
    print(format_table(["metric", "value"], metrics_rows), file=out)
    if args.trace:
        print("\nRecovery trace:", file=out)
        text = result.trace.render(kinds=TRACE_KINDS)
        print(text if text else "  (no recovery events)", file=out)
    injected = bool(spec.faults) or bool(spec.nemesis)
    return 0 if result.correct or (not injected and result.completed) else 1


def cmd_exp_list(out) -> int:
    from repro.exp import all_scenarios

    rows = [
        [spec.name, spec.runner, spec.n_points(), spec.title]
        for spec in all_scenarios().values()
    ]
    print(
        format_table(["scenario", "runner", "points", "title"], rows, title="Scenarios"),
        file=out,
    )
    return 0


def cmd_exp_show(args, out) -> int:
    from repro.exp import expand, get_scenario

    try:
        spec = get_scenario(args.scenario)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _render_exp_show(spec, args, out, expand)
    except ReproError as exc:
        # a malformed registered spec (e.g. a typo'd param in a
        # user-registered scenario) gets the one-line treatment too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _render_exp_show(spec, args, out, expand) -> int:
    if args.json:
        from repro.exp import expanded_runspecs
        from repro.util.jsonio import emit_json

        # one grid expansion + parse serves both the key and the points
        docs = expanded_runspecs(spec) if spec.runner == "machine" else None
        points = []
        for point in expand(spec):
            entry = {
                "index": point.index,
                "seed": point.seed,
                "params": dict(point.params),
            }
            if docs is not None:
                entry["runspec"] = docs[point.index]
            points.append(entry)
        payload = {
            "scenario": spec.name,
            "title": spec.title,
            "runner": spec.runner,
            "key": spec.key(),
            "n_points": spec.n_points(),
            "points": points,
        }
        emit_json(payload, out=out)
        return 0
    print(f"{spec.name}: {spec.title}", file=out)
    print(f"  runner:  {spec.runner}   points: {spec.n_points()}   key: {spec.key()}", file=out)
    print(f"  {spec.description}", file=out)
    print("  base:", file=out)
    for k, v in sorted(spec.base.items()):
        print(f"    {k} = {v!r}", file=out)
    print("  axes:", file=out)
    for axis, values in spec.axes.items():
        print(f"    {axis} = {list(values)!r}", file=out)
    seeds = sorted({p.seed for p in expand(spec)})
    preview = ", ".join(str(s) for s in seeds[:3])
    print(f"  point seeds: {len(seeds)} distinct ({preview}{', ...' if len(seeds) > 3 else ''})", file=out)
    return 0


def _exp_ledger_dir(args) -> Optional[str]:
    """Resolve the ledger directory for the ``exp`` verbs.

    An explicit ``--ledger-dir`` always wins; otherwise the ledger rides
    along with the cache at ``<cache-dir>/ledger``.  ``--no-ledger`` and
    ``--no-cache`` (an explicitly ephemeral run) disable the default.
    """
    import os

    if getattr(args, "ledger_dir", None) is not None:
        return args.ledger_dir
    if getattr(args, "no_ledger", False) or getattr(args, "no_cache", False):
        return None
    return os.path.join(args.cache_dir, "ledger")


def _print_sweep(sweep, spec, args, out) -> int:
    """Shared ``exp run``/``exp resume`` output + failure exit logic."""
    from repro.exp import sweep_table

    if args.json:
        from repro.util.jsonio import emit_json

        emit_json(sweep.payload(), out=out)
    else:
        print(sweep_table(sweep, spec), file=out)
        if sweep.cache_path:
            source = "hit" if sweep.cache_hit else "miss, computed"
            print(f"cache: {source} ({sweep.cache_path})", file=out)
        if sweep.ledger_path:
            resumed = (
                f", resumed {sweep.resumed_points} point(s)"
                if sweep.resumed_points is not None
                else ""
            )
            print(
                f"ledger: {sweep.ledger_path} (run {sweep.run_id}{resumed})",
                file=out,
            )
    failed = [
        p["index"]
        for p in sweep.points
        if p["result"].get("ok") is False
        or p["result"].get("correct") is False
        or p["result"].get("completed") is False
    ]
    if failed and not spec.expect_failures:
        print(f"points with failures: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_exp_run(args, out) -> int:
    from repro.exp import get_scenario, run_scenario

    try:
        spec = get_scenario(args.scenario)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sweep = run_scenario(
            spec,
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            force=args.force,
            ledger_dir=_exp_ledger_dir(args),
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        # runtime failure (unwritable cache/ledger, failed points), not
        # a malformed spec: one line, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _print_sweep(sweep, spec, args, out)


def cmd_exp_runs(args, out) -> int:
    from repro.exp import list_runs

    ledger_dir = _exp_ledger_dir(args)
    states = list_runs(ledger_dir)
    if args.json:
        from repro.util.jsonio import emit_json

        payload = {
            "schema": "repro-ledger/1",
            "ledger_dir": ledger_dir,
            "runs": [state.summary_doc() for state in states],
        }
        emit_json(payload, out=out)
        return 0
    if not states:
        print(f"no ledgered runs under {ledger_dir}", file=out)
        return 0
    rows = [
        [
            state.run_id,
            state.scenario,
            f"{len(state.finished)}/{state.n_points}",
            f"{state.progress():.0%}",
            ",".join(str(i) for i in sorted(state.failed)) or "-",
            state.status,
        ]
        for state in states
    ]
    print(
        format_table(
            ["run", "scenario", "finished", "progress", "failed", "status"],
            rows,
            title=f"Ledgered runs ({ledger_dir})",
        ),
        file=out,
    )
    print(
        "\n`repro exp resume RUN-ID` completes a resumable run "
        "(docs/LEDGER.md has the semantics)",
        file=out,
    )
    return 0


def cmd_exp_resume(args, out) -> int:
    from repro.exp import get_scenario, resume_run

    try:
        sweep = resume_run(
            args.run_id,
            ledger_dir=_exp_ledger_dir(args),
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
        spec = get_scenario(sweep.scenario)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _print_sweep(sweep, spec, args, out)


def cmd_faults_list(out) -> int:
    from repro.faults import all_models

    rows = [
        [info.name, ",".join(info.params), info.summary]
        for info in all_models().values()
    ]
    print(
        format_table(["model", "params", "summary"], rows, title="Fault models"),
        file=out,
    )
    print(
        "\ncompose models with `+` in a nemesis spec, e.g.\n"
        "  crash:at=0.35,node=1+chaos:drop=0.05,dup=0.1+jitter:max=25\n"
        "(`repro faults describe MODEL` shows parameters; docs/FAULTS.md "
        "has the catalog)",
        file=out,
    )
    return 0


def cmd_faults_describe(args, out) -> int:
    from repro.faults import get_model

    try:
        info = get_model(args.model)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{info.name}: {info.summary}", file=out)
    rows = [
        [
            name,
            param.kind + (" ×T" if param.fraction else ""),
            param.describe_default(),
            param.doc,
        ]
        for name, param in info.params.items()
    ]
    print(format_table(["param", "type", "default", "doc"], rows), file=out)
    print(
        f"\nexample: {info.example}\n"
        "(×T params are fractions of the baseline makespan, like fault_frac)",
        file=out,
    )
    return 0


def cmd_check_list(out) -> int:
    from repro.check import all_oracles

    rows = [[info.name, info.summary] for info in all_oracles().values()]
    print(format_table(["oracle", "invariant"], rows, title="Trace oracles"), file=out)
    print(
        "\n`repro check run WORKLOAD [--nemesis SPEC]` evaluates a run, "
        "`repro check run --scenario NAME` a whole grid,\n"
        "`repro check search WORKLOAD --seed N` hunts for violating "
        "schedules and shrinks them (docs/CHECK.md has the semantics)",
        file=out,
    )
    return 0


def _check_config(args):
    from repro.check import CheckConfig

    kwargs = {}
    if args.horizon is not None:
        kwargs["horizon_frac"] = args.horizon
    if getattr(args, "horizon_time", None) is not None:
        kwargs["horizon_time"] = args.horizon_time
    if getattr(args, "oracle", None):
        kwargs["oracles"] = tuple(args.oracle)
    return CheckConfig(**kwargs)


def _check_runspec_from_args(args) -> RunSpec:
    """Resolve the ``check`` flag subset into a RunSpec."""
    if args.workload is None:
        raise SpecError(
            "a workload (or --scenario NAME) is required", field="workload"
        )
    builder = Experiment().workload(args.workload)
    for flag, setter in (
        (args.policy, builder.policy),
        (args.processors, builder.processors),
        (args.seed, builder.seed),
        (getattr(args, "nemesis", None), builder.nemesis),
        (getattr(args, "arrivals", None), builder.arrivals),
    ):
        if flag is not None:
            setter(flag)
    for fault in getattr(args, "fault", []):
        builder.fault(fault.time, fault.node, mode="time")
    return builder.build()


def _scenario_runspecs(name: str) -> List[RunSpec]:
    """Every machine point of a scenario, as validated RunSpecs."""
    from repro.exp import expanded_runspecs, get_scenario

    spec = get_scenario(name)  # KeyError -> caller's diagnostic
    if spec.runner != "machine":
        raise SpecError(
            f"scenario {name!r} uses the {spec.runner!r} runner; only "
            "machine scenarios are checkable",
            field="check.scenario", value=name,
        )
    return [RunSpec.from_json(doc).validate() for doc in expanded_runspecs(spec)]


def cmd_check_run(args, out) -> int:
    from repro.check import check_spec
    from repro.util.jsonio import emit_json

    try:
        config = _check_config(args)
        if args.scenario is not None:
            if args.workload is not None:
                raise SpecError(
                    "--scenario replaces the workload argument; give one or "
                    "the other",
                    field="check.scenario", value=args.workload,
                )
            specs = _scenario_runspecs(args.scenario)
        else:
            specs = [_check_runspec_from_args(args)]
        reports = [check_spec(spec, config) for spec in specs]
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = [
            {"spec": spec.to_json(), "report": report.to_json()}
            for spec, (_, report) in zip(specs, reports)
        ]
        emit_json(payload if args.scenario else payload[0], out=out)
    elif args.scenario is not None:
        rows = [
            [
                spec.workload.to_spec_str(),
                spec.policy.to_spec_str(),
                spec.nemesis.to_spec_str() or "-",
                ";".join(f"{f:g}:{n}" for f, n in spec.faults.entries) or "-",
                report.status,
                ",".join(v.oracle for v in report.violations) or "-",
            ]
            for spec, (_, report) in zip(specs, reports)
        ]
        print(
            format_table(
                ["workload", "policy", "nemesis", "faults", "status", "violated"],
                rows,
                title=f"Oracle verdicts: {args.scenario}",
            ),
            file=out,
        )
    else:
        spec, (handle, report) = specs[0], reports[0]
        print(handle.result.summary(), file=out)
        print(report.table(), file=out)
    return 0 if all(report.ok for _, report in reports) else 1


def cmd_check_search(args, out) -> int:
    from repro.check import DEFAULT_LEDGER_DIR, search
    from repro.faults import GENERATABLE_MODELS
    from repro.util.jsonio import emit_json

    try:
        if args.scenario is not None:
            if args.workload is not None:
                raise SpecError(
                    "--scenario replaces the workload argument; give one or "
                    "the other",
                    field="check.scenario", value=args.workload,
                )
            from dataclasses import replace as _replace

            from repro.api import FaultSpec as _FaultSpec, NemesisSpec as _NemesisSpec

            base = _replace(
                _scenario_runspecs(args.scenario)[0],
                faults=_FaultSpec(), nemesis=_NemesisSpec(),
            )
        else:
            base = _check_runspec_from_args(args)
        models = tuple(GENERATABLE_MODELS)
        if args.models:
            models = tuple(m.strip() for m in args.models.split(",") if m.strip())
            unknown = [m for m in models if m not in GENERATABLE_MODELS]
            if unknown:
                raise SpecError(
                    f"cannot generate fault model(s) {unknown}",
                    field="check.models", value=args.models,
                    allowed=GENERATABLE_MODELS,
                )
        result = search(
            base,
            seed=args.seed,
            attempts=args.attempts,
            models=models,
            max_clauses=args.max_clauses,
            config=_check_config(args),
            out_dir=args.out_dir or DEFAULT_LEDGER_DIR,
            write=not args.no_write,
            strategy=args.strategy,
            rounds=args.rounds,
            mode="maximize" if args.maximize else "violation",
        )
        corpus_path = None
        if args.corpus_out:
            from repro.check import write_corpus

            corpus_path = write_corpus(result, args.corpus_out)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        emit_json(result.to_doc(), out=out)
    else:
        print(result.summary(), file=out)
        if result.path:
            print(f"ledger: {result.path}", file=out)
        if corpus_path:
            print(f"corpus: {corpus_path}", file=out)
    if args.expect == "violation" and not result.found:
        print("expected a violation; search came back clean", file=sys.stderr)
        return 1
    if args.expect == "clean" and result.found:
        print("expected a clean search; found a violation", file=sys.stderr)
        return 1
    return 0


def cmd_check_corpus(args, out) -> int:
    from repro.check import run_corpus
    from repro.util.jsonio import emit_json

    try:
        report = run_corpus(args.path)
    except (ReproError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        emit_json(report.to_json(), out=out)
    else:
        print(report.summary(), file=out)
    return 0 if report.ok else 1


def cmd_report_list(out) -> int:
    from repro.exp import all_scenarios
    from repro.report import DEFAULT_OUT_DIR

    rows = [
        [spec.name, spec.runner, spec.n_cells(), spec.replications,
         f"{spec.name}.md"]
        for spec in all_scenarios().values()
    ]
    print(
        format_table(
            ["scenario", "runner", "cells", "replications", "report file"],
            rows,
            title=f"Reports (written under {DEFAULT_OUT_DIR}/)",
        ),
        file=out,
    )
    print(
        "\n`repro report run NAME --replications N` aggregates a replicated "
        "sweep;\n`repro report compare NAME --axis AXIS` (or `NAME OTHER`) "
        "adds delta CIs\n(docs/REPORTS.md has the methodology)",
        file=out,
    )
    return 0


def _report_out_dir(args) -> Optional[str]:
    import os

    if args.no_write:
        return None
    if args.out_dir is not None:
        return args.out_dir
    return os.path.join(args.cache_dir, "reports")


def _print_report(result, args, out) -> None:
    from repro.util.jsonio import emit_json

    if args.json:
        emit_json(result.payload, out=out)
        return
    print(result.markdown, file=out, end="")
    if result.markdown_path:
        print(f"\nwrote {result.markdown_path}", file=out)
        print(f"wrote {result.json_path}", file=out)


def cmd_report_run(args, out) -> int:
    from repro.report import run_report

    try:
        result = run_report(
            args.scenario,
            replications=args.replications,
            workers=args.workers,
            cache_dir=args.cache_dir,
            out_dir=_report_out_dir(args),
            force=args.force,
            level=args.level,
            n_boot=args.boot,
        )
    except (KeyError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(result, args, out)
    return 0


def _coerce_axis_value(spec, axis: Optional[str], raw: Optional[str]):
    """Match a --baseline string against the axis's typed values."""
    if raw is None or axis is None or axis not in spec.axes:
        return raw
    for value in spec.axes[axis]:
        if str(value) == raw:
            return value
    return raw  # let split_compare produce the structured diagnostic


def cmd_report_compare(args, out) -> int:
    from repro.exp import get_scenario
    from repro.report import run_compare

    try:
        baseline = _coerce_axis_value(
            get_scenario(args.scenario), args.axis, args.baseline
        )
        result = run_compare(
            args.scenario,
            other=args.other,
            axis=args.axis,
            baseline=baseline,
            replications=args.replications,
            workers=args.workers,
            cache_dir=args.cache_dir,
            out_dir=_report_out_dir(args),
            force=args.force,
            level=args.level,
            n_boot=args.boot,
        )
    except (KeyError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(result, args, out)
    return 0


def cmd_perf_list(out) -> int:
    from repro.perf import all_benches

    rows = [
        [spec.name, spec.kind, spec.trials, spec.title]
        for spec in all_benches().values()
    ]
    print(
        format_table(["benchmark", "kind", "trials", "title"], rows, title="Benchmarks"),
        file=out,
    )
    return 0


def cmd_perf_run(args, out) -> int:
    from repro.perf import run_suite, suite_table
    from repro.util.jsonio import emit_json

    try:
        payload = run_suite(names=args.only or None, quick=args.quick)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        emit_json(payload, out=out)
    else:
        print(suite_table(payload), file=out)
    # Only a full-mode, full-suite run may default onto the committed
    # baseline path; --quick and --only runs write nowhere unless the
    # user names a destination (a partial or quick payload must never
    # clobber BENCH_core.json).
    out_path = args.out
    if out_path is None and not args.quick and not args.only:
        out_path = "BENCH_core.json"
    if out_path is not None and not args.no_write:
        emit_json(payload, path=out_path)
        if not args.json:
            print(f"wrote {out_path}", file=out)
    elif out_path is None and not args.json:
        mode = "quick mode" if args.quick else "partial suite"
        print(f"({mode}: no file written; pass --out to save)", file=out)
    return 0


def cmd_perf_compare(args, out) -> int:
    import json as _json

    from repro.perf import (
        DEFAULT_THRESHOLD,
        compare,
        compare_table,
        failures,
        run_suite,
    )

    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = _json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    if args.current is not None:
        try:
            with open(args.current, "r", encoding="utf-8") as fh:
                current = _json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read current {args.current}: {exc}", file=sys.stderr)
            return 2
    else:
        print("no current run given: measuring a fresh --quick suite...", file=out)
        current = run_suite(quick=True)
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    deltas = compare(baseline, current, threshold=threshold)
    print(compare_table(deltas), file=out)
    failed = failures(deltas)
    if failed:
        print(
            f"perf gate FAILED (threshold {threshold}x): "
            + ", ".join(f"{d.name} [{d.status}]" for d in failed),
            file=sys.stderr,
        )
        return 1
    print(f"perf gate ok (threshold {threshold}x)", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(out)
    if args.command == "figures":
        return cmd_figures(out)
    if args.command == "exp":
        if args.exp_command == "list":
            return cmd_exp_list(out)
        if args.exp_command == "show":
            return cmd_exp_show(args, out)
        if args.exp_command == "runs":
            return cmd_exp_runs(args, out)
        if args.exp_command == "resume":
            return cmd_exp_resume(args, out)
        return cmd_exp_run(args, out)
    if args.command == "faults":
        if args.faults_command == "list":
            return cmd_faults_list(out)
        return cmd_faults_describe(args, out)
    if args.command == "check":
        if args.check_command == "list":
            return cmd_check_list(out)
        if args.check_command == "run":
            return cmd_check_run(args, out)
        if args.check_command == "corpus":
            return cmd_check_corpus(args, out)
        return cmd_check_search(args, out)
    if args.command == "report":
        if args.report_command == "list":
            return cmd_report_list(out)
        if args.report_command == "run":
            return cmd_report_run(args, out)
        return cmd_report_compare(args, out)
    if args.command == "perf":
        if args.perf_command == "list":
            return cmd_perf_list(out)
        if args.perf_command == "run":
            return cmd_perf_run(args, out)
        return cmd_perf_compare(args, out)
    return cmd_run(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
