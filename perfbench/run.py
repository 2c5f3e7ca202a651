"""End-to-end benchmark of the repro package, with per-layer attribution.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bigtree|storm|search|sweep \\
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it measures the end-to-end metrics with nothing
traced; with ``--trace 1`` it wraps each layer's public entry points
and reports the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Seed whose per-workload digests are pinned in ``digests.json``.
DEFAULT_SEED = 1
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 9

#: The end-to-end metrics of the result line (``BENCHMARK.json``).
END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_ref_s", "tasks/s"),
    ("peak_rss_mb", "MB"),
)
#: Printed for people beside them, not on the result line: over seeds or
#: with the host's speed they spread too widely for a regression bound
#: (see README.md).
PRINTED = (
    ("setup_host_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("sims_per_s", "sims/s"),
    ("sim_p50_s", "s"),
    ("sim_p90_s", "s"),
)


def _args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bigtree", "storm", "search", "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> Optional[str]:
    """Put this checkout's ``src/`` first on the path and import the
    package from there; returns an error message when it cannot."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return f"no repro package under {SRC}"
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro from {SRC}: {exc}"
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        return f"repro was imported from {repro.__file__}, not from {SRC}"
    return None


def _load_everything() -> None:
    """The imports every workload's set-up pays."""
    import repro.api  # noqa: F401
    import repro.check  # noqa: F401
    import repro.exp  # noqa: F401
    import repro.policies  # noqa: F401
    import repro.report  # noqa: F401


def _setup_probes(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """Time fresh processes from spawn until their set-up is ready.

    Each probe then times the reference kernel, so that the host's speed
    at that moment travels with the probe: ``(host seconds, kernel
    seconds)`` per probe.
    """
    probes = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            rest = child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        probes.append((elapsed, float(rest)))
    return probes


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _pinned(workload: str, seed: int) -> Optional[str]:
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload)


def _loop(wl: Any, ctx: Any, seconds: float, on_pass=None) -> List[Any]:
    """Run whole passes for about ``seconds``: at least one, and another
    while less than half a pass would overshoot."""
    passes = []
    start = perf_counter()
    while not passes or (
        perf_counter() - start + 0.5 * statistics.mean(p.wall for p in passes) < seconds
    ):
        if on_pass is not None:
            on_pass(len(passes))
        passes.append(_pass(wl, ctx))
    return passes


def _pass(wl: Any, ctx: Any) -> Any:
    from workloads import cold_memos

    cold_memos()
    return wl.run_pass(ctx)


def _untraced(wl: Any, args: argparse.Namespace, ctx: Any, sink: str) -> Dict[str, Any]:
    from measure import percentile, reference_rate
    from tracer import read_sink

    ctx.probe.open_sink(sink)
    passes = _loop(wl, ctx, args.seconds)
    ctx.probe.close_sink()
    wall = sum(p.wall for p in passes)
    calls = read_sink(sink)
    seconds = [secs for secs, workload in calls if wl.is_sample(workload)]
    rss = _rss_mb(resource.RUSAGE_SELF)
    if args.workload == "sweep":
        rss += _rss_mb(resource.RUSAGE_CHILDREN)
    windows = [row for p in passes for row in p.windows]
    values = {
        # Every pass repeats the same inputs: the median over passes
        # drops a pass the host slowed in mid-window.
        "tasks_per_ref_s": statistics.median(reference_rate(p.windows) for p in passes),
        "peak_rss_mb": rss,
        "tasks_per_s": sum(p.tasks for p in passes) / wall,
        "sims_per_s": sum(p.sims for p in passes) / wall,
        "sim_p50_s": statistics.median(seconds),
        "sim_p90_s": percentile(seconds, 90),
    }
    return {"passes": passes, "reference": passes[0].digest, "values": values,
            "samples": seconds, "windows": len(windows),
            "kernel_s": statistics.median(kernel for _, _, kernel in windows), "wall": wall}


def _traced(wl: Any, args: argparse.Namespace, ctx: Any, sink: str) -> Dict[str, Any]:
    """Untraced reference pass(es), then traced passes for ``seconds``."""
    import layers
    from tracer import GcMonitor, Patcher, Tracer

    extras: Dict[str, float] = {}
    ctx.probe.open_sink(sink)
    reference = _pass(wl, ctx)
    ctx.probe.close_sink()
    checked = [reference]
    overhead_base = reference.wall
    if args.workload == "bigtree":
        # µs per task of the large tree over µs per task of the small one.
        from tracer import read_sink

        times = {workload: secs for secs, workload in read_sink(sink)}
        extras["scaling_ratio"] = (times[wl.LARGE] / wl.sizes[0]) / (times[wl.SMALL] / wl.sizes[1])
    elif args.workload == "sweep":
        ctx.workers = 1
        serial = _pass(wl, ctx)
        checked.append(serial)
        extras["parallel_efficiency"] = serial.wall / (2 * reference.wall)
        overhead_base = serial.wall
    elif args.workload == "search":
        extras["trace_overhead_ratio"] = wl.trace_overhead()

    tracer = Tracer()
    ctx.tracer = tracer
    patcher = Patcher()
    layers.install(patcher, tracer)
    totals: Dict[str, float] = {}
    gc_start = GcMonitor.gen2_collections()

    def on_pass(index: int) -> None:
        tracer.iteration = index
        _merge(totals, ctx.probe.counters)
        ctx.probe.reset()

    ctx.probe.reset()
    try:
        with GcMonitor() as monitor:
            ctx.collect = monitor.collect
            passes = _loop(wl, ctx, args.seconds, on_pass)
    finally:
        patcher.restore()
    _merge(totals, ctx.probe.counters)
    extras["gc_pause_s"] = monitor.pause_s
    extras["gc_gen2"] = GcMonitor.gen2_collections() - gc_start - monitor.explicit
    extras["tracing_overhead_s"] = statistics.median(p.wall for p in passes) - overhead_base
    if args.workload == "search":
        sims = sum(p.extras["search_sims"] for p in passes)
        extras["search_sims"] = sims
        extras["shrink_share"] = 1 - sum(p.extras["round_sims"] for p in passes) / sims
    values = layers.compute(tracer.spans, len(passes), totals, extras)
    spans_path = os.path.join(ROOT, ".perfbench-out", f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write(spans_path)
    wall = sum(p.wall for p in passes)
    return {"passes": checked + passes, "reference": reference.digest, "values": values,
            "table": layers.self_time_table(tracer.spans, wall), "wall": wall,
            "spans_path": spans_path}


def _merge(totals: Dict[str, float], counters: Dict[str, float]) -> None:
    for key, value in counters.items():
        if key == "checkpoint_peak_held":
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value


def _report(args, outcome, pinned, attempted, failed) -> None:
    """Human-readable lines; the JSON verdict follows them."""
    from measure import beyond, failed_ratio, reference_rate, resolved_tail

    passes = outcome["passes"]
    digests = sorted({p.digest for p in passes})
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es) checked, {outcome['wall']:.2f} s measured")
    print(f"  digest {outcome['reference']}"
          + ("" if pinned is None else f" (pinned {pinned}: {'match' if pinned == outcome['reference'] else 'DRIFT'})")
          + ("" if len(digests) == 1 else f"; passes disagree: {digests}"))
    for error in sorted({e for p in passes for e in p.errors})[:10]:
        print(f"  FAILED {error}")
    print(f"  {'failed_ratio':<16} {failed_ratio(attempted, failed):.4f} ratio "
          f"({failed} of {attempted} operations)")
    if args.trace:
        for name, value in outcome["values"].items():
            print(f"  {name:<36} {value:.6g}")
        print(f"  self time by layer (spans in {outcome['spans_path']}):")
        for layer, secs, share in outcome["table"]:
            print(f"    {layer:<20} {secs:9.3f} s  {share:6.1%}")
        return
    values, samples = outcome["values"], outcome["samples"]
    print(f"  {'setup_s':<16} {values['setup_s']:.4f} s (reference seconds; median of "
          f"{SETUP_PROBES} fresh processes)")
    for name, unit in END_TO_END[1:] + PRINTED:
        print(f"  {name:<16} {values[name]:.6g} {unit}")
    print(f"  tasks_per_ref_s is the median over {len(outcome['passes'])} passes "
          f"({outcome['windows']} windows); "
          f"one reference-kernel run took {outcome['kernel_s'] * 1e3:.3f} ms (median)")
    rates = [(p.tasks / p.wall, reference_rate(p.windows)) for p in outcome["passes"]]
    print("  per pass, tasks/s plain and per reference second: "
          + ", ".join(f"{plain:.6g}/{ref:.6g}" for plain, ref in rates))
    tail = resolved_tail(samples)
    p90_beyond = beyond(samples, values["sim_p90_s"])
    note = "" if p90_beyond >= 10 else " (fewer than 10 beyond: p90 not resolved)"
    print(f"  sim samples n={len(samples)}, {p90_beyond} beyond p90{note}; highest resolved tail: "
          + (f"p{tail.p} = {tail.value:.6g} s ({tail.beyond} beyond)" if tail else "none"))
    if args.workload == "sweep":
        print(f"  {'points_per_s':<16} {values['sims_per_s']:.6g} points/s (one simulation per point)")


def main(argv: Optional[List[str]] = None) -> int:
    args = _args(argv)
    error = _import_program()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    _load_everything()
    from tracer import ExecProbe, Patcher
    from workloads import WORKLOADS, Context

    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        from measure import kernel_seconds

        print(kernel_seconds(), flush=True)
        return 0
    wl.count_tasks()

    from measure import account, reference_seconds

    tmp = os.path.join(ROOT, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp)
    probe = ExecProbe()
    patcher = Patcher()
    probe.install(patcher)
    ctx = Context(tmp=tmp, probe=probe)
    sink = os.path.join(tmp, "exec.tsv")
    try:
        outcome = (_traced if args.trace else _untraced)(wl, args, ctx, sink)
    finally:
        patcher.restore()
        shutil.rmtree(tmp)
    if not args.trace:
        probes = _setup_probes(args)
        outcome["values"]["setup_s"] = statistics.median(reference_seconds(*p) for p in probes)
        outcome["values"]["setup_host_s"] = statistics.median(secs for secs, _ in probes)

    pinned = _pinned(args.workload, args.seed)
    reference = pinned if pinned is not None else outcome["reference"]
    attempted, failed = account(outcome["passes"], reference)
    _report(args, outcome, pinned, attempted, failed)
    if args.trace:
        import layers

        names = layers.METRICS
    else:
        names = END_TO_END
    metrics = {name: {"value": outcome["values"][name], "unit": unit} for name, unit in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
