"""Which public entry points make up each layer, and the per-layer
metrics computed from the spans and counters of a traced run.

Hot paths that cannot be wrapped from outside are reported by count
only: the event loop is one inlined ``while`` in ``EventQueue.run``, so
``sim.events`` comes from ``events_processed`` after each run, not from
a span per event.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from measure import Span, intersection_length, layer_self_times, union_length
from tracer import Patcher, Tracer, subclasses

HOOKS = (
    "on_placement_ack",
    "on_child_result",
    "on_failure_detected",
    "on_packet_undeliverable",
    "on_result_undeliverable",
)
SPEC_METHODS = ("parse", "to_spec_str", "to_json", "from_json", "validate")

#: Storm's policy specs and the metric-name form of each.
POLICY_LABELS = {
    "rollback": "rollback",
    "splice": "splice",
    "incremental:persist=volatile": "incremental-volatile",
    "incremental:persist=durable": "incremental-durable",
    "incremental:persist=hybrid": "incremental-hybrid",
    "reversible": "reversible",
    "replicated:3": "replicated-3",
}

#: ``(name, unit)`` of every per-layer metric, in output order.
METRICS = (
    [
        ("gc.pause_s", "s"),
        ("gc.gen2_collections", "count"),
        ("sim.scaling_ratio", "ratio"),
        ("sim.run_s", "s"),
        ("sim.events", "count"),
        ("sim.us_per_event", "us"),
        ("sim.place_s", "s"),
        ("sim.trace_records", "count"),
        ("sim.trace_overhead_ratio", "ratio"),
        ("core.checkpoint_s", "s"),
        ("core.checkpoints_recorded", "count"),
        ("core.checkpoint_peak_held", "count"),
        ("core.tasks_reissued", "count"),
        ("core.steps_wasted_ratio", "ratio"),
    ]
    + [(f"policies.{label}.run_s", "s") for label in POLICY_LABELS.values()]
    + [
        ("policies.hook_s", "s"),
        ("faults.hook_s", "s"),
        ("faults.generate_s", "s"),
        ("api.execute_s", "s"),
        ("api.baseline_runs", "count"),
        ("api.baseline_s", "s"),
        ("api.spec_s", "s"),
        ("check.oracles_s", "s"),
        ("check.coverage_s", "s"),
        ("check.shrink_share", "ratio"),
        ("check.memo_hit_ratio", "ratio"),
        ("exp.expand_s", "s"),
        ("exp.ledger_append_s", "s"),
        ("exp.ledger_appends", "count"),
        ("exp.parallel_efficiency", "ratio"),
        ("report.aggregate_s", "s"),
        ("report.emit_s", "s"),
        ("load.arrivals", "count"),
        ("bench.tracing_overhead_s", "s"),
        ("bench.spans", "count"),
    ]
)


def install(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every layer's entry points with span recorders."""
    import repro.load.spec as load_spec
    import repro.policies  # noqa: F401 - loads every FaultTolerance subclass
    from repro.api import specs
    from repro.check.search import Evaluator
    from repro.core.checkpoint import CheckpointTable
    from repro.core.policy import FaultTolerance
    from repro.exp.ledger import LedgerWriter
    from repro.faults.model import NemesisSchedule
    from repro.sim.loadbalance import Scheduler
    from repro.sim.machine import Machine

    def methods(layer: str, classes: Sequence[type], names: Sequence[str]) -> None:
        for cls in classes:
            for name in names:
                if name in cls.__dict__:
                    patcher.method(cls, name, tracer.wrapper(layer))

    def functions(layer: str, module: str, names: Sequence[str]) -> None:
        for name in names:
            patcher.function(module, name, tracer.wrapper(layer))

    methods("sim.run", [Machine], ["run"])
    methods("sim.place", subclasses(Scheduler), ["place"])
    methods("core.checkpoint", [CheckpointTable], ["record", "drop", "drop_everywhere", "lookup"])
    methods("policies.hook", subclasses(FaultTolerance), HOOKS)
    methods("faults.hook", [NemesisSchedule], ["intercept_send", "scale_step_time", "detector_extra"])
    functions("faults.generate", "repro.faults.generate",
              ["random_nemesis", "mutate_nemesis", "shrink_candidates"])
    functions("api.execute", "repro.api.session", ["execute"])
    functions("api.baseline", "repro.api.session", ["_baseline"])
    spec_classes = [
        value for module in (specs, load_spec) for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
        and any(name in value.__dict__ for name in SPEC_METHODS)
    ]
    methods("api.spec", spec_classes, SPEC_METHODS)
    functions("check.oracles", "repro.check.oracles", ["evaluate_context", "build_context"])
    functions("check.coverage", "repro.check.coverage", ["signature_from_context", "recovery_stats"])
    methods("check.evaluate", [Evaluator], ["evaluate"])
    functions("exp.expand", "repro.exp.scenario", ["expand", "expanded_runspecs"])
    methods("exp.ledger", [LedgerWriter], ["append"])
    functions("report.aggregate", "repro.report.aggregate", ["aggregate_sweep"])
    functions("report.emit", "repro.report.emit", ["report_payload", "markdown_report"])


def _by_layer(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = {}
    for span in spans:
        out.setdefault(span[3], []).append(span)
    return out


def _covered(spans: Sequence[Span]) -> float:
    return union_length((s[4], s[5]) for s in spans)


def compute(
    spans: Sequence[Span],
    passes: int,
    counters: Dict[str, float],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics, each per pass (mean over the traced passes).

    ``counters`` are the :class:`~tracer.ExecProbe` counters summed over
    the traced passes; ``extras`` carries what the workload measured
    itself (ratios from untraced reference passes, search counts).
    Layers a workload never reaches read 0.
    """
    n = max(passes, 1)
    layer = _by_layer(spans)
    get = lambda name: layer.get(name, [])  # noqa: E731
    covered = lambda name: _covered(get(name)) / n  # noqa: E731

    run_s = covered("sim.run")
    events = counters["events"] / n
    executes = get("api.execute")
    inner_runs = intersection_length(
        [(s[4], s[5]) for s in executes], [(s[4], s[5]) for s in get("sim.run")]
    )
    baseline_ids = {s[0] for s in get("api.baseline")}
    baseline_runs = sum(1 for s in get("sim.run") if s[1] in baseline_ids)
    evaluations = len(get("check.evaluate"))
    sims = extras.get("search_sims", 0)
    out: Dict[str, float] = {
        "gc.pause_s": extras.get("gc_pause_s", 0.0) / n,
        "gc.gen2_collections": extras.get("gc_gen2", 0) / n,
        "sim.scaling_ratio": extras.get("scaling_ratio", 0.0),
        "sim.run_s": run_s,
        "sim.events": events,
        "sim.us_per_event": run_s / events * 1e6 if events else 0.0,
        "sim.place_s": covered("sim.place"),
        "sim.trace_records": counters["trace_records"] / n,
        "sim.trace_overhead_ratio": extras.get("trace_overhead_ratio", 0.0),
        "core.checkpoint_s": covered("core.checkpoint"),
        "core.checkpoints_recorded": counters["checkpoints_recorded"] / n,
        "core.checkpoint_peak_held": counters["checkpoint_peak_held"],
        "core.tasks_reissued": counters["tasks_reissued"] / n,
        "core.steps_wasted_ratio": (
            counters["steps_wasted"] / counters["steps_total"] if counters["steps_total"] else 0.0
        ),
    }
    for spec, label in POLICY_LABELS.items():
        out[f"policies.{label}.run_s"] = _covered(
            [s for s in get("sim.run") if s[6] == spec]
        ) / n
    out.update(
        {
            "policies.hook_s": covered("policies.hook"),
            "faults.hook_s": covered("faults.hook"),
            "faults.generate_s": covered("faults.generate"),
            "api.execute_s": (_covered(executes) - inner_runs) / n,
            "api.baseline_runs": baseline_runs / n,
            "api.baseline_s": covered("api.baseline"),
            "api.spec_s": covered("api.spec"),
            "check.oracles_s": covered("check.oracles"),
            "check.coverage_s": covered("check.coverage"),
            "check.shrink_share": extras.get("shrink_share", 0.0),
            "check.memo_hit_ratio": (
                (evaluations - sims) / evaluations if evaluations else 0.0
            ),
            "exp.expand_s": covered("exp.expand"),
            "exp.ledger_append_s": covered("exp.ledger"),
            "exp.ledger_appends": len(get("exp.ledger")) / n,
            "exp.parallel_efficiency": extras.get("parallel_efficiency", 0.0),
            "report.aggregate_s": covered("report.aggregate"),
            "report.emit_s": covered("report.emit"),
            "load.arrivals": counters["load_arrivals"] / n,
            "bench.tracing_overhead_s": extras.get("tracing_overhead_s", 0.0),
            "bench.spans": len(spans) / n,
        }
    )
    return out


def self_time_table(spans: Sequence[Span], wall: float) -> List[Any]:
    """``(layer, self seconds, share of wall)`` rows, largest first."""
    totals = layer_self_times(spans)
    rows = sorted(totals.items(), key=lambda kv: -kv[1])
    return [(name, secs, secs / wall if wall else 0.0) for name, secs in rows]
