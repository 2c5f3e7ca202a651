"""A run's counters equal folds of its trace.

Every protocol point bumps a :class:`~repro.sim.metrics.Metrics` counter
and, separately, emits a trace record, so each fact is recorded twice.
These tests pin that the two records agree: for every policy spec under
a sample of nemeses, plus open-loop load, each counter equals a count
(or a split) of the trace kinds that record the same fact.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import Experiment
from repro.api.session import execute

WORKLOAD = "balanced:5:2:20"

POLICIES = (
    "none",
    "rollback",
    "splice",
    "replicated:3",
    "incremental:persist=volatile",
    "incremental:persist=durable",
    "incremental:persist=hybrid",
    "reversible",
)

NEMESES = {
    "no-nemesis": "",
    "crash": "crash:at=0.4,node=1",
    "chaos+crash": (
        "chaos:drop=0.1,dup=0.1,reorder=0.1,notify=1,start=0.1,dur=0.6"
        "+crash:at=0.5,node=2"
    ),
    "partition": "partition:start=0.3,dur=0.25,group=0-1",
}

#: Open-loop runs, one per overflow policy that has its own counter.
ARRIVALS = {
    "open-loop-drop": "poisson:rate=0.02,horizon=1000,cap=2,overflow=drop",
    "open-loop-backpressure": "poisson:rate=0.03,horizon=800,cap=3,overflow=backpressure",
}

CASES = [(policy, name, NEMESES[name], "") for policy in POLICIES for name in NEMESES] + [
    ("rollback", name, "", spec) for name, spec in ARRIVALS.items()
]

#: counter -> the trace kind with exactly one record per increment.
COUNTED_KINDS = {
    "tasks_spawned": "spawn",
    "tasks_accepted": "task_accepted",
    "tasks_completed": "task_completed",
    "tasks_aborted": "task_aborted",
    "tasks_reissued": "recovery_reissue",
    "twins_created": "twin_created",
    "checkpoints_recorded": "checkpoint_recorded",
    "checkpoints_dropped": "checkpoint_dropped",
    "results_duplicate": "result_duplicate",
    "results_ignored": "result_ignored",
    "results_orphan_rerouted": "result_orphan_rerouted",
    "results_relayed": "result_relayed",
    "results_salvaged": "result_salvaged",
    "failures_injected": "node_failed",
    "failures_detected": "failure_detected",
    "nemesis_duplicated": "nemesis_duplicate",
    "nemesis_delayed": "nemesis_delay",
    "votes_recorded": "vote_recorded",
    "votes_decided": "vote_decided",
    "load_arrivals": "load_arrival",
    "load_completed": "load_tree_done",
    "load_dropped": "inbox_drop",
    "load_backpressure_events": "backpressure",
}


def trace_folds(result) -> dict:
    """Every counter the trace determines, recomputed from the records."""
    records = result.trace.records
    kinds = Counter(r.kind for r in records)
    drops = Counter(r.detail["reason"] for r in records if r.kind == "nemesis_drop")
    folds = {counter: kinds[kind] for counter, kind in COUNTED_KINDS.items()}
    folds.update(
        # A result buffered for a later splice is not yet delivered.
        results_delivered=sum(
            1 for r in records if r.kind == "result_received" and not r.detail.get("buffered")
        ),
        nemesis_partition_blocked=drops.pop("partition", 0),
        nemesis_dropped=sum(drops.values()),
        nodes_failed=[r.node for r in records if r.kind == "node_failed"],
    )
    return folds


@pytest.fixture(scope="module")
def results():
    out = {}
    for policy, name, nemesis, arrivals in CASES:
        builder = Experiment.workload(WORKLOAD).policy(policy).processors(4)
        if nemesis:
            builder.nemesis(nemesis)
        if arrivals:
            builder.arrivals(arrivals)
        out[policy, name] = execute(builder.build(), collect_trace=True).result
    return out


@pytest.mark.parametrize("policy,name", [(c[0], c[1]) for c in CASES])
def test_counters_equal_trace_folds(results, policy, name):
    result = results[policy, name]
    metrics = result.metrics
    for counter, folded in trace_folds(result).items():
        assert getattr(metrics, counter) == folded, counter
    # Only <=: a loss is counted when it happens but traced when its notice
    # reaches the sender, which may have died, or the run ended, meanwhile.
    assert result.trace.count("delivery_failed") <= metrics.delivery_failures


def test_sample_exercises_every_relation(results):
    """No relation above holds only because both sides read 0."""
    totals = Counter()
    for result in results.values():
        metrics = result.metrics
        for counter in trace_folds(result):
            totals[counter] += bool(getattr(metrics, counter))
        totals["delivery_failures"] += bool(result.trace.count("delivery_failed"))
    assert sorted(c for c, n in totals.items() if n == 0) == []
