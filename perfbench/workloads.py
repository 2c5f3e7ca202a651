"""The four workloads.  Each is a closed loop with one client: the next
call is issued when the previous one returns.

A workload's ``setup(seed)`` turns the seed into inputs (spec strings,
machine seeds and search seeds; the program receives nothing else);
``count_tasks()`` then counts the logical tasks the inputs evaluate,
outside the set-up that ``setup_s`` times; ``run_pass(ctx)`` runs every
input once and returns what it measured.
Passes of one run repeat the same inputs, so every pass must produce
the same digest, and each starts from cold memos (:func:`cold_memos`).
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import POLICY_LABELS
from measure import PassData, fold, kernel_seconds
from tracer import ExecProbe, Tracer

PROCESSORS = 8


@dataclass
class Context:
    """What a pass needs from the run that makes it."""

    tmp: str
    probe: ExecProbe
    workers: int = 2
    tracer: Optional[Tracer] = None
    #: Full collection outside the timed calls (a GcMonitor's, when traced).
    collect: Callable[[], Any] = gc.collect


class Windows:
    """The measurement windows of one pass.

    Each window records the logical tasks it evaluated and the host
    seconds it took, and the host time of the reference kernel run just
    before and just after it (the mean of the two), so the host's speed
    at that moment travels with the window.  Call :meth:`add` right
    after the window ends.
    """

    def __init__(self) -> None:
        self.rows: List[Tuple[int, float, float]] = []
        self._kernel = kernel_seconds()

    def add(self, tasks: int, seconds: float) -> None:
        kernel = kernel_seconds()
        self.rows.append((tasks, seconds, (self._kernel + kernel) / 2))
        self._kernel = kernel

    @property
    def seconds(self) -> float:
        return sum(row[1] for row in self.rows)

    @property
    def tasks(self) -> int:
        return sum(row[0] for row in self.rows)


def _seeds(name: str, seed: int) -> random.Random:
    # String seeding hashes with sha512, so it does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"perfbench:{name}:{seed}")


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    """``n`` values on the 0.05 grid of ``[lo, hi]``, one from each of
    ``n`` equal bins, in random order."""
    points = round((hi - lo) / 0.05) + 1
    picks = []
    for k in range(n):
        first = k * points // n
        picks.append(rng.randrange(first, max((k + 1) * points // n, first + 1)))
    return _shuffled(rng, [round(lo + 0.05 * p, 2) for p in picks])


def _shuffled(rng: random.Random, values: List[Any]) -> List[Any]:
    rng.shuffle(values)
    return values


def _spec(workload: str, policy: str, machine_seed: int, nemesis: str = ""):
    from repro.api import Experiment

    experiment = Experiment.workload(workload).policy(policy).processors(PROCESSORS)
    experiment = experiment.seed(machine_seed)
    if nemesis:
        experiment = experiment.nemesis(nemesis)
    return experiment.build()


def _execute(spec, ctx: Context) -> Tuple[bool, Dict[str, Any], str]:
    """Run one spec through the public entry point (looked up at call
    time, so the probe's wrapper applies).  Returns ``(ok, stats,
    error)``: a run fails if it raises, stalls or misses the oracle."""
    import repro.api.session as session

    try:
        handle = session.execute(spec)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        return False, {"error": type(exc).__name__}, f"{type(exc).__name__}: {exc}"
    record = handle.record
    ok = bool(record["completed"] and record["verified"] is True)
    error = "" if ok else f"{record['workload']} {record['policy']}: not verified"
    return ok, {"record": record, "events": ctx.probe.last_events}, error


class Workload:
    def count_tasks(self) -> None:
        """Count the logical tasks of the inputs (after ``setup``)."""

    def is_sample(self, workload: str) -> bool:
        """Whether an ``execute`` call on ``workload`` is a per-simulation sample."""
        return True


class BigTree(Workload):
    """One fault-free evaluation of a large balanced tree under rollback
    on 8 processors, plus a 4,095-task tree for the scaling ratio."""

    name = "bigtree"
    LARGE = "balanced:14:2:20"
    SMALL = "balanced:11:2:20"

    def setup(self, seed: int) -> None:
        rng = _seeds(self.name, seed)
        machine_seed = rng.randrange(2**31)
        self.specs = [_spec(w, "rollback", machine_seed) for w in (self.LARGE, self.SMALL)]

    def count_tasks(self) -> None:
        self.sizes = [_logical_size(w) for w in (self.LARGE, self.SMALL)]

    def is_sample(self, workload: str) -> bool:
        # The 4,095-task run is the scaling reference, not a latency sample.
        return workload == self.LARGE

    def run_pass(self, ctx: Context) -> PassData:
        stats, failed, errors = [], 0, []
        windows = Windows()
        wall = 0.0
        for spec in self.specs:
            # The previous run's dead object graph is collected untimed, as
            # a one-shot `repro run` never pays for it; the GC work a run's
            # own growing heap triggers stays in its time.
            ctx.collect()
            start = perf_counter()
            ok, item, error = _execute(spec, ctx)
            wall += perf_counter() - start
            stats.append(item)
            failed += not ok
            errors += [error] if error else []
        # One window per pass; the collections between its runs are not in it.
        windows.add(sum(self.sizes), wall)
        return PassData(len(self.specs), failed, fold(stats), wall, windows.tasks,
                        len(self.specs), errors=errors, windows=windows.rows)


class Storm(Workload):
    """Seven recovery policies on the same fail-silent schedules, on a
    balanced tree and an interpreted program."""

    name = "storm"
    TREES = ("balanced:7:2:20", "prog:tak:8:4:2")
    #: Schedules per pass.  Half are cascades (a cascade costs about
    #: 1.4x a single crash), and every timing is stratified over its
    #: range, so the pass cost does not depend on how the seed happened
    #: to draw.
    SCHEDULES = 10

    @staticmethod
    def schedules(rng: random.Random, n: int) -> List[Tuple[int, str, str, str]]:
        """``n`` schedules of ``(machine seed, crash clause, its
        single-crash form, rest)``.

        Victims are never node 0; a cascade is capped at 3 deaths.
        """
        at = _strata(rng, 0.1, 0.7, n)
        start, dur = _strata(rng, 0.1, 0.6, n), _strata(rng, 0.2, 0.6, n)
        prob = _strata(rng, 0.2, 0.6, n // 2)
        factor = _shuffled(rng, [(2, 3, 4, 6)[i % 4] for i in range(n)])
        jitter = _shuffled(rng, [(10, 15, 20, 25, 30, 40)[i % 6] for i in range(n)])
        out = []
        for i in range(n):
            node = rng.randrange(1, PROCESSORS)
            single = f"crash:at={at[i]},node={node}"
            crash = single
            if i % 2:
                crash = f"cascade:at={at[i]},node={node},prob={prob[i // 2]},max=3"
            rest = (
                f"grayfail:node={rng.randrange(1, PROCESSORS)},start={start[i]},"
                f"dur={dur[i]},factor={factor[i]}+jitter:max={jitter[i]}"
            )
            out.append((rng.randrange(2**31), crash, single, rest))
        return out

    def setup(self, seed: int) -> None:
        rng = _seeds(self.name, seed)
        self.ops = []
        for machine_seed, crash, single, rest in self.schedules(rng, self.SCHEDULES):
            for tree in self.TREES:
                for policy in POLICY_LABELS:
                    # 3-way voting masks exactly one fault by design.
                    first = single if policy.startswith("replicated") else crash
                    self.ops.append((policy, _spec(tree, policy, machine_seed, f"{first}+{rest}")))

    def count_tasks(self) -> None:
        # A program's size is its fault-free task count, which takes a run.
        self.schedule_tasks = len(POLICY_LABELS) * sum(_logical_size(t) for t in self.TREES)

    def run_pass(self, ctx: Context) -> PassData:
        stats, failed, errors = [], 0, []
        windows = Windows()
        per_schedule = len(self.ops) // self.SCHEDULES
        for first in range(0, len(self.ops), per_schedule):
            # One window per schedule: its 7 policies on both trees.
            start = perf_counter()
            for policy, spec in self.ops[first:first + per_schedule]:
                if ctx.tracer is not None:
                    ctx.tracer.tag = policy
                ok, item, error = _execute(spec, ctx)
                stats.append(item)
                failed += not ok
                errors += [error] if error else []
            windows.add(self.schedule_tasks, perf_counter() - start)
        if ctx.tracer is not None:
            ctx.tracer.tag = None
        return PassData(len(self.ops), failed, fold(stats), windows.seconds, windows.tasks,
                        len(self.ops), errors=errors, windows=windows.rows)


class Search(Workload):
    """Coverage-guided schedule searches over a 127-task tree."""

    name = "search"
    BASE = "balanced:6:2:20"
    #: A search's cost per simulation depends on what it drew; many short
    #: searches per pass average that out across seeds (README.md).
    SEARCHES = 32
    ROUNDS = 4
    #: Generated schedules, and passes over them, behind ``trace_overhead``.
    TRACE_SCHEDULES = 8
    TRACE_REPEATS = 2

    def setup(self, seed: int) -> None:
        rng = _seeds(self.name, seed)
        # Each search gets its own machine seed and search seed.
        self.searches = [
            (_spec(self.BASE, "rollback", rng.randrange(2**31)), rng.randrange(2**31))
            for _ in range(self.SEARCHES)
        ]

    def count_tasks(self) -> None:
        self.size = _logical_size(self.BASE)

    def trace_overhead(self) -> float:
        """Host time with the simulator's trace on over off, summed over
        a fixed sample of generated schedules."""
        from repro.api.session import execute
        from repro.faults import random_nemesis

        base, seed = self.searches[0]
        rng = random.Random(seed)
        specs = [replace(base, nemesis=random_nemesis(rng, PROCESSORS))
                 for _ in range(self.TRACE_SCHEDULES)]
        spent = {True: 0.0, False: 0.0}
        for _ in range(self.TRACE_REPEATS):
            for spec in specs:
                for collect in (True, False):
                    start = perf_counter()
                    execute(spec, collect_trace=collect)
                    spent[collect] += perf_counter() - start
        return spent[True] / spent[False]

    def run_pass(self, ctx: Context) -> PassData:
        from repro.check import search

        out_dir = tempfile.mkdtemp(dir=ctx.tmp)
        stats, failed, errors = [], 0, []
        windows = Windows()
        sims = round_sims = 0
        for base, seed in self.searches:
            start = perf_counter()
            try:
                result = search(base, seed=seed, strategy="coverage",
                                rounds=self.ROUNDS, out_dir=out_dir)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                failed += 1
                errors.append(f"search seed {seed}: {type(exc).__name__}: {exc}")
                stats.append({"error": type(exc).__name__})
                continue
            # One window per search; every simulation evaluates the base tree.
            windows.add(result.simulations * self.size, perf_counter() - start)
            sims += result.simulations
            round_sims += sum(1 for a in result.attempts if not a["cached"])
            stats.append((result.simulations, _sha256_file(result.path)))
        shutil.rmtree(out_dir)
        extras = {"search_sims": sims, "round_sims": round_sims}
        return PassData(len(self.searches), failed, fold(stats), windows.seconds,
                        windows.tasks, sims, extras=extras, errors=errors,
                        windows=windows.rows)


class Sweep(Workload):
    """Replicated scenario sweeps on a 2-worker pool, each followed by a
    report served from the sweep's cache."""

    name = "sweep"
    SCENARIOS = ("load-saturation", "load-chaos", "policy-compare-chaos", "policy-compare-load")
    REPLICATIONS = 8

    def setup(self, seed: int) -> None:
        # The inputs are fixed by the registered scenarios; the seed is
        # not used.
        from repro.exp import get_scenario
        from repro.exp.scenario import with_replications

        self.specs = [with_replications(get_scenario(n), self.REPLICATIONS) for n in self.SCENARIOS]

    def run_pass(self, ctx: Context) -> PassData:
        from repro.exp import run_scenario
        from repro.report import run_report

        cache = tempfile.mkdtemp(dir=ctx.tmp)
        stats, failed, errors = [], 0, []
        points = tasks = 0
        # One window per pass.
        windows = Windows()
        start = perf_counter()
        for spec in self.specs:
            n = spec.n_points()
            try:
                sweep = run_scenario(spec, workers=ctx.workers, cache_dir=cache,
                                     ledger_dir=os.path.join(cache, "ledger"))
                report = run_report(spec.name, replications=self.REPLICATIONS,
                                    cache_dir=cache, out_dir=os.path.join(cache, "reports"))
            except Exception as exc:  # noqa: BLE001 - counted as failed operations
                failed += n
                points += n
                errors.append(f"{spec.name}: {type(exc).__name__}: {exc}")
                stats.append({"error": type(exc).__name__})
                continue
            results = [p["result"] for p in sweep.points]
            bad = sum(1 for r in results if not (r["completed"] and r["verified"] is True))
            if not report.sweeps[0].cache_hit:
                bad = n
                errors.append(f"{spec.name}: report did not reuse the sweep cache")
            failed += bad
            points += len(results)
            tasks += sum(_logical_tasks(r) for r in results)
            stats.append(
                {
                    "sweep": hashlib.sha256(sweep.to_json().encode("utf-8")).hexdigest(),
                    "report": hashlib.sha256(report.markdown.encode("utf-8")).hexdigest(),
                }
            )
        windows.add(tasks, perf_counter() - start)
        shutil.rmtree(cache)
        return PassData(points, failed, fold(stats), windows.seconds, tasks, points,
                        errors=errors, windows=windows.rows)


def cold_memos() -> None:
    """Empty the per-process memos (fault-free baselines), so every pass
    pays what a fresh ``repro`` invocation pays, as a sweep's freshly
    forked pool workers do."""
    import repro.api.session
    import repro.exp.points

    for module in (repro.api.session, repro.exp.points):
        for value in vars(module).values():
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)  # through a tracing wrapper
            if value is not None:
                value.cache_clear()


def _logical_size(workload: str) -> int:
    """Tasks of one fault-free evaluation: a tree's size, or a program's
    task count under rollback."""
    from repro.api import WorkloadSpec
    from repro.api.session import execute

    size = WorkloadSpec.parse(workload).build()[1]
    if size is None:
        size = execute(_spec(workload, "rollback", 0)).record["metrics"]["tasks_accepted"]
    return size


def _logical_tasks(record: Dict[str, Any]) -> int:
    """Tree tasks a sweep point evaluated: one tree, or one per
    completed arrival of an open-loop run."""
    per_tree = record["tree_size"]
    return per_tree * record["load"]["completed"] if "load" in record else per_tree


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


WORKLOADS: Dict[str, Callable[[], Any]] = {
    "bigtree": BigTree,
    "storm": Storm,
    "search": Search,
    "sweep": Sweep,
}
