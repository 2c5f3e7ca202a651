"""Seeded random nemesis schedules and deterministic shrinking.

The adversarial search in :mod:`repro.check` needs two primitives from
the fault layer:

* **Generation** — :func:`random_nemesis` draws a valid
  :class:`~repro.api.specs.NemesisSpec` from a caller-owned
  ``random.Random``, with crash/partition/chaos timing drawn over
  makespan fractions on a coarse grid (multiples of 0.05) so every
  generated schedule renders to a clean spec string and round-trips
  byte-identically through the grammar.

* **Mutation** — :func:`mutate_nemesis` perturbs an *existing* schedule
  into a near neighbor: shift a crash/partition/chaos timing by one or
  two steps on the same 0.05 grid, retarget a victim node or partition
  group, add or remove a clause, or swap a model within its family
  (``crash`` <-> ``cascade``).  This is the step operator of the
  coverage-guided searcher in :mod:`repro.check.search` — instead of
  drawing blind, it mutates the frontier of schedules that reached
  novel coverage signatures.

* **Shrinking** — :func:`shrink_candidates` enumerates strictly-smaller
  variants of a schedule (fewer clauses, fewer parameters, halved
  windows and probabilities, smaller partition groups) in a fixed,
  deterministic order.  Every candidate is strictly smaller under
  :func:`spec_size`, so a greedy first-improvement loop terminates and
  reduces the same violating schedule to the same minimal reproducer on
  every run.

All primitives validate through :meth:`NemesisSpec.parse`, so nothing
here can emit a schedule the grammar would reject, and every output
respects the generator's invariants: at most one crash-family clause
per schedule and node 0 (the root host) never a crash-family victim.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple

from repro.api.specs import NemesisClause, NemesisSpec

#: Models the random generator knows how to draw.  ``crash`` and
#: ``cascade`` are a family: at most one of them appears per schedule
#: and node 0 (the root host) is never a victim, so every generated
#: schedule leaves the run theoretically recoverable.
GENERATABLE_MODELS: Tuple[str, ...] = (
    "crash",
    "cascade",
    "partition",
    "chaos",
    "grayfail",
    "jitter",
)

_CRASH_FAMILY = frozenset({"crash", "cascade"})


def _frac(rng: random.Random, lo: float, hi: float) -> float:
    """A makespan fraction on the 0.05 grid in [lo, hi]."""
    steps = int(round((hi - lo) / 0.05))
    return round(lo + 0.05 * rng.randint(0, steps), 2)


def random_clause(
    rng: random.Random, model: str, n_processors: int
) -> NemesisClause:
    """Draw one valid clause for ``model`` on an ``n_processors`` machine."""
    n = int(n_processors)
    if n < 2:
        raise ValueError("schedule generation needs at least 2 processors")
    if model == "crash":
        body = f"at={_frac(rng, 0.1, 0.8)},node={rng.randrange(1, n)}"
    elif model == "cascade":
        prob = round(0.1 * rng.randint(2, 6), 1)
        body = f"at={_frac(rng, 0.1, 0.7)},node={rng.randrange(1, n)},prob={prob}"
    elif model == "partition":
        size = rng.randint(1, n - 1)
        group = "-".join(str(g) for g in sorted(rng.sample(range(n), size)))
        body = f"start={_frac(rng, 0.1, 0.6)},dur={_frac(rng, 0.15, 0.5)},group={group}"
    elif model == "chaos":
        parts = [f"drop={round(0.05 * rng.randint(1, 5), 2)}"]
        if rng.random() < 0.35:
            parts.append(f"dup={round(0.05 * rng.randint(1, 4), 2)}")
        if rng.random() < 0.35:
            parts.append(f"reorder={round(0.05 * rng.randint(1, 4), 2)}")
        if rng.random() < 0.5:
            parts.append("notify=1")
        parts.append(f"start={_frac(rng, 0.0, 0.4)}")
        parts.append(f"dur={_frac(rng, 0.3, 0.8)}")
        body = ",".join(parts)
    elif model == "grayfail":
        body = (
            f"node={rng.randrange(0, n)},start={_frac(rng, 0.1, 0.6)},"
            f"dur={_frac(rng, 0.2, 0.6)},factor={rng.choice((2, 3, 4, 6))}"
        )
    elif model == "jitter":
        body = f"max={rng.choice((10, 15, 20, 25, 30, 40))}"
    else:
        raise ValueError(
            f"cannot generate fault model {model!r}; "
            f"generatable: {GENERATABLE_MODELS}"
        )
    return NemesisSpec.parse(f"{model}:{body}").clauses[0]


def random_nemesis(
    rng: random.Random,
    n_processors: int,
    models: Sequence[str] = GENERATABLE_MODELS,
    max_clauses: int = 2,
) -> NemesisSpec:
    """Draw a composed schedule of 1..max_clauses clauses.

    The draw is entirely a function of ``rng``'s state, so a seeded
    generator reproduces the same schedule sequence forever.
    """
    pool = [m for m in models if m in GENERATABLE_MODELS]
    if not pool:
        raise ValueError(f"no generatable models in {tuple(models)!r}")
    clauses: List[NemesisClause] = []
    crashed = False
    for _ in range(rng.randint(1, max(1, max_clauses))):
        choices = [m for m in pool if not (crashed and m in _CRASH_FAMILY)]
        if not choices:
            # a crash-family-only pool exhausts after one clause: stop
            # rather than breach the one-crash-per-schedule invariant
            break
        model = rng.choice(choices)
        crashed = crashed or model in _CRASH_FAMILY
        clauses.append(random_clause(rng, model, n_processors))
    # Re-parse the rendered composition: one canonicalization path for
    # everything the generator can ever hand to the search layer.
    return NemesisSpec.parse(NemesisSpec(tuple(clauses)).to_spec_str())


# -- mutation -----------------------------------------------------------------

#: Value grids for :func:`mutate_nemesis`: ``(model, key) -> (grid, lo, hi)``.
#: Fractions move on the generator's 0.05 grid; absolute latency-scale
#: values (``jitter:max``, ``chaos:span``) move on a grid of 5, and
#: small multipliers (``grayfail:factor``, ``cascade:prob``) on their
#: generator grids.  Bounds keep every mutant inside the range the
#: random generator itself draws from.
_MUTABLE_RANGES = {
    ("crash", "at"): (0.05, 0.05, 0.9),
    ("cascade", "at"): (0.05, 0.05, 0.9),
    ("cascade", "prob"): (0.1, 0.1, 0.9),
    ("partition", "start"): (0.05, 0.05, 0.9),
    ("partition", "dur"): (0.05, 0.05, 0.9),
    ("chaos", "drop"): (0.05, 0.05, 0.5),
    ("chaos", "dup"): (0.05, 0.05, 0.5),
    ("chaos", "reorder"): (0.05, 0.05, 0.5),
    ("chaos", "start"): (0.05, 0.0, 0.6),
    ("chaos", "dur"): (0.05, 0.1, 0.9),
    ("chaos", "span"): (5.0, 10.0, 60.0),
    ("grayfail", "start"): (0.05, 0.05, 0.9),
    ("grayfail", "dur"): (0.05, 0.1, 0.9),
    ("grayfail", "factor"): (1.0, 2.0, 8.0),
    ("jitter", "max"): (5.0, 5.0, 60.0),
}

#: Model-family swaps: replacing one member with the other preserves
#: the crash-family cap by construction.
_FAMILY_SWAP = {"crash": "cascade", "cascade": "crash"}


def _grid_neighbors(value: float, grid: float, lo: float, hi: float) -> List[float]:
    """In-range grid points one or two steps away from ``value``."""
    out: List[float] = []
    for step in (-2, -1, 1, 2):
        cand = round(float(value) + step * grid, 2)
        if lo - 1e-9 <= cand <= hi + 1e-9 and abs(cand - float(value)) > 1e-9:
            out.append(cand)
    return out


def _canonical(clauses: Iterable[NemesisClause]) -> NemesisSpec:
    return NemesisSpec.parse(NemesisSpec(tuple(clauses)).to_spec_str())


def mutate_nemesis(
    rng: random.Random,
    spec: NemesisSpec,
    n_processors: int,
    models: Sequence[str] = GENERATABLE_MODELS,
    max_clauses: int = 3,
) -> NemesisSpec:
    """Mutate ``spec`` into a valid near-neighbor schedule.

    One mutation is applied per call, chosen by ``rng`` among the
    operators applicable to this schedule:

    * **perturb** — move one numeric parameter one or two steps on its
      grid (crash/partition/chaos timing on the 0.05 fraction grid,
      latency-scale values on theirs), clamped to the generator's range;
    * **retarget** — point a crash/cascade/grayfail clause at a
      different node, or redraw a partition group;
    * **add** — append a fresh :func:`random_clause` (never a second
      crash-family clause);
    * **remove** — drop one clause (only when more than one remains);
    * **swap** — replace a crash-family clause with the other family
      member (``crash`` <-> ``cascade``), keeping its timing and victim.

    The result is canonicalized via render -> reparse, so every mutant
    round-trips byte-identically through the grammar; the crash-family
    cap and the node-0 rule hold by construction.  The mutation is a
    pure function of ``rng``'s state — seeded chains replay exactly.
    When no operator applies (e.g. an empty schedule), a fresh random
    schedule is drawn instead.
    """
    n = int(n_processors)
    if n < 2:
        raise ValueError("schedule mutation needs at least 2 processors")
    pool = [m for m in models if m in GENERATABLE_MODELS]
    if not pool:
        raise ValueError(f"no generatable models in {tuple(models)!r}")
    clauses = list(spec.clauses)
    has_crash_family = any(c.model in _CRASH_FAMILY for c in clauses)

    perturbable = [
        (i, key, value)
        for i, c in enumerate(clauses)
        for key, value in c.params
        if (c.model, key) in _MUTABLE_RANGES
        and _grid_neighbors(value, *_MUTABLE_RANGES[(c.model, key)])
    ]
    retargetable = [
        i
        for i, c in enumerate(clauses)
        if (c.model in _CRASH_FAMILY and n > 2)
        or c.model == "grayfail"
        or c.model == "partition"
    ]
    addable = [
        m for m in pool if not (has_crash_family and m in _CRASH_FAMILY)
    ]
    swappable = [
        i
        for i, c in enumerate(clauses)
        if c.model in _FAMILY_SWAP and _FAMILY_SWAP[c.model] in pool
    ]

    ops: List[str] = []
    if perturbable:
        ops.append("perturb")
    if retargetable:
        ops.append("retarget")
    if len(clauses) < int(max_clauses) and addable:
        ops.append("add")
    if len(clauses) > 1:
        ops.append("remove")
    if swappable:
        ops.append("swap")
    if not ops:
        return random_nemesis(rng, n, models=pool, max_clauses=max_clauses)

    op = rng.choice(ops)
    if op == "perturb":
        i, key, value = perturbable[rng.randrange(len(perturbable))]
        clause = clauses[i]
        grid, lo, hi = _MUTABLE_RANGES[(clause.model, key)]
        new_value = rng.choice(_grid_neighbors(value, grid, lo, hi))
        params = tuple(
            (k, new_value if k == key else v) for k, v in clause.params
        )
        clauses[i] = NemesisClause(clause.model, params)
    elif op == "retarget":
        i = retargetable[rng.randrange(len(retargetable))]
        clause = clauses[i]
        params = dict(clause.params)
        if clause.model == "partition":
            current = params["group"]
            group = current
            for _ in range(8):
                size = rng.randint(1, n - 1)
                group = tuple(sorted(rng.sample(range(n), size)))
                if group != current:
                    break
            params["group"] = group
        elif clause.model == "grayfail":
            params["node"] = (params["node"] + rng.randrange(1, n)) % n
        else:  # crash family: node 0 is never a victim
            others = [x for x in range(1, n) if x != params["node"]]
            params["node"] = rng.choice(others)
        ordered = tuple((k, params[k]) for k, _ in clause.params)
        clauses[i] = NemesisClause(clause.model, ordered)
    elif op == "add":
        clauses.append(random_clause(rng, rng.choice(addable), n))
    elif op == "remove":
        del clauses[rng.randrange(len(clauses))]
    else:  # swap within the crash family
        i = swappable[rng.randrange(len(swappable))]
        clause = clauses[i]
        kept = tuple((k, v) for k, v in clause.params if k in ("at", "node"))
        if clause.model == "crash":
            prob = round(0.1 * rng.randint(2, 6), 1)
            clauses[i] = NemesisClause("cascade", kept + (("prob", prob),))
        else:
            clauses[i] = NemesisClause("crash", kept)
    return _canonical(clauses)


# -- shrinking ----------------------------------------------------------------


def spec_size(spec: NemesisSpec) -> Tuple[int, int, float]:
    """Ordering key for schedules: fewer clauses < fewer params < smaller values."""
    n_params = sum(len(c.params) for c in spec.clauses)
    magnitude = 0.0
    for clause in spec.clauses:
        for _, value in clause.params:
            if isinstance(value, tuple):
                magnitude += len(value)
            else:
                magnitude += abs(float(value))
    return (len(spec.clauses), n_params, round(magnitude, 6))


def _removable(model: str, key: str) -> bool:
    from repro.faults.registry import get_model

    return not get_model(model).params[key].required


def _replace_clause(
    spec: NemesisSpec, index: int, clause: NemesisClause
) -> NemesisSpec:
    clauses = list(spec.clauses)
    clauses[index] = clause
    return NemesisSpec.parse(NemesisSpec(tuple(clauses)).to_spec_str())


def shrink_candidates(spec: NemesisSpec) -> List[NemesisSpec]:
    """Strictly-smaller variants of ``spec``, in a fixed order.

    Order: drop whole clauses (front to back), then drop defaulted
    parameters, then halve float values, then shrink partition groups.
    Every candidate is strictly smaller under :func:`spec_size`; callers
    greedily take the first candidate that still violates and repeat.
    """
    out: List[NemesisSpec] = []
    clauses = spec.clauses
    if len(clauses) > 1:
        for i in range(len(clauses)):
            kept = clauses[:i] + clauses[i + 1 :]
            out.append(NemesisSpec.parse(NemesisSpec(kept).to_spec_str()))
    for i, clause in enumerate(clauses):
        for key, _ in clause.params:
            if _removable(clause.model, key):
                params = tuple(p for p in clause.params if p[0] != key)
                out.append(
                    _replace_clause(spec, i, NemesisClause(clause.model, params))
                )
    for i, clause in enumerate(clauses):
        for j, (key, value) in enumerate(clause.params):
            if isinstance(value, tuple) or isinstance(value, bool):
                continue
            if isinstance(value, int) or key in ("node", "notify"):
                continue
            halved = round(float(value) / 2.0, 2)
            if halved <= 0 or halved >= float(value):
                continue
            params = clause.params[:j] + ((key, halved),) + clause.params[j + 1 :]
            out.append(_replace_clause(spec, i, NemesisClause(clause.model, params)))
    for i, clause in enumerate(clauses):
        for j, (key, value) in enumerate(clause.params):
            if isinstance(value, tuple) and len(value) > 1:
                params = (
                    clause.params[:j] + ((key, value[:-1]),) + clause.params[j + 1 :]
                )
                out.append(
                    _replace_clause(spec, i, NemesisClause(clause.model, params))
                )
    base = spec_size(spec)
    return [c for c in out if spec_size(c) < base]
