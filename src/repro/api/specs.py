"""Typed, serializable experiment specs (the ``repro.api`` data layer).

Every experiment in this repo is one shape: a *workload* evaluated under
a recovery *policy* on a configured *machine* while a fault schedule
and/or a *nemesis* injects failures.  This module gives that shape a
single canonical description — frozen dataclasses composed into a
:class:`RunSpec` — that the CLI, the scenario registry, the perf
benchmarks, and the programmatic API all consume and produce.

Each spec class supports four operations:

``parse(text)``
    Parse the legacy string grammar into a typed spec, raising a
    structured :class:`~repro.errors.SpecError` (offending field, token,
    allowed values, position) on malformed input.
``to_spec_str()``
    Render the canonical string form.  Round-trip guarantee:
    ``parse(s.to_spec_str()) == s`` for every spec ``s``.
``to_json()`` / ``from_json(payload)``
    Lossless JSON document form: ``from_json(to_json(s)) == s``.
``build(...)``
    Resolve the spec into the live object the simulator consumes
    (workload factory, policy instance, ``SimConfig``, ``FaultSchedule``,
    ``NemesisSchedule``).

String grammars (all legacy-compatible; the parameter tables, clause
parser, renderer and number formatter are shared, see
:mod:`repro.api.grammar`):

- workload: suite name (``fib-10``), ``balanced:DEPTH:FANOUT:WORK``,
  ``chain:LEN:WORK``, ``wide:WIDTH:WORK``, ``skewed:DEPTH:FANOUT:WORK``,
  ``random:SEED:TASKS``, ``prog:NAME:ARG:...``
- policy: ``none`` | ``rollback`` | ``splice`` | ``reversible`` |
  ``incremental[:persist=volatile|durable|hybrid]`` | ``replicated[:K]``
- faults: ``T:NODE(+T:NODE)*`` where ``T`` is a fraction of the baseline
  makespan (``mode="frac"``) or an absolute sim time (``mode="time"``)
- nemesis: ``model:k=v,...(+model:k=v,...)*`` (see ``repro faults list``)
- machine: ``processors=8,topology=ring,scheduler=gradient,``
  ``replication=3,cost.NAME=V,...``
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.api.grammar import (
    Param,
    check_bound,
    coerce,
    coerce_params,
    fmt_num,
    lookup,
    parse_params,
    parse_positional,
    render_params,
)
from repro.config import SCHEDULERS, TOPOLOGIES, CostModel, SimConfig
from repro.core import (
    NoFaultTolerance,
    ReplicatedExecution,
    RollbackRecovery,
    SpliceRecovery,
)
from repro.errors import SpecError
from repro.load.spec import ArrivalSpec
from repro.policies import PERSIST_MODES, IncrementalRecovery, ReversibleRecovery

#: Schema tag carried by every RunSpec JSON document.
RUNSPEC_SCHEMA = "repro-runspec/1"


# -- workload ------------------------------------------------------------------

_DEPTH = ("depth", Param("int", None, "levels below the root", at_least=0))
_WORK = ("work", Param("int", 10, "reduction steps per task"))

#: Synthetic-tree kinds -> positional parameters of their
#: :mod:`repro.workloads.trees` builder, with the builder's bounds.
_TREE_PARAMS: Dict[str, Tuple[Tuple[str, Param], ...]] = {
    "balanced": (_DEPTH, ("fanout", Param("int", 2, "children per task", at_least=1)), _WORK),
    "chain": (("length", Param("int", None, "tasks in the chain", at_least=1)), _WORK),
    "wide": (("width", Param("int", None, "leaves under the root", at_least=1)), _WORK),
    "skewed": (_DEPTH, ("fanout", Param("int", 3, "children per spine task")), _WORK),
    "random": (
        ("seed", Param("int", None, "tree seed")),
        ("tasks", Param("int", None, "target task count", at_least=1)),
    ),
}

#: One ``prog:NAME:ARG:...`` argument.
_PROG_ARG = Param("int", None, "program argument")


@dataclass(frozen=True)
class WorkloadSpec:
    """What to evaluate: a named suite entry, a synthetic tree, or a program.

    ``kind`` is ``"named"`` (suite registry), a synthetic-tree kind
    (``balanced``/``chain``/``wide``/``skewed``/``random``), or
    ``"prog"`` (interpreter program).  ``name`` carries the suite or
    program name; ``args`` the integer shape/program arguments.
    """

    kind: str
    name: Optional[str] = None
    args: Tuple[int, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        from repro.workloads.suite import WORKLOADS

        text = str(text)
        if text in WORKLOADS:
            return cls("named", name=text)
        kind, _, rest = text.partition(":")
        parts = rest.split(":") if rest else []
        if kind == "prog":
            if not parts or not parts[0]:
                raise SpecError(
                    "prog workload needs a program name (prog:NAME:ARG:...)",
                    spec=text, field="workload.prog", value=text, position=0,
                )
            from repro.lang.programs import PROGRAMS

            lookup(
                PROGRAMS, parts[0], what="program", field="workload.prog",
                spec=text, position=len("prog:"),
            )
            args = parse_positional(
                text, parts[1:], len("prog:") + len(parts[0]) + 1,
                [("arg", _PROG_ARG)] * len(parts[1:]),
                field="workload.prog", owner=f"program {parts[0]!r}",
            )
            return cls("prog", name=parts[0], args=args)
        if kind in _TREE_PARAMS:
            args = parse_positional(
                text, parts, len(kind) + 1, _TREE_PARAMS[kind],
                field=f"workload.{kind}", owner=f"workload kind {kind!r}",
            )
            return cls(kind, args=args)
        raise SpecError(
            f"unknown workload spec {text!r}",
            spec=text, field="workload", value=text,
            allowed=tuple(sorted(WORKLOADS)) + tuple(_TREE_PARAMS) + ("prog",),
            position=0,
        )

    def to_spec_str(self) -> str:
        if self.kind == "named":
            return self.name  # type: ignore[return-value]
        head = f"prog:{self.name}" if self.kind == "prog" else self.kind
        return ":".join([head] + [str(a) for a in self.args])

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "args": list(self.args)}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        try:
            candidate = cls(
                kind=str(payload["kind"]),
                name=payload.get("name"),
                args=tuple(int(a) for a in payload.get("args", ())),
            )
            spec_str = candidate.to_spec_str()
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SpecError(
                f"malformed WorkloadSpec document: {exc!r}",
                field="workload", value=payload,
            ) from None
        # Re-parsing the rendered form validates kind, registry names,
        # and arity through the one grammar — a bad document fails here
        # with a structured error instead of a raw KeyError at build().
        parsed = cls.parse(spec_str)
        if parsed != candidate:
            raise SpecError(
                f"inconsistent WorkloadSpec document (renders as {spec_str!r})",
                field="workload", value=payload,
            )
        return parsed

    def build(self) -> Tuple[Callable[[], Any], Optional[int]]:
        """Resolve to ``(workload_factory, tree_size)``.

        ``tree_size`` is the task count for synthetic trees (used by the
        checkpoint-memory scenario) and ``None`` otherwise.
        """
        from repro.sim.workload import InterpWorkload, TreeWorkload
        from repro.workloads import trees
        from repro.workloads.suite import WORKLOADS

        spec_str = self.to_spec_str()
        if self.kind == "named":
            return WORKLOADS[self.name], None
        if self.kind == "prog":
            from repro.lang.programs import get_program

            name, args = self.name, self.args
            return (
                lambda: InterpWorkload(get_program(name, *args), name=spec_str)
            ), None
        tree = getattr(trees, f"{self.kind}_tree")(*self.args)
        return (lambda: TreeWorkload(tree, spec_str)), len(tree)


# -- policy --------------------------------------------------------------------


@dataclass(frozen=True)
class Policy:
    """One recovery policy: its class, its one-line help, and its
    parameters.  A bare policy name takes the class defaults; with a
    ``:`` body the parameters are given positionally (``replicated:5``)
    or keyed (``incremental:persist=durable``)."""

    build: Callable[..., Any]
    help: str
    params: Mapping[str, Param] = field(default_factory=dict)
    positional: bool = False


#: The policy table, in catalog order.  ``PolicySpec``, the CLI's
#: ``--policy`` help and ``repro list`` are all views of it.
POLICY_TABLE: Dict[str, Policy] = {
    "none": Policy(NoFaultTolerance, "no recovery: failures strand the run"),
    "rollback": Policy(
        RollbackRecovery, "paper §3: reissue the dead node's checkpoints, abort starved waiters"
    ),
    "splice": Policy(
        SpliceRecovery, "paper §4: rollback plus grandparent reroutes, twins, salvaged results"
    ),
    "reversible": Policy(
        ReversibleRecovery, "causal backtracking: unwind unconsumed results, then roll back"
    ),
    "incremental": Policy(
        IncrementalRecovery,
        "HEAL-style online repair of the dead node's sub-trees",
        {"persist": Param(
            "choice", "volatile", "checkpoint state assumed to survive a crash",
            choices=PERSIST_MODES,
        )},
    ),
    "replicated": Policy(
        ReplicatedExecution,
        "paper §5.3: k-fold execution with majority voting",
        {"k": Param(
            "int", None, "replicas per task (bare: the machine's replication factor)",
            at_least=1,
        )},
        positional=True,
    ),
}


def policy_usage(name: str, metavar: Optional[str] = None) -> str:
    """The usage form of one policy: ``rollback``, ``replicated[:K]``,
    ``incremental[:persist=volatile|durable|hybrid]`` (or ``=MODE`` when
    a ``metavar`` is given)."""
    entry = POLICY_TABLE[name]
    if not entry.params:
        return name
    key, param = next(iter(entry.params.items()))
    if entry.positional:
        return f"{name}[:{key.upper()}]"
    return f"{name}[:{key}={metavar or '|'.join(param.choices)}]"


@dataclass(frozen=True)
class PolicySpec:
    """Which recovery policy runs the workload.

    ``k`` is the replication factor and only meaningful for
    ``replicated`` (``None`` means the policy default of 3).
    ``persist`` is the crash-persistency assumption and only meaningful
    for ``incremental`` (``None`` means the policy default,
    ``volatile``).  Both are the declared parameters of
    :data:`POLICY_TABLE`.
    """

    name: str
    k: Optional[int] = None
    persist: Optional[str] = None

    _SIMPLE = tuple(name for name, entry in POLICY_TABLE.items() if not entry.params)
    _PERSIST_MODES = POLICY_TABLE["incremental"].params["persist"].choices
    #: What an unknown policy name is told it may be instead.
    _USAGE = tuple(policy_usage(name, "MODE") for name in POLICY_TABLE)

    @classmethod
    def _entry(cls, name: str, spec: Optional[str] = None) -> Policy:
        return lookup(
            POLICY_TABLE, name, what="policy", field="policy", spec=spec, position=0,
            allowed=cls._USAGE,
        )

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        text = str(text)
        name, sep, body = text.partition(":")
        entry = cls._entry(name, text)
        if not sep:
            return cls(name)
        if not entry.params:
            raise SpecError(
                f"policy {name!r} takes no parameter",
                spec=text, field="policy", value=text, position=len(name),
            )
        owner, offset = f"policy {name!r}", len(name) + 1
        if entry.positional:
            values = parse_positional(
                text, body.split(":"), offset, tuple(entry.params.items()),
                field="policy", owner=owner,
            )
            return cls(name, **dict(zip(entry.params, values)))
        params = parse_params(
            text, body, offset, entry.params,
            field=f"policy.{name}", owner=owner, param_field="policy",
        )
        return cls(name, **dict(params))

    def _given(self) -> List[Tuple[str, Any]]:
        return [
            (key, getattr(self, key)) for key in POLICY_TABLE[self.name].params
            if getattr(self, key) is not None
        ]

    def to_spec_str(self) -> str:
        entry, given = POLICY_TABLE[self.name], self._given()
        if not given:
            return self.name
        if entry.positional:
            body = ":".join(entry.params[k].render(v) for k, v in given)
        else:
            body = render_params(entry.params, given)
        return f"{self.name}:{body}"

    def to_json(self) -> Dict[str, Any]:
        # ``persist`` is emitted only when set so every pre-existing
        # document (and therefore every cache key) stays byte-identical.
        out: Dict[str, Any] = {"name": self.name, "k": self.k}
        if self.persist is not None:
            out["persist"] = self.persist
        return out

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "PolicySpec":
        name = str(payload["name"])
        entry = cls._entry(name)
        given = {k: v for k, v in payload.items() if k != "name" and v is not None}
        if not given:
            return cls(name)
        params = coerce_params(
            entry.params, given, field=f"policy.{name}", owner=f"policy {name!r}"
        )
        for key, value in params:
            check_bound(entry.params[key], value, field=f"policy.{key}")
        return cls(name, **dict(params))

    def build(self):
        """Instantiate a fresh policy object.

        Bare ``replicated`` (no ``:K``) leaves k unset so the policy
        follows the machine's ``replication_factor`` — this is what
        makes ``Experiment.replication(k)`` govern the replicated
        policy as documented.
        """
        return POLICY_TABLE[self.name].build(**dict(self._given()))


# -- fault schedule ------------------------------------------------------------

_WHEN = Param("float", None, "fault time: a makespan fraction or an absolute time")
_VICTIM = Param("int", None, "processor to kill")


@dataclass(frozen=True)
class FaultSpec:
    """A fail-silent crash schedule: ``((when, node), ...)``.

    ``mode`` fixes the meaning of ``when``: ``"frac"`` — a fraction of
    the fault-free baseline makespan (the scenario-grid convention);
    ``"time"`` — an absolute sim time (the ``repro run --fault``
    convention).  The grammar is ``T:NODE+T:NODE``; both entry points
    (CLI and point runners) parse through here, so malformed input
    yields one structured diagnostic everywhere.
    """

    entries: Tuple[Tuple[float, int], ...] = ()
    mode: str = "frac"

    def __post_init__(self):
        # An empty schedule has no times to interpret; normalizing its
        # mode makes empty specs compare equal and round-trip exactly.
        if not self.entries and self.mode != "frac":
            object.__setattr__(self, "mode", "frac")

    @classmethod
    def parse(cls, text: str, mode: str = "frac") -> "FaultSpec":
        text = str(text)
        # A "time:"/"frac:" prefix makes the string form self-describing
        # (to_spec_str emits it for non-default modes); it overrides the
        # caller's default.
        for prefix in ("time", "frac"):
            if text.startswith(prefix + ":"):
                mode = prefix
                text = text[len(prefix) + 1:]
                break
        if mode not in ("frac", "time"):
            raise SpecError(
                f"unknown fault mode {mode!r}",
                field="faults.mode", value=mode, allowed=("frac", "time"),
            )
        if not text:
            return cls((), mode)
        entries: List[Tuple[float, int]] = []
        offset = 0
        for item in text.split("+"):
            when_str, sep, node_str = item.partition(":")
            if not sep or not when_str or not node_str:
                raise SpecError(
                    f"fault must be {'TIME' if mode == 'time' else 'FRAC'}:NODE "
                    f"(e.g. {'600:2' if mode == 'time' else '0.5:1'}), got {item!r}",
                    spec=text, field="faults", value=item, position=offset,
                )
            when = coerce(_WHEN, "when", when_str, field="faults.when", spec=text, position=offset)
            node = coerce(
                _VICTIM, "node", node_str, field="faults.node",
                spec=text, position=offset + len(when_str) + 1,
            )
            entries.append((when, node))
            offset += len(item) + 1
        return cls(tuple(entries), mode)

    def to_spec_str(self) -> str:
        body = "+".join(f"{fmt_num(when)}:{node}" for when, node in self.entries)
        return body if self.mode == "frac" else f"{self.mode}:{body}"

    def to_json(self) -> Dict[str, Any]:
        return {"mode": self.mode, "entries": [[when, node] for when, node in self.entries]}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        try:
            return cls(
                tuple(
                    (float(when), int(node)) for when, node in payload.get("entries", ())
                ),
                str(payload.get("mode", "frac")),
            )
        except SpecError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise SpecError(
                f"malformed FaultSpec document: {exc}", field="faults", value=payload
            ) from None

    def __bool__(self) -> bool:
        return bool(self.entries)

    def schedule(self, base_makespan: Optional[float] = None):
        """Build the :class:`~repro.sim.failure.FaultSchedule`.

        Fraction-mode entries are placed at ``max(1.0, frac * base)``
        exactly as the historical point runners did.
        """
        from repro.sim.failure import Fault, FaultSchedule

        if not self.entries:
            return FaultSchedule.none()
        if self.mode == "time":
            return FaultSchedule.of(*(Fault(when, node) for when, node in self.entries))
        if base_makespan is None:
            raise SpecError(
                "fraction-mode fault schedule needs a baseline makespan",
                field="faults.mode", value=self.mode,
            )
        return FaultSchedule.of(
            *(Fault(max(1.0, when * base_makespan), node) for when, node in self.entries)
        )


# -- nemesis -------------------------------------------------------------------


def _fault_model(name: str, spec: Optional[str] = None, position: Optional[int] = None):
    from repro.faults.registry import all_models, get_model

    try:
        return get_model(name)
    except KeyError:
        raise SpecError(
            f"unknown fault model {name!r}",
            spec=spec, field="nemesis.model", value=name,
            allowed=tuple(all_models()), position=position,
        ) from None


@dataclass(frozen=True)
class NemesisClause:
    """One fault-model clause: model name + the explicitly-given params.

    ``params`` keeps only what the spec named (defaults are left to the
    registry), ordered canonically by the model's parameter declaration
    order.  Values are typed: float, int, or a node tuple.
    """

    model: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def to_spec_str(self) -> str:
        if not self.params:
            return self.model
        return f"{self.model}:{render_params(_fault_model(self.model).params, self.params)}"


@dataclass(frozen=True)
class NemesisSpec:
    """A composition of fault models: ``model:k=v,...+model:k=v,...``.

    Parsing validates names, parameter names, value types, and required
    parameters against the fault-model registry but stores *unscaled*
    values; :meth:`build` applies the baseline-makespan scaling to
    fraction (``×T``) parameters and arms the models.
    """

    clauses: Tuple[NemesisClause, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "NemesisSpec":
        text = str(text).strip()
        if not text:
            return cls(())
        clauses: List[NemesisClause] = []
        offset = 0
        for clause_text in text.split("+"):
            head, _, body = clause_text.partition(":")
            name = head.strip()
            info = _fault_model(name, text, offset)
            params = parse_params(
                text, body, offset + len(head) + 1, info.params,
                field=f"nemesis.{name}", owner=f"fault model {name!r}",
            )
            clauses.append(NemesisClause(name, params))
            offset += len(clause_text) + 1
        return cls(tuple(clauses))

    def to_spec_str(self) -> str:
        return "+".join(clause.to_spec_str() for clause in self.clauses)

    def to_json(self) -> Dict[str, Any]:
        return {
            "clauses": [
                {
                    "model": c.model,
                    "params": {
                        k: (list(v) if isinstance(v, tuple) else v) for k, v in c.params
                    },
                }
                for c in self.clauses
            ]
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "NemesisSpec":
        try:
            entries = list(payload.get("clauses", ()))
        except AttributeError:
            raise SpecError(
                "malformed NemesisSpec document (expected an object with 'clauses')",
                field="nemesis", value=payload,
            ) from None
        clauses = []
        for entry in entries:
            if not isinstance(entry, Mapping) or "model" not in entry:
                raise SpecError(
                    f"malformed nemesis clause {entry!r} (expected an object "
                    "with 'model')",
                    field="nemesis", value=entry,
                )
            info = _fault_model(str(entry["model"]))
            params = coerce_params(
                info.params, entry.get("params", {}),
                field=f"nemesis.{info.name}", owner=f"fault model {info.name!r}",
            )
            clauses.append(NemesisClause(info.name, params))
        return cls(tuple(clauses))

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def build(self, base_makespan: float = 1.0):
        """Arm the composition into a fresh ``NemesisSchedule``.

        ``base_makespan`` scales fraction-valued (``×T``) parameters, so
        specs stay workload-relative exactly like ``fault_frac``.
        """
        from repro.faults.model import NemesisSchedule

        if not self.clauses:
            return NemesisSchedule.none()
        models = []
        for clause in self.clauses:
            info = _fault_model(clause.model)
            kwargs = {
                key: (value * base_makespan if info.params[key].fraction else value)
                for key, value in clause.params
            }
            models.append(info.build(**kwargs))
        return NemesisSchedule.of(*models)


# -- machine -------------------------------------------------------------------

#: The machine table: shape fields, then one ``cost.NAME`` override per
#: :class:`~repro.config.CostModel` field (sorted, the canonical order).
MACHINE_PARAMS: Dict[str, Param] = {
    "processors": Param("int", 4, "processor count"),
    "topology": Param("choice", "complete", "interconnect", choices=TOPOLOGIES),
    "scheduler": Param("choice", "gradient", "load balancer", choices=SCHEDULERS),
    "replication": Param("int", 3, "replication factor for bare `replicated`"),
    **{
        f"cost.{name}": Param("float", getattr(CostModel, name), "cost-model override")
        for name in sorted(f.name for f in dataclass_fields(CostModel))
    },
}
_SHAPE = tuple(key for key in MACHINE_PARAMS if "." not in key)
_MACHINE_ARGS = dict(field="machine", owner="machine spec", noun="machine field")


@dataclass(frozen=True)
class MachineSpec:
    """The simulated multiprocessor: shape, routing, scheduling, costs.

    ``cost`` holds only explicit :class:`~repro.config.CostModel`
    overrides, as a sorted tuple of ``(field, value)`` pairs so the spec
    stays hashable and canonically ordered.
    """

    processors: int = MACHINE_PARAMS["processors"].default
    topology: str = MACHINE_PARAMS["topology"].default
    scheduler: str = MACHINE_PARAMS["scheduler"].default
    replication: int = MACHINE_PARAMS["replication"].default
    cost: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def _of(cls, params: Tuple[Tuple[str, Any], ...]) -> "MachineSpec":
        shape = {k: v for k, v in params if k in _SHAPE}
        cost = tuple((k[len("cost."):], v) for k, v in params if k not in _SHAPE)
        return cls(cost=cost, **shape)

    @classmethod
    def parse(cls, text: str) -> "MachineSpec":
        text = str(text).strip()
        return cls._of(parse_params(text, text, 0, MACHINE_PARAMS, **_MACHINE_ARGS))

    @classmethod
    def _from_doc(cls, doc: Mapping[str, Any]) -> "MachineSpec":
        cost = doc.get("cost", {})
        if not isinstance(cost, Mapping):
            raise SpecError(
                f"machine cost must be a mapping of field -> value, got {cost!r}",
                field="machine.cost", value=cost,
            )
        flat = {k: v for k, v in doc.items() if k != "cost"}
        flat.update((f"cost.{name}", value) for name, value in cost.items())
        return cls._of(coerce_params(MACHINE_PARAMS, flat, **_MACHINE_ARGS))

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "MachineSpec":
        """The scenario-grid shim: plain JSON params -> MachineSpec.

        The grid shares its namespace with the run-level params, so only
        the machine's own keys are read here.
        """
        return cls._from_doc({k: params[k] for k in _SHAPE + ("cost",) if k in params})

    def to_spec_str(self) -> str:
        shape = [
            (key, getattr(self, key)) for key in _SHAPE
            if getattr(self, key) != MACHINE_PARAMS[key].default
        ]
        cost = [(f"cost.{name}", value) for name, value in self.cost]
        return render_params(MACHINE_PARAMS, shape + cost)

    def to_json(self) -> Dict[str, Any]:
        return dict({key: getattr(self, key) for key in _SHAPE}, cost=dict(self.cost))

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "MachineSpec":
        # Unlike from_params, a machine JSON document owns its whole
        # object, so a typo'd key must not silently fall back to a default.
        return cls._from_doc(payload)

    def to_config(self, seed: int) -> SimConfig:
        """Build the live ``SimConfig`` (the seed lives on the RunSpec)."""
        return SimConfig(
            n_processors=self.processors,
            topology=self.topology,
            scheduler=self.scheduler,
            seed=int(seed),
            cost=CostModel(**dict(self.cost)),
            replication_factor=self.replication,
        )


# -- the composed run ----------------------------------------------------------

#: Parameter keys the ``machine`` point runner understands; anything else
#: in a scenario grid is a typo and is rejected with a SpecError.
_RUN_PARAM_KEYS = frozenset(
    {
        "workload", "policy", "seed", "processors", "topology", "scheduler",
        "replication", "cost", "faults", "fault_frac", "victim", "nemesis",
        "arrivals", "base_policy", "speedup_base_processors",
    }
)


@dataclass(frozen=True)
class RunSpec:
    """One complete, canonical experiment description.

    A RunSpec is everything a run needs and nothing more: workload,
    policy, machine, seed, fault schedule, nemesis, plus the two
    baseline knobs (``base_policy`` anchors fraction-mode fault
    placement; ``speedup_base_processors`` requests a speedup
    comparison).  It is frozen, equality-comparable, and serializes to
    the canonical JSON document the sweep cache keys on.
    """

    workload: WorkloadSpec
    policy: PolicySpec = field(default_factory=lambda: PolicySpec("rollback"))
    machine: MachineSpec = field(default_factory=MachineSpec)
    seed: int = 0
    faults: FaultSpec = field(default_factory=FaultSpec)
    nemesis: NemesisSpec = field(default_factory=NemesisSpec)
    base_policy: Optional[PolicySpec] = None
    speedup_base_processors: Optional[int] = None
    #: Open-loop arrival process (see repro.load); the empty spec means a
    #: closed-loop run, serialized without an "arrivals" key so every
    #: pre-existing document and cache key stays byte-identical.
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "RunSpec":
        """Parse a scenario-grid parameter dict (the legacy point shape).

        This is the shim every string-keyed consumer funnels through:
        ``fault_frac``/``victim`` fold into the fault schedule, string
        grammars parse into their typed specs, and unknown keys are
        rejected with a structured diagnostic.
        """
        unknown = sorted(set(params) - _RUN_PARAM_KEYS)
        if unknown:
            raise SpecError(
                f"unknown run parameter(s) {unknown}",
                field="params", value=unknown, allowed=tuple(sorted(_RUN_PARAM_KEYS)),
            )
        if "workload" not in params:
            raise SpecError("run parameters need a 'workload'", field="workload")
        if "seed" not in params:
            raise SpecError("run parameters need a 'seed'", field="seed")
        faults = FaultSpec.parse(str(params.get("faults", "")), mode="frac")
        if params.get("fault_frac") is not None:
            if faults.entries and faults.mode != "frac":
                raise SpecError(
                    "cannot combine a time-mode 'faults' schedule with fault_frac",
                    field="faults.mode", value=faults.mode, allowed=("frac",),
                )
            when = coerce(_WHEN, "fault_frac", params["fault_frac"], field="fault_frac")
            node = coerce(_VICTIM, "victim", params.get("victim", 1), field="victim")
            faults = FaultSpec(faults.entries + ((when, node),), "frac")
        return cls._of(
            params, machine=MachineSpec.from_params(params), seed=int(params["seed"]),
            faults=faults,
        )

    @classmethod
    def _of(cls, doc: Mapping[str, Any], **typed: Any) -> "RunSpec":
        """The string-valued fields grid params and JSON documents share,
        each parsed by its own grammar, plus the ``typed`` rest."""
        base_policy = doc.get("base_policy")
        sbp = doc.get("speedup_base_processors")
        return cls(
            workload=WorkloadSpec.parse(str(doc["workload"])),
            policy=PolicySpec.parse(str(doc.get("policy", "rollback"))),
            nemesis=NemesisSpec.parse(str(doc.get("nemesis", "") or "")),
            base_policy=PolicySpec.parse(str(base_policy)) if base_policy else None,
            speedup_base_processors=None if sbp is None else int(sbp),
            arrivals=ArrivalSpec.parse(str(doc.get("arrivals", "") or "")),
            **typed,
        )

    def to_json(self) -> Dict[str, Any]:
        """The canonical JSON document (round-trips via :meth:`from_json`)."""
        doc = {
            "schema": RUNSPEC_SCHEMA,
            "workload": self.workload.to_spec_str(),
            "policy": self.policy.to_spec_str(),
            "machine": self.machine.to_json(),
            "seed": self.seed,
            "faults": {"mode": self.faults.mode, "schedule": self.faults.to_spec_str()},
            "nemesis": self.nemesis.to_spec_str(),
            "base_policy": self.base_policy.to_spec_str() if self.base_policy else None,
            "speedup_base_processors": self.speedup_base_processors,
        }
        if self.arrivals:
            # Only open-loop specs carry the key: closed-loop documents —
            # and the sweep cache keys / run ids derived from them — stay
            # byte-identical to the pre-load era.
            doc["arrivals"] = self.arrivals.to_spec_str()
        return doc

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "RunSpec":
        doc_keys = (
            "schema", "workload", "policy", "machine", "seed", "faults",
            "nemesis", "arrivals", "base_policy", "speedup_base_processors",
        )
        try:
            schema = payload.get("schema")
            if schema != RUNSPEC_SCHEMA:
                raise SpecError(
                    f"unknown RunSpec schema {schema!r}",
                    field="schema", value=schema, allowed=(RUNSPEC_SCHEMA,),
                )
            unknown = sorted(set(payload) - set(doc_keys))
            if unknown:
                raise SpecError(
                    f"unknown RunSpec field(s) {unknown}",
                    field="json", value=unknown, allowed=doc_keys,
                )
            faults_doc = payload.get("faults", {})
            doc_mode = str(faults_doc.get("mode", "frac"))
            faults = FaultSpec.parse(str(faults_doc.get("schedule", "")), mode=doc_mode)
            if faults.entries and faults.mode != doc_mode:
                # the schedule string's "time:"/"frac:" prefix would
                # otherwise silently override the document's mode field
                raise SpecError(
                    f"faults mode {doc_mode!r} disagrees with the schedule's "
                    f"{faults.mode!r} prefix",
                    field="faults.mode", value=doc_mode, allowed=(faults.mode,),
                )
            return cls._of(
                payload, machine=MachineSpec.from_json(payload.get("machine", {})),
                seed=int(payload.get("seed", 0)), faults=faults,
            )
        except SpecError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            # a hand-edited or truncated document: one structured error,
            # never a raw KeyError/AttributeError traceback
            raise SpecError(
                f"malformed RunSpec document: {exc!r}", field="json", value=exc,
            ) from None

    def canonical_json(self) -> str:
        """Canonical text rendering (sorted keys, two-space indent)."""
        from repro.util.jsonio import canonical_dumps

        return canonical_dumps(self.to_json())

    def config(self) -> SimConfig:
        """The live ``SimConfig`` for this run."""
        return self.machine.to_config(self.seed)

    def validate(self) -> "RunSpec":
        """Cross-field checks beyond per-spec grammar validation."""
        try:
            self.config().validate()
        except ValueError as exc:
            raise SpecError(str(exc), field="machine") from None
        for _, node in self.faults.entries:
            if not (0 <= node < self.machine.processors):
                raise SpecError(
                    f"fault targets unknown processor {node}",
                    field="faults.node", value=node,
                    allowed=tuple(range(self.machine.processors)),
                )
        if self.nemesis:
            # Instantiate against a unit baseline purely for model-level
            # validation (probability ranges, node membership).
            try:
                for model in self.nemesis.build(1.0):
                    model.validate(self.machine.processors)
            except ValueError as exc:
                raise SpecError(str(exc), field="nemesis") from None
        if self.speedup_base_processors is not None and self.speedup_base_processors < 1:
            raise SpecError(
                "speedup_base_processors must be >= 1",
                field="speedup_base_processors", value=self.speedup_base_processors,
            )
        if self.arrivals:
            self.arrivals.validate()
        return self
