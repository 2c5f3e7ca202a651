"""Canonical, round-trippable arrival-process specs.

An :class:`ArrivalSpec` describes an *open-loop* traffic regime: instead
of one closed task tree, the simulated machine receives a stream of
independent task trees injected at the super-root over a configured
horizon.  The grammar is the shared one of :mod:`repro.api.grammar`
(round-trips byte-exactly, renders given parameters only, in
declaration order; every failure is a positioned
:class:`~repro.errors.SpecError`).

Grammar (one clause; an empty string means "closed-loop, no arrivals")::

    process:key=value,key=value,...

    poisson:rate=0.01,horizon=1500
    bursty:rate=0.05,on=200,off=400,horizon=2000,tasks=10
    diurnal:peak=0.02,horizon=3000,cap=6,overflow=backpressure

Processes
---------
``poisson``
    Memoryless arrivals at mean rate ``rate`` (arrivals per sim-time
    unit) over ``[0, horizon)``.
``bursty``
    Markov-modulated on/off: exponential bursts of mean length ``on``
    (Poisson arrivals at ``rate`` inside a burst) separated by
    exponential idle gaps of mean length ``off``.
``diurnal``
    A triangular ramp: the instantaneous rate rises linearly from 0 to
    ``peak`` at mid-horizon and back to 0 (thinning of a ``peak``-rate
    Poisson stream).

Common parameters: ``tasks`` (mean sampled tree size; each arrival's
tree size is uniform in ``[max(1, tasks//2), tasks + tasks//2]``),
``cap`` (finite per-node inbox capacity, 0 = unbounded) and
``overflow`` (what a full inbox does: ``drop`` = drop-with-notify,
``tail`` = silent tail drop recovered by ack timers, ``backpressure``
= deliver but defer the sender's next slice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.api.grammar import (
    Param,
    check_bound,
    coerce_params,
    lookup,
    parse_params,
    render_params,
)
from repro.errors import SpecError

#: Registered arrival-process names, in documentation order.
ARRIVAL_PROCESSES: Tuple[str, ...] = ("poisson", "bursty", "diurnal")

#: Overflow policies for finite inboxes, in documentation order.
OVERFLOW_POLICIES: Tuple[str, ...] = ("drop", "tail", "backpressure")

#: Soft budget on the *expected* number of arrivals implied by a spec;
#: validation rejects specs beyond it so a typo'd rate cannot schedule
#: an effectively unbounded simulation.
MAX_EXPECTED_ARRIVALS = 5000.0


#: Parameters every process takes.
_COMMON = {
    "tasks": Param(
        "int", 8, "mean tree size; sizes are uniform in [max(1, tasks//2), tasks + tasks//2]",
        at_least=1,
    ),
    "cap": Param("int", 0, "per-node inbox capacity (0 = unbounded)", at_least=0),
    "overflow": Param(
        "choice", "drop",
        "full-inbox policy: drop (drop-with-notify), tail (silent), backpressure",
        choices=OVERFLOW_POLICIES,
    ),
}
_HORIZON = Param("float", None, "arrival window [0, horizon)", above=0)

#: Parameter tables per process, in canonical (declaration) order.  The
#: lower bounds are checked by :meth:`ArrivalSpec.validate`.
PROCESSES: Dict[str, Dict[str, Param]] = {
    "poisson": {
        "rate": Param("float", None, "mean arrival rate (arrivals per time unit)", above=0),
        "horizon": _HORIZON,
        **_COMMON,
    },
    "bursty": {
        "rate": Param("float", None, "arrival rate inside a burst", above=0),
        "on": Param("float", None, "mean burst length (time units)", above=0),
        "off": Param("float", None, "mean idle gap between bursts", at_least=0),
        "horizon": _HORIZON,
        **_COMMON,
    },
    "diurnal": {
        "peak": Param("float", None, "peak arrival rate at mid-horizon", above=0),
        "horizon": _HORIZON,
        **_COMMON,
    },
}


@dataclass(frozen=True)
class ArrivalSpec:
    """One arrival process with its explicitly-given parameters.

    ``params`` holds only the parameters the user supplied, as
    ``(name, value)`` pairs in canonical declaration order — exactly the
    ``NemesisClause`` convention, so ``parse(s).to_spec_str()`` is a
    normal form and defaults can evolve without re-serializing old
    specs.  The empty spec (``process == ""``) is falsy and means
    "closed loop": no arrivals, no congestion, byte-identical behavior
    to a run that predates this subsystem.

    Examples
    --------
    >>> spec = ArrivalSpec.parse("poisson:horizon=1500,rate=0.01")
    >>> spec.to_spec_str()
    'poisson:rate=0.01,horizon=1500'
    >>> ArrivalSpec.parse(spec.to_spec_str()) == spec
    True
    >>> bool(ArrivalSpec.parse(""))
    False
    """

    process: str = ""
    params: Tuple[Tuple[str, Any], ...] = ()

    def __bool__(self) -> bool:
        return self.process != ""

    @classmethod
    def parse(cls, text: str) -> "ArrivalSpec":
        text = (text or "").strip()
        if not text:
            return cls()
        name, _, rest = text.partition(":")
        name = name.strip()
        table = lookup(
            PROCESSES, name, what="arrival process", field="arrivals.process",
            spec=text, position=0,
        )
        params = parse_params(
            text, rest, len(name) + 1, table,
            field=f"arrivals.{name}", owner=f"arrival process {name!r}",
        )
        return cls(process=name, params=params)

    def to_spec_str(self) -> str:
        if not self.process:
            return ""
        rendered = render_params(PROCESSES[self.process], self.params)
        return f"{self.process}:{rendered}" if rendered else self.process

    def to_json(self) -> Dict[str, Any]:
        return {"process": self.process, "params": {k: v for k, v in self.params}}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ArrivalSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"arrival document must be an object, got {type(payload).__name__}",
                field="arrivals", value=payload,
            )
        process = str(payload.get("process", "") or "")
        if not process:
            return cls()
        table = lookup(PROCESSES, process, what="arrival process", field="arrivals.process")
        params = coerce_params(
            table, payload.get("params", {}),
            field=f"arrivals.{process}", owner=f"arrival process {process!r}",
        )
        return cls(process=process, params=params)

    # -- semantics -------------------------------------------------------

    def resolved(self) -> Dict[str, Any]:
        """Effective parameters: declared defaults overlaid by the given
        values, in declaration order.  Empty dict for the empty spec."""
        if not self.process:
            return {}
        given = dict(self.params)
        return {
            k: given.get(k, info.default) for k, info in PROCESSES[self.process].items()
        }

    def expected_arrivals(self) -> float:
        """Mean number of arrivals the spec implies (0 for the empty spec)."""
        if not self.process:
            return 0.0
        p = self.resolved()
        if self.process == "poisson":
            return p["rate"] * p["horizon"]
        if self.process == "bursty":
            duty = p["on"] / (p["on"] + p["off"]) if p["on"] + p["off"] > 0 else 1.0
            return p["rate"] * p["horizon"] * duty
        # diurnal: triangular ramp integrates to peak * horizon / 2
        return p["peak"] * p["horizon"] / 2.0

    def validate(self) -> None:
        """Raise :class:`SpecError` unless the spec is semantically sound:
        every parameter within its declared bound and the expected
        arrival count within :data:`MAX_EXPECTED_ARRIVALS`."""
        if not self.process:
            return
        spec_str = self.to_spec_str()
        table = PROCESSES[self.process]
        for key, value in self.resolved().items():
            check_bound(
                table[key], value, field=f"arrivals.{self.process}.{key}", spec=spec_str
            )
        expected = self.expected_arrivals()
        if expected > MAX_EXPECTED_ARRIVALS:
            raise SpecError(
                f"arrival spec implies ~{expected:.0f} expected arrivals "
                f"(budget {MAX_EXPECTED_ARRIVALS:.0f}); lower rate or horizon",
                spec=spec_str,
                field=f"arrivals.{self.process}",
                value=expected,
            )

    def build(self):
        """Build the :class:`~repro.load.generator.LoadGenerator` for this
        spec (validating first).  The empty spec builds nothing."""
        if not self.process:
            return None
        self.validate()
        from repro.load.generator import LoadGenerator

        return LoadGenerator(self)

    def describe(self) -> str:
        return self.to_spec_str() or "<no arrivals>"
