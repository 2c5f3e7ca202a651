"""The one parameter grammar behind every ``name:key=value,...`` spec.

Nemesis clauses, arrival processes, machine shapes and the
``incremental:persist=`` policy parameter all declare a table of
:class:`Param` and hand it to this module; the positional grammars
(``balanced:DEPTH:FANOUT:WORK``, ``replicated:K``, ``T:NODE``) declare
``(name, Param)`` tuples and reuse the same coercion and formatter.  So
every spec string follows one set of rules:

* a body is ``key=value`` items joined by ``,``; an empty body means no
  items, but an empty item (``a=1,,b=2``) is malformed;
* a key may appear once, must be declared, and every required
  parameter (``default=None``) must be given;
* a bad value is reported at the value's position; an unknown,
  duplicate or malformed item at the item's;
* a declared lower bound is checked by :func:`check_bound`: at parse
  for positional arguments, by ``ArrivalSpec.validate`` for arrivals;
* values render canonically (:func:`fmt_num`), given parameters only,
  in declaration order, so ``parse(render(x)) == x`` and the rendered
  form is a fixed point;
* JSON documents coerce through the same per-kind rules.

Every failure is a positioned :class:`~repro.errors.SpecError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecError

Table = Mapping[str, "Param"]


def fmt_num(value: Any) -> str:
    """Canonical, lossless rendering of a spec number.

    ``repr`` keeps full float precision (round-trip exactness); integral
    floats drop the trailing ``.0`` so ``span=40`` survives a
    parse/serialize cycle byte-for-byte.  Positive exponent signs are
    dropped (``1e+16`` -> ``1e16``, same float) because ``+`` is the
    entry/clause separator in the fault and nemesis grammars.
    """
    if isinstance(value, float) and math.isfinite(value):
        text = repr(value).replace("e+", "e")
        return text[:-2] if text.endswith(".0") else text
    return str(value)


#: What each kind accepts, for the "bad value" diagnostic.
_EXPECTED = {
    "int": "an integer",
    "float": "a number",
    "nodes": "node ids joined by '-'",
    "flag": "0 or 1",
}


def _nodes(value: Any) -> Tuple[int, ...]:
    parts = value.split("-") if isinstance(value, str) else value
    return tuple(int(part) for part in parts)


_COERCE = {"int": int, "flag": int, "float": float, "nodes": _nodes}


@dataclass(frozen=True)
class Param:
    """Declaration of one spec parameter.

    ``kind`` is ``int``, ``float``, ``nodes`` (``0-1-2``), ``flag``
    (``0``/``1``) or ``choice`` (one of ``choices``).  ``default=None``
    makes the parameter required.  ``at_least`` / ``above`` declare an
    inclusive / strict lower bound, checked by :func:`check_bound`.
    ``fraction`` marks time-like nemesis values given as fractions of
    the baseline makespan (``×T``).
    """

    kind: str
    default: Any = None
    doc: str = ""
    choices: Tuple[str, ...] = ()
    at_least: Optional[float] = None
    above: Optional[float] = None
    fraction: bool = False

    @property
    def required(self) -> bool:
        return self.default is None

    def render(self, value: Any) -> str:
        if self.kind == "nodes":
            return "-".join(str(n) for n in value)
        return fmt_num(value)

    def describe_default(self) -> str:
        return "required" if self.required else self.render(self.default)


def coerce(
    param: Param, key: str, value: Any, *, field: str,
    spec: Optional[str] = None, position: Optional[int] = None,
) -> Any:
    """Coerce a spec token or JSON value to ``param``'s type."""
    if param.kind == "choice":
        if value not in param.choices:
            raise SpecError(
                f"unknown {key} {value!r}", spec=spec, field=field, value=value,
                allowed=param.choices, position=position,
            )
        return value
    try:
        return _COERCE[param.kind](value)
    except (TypeError, ValueError):
        raise SpecError(
            f"bad value {value!r} for {field} (expected {param.kind}): "
            f"expected {_EXPECTED[param.kind]}",
            spec=spec, field=field, value=value, position=position,
        ) from None


def check_bound(
    param: Param, value: Any, *, field: str,
    spec: Optional[str] = None, position: Optional[int] = None,
) -> None:
    """Raise unless ``value`` respects ``param``'s lower bound."""
    if param.at_least is not None and not value >= param.at_least:
        why = f">= {fmt_num(param.at_least)}"
    elif param.above is not None and not value > param.above:
        why = f"> {fmt_num(param.above)}"
    else:
        return
    raise SpecError(
        f"{field} must be {why}, got {fmt_num(value)}",
        spec=spec, field=field, value=value, position=position,
    )


def lookup(
    table: Mapping[str, Any], name: str, *, what: str, field: str,
    spec: Optional[str] = None, position: Optional[int] = None,
    allowed: Optional[Tuple[str, ...]] = None,
) -> Any:
    """``table[name]``, or a SpecError naming the ``what`` that is unknown
    (``allowed`` defaults to the table's names)."""
    if name not in table:
        raise SpecError(
            f"unknown {what} {name!r}", spec=spec, field=field, value=name,
            allowed=tuple(table) if allowed is None else allowed, position=position,
        )
    return table[name]


def _unknown(keys: Sequence[str], table: Table, noun: str) -> Tuple[str, list, tuple]:
    """Name unknown ``keys``: ``(noun, names, allowed)``.

    A dotted key (``cost.latency``) is reported against its group —
    ``unknown cost field 'latency'`` — when the table declares that
    group; the allowed list abbreviates groups as ``cost.NAME``.
    """
    group = keys[0].rpartition(".")[0]
    members = [k for k in table if group and k.startswith(group + ".")]
    if members:
        cut = len(group) + 1
        names = [k[cut:] for k in keys if k.startswith(group + ".")]
        return f"{group} field", names, tuple(k[cut:] for k in members)
    allowed = dict.fromkeys(k.split(".")[0] + ".NAME" if "." in k else k for k in table)
    return noun, list(keys), tuple(allowed)


def _ordered(table: Table, given: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple((k, given[k]) for k in table if k in given)


def _require(
    table: Table, given: Mapping[str, Any], *, spec: Optional[str], field: str, owner: str,
) -> None:
    missing = [k for k, p in table.items() if p.required and k not in given]
    if missing:
        required = [k for k, p in table.items() if p.required]
        raise SpecError(
            f"{owner} requires parameters {required}; missing parameters: {missing}",
            spec=spec, field=field, value=tuple(missing), allowed=tuple(required),
        )


def parse_params(
    spec: str, body: str, offset: int, table: Table, *,
    field: str, owner: str, noun: str = "parameter", param_field: Optional[str] = None,
) -> Tuple[Tuple[str, Any], ...]:
    """Parse the ``key=value,...`` ``body`` found at ``offset`` in ``spec``.

    Returns the given ``(key, value)`` pairs in ``table`` order.  Item
    diagnostics name ``field`` (the clause); value diagnostics name
    ``param_field.key`` (``param_field`` defaults to ``field``).
    """
    given: Dict[str, Any] = {}
    for item in body.split(",") if body.strip() else ():
        key, eq, raw = item.partition("=")
        key_pos = offset + len(key) - len(key.lstrip())
        value_pos = offset + len(key) + 1 + len(raw) - len(raw.lstrip())
        key, raw = key.strip(), raw.strip()
        if not eq or not key or not raw:
            raise SpecError(
                f"expected key=value for {owner}, got {item!r}",
                spec=spec, field=field, value=item, position=offset,
            )
        if key not in table:
            what, names, allowed = _unknown([key], table, noun)
            raise SpecError(
                f"unknown {what} {names[0]!r} for {owner}",
                spec=spec, field=field, value=names[0], allowed=allowed, position=key_pos,
            )
        if key in given:
            raise SpecError(
                f"duplicate {noun} {key!r} for {owner}",
                spec=spec, field=field, value=key, position=key_pos,
            )
        given[key] = coerce(
            table[key], key, raw, field=f"{param_field or field}.{key}",
            spec=spec, position=value_pos,
        )
        offset += len(item) + 1
    _require(table, given, spec=spec, field=field, owner=owner)
    return _ordered(table, given)


def coerce_params(
    table: Table, payload: Any, *, field: str, owner: str, noun: str = "parameter",
) -> Tuple[Tuple[str, Any], ...]:
    """The JSON codec's half of :func:`parse_params`: a ``{key: value}``
    document, coerced by the same rules, in ``table`` order."""
    if not isinstance(payload, Mapping):
        raise SpecError(
            f"{owner} parameters must be an object, got {payload!r}",
            field=field, value=payload,
        )
    unknown = sorted(set(payload) - set(table))
    if unknown:
        what, names, allowed = _unknown(unknown, table, noun)
        raise SpecError(
            f"unknown {what}s {names} for {owner}",
            field=field, value=names, allowed=allowed,
        )
    given = {
        key: coerce(table[key], key, value, field=f"{field}.{key}")
        for key, value in payload.items()
    }
    _require(table, given, spec=None, field=field, owner=owner)
    return _ordered(table, given)


def render_params(table: Table, params: Iterable[Tuple[str, Any]]) -> str:
    """``key=value,...`` in the order given (callers keep table order)."""
    return ",".join(f"{key}={table[key].render(value)}" for key, value in params)


def parse_positional(
    spec: str, parts: Sequence[str], offset: int,
    params: Sequence[Tuple[str, Param]], *, field: str, owner: str,
) -> Tuple[Any, ...]:
    """Parse ``:``-separated ``parts`` (starting at ``offset`` in
    ``spec``) against ``params``: the required ones, then any optional
    tail.  Each value is coerced and bound-checked at its position."""
    lo = sum(1 for _, p in params if p.required)
    if not lo <= len(parts) <= len(params):
        want = f"{lo}" if lo == len(params) else f"{lo}..{len(params)}"
        raise SpecError(
            f"{owner} takes {want} args, got {len(parts)}",
            spec=spec, field=field, value=":".join(parts), position=offset,
        )
    values = []
    for (name, param), part in zip(params, parts):
        key = f"{field}.{name}"
        value = coerce(param, name, part, field=key, spec=spec, position=offset)
        check_bound(param, value, field=key, spec=spec, position=offset)
        values.append(value)
        offset += len(part) + 1
    return tuple(values)
