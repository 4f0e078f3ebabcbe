"""One codec for design points and results: dataclass <-> plain dict.

What lands on disk -- the persistent result store, sweep checkpoints --
and what a design point's digest hashes goes through :func:`to_plain`
and :func:`from_plain`.  Neither lists a field: each class's
``dataclasses.fields`` and type hints are read once into a cached
*field plan*, so a field added to a configuration or result dataclass
is covered -- hashed, stored, rebuilt -- without touching this module.

The dict forms are plain JSON types only (str/int/float/bool/None,
lists, string-keyed dicts) in field-declaration order, and the round
trip is bit-identical: nested dataclasses become nested dicts, tuples
become lists and come back as tuples, and enum-keyed dicts become
name-keyed dicts that come back in enum-declaration order with absent
members zero-filled.  Decoding is strict: a dict lacking any field, or
naming an enum member that does not exist, raises
:class:`SerializationError`.  Schema changes here must bump
:data:`repro.engine.store.SCHEMA_VERSION` so stale on-disk entries are
ignored rather than misread.

Schema v3: ``SimulationResult.metrics`` may carry the attribution
export -- integer component/outcome/bucket counters plus float
``attribution.latency.p50/p95/p99`` percentiles -- and, when a trace
ring overflowed during the run, ``trace.dropped_events`` (no longer
written).  All are plain JSON scalars in the existing flat metrics
dict, so the codec needs no shape change; the version bump exists to
retire v2 entries whose metrics predate those keys' semantics.

Schema v4: ``SimulationResult.counters`` may carry the interval-sampled
counter series (:mod:`repro.observability.counters`) -- a columnar dict
of an ``interval``, a ``columns`` name list, and parallel per-column
int lists -- or ``None`` when sampling was off.  It serializes as-is
(already plain JSON types), and lives only in the store payload; the
run ledger records a bounded digest instead.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing
from typing import Any, Callable

_SCALARS = (int, float, str, bool)


class SerializationError(ValueError):
    """A dict form does not match the schema the codec emits."""


def to_plain(obj: Any) -> dict:
    """The plain-JSON dict form of a dataclass instance."""
    out = {}
    for name, encode, _ in _plan(type(obj)):
        value = getattr(obj, name)
        out[name] = value if encode is None else encode(value)
    return out


def from_plain(cls: type, data: Any) -> Any:
    """Rebuild a ``cls`` instance from its :func:`to_plain` form."""
    if not isinstance(data, dict):
        raise SerializationError(
            f"{cls.__name__}: expected an object, got {type(data).__name__}"
        )
    plan = _plan(cls)
    missing = [name for name, _, _ in plan if name not in data]
    if missing:
        raise SerializationError(
            f"{cls.__name__}: missing fields: {', '.join(missing)}"
        )
    return cls(
        **{
            name: data[name] if decode is None else decode(data[name])
            for name, _, decode in plan
        }
    )


@functools.cache
def _plan(cls: type) -> tuple[tuple, ...]:
    """``(name, encode, decode)`` per field of one dataclass, built once
    per class; a ``None`` coder passes the value through unchanged."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"no codec for {cls!r}: not a dataclass")
    hints = typing.get_type_hints(cls)
    return tuple(
        (field.name, *_coders(hints[field.name]))
        for field in dataclasses.fields(cls)
    )


def _coders(hint: Any) -> tuple[Callable | None, Callable | None]:
    """``(encode, decode)`` for one field type."""
    if hint in _SCALARS:
        return None, None
    if dataclasses.is_dataclass(hint):
        return to_plain, functools.partial(from_plain, hint)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        options = [arg for arg in args if arg is not type(None)]
        if len(options) == 1:
            return _optional(_coders(options[0]))
        _require_plain(hint, options)
        return None, None
    if hint is dict or origin is dict:
        key_type, value_type = args or (str, Any)
        if value_type is not Any:
            _require_plain(hint, [value_type])
        if isinstance(key_type, type) and issubclass(key_type, enum.Enum):
            return _enum_dict(key_type)
        return dict, dict
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            encode, decode = _coders(args[0])
        else:
            _require_plain(hint, args)
            encode = decode = None
        if encode is None:
            return list, tuple
        return (
            lambda value: [encode(item) for item in value],
            lambda data: tuple(decode(item) for item in data),
        )
    raise TypeError(f"no codec for field type {hint!r}")


def _require_plain(hint: Any, members) -> None:
    for member in members:
        if _coders(member) != (None, None):
            raise TypeError(f"no codec for field type {hint!r}")


def _optional(coders):
    encode, decode = coders
    return (
        None if encode is None else lambda v: None if v is None else encode(v),
        None if decode is None else lambda v: None if v is None else decode(v),
    )


def _enum_dict(members: type[enum.Enum]):
    """Coders for a ``{member: count}`` dict keyed by member names."""
    names = {member.name for member in members}

    def encode(value: dict) -> dict:
        return {member.name: count for member, count in value.items()}

    def decode(data: dict) -> dict:
        unknown = set(data) - names
        if unknown:
            raise SerializationError(
                f"unknown {members.__name__} members: {sorted(unknown)}"
            )
        # Declaration order, so the dict equals the one a default
        # factory building every member would have produced.
        return {member: data.get(member.name, 0) for member in members}

    return encode, decode
