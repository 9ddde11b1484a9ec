"""Configuration serialization: reproducible experiment records.

Devices, design points, scenarios, plans, results and the service's
records serialise to plain JSON so a published run can be re-instantiated
exactly. One codec does all of it: :func:`to_record` / :func:`from_record`
generate, once per frozen dataclass, an encoder and a decoder from its
fields and type hints; what a hint cannot say is one row of :data:`_WIRE`.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from collections.abc import Mapping, Sequence
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .materials.base import DielectricMaterial
from .materials.registry import get_dielectric

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .experiments.base import ExperimentResult
    from .service.store import StoreRecord


class _Wire(NamedTuple):
    """How one record type's JSON differs from its plain field list."""

    name: str  # the record name error messages use
    required: "tuple[str, ...]" = ()  # keys every record must carry
    strict: bool = False  # reject unknown keys
    omit: "tuple[str, ...]" = ()  # left out while equal to their default
    rename: "Mapping[str, str]" = {}  # field -> wire key ("a.b": nested)
    defaults: "Mapping[str, Any]" = {}  # wire value decoded when absent
    order: "tuple[str, ...]" = ()  # wire key order, if not field order


#: One row per record type. An absent optional key decodes to ``defaults``,
#: else to the dataclass default, else to its type's zero ("", 0, None, []).
_WIRE = {
    "DeviceGeometry": _Wire("geometry", strict=True),
    "FloatingGateTransistor": _Wire("device", (
        "geometry", "tunnel_dielectric", "control_dielectric",
        "channel_work_function_ev", "floating_gate_work_function_ev",
        "control_gate_work_function_ev")),
    "DesignPoint": _Wire("design-point", strict=True),
    "PlotSeries": _Wire("plot-series", ("label", "x", "y")),
    "ShapeCheck": _Wire("shape-check", ("claim", "passed")),
    "ExperimentResult": _Wire(
        "experiment", ("experiment_id", "title", "x_label", "y_label", "series"),
        order=("experiment_id", "title", "x_label", "y_label", "parameters",
               "series", "checks", "log_y"),
    ),
    "Scenario": _Wire("scenario", ("experiment_id",), strict=True, omit=("label",)),
    "RunPlan": _Wire("run-plan", ("scenarios",), order=("name", "scenarios")),
    "CacheStats": _Wire("cache-stats", defaults={"per_cache": {}}),
    "ScenarioResult": _Wire(
        "scenario-result", ("scenario", "result"),
        rename={"cache_stats": "cache", "reused_hits": "cache.reused_hits"},
        order=("scenario", "elapsed_s", "cache_stats", "result"),
    ),
    "ShardReport": _Wire("shard-report", ("index", "positions", "seed"),
                         rename={"cache_stats": "cache"}),
    "ShardFailure": _Wire("shard-failure", ("index", "positions", "cause")),
    # Legacy objects hash without a checksum, so an empty one stays out.
    "StoreRecord": _Wire("store", ("hash", "scenario_result"), omit=("checksum",)),
    "JobRecord": _Wire("job", ("id", "status"), defaults={"plan_name": "plan"}),
    "JournalEntry": _Wire("journal-entry", ("kind",)),
    "LeaseRecord": _Wire("lease", ("plan_hash", "owner_id")),
    "FaultSpec": _Wire("fault-spec", ("kind",)),
}


def _jsonable(value: Any) -> Any:
    """Normalise one value to builtin JSON types (the canonical form).

    NumPy scalars are checked *before* ``float``, which ``np.float64``
    subclasses: otherwise ``1.5`` and ``np.float64(1.5)`` would serialise,
    and so content-hash (:mod:`repro.api.hashing`), differently.
    """
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def to_record(obj: Any) -> "dict[str, Any]":
    """Any record dataclass -> its JSON-safe dict."""
    return _codec(type(obj))[0](obj)


def from_record(cls: type, data: Any) -> Any:
    """JSON dict -> a validated ``cls``; a malformed one is a ConfigurationError."""
    return _codec(cls)[1](data)


# ----- the generated per-class converters ------------------------------

Encode = Decode = Callable[[Any], Any]

_CODECS: "dict[type, tuple[Encode, Decode]]" = {}
_NO_ZERO = object()  # a type with no zero value: its key is required
_KINDS = {type(None): "null", bool: "bool", int: "number", float: "number",
          str: "string", list: "list", tuple: "list", dict: "object"}


def _codec(cls: type) -> "tuple[Encode, Decode]":
    return _CODECS.get(cls) or _CODECS.setdefault(cls, _compile(cls))


def _shape_error(where: str, expected: str, raw: Any) -> ConfigurationError:
    got = _KINDS.get(type(raw), type(raw).__name__)
    return ConfigurationError(f"{where}: expected {expected}, got {got}")


def _checked(ok: Any, kind: str, convert: Decode, where: str) -> Decode:
    """Decoder that checks a value's JSON shape, then converts it."""

    def decode(raw: Any) -> Any:
        if not isinstance(raw, ok):
            raise _shape_error(where, kind, raw)
        try:
            return convert(raw)
        except ConfigurationError:  # an element's error already names it
            raise
        except (TypeError, ValueError) as exc:  # e.g. a string in an array
            raise ConfigurationError(f"{where}: {exc}") from exc

    return decode


def _scalar(py: type, where: str) -> Decode:
    """Decoder of a ``str``/``int``/``float``/``bool``: a shape check."""
    ok = {str: str, bool: (bool, np.bool_)}.get(py, (int, float, np.number))
    checked = _checked(ok, _KINDS[py], py, where)
    return lambda raw: raw if type(raw) is py else checked(raw)


def _per_cache(where: str) -> Decode:
    counters = _type_codec(Mapping[str, tuple[int, ...]], where)[1]
    return lambda raw: tuple(counters(raw).items())


#: Value hooks -- (encoder, decoder factory) -- for what a hint does
#: not say: keyed by type, or by ``"Class.field"`` for a single field.
_HOOKS: "dict[Any, tuple[Encode, Callable[[str], Decode]]]" = {
    np.ndarray: (lambda v: np.asarray(v, dtype=float).tolist(), lambda where: (
        _checked((list, tuple), "list", partial(np.asarray, dtype=float), where)
    )),
    DielectricMaterial: (lambda v: v.name, lambda where: (
        _checked(str, "string", get_dielectric, where)
    )),
    "CacheStats.per_cache": (
        lambda v: {name: list(counters) for name, counters in v}, _per_cache
    ),
}


def _type_codec(tp: Any, where: str) -> "tuple[Encode | None, Decode | None, Any]":
    """(encoder, decoder, wire zero) of one hint; ``None`` codes identity."""
    if tp in _HOOKS:
        encode, decoder = _HOOKS[tp]
        return encode, decoder(where), _NO_ZERO
    if tp is Any or tp is object:
        return _jsonable, None, None
    if tp in (str, int, float, bool):
        return (bool if tp is bool else None), _scalar(tp, where), tp()
    if dataclasses.is_dataclass(tp):
        return (*_codec(tp), {})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec, _ = _type_codec(inner, where)
        return (enc and (lambda v: None if v is None else enc(v)),
                dec and (lambda raw: None if raw is None else dec(raw)), None)
    if origin is Sequence or origin is tuple and args[-1] is ...:
        enc, dec, _ = _type_codec(args[0], where)
        to_wire = list if enc is None else (lambda v: [enc(x) for x in v])
        convert = tuple if dec is None else (lambda r: tuple([dec(x) for x in r]))
        return to_wire, _checked((list, tuple), "list", convert, where), []
    if origin is Mapping:
        enc, dec, _ = _type_codec(args[1], where)
        to_wire = dict if enc is None else (lambda v: {k: enc(x) for k, x in v.items()})
        convert = dict if dec is None else (lambda r: {k: dec(x) for k, x in r.items()})
        return to_wire, _checked(Mapping, "object", convert, where), {}
    raise TypeError(f"{where}: no wire form for {tp!r}")


def _compile(cls: type) -> "tuple[Encode, Decode]":
    """Generate one record class's straight-line encoder and decoder: source
    compiled once per class, as :mod:`dataclasses` does, so calls never reflect."""
    if (row := _WIRE.get(cls.__name__)) is None or not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls.__name__} has no wire format")
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    paths = {name: row.rename.get(name, name).split(".") for name in fields}
    nested = [name for name in fields if len(paths[name]) == 2]
    flat = row.order or [name for name in fields if name not in nested]
    env: "dict[str, Any]" = {"cls": cls, "Mapping": Mapping}
    encode_src, decode_src, required = [], [], set()
    # Nested fields go last, so the wire object holding them exists.
    for i, name in enumerate([*flat, *nested]):
        f, hook, hint = fields[name], f"{cls.__name__}.{name}", hints[name]
        encode, decode, zero = _type_codec(
            hook if hook in _HOOKS else hint, f"{row.name} record {name!r}"
        )
        env.update({f"e{i}": encode, f"d{i}": decode, f"t{i}": hint})
        value = f"obj.{name}" if encode is None else f"e{i}(obj.{name})"
        line = f"out{''.join(f'[{k!r}]' for k in paths[name])} = {value}"
        if name in row.omit:
            env[f"o{i}"] = f.default
            line = f"if obj.{name} != o{i}:\n        {line}"
        encode_src.append(f"    {line}\n")
        source = "data" if name in flat else f"data.get({paths[name][0]!r}, {{}})"
        key = paths[name][-1]
        got = f"{source}[{key!r}]"
        if hint in (str, int, float, bool):  # exact type: skip the call
            got = f"(r if type(r := {got}) is t{i} else d{i}(r))"
        elif decode is not None:
            got = f"d{i}({got})"
        # An absent key: the row's default, the dataclass's, or the zero.
        fallback = f"z{i}" if decode is None else f"d{i}(z{i})"
        if name in row.defaults:
            zero = row.defaults[name]
        elif f.default is not dataclasses.MISSING:
            zero, fallback = f.default, f"z{i}"
        elif f.default_factory is not dataclasses.MISSING:
            zero, fallback = f.default_factory, f"z{i}()"
        env[f"z{i}"] = zero
        if name in row.required or zero is _NO_ZERO:
            required.add(paths[name][0])
        else:
            got = f"{got} if {key!r} in {source} else {fallback}"
        decode_src.append(f"        {name}={got},\n")
    known = frozenset(path[0] for path in paths.values())

    def reject(data: Any) -> None:
        if not isinstance(data, Mapping):
            raise _shape_error(f"{row.name} record", "object", data)
        if missing := sorted(required - data.keys()):
            raise ConfigurationError(f"{row.name} record missing fields: {missing}")
        unknown = sorted(data.keys() - known)
        raise ConfigurationError(f"{row.name} record has unknown fields: {unknown}")

    env.update(required=frozenset(required), known=known, reject=reject)
    strict = " or not data.keys() <= known" if row.strict else ""
    exec(  # noqa: S102 - generated from the dataclass fields above
        "def encode(obj):\n    out = {}\n" + "".join(encode_src)
        + "    return out\n"
        "def decode(data):\n"
        "    if (type(data) is not dict and not isinstance(data, Mapping)\n"
        f"            or not required <= data.keys(){strict}):\n"
        "        reject(data)\n"
        "    return cls(\n" + "".join(decode_src) + "    )\n",
        env,
    )
    return env["encode"], env["decode"]


# ----- named entry points and files -------------------------------------


def experiment_result_to_dict(result: "ExperimentResult") -> "dict[str, Any]":
    """ExperimentResult -> JSON-safe dict (series included)."""
    return to_record(result)


def store_record_to_dict(record: "StoreRecord") -> "dict[str, Any]":
    """StoreRecord -> the result store's on-disk object (and HTTP body)."""
    return to_record(record)


def store_record_from_dict(data: Mapping[str, Any]) -> "StoreRecord":
    """Store object -> StoreRecord, arrays bit-identical to the original."""
    from .service.store import StoreRecord

    return from_record(StoreRecord, data)


def save_json(data: Mapping[str, Any], path: "str | Path") -> Path:
    """Write a record to disk with stable formatting; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: "str | Path") -> "dict[str, Any]":
    """Read a record back; malformed JSON is a ConfigurationError."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such record: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
