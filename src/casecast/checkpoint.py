"""Versioned JSON checkpoint container shared by all model kinds.

This module holds the file format alone; what a value may be is the rule of
the code that owns it. Each field of a classical fit and of an LSTM config
is written by the type its dataclass declares for it (`data.field_types`),
whatever type the value came in: a numpy integer is written as an int.
Floats are stored as shortest-round-trip decimal strings (Python repr), so
save -> load is bit-exact, and `load` takes back no other spelling of a
float; those of an LSTM config stay JSON numbers.

`load` reads every kind through one decoder, `_decode`: an LstmModel from
the whole file, a classical fit from its `fields`. It turns each declared
field's stored form back into a value (an LSTM's config, params and losses
by small decoders of their own), checks it against the declared type by
`data.check_value`, the rule the class itself runs, naming the field, and
builds the class. What the fields must satisfy together is the class's own
rule: a fit's `__post_init__` (FitError), TrainConfig's ranges, the shapes
of one LSTM in the LstmParams constructor, LstmModel's hidden size. `_build`
reports any of them, in one place, as a ValueError naming the field.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .classical import ArimaFit, FitError, HwFit, ProphetLiteFit
from .data import check_value, field_types
from .lstm import LstmModel, LstmParams, TrainConfig

FORMAT_VERSION = 1
LSTM_KEYS = ("wx", "wh", "b", "dense_w", "dense_b")  # not LstmParams' memory order
CLASSICAL_KINDS = {"arima": ArimaFit, "hwaas": HwFit, "prophet-lite": ProphetLiteFit}


def _text(value) -> str:
    """A float as its shortest round-trip decimal string."""
    return repr(float(value))


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": [_text(v) for v in np.asarray(a, dtype=float).ravel()]}


def _get(parent: dict, key: str, kind, path: str = "", decode=None):
    """The value stored as `parent[key]`, turned back from its stored form
    by `decode(stored, name)` when one is given, if it is of type `kind` by
    `data.check_value`; a missing entry or a value of another type is a
    ValueError naming the field `path.key`."""
    name = f"{path}.{key}" if path else key
    if key not in parent:
        raise ValueError(f"checkpoint field {name!r} is missing")
    value = parent[key] if decode is None else decode(parent[key], name)
    check_value(f"checkpoint field {name!r}", kind, value, ValueError)
    return value


def _float(value, path: str) -> float:
    """A float stored as the string `_text` writes for it, its repr;
    anything else, `"1_00"`, `" 100 "`, `"100"` or `"Infinity"` too, which
    `float` also reads, is a ValueError."""
    try:
        if isinstance(value, str) and repr(x := float(value)) == value:
            return x
    except ValueError:
        pass
    raise ValueError(f"checkpoint field {path!r} must hold floats written as strings")


def _decode_array(stored: dict, path: str) -> np.ndarray:
    """The array stored as `{shape, data}`, whose data must fill its shape."""
    shape, data = _get(stored, "shape", list, path), _get(stored, "data", list, path)
    if not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"checkpoint field '{path}.shape' must list sizes, not {shape}")
    if len(data) != math.prod(shape):
        raise ValueError(f"checkpoint field '{path}.data' holds {len(data)} values, "
                         f"but its shape {shape} needs {math.prod(shape)}")
    return np.array([_float(v, f"{path}.data") for v in data]).reshape(shape)


def _encode_fields(obj, float_as) -> dict:
    """Every field of the dataclass `obj`, written by its declared type, a
    float by `float_as`."""
    encode = {np.ndarray: _encode_array, float: float_as, int: int, str: str,
              tuple[int, int, int]: lambda order: [int(n) for n in order]}
    return {name: encode[t](getattr(obj, name))
            for name, t in field_types(type(obj)).items()}


def _build(cls, path: str, values: dict):
    """`cls(**values)`; the class's own rule, its FitError or ValueError, is
    a ValueError naming the field `path`, or at the root (`path` "") the
    fields that do not fit together."""
    try:
        return cls(**values)
    except (FitError, ValueError) as exc:
        place = f"field {path!r}:" if path else "fields do not fit together:"
        raise ValueError(f"checkpoint {place} {exc}") from exc


def _stored_as(kind, decode):
    """`decode` for a value stored as a `kind`, a JSON object or list; any
    other stored value is left as it is, for the caller's type check."""
    return lambda stored, name: decode(stored, name) if type(stored) is kind else stored


def _decode_config(stored: dict, path: str) -> TrainConfig:
    """The TrainConfig stored as an object; unlike a fit's fields, a key
    that is no setting is a ValueError."""
    unknown = sorted(stored.keys() - field_types(TrainConfig).keys())
    if unknown:
        raise ValueError(f"unknown checkpoint field '{path}.{unknown[0]}'")
    return _decode(TrainConfig, stored, path)


def _decode_params(stored: dict, path: str) -> LstmParams:
    """The LstmParams stored as its five `{shape, data}` arrays, read in
    the order of LSTM_KEYS."""
    return _build(LstmParams, path, {k: _decode_array(_get(stored, k, dict, path), f"{path}.{k}")
                                     for k in LSTM_KEYS})


def _decode(cls, encoded: dict, path: str, float_from=None):
    """The dataclass `cls` built from its fields in `encoded`, the inverse of
    the writers: an array from its `{shape, data}`, a float by `float_from`
    (stored as itself when None), a tuple from a JSON list only, a config,
    an LSTM's params and its losses by their own decoders, any other value
    as stored; each then checked against its declared type under
    `path.name`, and `cls` built by `_build`. Stored keys `cls` lacks are
    ignored."""
    decode = {np.ndarray: _stored_as(dict, _decode_array), float: float_from,
              tuple[int, int, int]: _stored_as(list, lambda v, _: tuple(v)),
              list[float]: _stored_as(list, lambda v, name: [_float(x, name) for x in v]),
              TrainConfig: _stored_as(dict, _decode_config),
              LstmParams: _stored_as(dict, _decode_params)}
    return _build(cls, path, {name: _get(encoded, name, t, path, decode.get(t))
                              for name, t in field_types(cls).items()})


def _write(path: str, kind: str, **body) -> None:
    """Write a checkpoint of `kind` whose body holds `body`'s entries in order."""
    with open(path, "w", newline="\n") as fh:
        json.dump({"format_version": FORMAT_VERSION, "kind": kind, **body}, fh, indent=1)


def save_lstm(model: LstmModel, path: str) -> None:
    """Write a model, a stack of one, as its one member's arrays; `load`
    reads them back through the LstmParams constructor, a stack of one."""
    _write(path, "lstm", config=_encode_fields(model.config, float),
           params={k: _encode_array(a) for k in LSTM_KEYS for (a,) in [getattr(model.params, k)]},
           epoch_losses=[_text(x) for x in model.epoch_losses])


def save_classical(fit: ArimaFit | HwFit | ProphetLiteFit, path: str) -> None:
    kind = {cls: name for name, cls in CLASSICAL_KINDS.items()}[type(fit)]
    _write(path, kind, fields=_encode_fields(fit, _text))


def load(path: str):
    """Load any checkpoint as the model it was saved from: an LstmModel,
    ArimaFit, HwFit or ProphetLiteFit, each ready to forecast. A file that
    is no checkpoint of a known version and kind, or whose body is
    malformed, is a ValueError that names the field at fault."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # json recurses once per level of nesting
            raise ValueError("not a casecast checkpoint: its JSON nests too deeply") from None
    for key in ("format_version", "kind"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"not a casecast checkpoint: no {key!r}")
    if type(doc["format_version"]) is not int or doc["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc['format_version']!r}")
    kinds = ("lstm", *CLASSICAL_KINDS)
    if doc["kind"] not in kinds:
        raise ValueError(f"unknown checkpoint kind {doc['kind']!r}, expected one of {kinds}")
    if doc["kind"] == "lstm":
        return _decode(LstmModel, doc, "")
    return _decode(CLASSICAL_KINDS[doc["kind"]], _get(doc, "fields", dict), "fields", _float)
