"""Versioned JSON checkpoint container shared by all model kinds.

This module holds the file format alone; what a value may be is the rule of
the code that owns it. Each field of a classical fit and of an LSTM config
is written by the type its dataclass declares for it (`data.field_types`),
whatever type the value came in: a numpy integer is written as an int.
Floats are stored as shortest-round-trip decimal strings (Python repr), so
save -> load is bit-exact; those of an LSTM config stay JSON numbers.
`load` reads every field through one decoder, which turns the stored form
back into a value and checks it against the declared type by
`data.check_value`, the rule the dataclass itself runs, naming the field.
What a fit's fields must satisfy together is the fit class's own rule (its
`__post_init__` raises `FitError`), which `load` reports as a ValueError.
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
    """A float stored as its repr string; anything else is a ValueError."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"checkpoint field {path!r} must hold floats written as strings")


def _decode_array(stored, path: str):
    """The array stored as `{shape, data}`, whose data must fill its shape;
    any other stored value is left as it is, for the caller's type check."""
    if type(stored) is not dict:
        return stored
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


def _decode_fields(cls, encoded: dict, path: str, float_from=None) -> dict:
    """Every field of the dataclass `cls` from `encoded`, the inverse of
    `_encode_fields`: an array from its `{shape, data}`, a float by
    `float_from` (stored as itself when None), a tuple from a JSON list
    only, any other value as stored; each then checked against its declared
    type under `path.name`. Stored keys `cls` lacks are ignored."""
    decode = {np.ndarray: _decode_array, float: float_from,
              tuple[int, int, int]: lambda v, _: tuple(v) if type(v) is list else v}
    return {name: _get(encoded, name, t, path, decode.get(t))
            for name, t in field_types(cls).items()}


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


def _decode_fit(cls, encoded: dict):
    """Rebuild a classical fit from its dataclass fields; fields that do not
    fit together (the fit class's FitError) are a ValueError."""
    values = _decode_fields(cls, encoded, "fields", _float)
    try:
        return cls(**values)
    except FitError as exc:
        raise ValueError(f"checkpoint fields do not fit together: {exc}") from exc


def _decode_lstm(doc: dict) -> LstmModel:
    """Rebuild an LSTM from its config, its five arrays, whose shapes must
    be those of one model of `config.hidden` units, and its losses."""
    config = _get(doc, "config", dict)
    unknown = sorted(config.keys() - field_types(TrainConfig).keys())
    if unknown:
        raise ValueError(f"unknown checkpoint field 'config.{unknown[0]}'")
    settings = _decode_fields(TrainConfig, config, "config")
    try:
        cfg = TrainConfig(**settings)
    except ValueError as exc:
        raise ValueError(f"checkpoint field 'config': {exc}") from exc
    params = _get(doc, "params", dict)
    arrays = {k: _decode_array(_get(params, k, dict, "params"), f"params.{k}")
              for k in LSTM_KEYS}
    h, d = cfg.hidden, max((1, *arrays["wx"].shape[1:2]))  # d: wx's input width, at least 1
    shapes = {"wx": (4 * h, d), "wh": (4 * h, h), "b": (4 * h,), "dense_w": (d, h), "dense_b": (d,)}
    for key, shape in shapes.items():
        if arrays[key].shape != shape:
            raise ValueError(f"checkpoint field 'params.{key}' has shape {list(arrays[key].shape)},"
                             f" but hidden {h} and input width {d} need {list(shape)}")
    losses = [_float(v, "epoch_losses") for v in _get(doc, "epoch_losses", list)]
    return LstmModel(LstmParams(**arrays), cfg, losses)


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
        return _decode_lstm(doc)
    return _decode_fit(CLASSICAL_KINDS[doc["kind"]], _get(doc, "fields", dict))
