"""Versioned JSON checkpoint container shared by all model kinds.

Each field of a classical fit and of an LSTM config is written and read by
the type its dataclass declares for it (`typing.get_type_hints`), whatever
type the value came in: a numpy integer is written as an int. Floats are
stored as shortest-round-trip decimal strings (Python repr), so save ->
load is bit-exact; those of an LSTM config stay JSON numbers. What a fit's
fields must satisfy together is the fit class's own rule (its
`__post_init__` raises `FitError`), which `load` reports as a ValueError.
"""

from __future__ import annotations

import json
import math
import typing

import numpy as np

from .classical import ArimaFit, FitError, HwFit, ProphetLiteFit
from .lstm import LstmModel, LstmParams, TrainConfig

FORMAT_VERSION = 1
LSTM_KEYS = ("wx", "wh", "b", "dense_w", "dense_b")  # not LstmParams' memory order
CLASSICAL_KINDS = {"arima": ArimaFit, "hwaas": HwFit, "prophet-lite": ProphetLiteFit}


def _encode_array(a: np.ndarray) -> dict:
    return {
        "shape": list(a.shape),
        "data": [repr(float(v)) for v in np.asarray(a, dtype=float).ravel()],
    }


def _get(parent: dict, key: str, kind, path: str = ""):
    """`parent[key]` if it is of type `kind` (a type or a tuple of them,
    never a bool for a number); anything else is a ValueError naming the
    field `path.key`."""
    name = f"{path}.{key}" if path else key
    if key not in parent:
        raise ValueError(f"checkpoint field {name!r} is missing")
    value = parent[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        kinds = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError(f"checkpoint field {name!r} must be {kinds}, not {type(value).__name__}")
    return value


def _float(value, path: str) -> float:
    """A float stored as its repr string; anything else is a ValueError."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"checkpoint field {path!r} must hold floats written as strings")


def _decode_array(parent: dict, key: str, path: str) -> np.ndarray:
    """The array `parent[key]`, whose data must fill its shape."""
    obj = _get(parent, key, dict, path)
    path = f"{path}.{key}"
    shape, data = _get(obj, "shape", list, path), _get(obj, "data", list, path)
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
            for name, t in typing.get_type_hints(type(obj)).items()}


def save_lstm(model: LstmModel, path: str) -> None:
    """Write a model, a stack of one, as its one member's arrays; `load`
    reads them back through the LstmParams constructor, a stack of one."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "lstm",
        "config": _encode_fields(model.config, float),
        "params": {k: _encode_array(a) for k in LSTM_KEYS for (a,) in [getattr(model.params, k)]},
        "epoch_losses": [repr(float(x)) for x in model.epoch_losses],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1)


def save_classical(fit: ArimaFit | HwFit | ProphetLiteFit, path: str) -> None:
    kind = {cls: name for name, cls in CLASSICAL_KINDS.items()}[type(fit)]
    encoded = _encode_fields(fit, lambda v: repr(float(v)))
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "fields": encoded}
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1)


def _decode_fit(cls, encoded: dict):
    """Rebuild a classical fit from its dataclass fields, decoding each by
    its declared type. Stored keys the dataclass lacks are ignored. Fields
    the fit class rejects together (its FitError) are a ValueError."""
    values = {}
    for name, declared in typing.get_type_hints(cls).items():
        if declared is np.ndarray:
            values[name] = _decode_array(encoded, name, "fields")
            if values[name].ndim != 1:
                raise ValueError(f"checkpoint field 'fields.{name}' must be 1-D")
        elif declared is float:
            values[name] = _float(_get(encoded, name, str, "fields"), f"fields.{name}")
        elif declared is int:
            values[name] = _get(encoded, name, int, "fields")
        else:  # tuple[int, int, int]
            order = _get(encoded, name, list, "fields")
            if len(order) != 3 or not all(type(n) is int for n in order):
                raise ValueError(f"checkpoint field 'fields.{name}' must hold three ints")
            values[name] = tuple(order)
    try:
        return cls(**values)
    except FitError as exc:
        raise ValueError(f"checkpoint fields do not fit together: {exc}") from exc


def _decode_lstm(doc: dict) -> LstmModel:
    """Rebuild an LSTM from its config, its five arrays, whose shapes must
    be those of one model of `config.hidden` units, and its losses."""
    config = _get(doc, "config", dict)
    types = typing.get_type_hints(TrainConfig)
    unknown = sorted(config.keys() - types.keys())
    if unknown:
        raise ValueError(f"unknown checkpoint field 'config.{unknown[0]}'")
    settings = {name: _get(config, name, (int, float) if t is float else t, "config")
                for name, t in types.items()}
    try:
        cfg = TrainConfig(**settings)
    except ValueError as exc:
        raise ValueError(f"checkpoint field 'config': {exc}") from exc
    params = _get(doc, "params", dict)
    arrays = {k: _decode_array(params, k, "params") for k in LSTM_KEYS}
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
