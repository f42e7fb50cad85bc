"""Versioned JSON checkpoint container shared by all model kinds.

Floats are stored as shortest-round-trip decimal strings (Python repr),
so save -> load is bit-exact.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, fields

import numpy as np

from .classical import ArimaFit, HwFit, ProphetLiteFit
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


def save_lstm(model: LstmModel, path: str) -> None:
    """Write a model, a stack of one, as its one member's arrays; `load`
    reads them back through the LstmParams constructor, a stack of one."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "lstm",
        "config": asdict(model.config),
        "params": {k: _encode_array(a) for k in LSTM_KEYS for (a,) in [getattr(model.params, k)]},
        "epoch_losses": [repr(float(x)) for x in model.epoch_losses],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1)


def save_classical(fit: ArimaFit | HwFit | ProphetLiteFit, path: str) -> None:
    kind = {cls: name for name, cls in CLASSICAL_KINDS.items()}[type(fit)]
    encoded = {}
    for key, value in asdict(fit).items():
        if isinstance(value, np.ndarray):
            encoded[key] = _encode_array(value)
        elif isinstance(value, float):
            encoded[key] = repr(value)
        else:
            encoded[key] = value
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "fields": encoded}
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1)


# per classical kind, what its forecast needs of the fields beyond their types
FIT_RULES = {
    ArimaFit: (lambda f: f.order[0] >= 1 and f.order[1:] == (1, 0)
               and len(f.coefficients) == f.order[0],
               "'order' must be (p, 1, 0) with p >= 1 and 'coefficients' must hold p values"),
    HwFit: (lambda f: f.season_length >= 1 and len(f.seasonals) == f.season_length
            and 0.0 < f.phi <= 1.0,
            "'seasonals' must hold 'season_length' >= 1 values and 'phi' must lie in (0, 1]"),
    ProphetLiteFit: (lambda f: f.fourier_order >= 0 and len(f.coefficients)
                     == 2 + len(f.changepoints) + 2 * f.fourier_order,
                     "'coefficients' must hold 2 + len('changepoints') + 2 * 'fourier_order'"
                     " values, 'fourier_order' >= 0"),
}


def _decode_fit(cls, encoded: dict):
    """Rebuild a classical fit from its dataclass fields, decoding each by
    its declared type. Stored keys the dataclass lacks are ignored."""
    types = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        declared = types[f.name]
        if declared is np.ndarray:
            values[f.name] = _decode_array(encoded, f.name, "fields")
            if values[f.name].ndim != 1:
                raise ValueError(f"checkpoint field 'fields.{f.name}' must be 1-D")
        elif declared is float:
            values[f.name] = _float(_get(encoded, f.name, str, "fields"), f"fields.{f.name}")
        elif declared is int:
            values[f.name] = _get(encoded, f.name, int, "fields")
        else:  # tuple[int, int, int]
            order = _get(encoded, f.name, list, "fields")
            if len(order) != 3 or not all(type(n) is int for n in order):
                raise ValueError(f"checkpoint field 'fields.{f.name}' must hold three ints")
            values[f.name] = tuple(order)
    fit = cls(**values)
    holds, rule = FIT_RULES[cls]
    if not holds(fit):
        raise ValueError(f"checkpoint fields do not fit together: {rule}")
    return fit


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
        doc = json.load(fh)
    for key in ("format_version", "kind"):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"not a casecast checkpoint: no {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc['format_version']}")
    kinds = ("lstm", *CLASSICAL_KINDS)
    if doc["kind"] not in kinds:
        raise ValueError(f"unknown checkpoint kind {doc['kind']!r}, expected one of {kinds}")
    if doc["kind"] == "lstm":
        return _decode_lstm(doc)
    return _decode_fit(CLASSICAL_KINDS[doc["kind"]], _get(doc, "fields", dict))
