"""Versioned JSON checkpoint container shared by all model kinds.

Floats are stored as shortest-round-trip decimal strings (Python repr),
so save -> load is bit-exact.
"""

from __future__ import annotations

import json
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


def _decode_array(obj: dict) -> np.ndarray:
    return np.array([float(s) for s in obj["data"]]).reshape(obj["shape"])


def save_lstm(model: LstmModel, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "lstm",
        "config": asdict(model.config),
        "params": {k: _encode_array(getattr(model.params, k)) for k in LSTM_KEYS},
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


def _decode_fit(cls, encoded: dict):
    """Rebuild a classical fit from its dataclass fields, decoding each by
    its declared type. Stored keys the dataclass lacks are ignored."""
    types = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        value, declared = encoded[f.name], types[f.name]
        if declared is np.ndarray:
            values[f.name] = _decode_array(value)
        elif declared in (float, int):
            values[f.name] = declared(value)
        else:  # tuple[int, ...]
            values[f.name] = tuple(value)
    return cls(**values)


def load(path: str):
    """Load any checkpoint as the model it was saved from: an LstmModel,
    ArimaFit, HwFit or ProphetLiteFit, each ready to forecast."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc['format_version']}")
    if doc["kind"] == "lstm":
        params = LstmParams(**{k: _decode_array(v) for k, v in doc["params"].items()})
        cfg = TrainConfig(**doc["config"])
        losses = [float(s) for s in doc["epoch_losses"]]
        return LstmModel(params, cfg, losses)
    return _decode_fit(CLASSICAL_KINDS[doc["kind"]], doc["fields"])
