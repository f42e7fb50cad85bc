"""Train and forecast one member list whose input widths interleave, at
lookback 1 and 3, through `forecast_schemas`, and print each member's
digests.

    PYTHONPATH=src python3 tools/interleaved_members.py

The members are u2, u3, u1, u3 and u1, each under a config of its own but
the last, which shares the first's (and so its model): 30 epochs, hidden
size 32, the paper split. Each line holds the lookback, the member and the
SHA-256 of its model's `flat`, of its epoch losses and of its forecast, so
two runs can be compared for identical bits. `train_schema_model` trains the
univariate members first; a stack whose widths interleave would hold them in
the members' order. The bitwise gate (`tools/bitwise_gate.py`) runs this
script as one of its entries.
"""

from __future__ import annotations

import hashlib

import numpy as np

from casecast import TrainConfig, bundled_dataset_path, cli, load_csv
from casecast.lstm import forecast_schemas

CONFIGS = [TrainConfig(epochs=30, activation=activation, seed=seed)
           for activation, seed in (("elu", 1), ("tanh", 2), ("tanh", 3), ("elu", 4))]
MEMBERS = [("u2", CONFIGS[0]), ("u3", CONFIGS[1]), ("u1", CONFIGS[2]), ("u3", CONFIGS[3]),
           ("u1", CONFIGS[0])]


def _sha(array) -> str:
    return hashlib.sha256(np.asarray(array, dtype=float).tobytes()).hexdigest()


def main() -> None:
    ts = load_csv(bundled_dataset_path())
    run = cli.RunConfig()
    for lookback in (1, 3):
        matrix = forecast_schemas(ts, MEMBERS, run.train_start, run.train_end, 15, lookback)
        for (schema, cfg), (model, forecasts) in matrix.items():
            print(lookback, schema, cfg.activation, cfg.seed, _sha(model.params.flat),
                  _sha(model.epoch_losses), _sha(forecasts))


if __name__ == "__main__":
    main()
