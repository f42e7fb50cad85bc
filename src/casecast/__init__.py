"""casecast: from-scratch LSTM and classical baselines for short-term
cumulative case-count forecasting."""

from .data import (
    NormalizationSpec,
    TimeSeries,
    WindowedDataset,
    bundled_dataset_path,
    fit_normalizer,
    load_csv,
    make_windows,
    slice_window,
)
from .lstm import (
    ForecastRun,
    LstmModel,
    LstmParams,
    TrainConfig,
    run_schema,
    train,
    train_schema_model,
)

__version__ = "0.1.0"
