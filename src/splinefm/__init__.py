"""Factorization machines with B-spline basis encoding of numerical fields."""

__version__ = "0.1.0"

from .bin_export import BinnedExport, export_binned, make_boundaries
from .model import (
    FFMFieldConcat,
    FMIdentity,
    FmFMMatrices,
    FwFMScalars,
    ModelParams,
    backward,
    fit_pairwise_span,
    fit_span,
    forward,
    init_params,
    load_model,
    make_interaction,
    save_model,
    segmentized_curve,
)
from .schema import (
    BinnedNumerical,
    Categorical,
    ContinuousNumerical,
    DatasetSchema,
    EncodedRow,
    FieldSchema,
    build_schema,
    encode_columns,
    encode_row,
    infer_schema,
)
from .splines import SplineBasis, build_uniform
from .training import Metrics, TrainConfig, evaluate, pack, predict_scores, train
from .transforms import AffineTransform, QuantileTransform, fit_quantile

__all__ = [name for name in dir() if not name.startswith("_")]
