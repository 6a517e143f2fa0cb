"""Convert a spline-encoded model into a conventional binned model.

For each bin the continuous field's reduced embedding p(z) and linear
term are evaluated at the bin's midpoint (midpoints taken in raw-value
space, then transformed), producing a model that needs only interval
lookup and the one-hot path to serve.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import ModelParams, _continuous_kind
from .schema import BinnedNumerical, build_schema

__all__ = ["BinnedExport", "make_boundaries", "export_binned"]

_LINE_ROWS = 256  # bins per chunk `BinnedExport.lines` turns into Python floats


@dataclass(frozen=True)
class BinnedExport:
    field_id: int
    boundaries: np.ndarray = field(repr=False)  # length N+1
    bin_embeddings: np.ndarray = field(repr=False)  # (N, k_f)
    bin_linear: np.ndarray = field(repr=False)  # (N,)
    midpoints: np.ndarray = field(repr=False)  # raw-space midpoints used

    @property
    def num_bins(self) -> int:
        return len(self.boundaries) - 1

    def lines(self) -> list:
        """One line per bin: low, high, midpoint, linear and the embedding,
        each float as `repr` writes it, joined by tabs."""
        b = self.boundaries
        table = np.c_[b[:-1], b[1:], self.midpoints, self.bin_linear, self.bin_embeddings]
        chunks = (table[i : i + _LINE_ROWS].tolist() for i in range(0, len(table), _LINE_ROWS))
        return ["\t".join(map(repr, row)) for chunk in chunks for row in chunk]


def make_boundaries(transform, num_bins: int, mode: str = "inverse_cdf"):
    """Bin boundaries for export.

    Modes: "inverse_cdf" places boundaries at transform.inverse_many(j/N);
    "geometric" builds a geometric ladder over the transform's range
    (positive domain required). Explicit boundaries go to `export_binned`
    as they are; it validates them.
    """
    if num_bins < 1:
        raise ConfigError(f"need at least 1 bin, got {num_bins}")
    if mode == "inverse_cdf":
        return transform.inverse_many(np.arange(num_bins + 1) / num_bins)
    if mode == "geometric":
        lo, hi = transform.inverse_many([0.0, 1.0])
        if lo <= 0.0:
            raise ConfigError("geometric boundaries require a positive domain")
        return np.geomspace(lo, hi, num_bins + 1)
    raise ConfigError(f"unknown boundary mode {mode!r}")


def export_binned(
    model: ModelParams, field_name: str, boundaries
) -> tuple[ModelParams, BinnedExport]:
    """Re-type one continuous field as binned, materializing per-bin rows."""
    kind = _continuous_kind(model, field_name)
    binned = BinnedNumerical(boundaries)
    boundaries = binned.boundaries
    lo, hi = kind.transform.inverse_many([0.0, 1.0])
    if boundaries[0] > lo or boundaries[-1] < hi:
        warnings.warn(
            f"boundaries [{boundaries[0]}, {boundaries[-1]}] do not cover the "
            f"transform range [{lo}, {hi}]; out-of-range values clamp to outer bins",
            stacklevel=2,
        )

    fid = model.schema.field_named(field_name).field_id
    midpoints = 0.5 * (boundaries[:-1] + boundaries[1:])
    B = kind.basis.eval_many(kind.transform.apply_many(midpoints))
    # Stacked (1, l) @ (l, k) products, one per bin, give the bits of a
    # per-midpoint dense (l,) @ (l, k) product; a single (N, l) @ (l, k)
    # product or an einsum sums in another order and changes the last bits.
    bin_embeddings = (B[:, None, :] @ model.V[fid])[:, 0]
    bin_linear = (B[:, None, :] @ model.w[fid][:, None])[:, 0, 0]

    schema = build_schema(
        [(f.name, binned if f.field_id == fid else f.kind) for f in model.schema.fields],
        label_kind=model.schema.label_kind,
    )
    w = [(bin_linear if i == fid else a).copy() for i, a in enumerate(model.w)]
    V = [(bin_embeddings if i == fid else v).copy() for i, v in enumerate(model.V)]
    new_model = ModelParams(schema=schema, interaction=model.interaction, w0=model.w0, w=w, V=V)
    export = BinnedExport(
        field_id=fid,
        boundaries=boundaries,
        bin_embeddings=bin_embeddings,
        bin_linear=bin_linear,
        midpoints=midpoints,
    )
    return new_model, export
