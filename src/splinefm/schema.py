"""Per-field encoding rules, and encoding of raw rows into sparse features,
one row (`encode_row`) or one field column (`encode_columns`) at a time.

A field is either categorical (one-hot with a reserved unknown slot),
binned numerical (one-hot over intervals), or continuous numerical
(basis-function values of the transformed value, consumed downstream
with a per-field sum reduction).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .splines import SplineBasis, build_uniform
from .transforms import (
    AffineTransform,
    Transform,
    fit_quantile,
    transform_from_dict,
)

__all__ = [
    "Categorical",
    "BinnedNumerical",
    "ContinuousNumerical",
    "FieldSchema",
    "DatasetSchema",
    "EncodedRow",
    "infer_schema",
    "encode_row",
    "encode_columns",
]


@dataclass(frozen=True)
class Categorical:
    vocabulary: dict  # value -> dense index from 0
    unknown_slot: bool = True

    @property
    def width(self) -> int:
        return len(self.vocabulary) + (1 if self.unknown_slot else 0)

    @property
    def unknown_index(self) -> int:
        if not self.unknown_slot:
            raise ConfigError("field has no reserved unknown slot")
        return len(self.vocabulary)


@dataclass(frozen=True)
class BinnedNumerical:
    boundaries: np.ndarray = field(repr=False)  # strictly increasing, length N+1

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or len(b) < 2 or not (np.diff(b) > 0).all():
            raise ConfigError("bin boundaries must be strictly increasing, length >= 2")
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)

    @property
    def width(self) -> int:
        return len(self.boundaries) - 1

    def bin_of(self, z: float) -> int:
        """Right-open interval lookup; out-of-range clamps to outer bins."""
        j = int(np.searchsorted(self.boundaries, z, side="right")) - 1
        return min(max(j, 0), self.width - 1)


@dataclass(frozen=True)
class ContinuousNumerical:
    transform: Transform
    basis: SplineBasis

    @property
    def width(self) -> int:
        return self.basis.num_functions


FieldKind = Categorical | BinnedNumerical | ContinuousNumerical


@dataclass(frozen=True)
class FieldSchema:
    field_id: int
    name: str
    kind: FieldKind
    offset: int  # first global feature index owned by this field

    @property
    def width(self) -> int:
        return self.kind.width

    @property
    def reduction(self) -> str:
        # Continuous fields are always sum-reduced; everything else is
        # a plain one-hot path with the identity reduction.
        return "sum" if isinstance(self.kind, ContinuousNumerical) else "identity"


@dataclass(frozen=True)
class DatasetSchema:
    fields: tuple  # ordered FieldSchema tuple
    label_kind: str  # "binary" | "real"

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ConfigError("field names must be unique")
        if self.label_kind not in ("binary", "real"):
            raise ConfigError(f"label_kind must be binary or real, got {self.label_kind!r}")

    @property
    def total_features(self) -> int:
        return sum(f.width for f in self.fields)

    @property
    def num_fields(self) -> int:
        return len(self.fields)

    def field_named(self, name: str) -> FieldSchema:
        for f in self.fields:
            if f.name == name:
                return f
        raise ConfigError(f"no field named {name!r}")

    def to_dict(self) -> dict:
        out = []
        for f in self.fields:
            doc = {"name": f.name}
            k = f.kind
            if isinstance(k, Categorical):
                doc["kind"] = "categorical"
                doc["vocabulary"] = {str(v): i for v, i in k.vocabulary.items()}
                doc["unknown_slot"] = k.unknown_slot
            elif isinstance(k, BinnedNumerical):
                doc["kind"] = "binned"
                doc["boundaries"] = k.boundaries.tolist()
            else:
                doc["kind"] = "continuous"
                doc["transform"] = k.transform.to_dict()
                doc["basis"] = k.basis.to_dict()
            out.append(doc)
        return {"fields": out, "label_kind": self.label_kind}

    @staticmethod
    def from_dict(doc: dict) -> "DatasetSchema":
        kinds = []
        for fdoc in doc["fields"]:
            if fdoc["kind"] == "categorical":
                kinds.append(
                    (fdoc["name"], Categorical(dict(fdoc["vocabulary"]), fdoc["unknown_slot"]))
                )
            elif fdoc["kind"] == "binned":
                kinds.append((fdoc["name"], BinnedNumerical(np.asarray(fdoc["boundaries"]))))
            elif fdoc["kind"] == "continuous":
                kinds.append(
                    (
                        fdoc["name"],
                        ContinuousNumerical(
                            transform=transform_from_dict(fdoc["transform"]),
                            basis=SplineBasis.from_dict(fdoc["basis"]),
                        ),
                    )
                )
            else:
                raise ConfigError(f"unknown field kind {fdoc['kind']!r}")
        return build_schema(kinds, label_kind=doc["label_kind"])


@dataclass(frozen=True)
class EncodedRow:
    """Sparse feature vector with field provenance.

    Entries are (global_feature_index, value, field_id) with strictly
    increasing indices; one-hot fields contribute exactly one entry,
    continuous fields at most degree+1.
    """

    entries: tuple  # of (index, value, field_id)
    label: float


def build_schema(named_kinds, label_kind: str = "binary") -> DatasetSchema:
    """Assemble a DatasetSchema from (name, kind) pairs, assigning offsets."""
    fields = []
    offset = 0
    for fid, (name, kind) in enumerate(named_kinds):
        fields.append(FieldSchema(field_id=fid, name=name, kind=kind, offset=offset))
        offset += kind.width
    return DatasetSchema(fields=tuple(fields), label_kind=label_kind)


def _parse_number(raw, field_name: str) -> float:
    """Parse one raw numerical value; empty or NaN means missing (NaN)."""
    if raw is None or raw == "":
        return math.nan
    try:
        z = float(raw)
    except (TypeError, ValueError):
        raise DataError(f"field {field_name!r}: cannot parse {raw!r} as a number") from None
    if math.isinf(z):
        raise DataError(f"field {field_name!r}: value {raw!r} is not finite")
    return z


def _parse_column(column: list, field_name: str) -> np.ndarray:
    """`_parse_number` over a column. Plain `float` parses a column without
    empty, unparsable or infinite cells; any other column goes value by
    value, which yields NaN for the missing cells and raises the errors."""
    try:
        z = np.fromiter(map(float, column), dtype=float, count=len(column))
    except (TypeError, ValueError):
        z = None
    if z is None or np.isinf(z).any():
        z = np.array([_parse_number(v, field_name) for v in column], dtype=float)
    return z


def _missing_column(name: str) -> DataError:
    return DataError(f"column {name!r} of the schema is missing from the data")


def _column(rows, name: str) -> list:
    """The raw values of column `name`, one per row."""
    try:
        return list(map(operator.itemgetter(name), rows))
    except KeyError:
        raise _missing_column(name) from None


def infer_schema(rows, config) -> DatasetSchema:
    """Build a schema from a raw tabular sample and per-field declarations.

    `rows` is a sequence of dicts (header name -> raw value). `config` is
    a list of per-field declarations, each a dict with keys:

      name: column name (required)
      kind: "categorical" | "binned" | "continuous" (required)
      bins: bin count (binned; required)
      binning: "uniform" | "quantile" (binned; default "quantile")
      num_functions: basis size (continuous; default 8)
      degree: spline degree (continuous; default 3)
      transform: "quantile" | "minmax" (continuous; default "quantile")
      resolution: quantile transform resolution (default 1000)
      unknown_slot: reserve an unknown index (categorical; default True)
    """
    rows = list(rows)
    if not rows:
        raise DataError("cannot infer a schema from an empty sample")
    header = set(rows[0].keys())
    named_kinds = []
    for decl in config.get("fields", config) if isinstance(config, dict) else config:
        name = decl.get("name")
        if name is None:
            raise ConfigError("field declaration is missing 'name'")
        if name not in header:
            raise ConfigError(f"declared field {name!r} not found in the sample header")
        kind = decl.get("kind")
        if kind == "categorical":
            seen = sorted({str(v) for v in _column(rows, name)})
            vocab = {v: i for i, v in enumerate(seen)}
            named_kinds.append(
                (name, Categorical(vocab, unknown_slot=decl.get("unknown_slot", True)))
            )
        elif kind in ("binned", "continuous"):
            values = _parse_column(_column(rows, name), name)
            values = values[~np.isnan(values)]
            if values.size == 0:
                raise DataError(f"field {name!r} has no valid numerical values")
            if kind == "binned":
                nbins = int(decl["bins"])
                mode = decl.get("binning", "quantile")
                if mode == "uniform":
                    bounds = np.linspace(values.min(), values.max(), nbins + 1)
                elif mode == "quantile":
                    bounds = np.unique(
                        np.quantile(values, np.linspace(0.0, 1.0, nbins + 1))
                    )
                else:
                    raise ConfigError(f"unknown binning mode {mode!r}")
                if len(bounds) < 2:
                    raise DataError(f"field {name!r} is constant; cannot bin")
                named_kinds.append((name, BinnedNumerical(bounds)))
            else:
                basis = build_uniform(
                    int(decl.get("num_functions", 8)), int(decl.get("degree", 3))
                )
                tmode = decl.get("transform", "quantile")
                if tmode == "quantile":
                    transform = fit_quantile(values, int(decl.get("resolution", 1000)))
                elif tmode == "minmax":
                    transform = AffineTransform(float(values.min()), float(values.max()))
                else:
                    raise ConfigError(f"unknown transform mode {tmode!r}")
                named_kinds.append((name, ContinuousNumerical(transform, basis)))
        else:
            raise ConfigError(f"field {name!r}: unknown kind {kind!r}")
    label_kind = config.get("label_kind", "binary") if isinstance(config, dict) else "binary"
    return build_schema(named_kinds, label_kind=label_kind)


def encode_row(schema: DatasetSchema, raw: dict, label=0.0) -> EncodedRow:
    """Encode one raw row (dict of field name -> raw value).

    A missing binned value falls in the bin holding the midpoint of the
    boundary range. A missing continuous value is encoded at u = 0.5:
    the median under the quantile transform, the range midpoint under
    `minmax`.
    """
    entries = []
    for f in schema.fields:
        k = f.kind
        try:
            value = raw[f.name]
        except KeyError:
            raise _missing_column(f.name) from None
        if isinstance(k, Categorical):
            key = str(value)
            idx = k.vocabulary.get(key)
            if idx is None:
                if not k.unknown_slot:
                    raise DataError(
                        f"field {f.name!r}: unseen value {key!r} and no unknown slot"
                    )
                idx = k.unknown_index
            entries.append((f.offset + idx, 1.0, f.field_id))
        elif isinstance(k, BinnedNumerical):
            z = _parse_number(value, f.name)
            if math.isnan(z):
                z = 0.5 * (k.boundaries[0] + k.boundaries[-1])
            entries.append((f.offset + k.bin_of(z), 1.0, f.field_id))
        else:
            z = _parse_number(value, f.name)
            if math.isnan(z):
                u = 0.5  # missing: quantile median, or minmax range midpoint
            else:
                u = k.transform.apply(z)
            first, values = k.basis.eval_sparse(u)
            for i, v in enumerate(values):
                if v != 0.0:
                    entries.append((f.offset + first + i, float(v), f.field_id))
    return EncodedRow(entries=tuple(entries), label=float(label))


def encode_columns(schema: DatasetSchema, rows) -> tuple[list, list]:
    """Encode raw rows one field column at a time.

    Returns per-field (n, c_f) arrays `idx` (field-local indices) and
    `val`, with c_f = degree+1 for continuous fields and 1 otherwise.
    Row r holds the entries `encode_row` gives for rows[r], bit for bit:
    the nonzero entries of each field left-aligned in index order, and
    index 0 with value 0.0 after them. Missing values are encoded as in
    `encode_row`. Invalid values raise the same errors as `encode_row`;
    when several fields hold one, the first field in schema order is
    reported.
    """
    rows = list(rows)
    n = len(rows)
    idx, val = [], []
    for f in schema.fields:
        k = f.kind
        column = _column(rows, f.name)
        if isinstance(k, Categorical):
            lookup = k.vocabulary.get
            codes = np.array([lookup(str(v), -1) for v in column], dtype=np.intp)
            unseen = codes < 0
            if unseen.any():
                if not k.unknown_slot:
                    key = str(column[int(np.argmax(unseen))])
                    raise DataError(
                        f"field {f.name!r}: unseen value {key!r} and no unknown slot"
                    )
                codes[unseen] = k.unknown_index
            idx.append(codes[:, None])
            val.append(np.ones((n, 1)))
            continue
        z = _parse_column(column, f.name)
        missing = np.isnan(z)
        if isinstance(k, BinnedNumerical):
            b = k.boundaries
            z[missing] = 0.5 * (b[0] + b[-1])
            bins = np.searchsorted(b, z, side="right") - 1
            idx.append(np.clip(bins, 0, k.width - 1)[:, None])
            val.append(np.ones((n, 1)))
            continue
        # Missing: u = 0.5, the quantile median or the minmax range midpoint.
        u = np.full(n, 0.5)
        u[~missing] = k.transform.apply_many(z[~missing])
        first, values = k.basis.eval_batch(u)
        # Left-align the nonzero entries of each row, keeping index order;
        # the zeros after them become padding (index 0, value +0.0).
        order = np.argsort(values == 0.0, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
        padding = values == 0.0
        order += first[:, None]
        order[padding] = 0
        values[padding] = 0.0
        idx.append(order)
        val.append(values)
    return idx, val
