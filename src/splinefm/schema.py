"""Field kinds, and encoding of raw rows into sparse features, one row
(`encode_row`) or one field column (`encode_columns`) at a time; both give
per-field index/value arrays of one layout. `encode_columns` evaluates each
distinct spline basis once, over the transformed values of every continuous
field that uses it.

A field is either categorical (one-hot with a reserved unknown slot),
binned numerical (one-hot over intervals), or continuous numerical
(basis-function values of the transformed value, consumed downstream
with a per-field sum reduction). Each kind owns its model-file document
(`to_doc`) and its rule for turning cells into one-hot codes (`codes`) or
transformed points (`points`), missing and unseen values included.
"""
from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .splines import SplineBasis, build_uniform
from .transforms import (
    DEFAULT_RESOLUTION,
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
    "infer_schema",
    "encode_row",
    "encode_columns",
    "table_columns",
]


@dataclass(frozen=True)
class Categorical:
    vocabulary: dict  # cell text -> dense index from 0
    unknown_slot: bool = True

    def __post_init__(self):
        if not isinstance(self.unknown_slot, bool):
            raise ConfigError(f"unknown_slot must be true or false, got {self.unknown_slot!r}")
        if sorted(self.vocabulary.values()) != list(range(len(self.vocabulary))):
            raise ConfigError("a vocabulary must give its values the indices 0..n-1")
        # Cells are looked up as text, and a model file keeps keys as text.
        if not all(isinstance(key, str) for key in self.vocabulary):
            raise ConfigError("every vocabulary value must be a string")

    @property
    def width(self) -> int:
        return len(self.vocabulary) + (1 if self.unknown_slot else 0)

    @property
    def unknown_index(self) -> int:
        if not self.unknown_slot:
            raise ConfigError("field has no reserved unknown slot")
        return len(self.vocabulary)

    def to_doc(self) -> dict:
        return {"kind": "categorical", "vocabulary": dict(self.vocabulary),
                "unknown_slot": self.unknown_slot}

    def codes(self, name: str, cells) -> np.ndarray:
        """The vocabulary index of each cell's text. An unseen value takes
        the unknown slot; with none it is a DataError naming the field."""
        lookup = self.vocabulary.get
        codes = np.array([lookup(str(v), -1) for v in cells], dtype=np.intp)
        if codes.min(initial=0) < 0:
            unseen = codes < 0
            if not self.unknown_slot:
                key = str(cells[int(np.argmax(unseen))])
                raise DataError(f"field {name!r}: unseen value {key!r} and no unknown slot")
            codes[unseen] = self.unknown_index
        return codes


@dataclass(frozen=True)
class BinnedNumerical:
    boundaries: np.ndarray = field(repr=False)  # strictly increasing, length N+1

    def __post_init__(self):
        try:
            b = np.array(self.boundaries, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("bin boundaries must be numbers") from None
        if b.ndim != 1 or len(b) < 2 or not (np.diff(b) > 0).all():
            raise ConfigError("bin boundaries must be strictly increasing, length >= 2")
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)

    @property
    def width(self) -> int:
        return len(self.boundaries) - 1

    def bin_of(self, z):
        """Right-open interval lookup of each `z`; out-of-range clamps to outer bins."""
        return np.clip(np.searchsorted(self.boundaries, z, side="right") - 1, 0, self.width - 1)

    def to_doc(self) -> dict:
        return {"kind": "binned", "boundaries": self.boundaries.tolist()}

    def codes(self, name: str, cells) -> np.ndarray:
        """The bin of each parsed cell; a missing value falls in the bin
        that holds the midpoint of the boundary range."""
        z = _parse_column(cells, name)
        z[np.isnan(z)] = 0.5 * (self.boundaries[0] + self.boundaries[-1])
        return self.bin_of(z)


@dataclass(frozen=True)
class ContinuousNumerical:
    transform: Transform
    basis: SplineBasis

    @property
    def width(self) -> int:
        return self.basis.num_functions

    def to_doc(self) -> dict:
        return {"kind": "continuous", "transform": self.transform.to_dict(),
                "basis": self.basis.to_dict()}

    def points(self, name: str, cells) -> np.ndarray:
        """The transformed value u of each parsed cell. A missing value is
        u = 0.5: the median under the quantile transform, the range
        midpoint under `minmax`."""
        z = _parse_column(cells, name)
        missing = np.isnan(z)
        u = np.full(len(z), 0.5)
        u[~missing] = self.transform.apply_many(z[~missing])
        return u


FieldKind = Categorical | BinnedNumerical | ContinuousNumerical


@dataclass(frozen=True)
class FieldSchema:
    field_id: int
    name: str
    kind: FieldKind

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
    # A basis -> the ids of the continuous fields that use it, in schema
    # order: the evaluations `encode_columns` makes.
    basis_groups: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise ConfigError("field names must be unique strings")
        if self.label_kind not in ("binary", "real"):
            raise ConfigError(f"label_kind must be binary or real, got {self.label_kind!r}")
        groups = {}
        for f in self.fields:
            if isinstance(f.kind, ContinuousNumerical):
                groups.setdefault(f.kind.basis, []).append(f.field_id)
        object.__setattr__(self, "basis_groups", groups)

    @property
    def total_features(self) -> int:
        return sum(f.width for f in self.fields)

    def field_named(self, name: str) -> FieldSchema:
        for f in self.fields:
            if f.name == name:
                return f
        raise ConfigError(f"no field named {name!r}")

    def to_dict(self) -> dict:
        fields = [{"name": f.name, **f.kind.to_doc()} for f in self.fields]
        return {"fields": fields, "label_kind": self.label_kind}

    @staticmethod
    def from_dict(doc: dict) -> "DatasetSchema":
        kinds = []
        for fdoc in doc["fields"]:
            if fdoc["kind"] == "categorical":
                kind = Categorical(dict(fdoc["vocabulary"]), fdoc["unknown_slot"])
            elif fdoc["kind"] == "binned":
                kind = BinnedNumerical(np.asarray(fdoc["boundaries"]))
            elif fdoc["kind"] == "continuous":
                kind = ContinuousNumerical(
                    transform=transform_from_dict(fdoc["transform"]),
                    basis=_basis_from_doc(fdoc["name"], fdoc["basis"]),
                )
            else:
                raise ConfigError(f"unknown field kind {fdoc['kind']!r}")
            kinds.append((fdoc["name"], kind))
        return build_schema(kinds, label_kind=doc["label_kind"])


def _basis_from_doc(name: str, doc: dict) -> SplineBasis:
    """The basis a model file gives the field `name`. Its `num_functions`
    and `degree` must be ints, at most `MAX_FUNCTIONS` and `MAX_DEGREE`, or
    it is a DataError naming them, raised before any array is built."""
    for key, most in (("num_functions", MAX_FUNCTIONS), ("degree", MAX_DEGREE)):
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise DataError(f"field {name!r}: basis {key} must be an integer, got {value!r}")
        if value > most:
            raise DataError(f"field {name!r}: basis {key} must be <= {most}, got {value}")
    return SplineBasis.from_dict(doc)


def build_schema(named_kinds, label_kind: str = "binary") -> DatasetSchema:
    """Assemble a DatasetSchema from (name, kind) pairs, numbering the fields."""
    fields = [FieldSchema(fid, name, kind) for fid, (name, kind) in enumerate(named_kinds)]
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
        shown = repr(raw) if isinstance(raw, str) else z  # a plain "inf" for a number
        raise DataError(f"field {field_name!r}: value {shown} is not finite")
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


def table_columns(table, names) -> tuple[dict, int | None]:
    """The columns in `names` that a table holds, by name, and its row
    count: None for a mapping with no column. A table is a mapping of column
    name -> sequence of cells, every column of one length, or a sequence of
    row dicts (column name -> cell) whose first row names its columns; a
    later row without one of them is a DataError."""
    if isinstance(table, Mapping):
        lengths = {len(cells) for cells in table.values()}
        if len(lengths) > 1:
            raise DataError(f"the columns of a table differ in length: {sorted(lengths)}")
        return {name: table[name] for name in names if name in table}, next(iter(lengths), None)
    rows, columns = list(table), {}
    for name in names:
        if rows and name not in rows[0]:
            continue
        try:
            columns[name] = list(map(operator.itemgetter(name), rows))
        except KeyError:
            raise _missing_column(name) from None
    return columns, len(rows)


def _config_int(value, key: str, minimum=None, maximum=None) -> int:
    """`value` as an int: an integer, or a float with an integral value
    (`1e3` is 1000). A bool, a fraction, a string, or a value below
    `minimum` or above `maximum` is a ConfigError naming the config `key`
    it came from."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if not integral or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key} must be <= {maximum}, got {value!r}")
    return int(value)


# Upper bounds of the integer settings that size an allocation or a loop,
# so that a value such as `1e300` fails before anything is built.
MAX_BINS = 1_000_000
MAX_FUNCTIONS = 10_000
MAX_DEGREE = 20  # basis evaluation costs O(degree**2) per point
MAX_RESOLUTION = 1_000_000


# The keys a field declaration may hold; `infer_schema` documents them.
FIELD_KEYS = frozenset(
    {"name", "kind", "bins", "binning", "num_functions", "degree", "transform", "resolution",
     "unknown_slot"}
)


def infer_schema(table, config: dict) -> DatasetSchema:
    """Build a schema from a raw sample table and a config's `schema`
    section: `label_kind` ("binary" or "real"; default "binary") and
    `fields`, a list of per-field declarations, each a dict with keys
    (`FIELD_KEYS`):

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
    decls = config.get("fields", [])
    names = [d.get("name") for d in decls]
    columns, n = table_columns(table, [name for name in names if isinstance(name, str)])
    if n == 0:  # None: a mapping with no column (a CSV file of labels only)
        raise DataError("cannot infer a schema from an empty sample")
    named_kinds = []
    for decl in decls:
        name = decl.get("name")
        if not isinstance(name, str):
            raise ConfigError(f"field declaration needs a 'name' string, got {name!r}")
        if name not in columns:
            raise ConfigError(f"declared field {name!r} not found in the sample header")
        kind = decl.get("kind")
        if kind == "categorical":
            seen = sorted({str(v) for v in columns[name]})
            vocab = {v: i for i, v in enumerate(seen)}
            named_kinds.append(
                (name, Categorical(vocab, unknown_slot=decl.get("unknown_slot", True)))
            )
        elif kind in ("binned", "continuous"):
            values = _parse_column(columns[name], name)
            values = values[~np.isnan(values)]
            if values.size == 0:
                raise DataError(f"field {name!r} has no valid numerical values")
            if values.min() == values.max():
                raise DataError(f"field {name!r} is constant: every value is {float(values[0])}")
            if kind == "binned":
                nbins = _config_int(decl.get("bins"), f"field {name!r}: bins", 1, MAX_BINS)
                mode = decl.get("binning", "quantile")
                if mode == "uniform":
                    bounds = np.linspace(values.min(), values.max(), nbins + 1)
                    if not (np.diff(bounds) > 0).all():
                        raise DataError(f"field {name!r}: the range {float(values.min())} to "
                                        f"{float(values.max())} is too narrow for {nbins} bins")
                elif mode == "quantile":
                    bounds = np.unique(
                        np.quantile(values, np.linspace(0.0, 1.0, nbins + 1))
                    )
                else:
                    raise ConfigError(f"unknown binning mode {mode!r}")
                named_kinds.append((name, BinnedNumerical(bounds)))
            else:
                basis = build_uniform(
                    _config_int(decl.get("num_functions", 8), f"field {name!r}: num_functions",
                                maximum=MAX_FUNCTIONS),
                    _config_int(decl.get("degree", 3), f"field {name!r}: degree",
                                maximum=MAX_DEGREE),
                )
                tmode = decl.get("transform", "quantile")
                if tmode == "quantile":
                    resolution = _config_int(decl.get("resolution", DEFAULT_RESOLUTION),
                                             f"field {name!r}: resolution", maximum=MAX_RESOLUTION)
                    transform = fit_quantile(values, resolution)
                elif tmode == "minmax":
                    transform = AffineTransform(float(values.min()), float(values.max()))
                else:
                    raise ConfigError(f"unknown transform mode {tmode!r}")
                named_kinds.append((name, ContinuousNumerical(transform, basis)))
        else:
            raise ConfigError(f"field {name!r}: unknown kind {kind!r}")
    return build_schema(named_kinds, label_kind=config.get("label_kind", "binary"))


def encode_row(schema: DatasetSchema, raw: dict) -> tuple[list, list]:
    """Encode one raw row (dict of field name -> raw value).

    Returns per-field (1, c_f) arrays `idx` and `val`, laid out as
    `encode_columns` lays out one row. A one-hot field takes its kind's
    `codes`; a continuous field is evaluated at one point, by the rule of
    `ContinuousNumerical.points`.
    """
    idx, val = [], []
    for f in schema.fields:
        k = f.kind
        try:
            value = raw[f.name]
        except KeyError:
            raise _missing_column(f.name) from None
        if isinstance(k, ContinuousNumerical):
            z = _parse_number(value, f.name)
            first, values = k.basis.eval_sparse(0.5 if math.isnan(z) else k.transform.apply(z))
            idx.append(first + np.arange(values.size)[None, :])
            val.append(values[None, :])
        else:
            idx.append(k.codes(f.name, [value])[:, None])
            val.append(np.array([[1.0]]))
    return idx, val


def encode_columns(schema: DatasetSchema, table) -> tuple[list, list]:
    """Encode the rows of a table one field column at a time.

    Returns per-field (n, c_f) arrays `idx` (field-local indices) and
    `val`, with c_f = degree+1 for continuous fields and 1 otherwise.
    Row r holds the arrays `encode_row` gives for row r, bit for bit: a
    continuous field's degree+1 active functions at their own indices
    (`first + arange(degree+1)`; at a knot some of the values are 0.0).
    Each field's kind turns its cells into one-hot `codes` or continuous
    `points`, missing and unseen values included. Invalid values raise the
    same errors as `encode_row`; when several fields hold one, the first
    field in schema order is reported.

    Continuous fields are parsed and transformed field by field, then
    the basis is evaluated once per group of `schema.basis_groups`, over
    the transformed points of every field in it; each such field's
    arrays are its rows of that one evaluation (views of one array per
    basis).
    """
    return _encode_columns(schema, *table_columns(table, [f.name for f in schema.fields]))


def _encode_columns(schema: DatasetSchema, columns: dict, n) -> tuple[list, list]:
    """`encode_columns` of the columns and row count `table_columns` gives;
    `pack` calls it directly, so that a table is turned into columns once."""
    idx, val, u = [], [], {}
    for f in schema.fields:
        k, column = f.kind, columns.get(f.name)
        if column is None:
            raise _missing_column(f.name)
        if isinstance(k, ContinuousNumerical):
            u[f.field_id] = k.points(f.name, column)
            idx.append(None)  # set below, from the field's basis group
            val.append(None)
        else:
            idx.append(k.codes(f.name, column)[:, None])
            val.append(np.ones((n, 1)))
    for basis, fids in schema.basis_groups.items():
        points = u[fids[0]] if len(fids) == 1 else np.concatenate([u[fid] for fid in fids])
        first, g_val = basis.eval_batch(points)
        g_idx = first[:, None] + np.arange(basis.degree + 1)
        for j, fid in enumerate(fids):
            idx[fid] = g_idx[j * n : (j + 1) * n]
            val[fid] = g_val[j * n : (j + 1) * n]
    return idx, val
