"""A scorer for `model.json` files written apart from `splinefm`.

It reads the model document directly, builds each continuous field's
clamped uniform knot vector itself, evaluates the B-spline basis with
the Cox–de Boor recursion over all functions at once (not the local
triangular scheme the package uses), applies the stored transform with
`np.interp` or the affine formula, and scores FM, FFM and FwFM models
densely. The benchmark's correctness checks compare the program's
outputs against it.
"""
from __future__ import annotations

import json

import numpy as np

__all__ = [
    "bspline_basis",
    "ReferenceModel",
    "logloss",
]

PROB_CLIP = 1e-7  # the clip the package documents for its logloss


def bspline_basis(u, num_functions: int, degree: int) -> np.ndarray:
    """Dense (len(u), num_functions) matrix of the clamped uniform basis.

    Cox–de Boor recursion with the 0/0 = 0 convention. The indicator
    functions of degree 0 are right-open, except that u = 1 belongs to
    the last non-empty interval so the basis interpolates at both ends.
    """
    u = np.clip(np.asarray(u, dtype=float).ravel(), 0.0, 1.0)
    intervals = num_functions - degree
    t = np.concatenate(
        [np.zeros(degree), np.linspace(0.0, 1.0, intervals + 1), np.ones(degree)]
    )
    # Degree 0: one indicator per knot interval t[i] <= u < t[i+1].
    B = ((t[:-1] <= u[:, None]) & (u[:, None] < t[1:])).astype(float)
    B[u == 1.0, num_functions - 1] = 1.0
    for p in range(1, degree + 1):
        nxt = np.zeros((u.size, B.shape[1] - 1))
        for i in range(B.shape[1] - 1):
            left = t[i + p] - t[i]
            right = t[i + p + 1] - t[i + 1]
            if left > 0.0:
                nxt[:, i] += (u - t[i]) / left * B[:, i]
            if right > 0.0:
                nxt[:, i] += (t[i + p + 1] - u) / right * B[:, i + 1]
        B = nxt
    return B


def _transform(doc: dict, z: np.ndarray) -> np.ndarray:
    if doc["kind"] == "quantile":
        return np.interp(z, doc["reference_points"], doc["levels"])
    if doc["kind"] == "affine":
        return np.clip((z - doc["low"]) / (doc["high"] - doc["low"]), 0.0, 1.0)
    raise ValueError(f"unknown transform kind {doc['kind']!r}")


def _number(raw) -> float:
    return float("nan") if raw is None or raw == "" else float(raw)


class ReferenceModel:
    """Scores raw rows (dicts of column name -> CSV string) against one
    `model.json` document."""

    def __init__(self, doc: dict):
        self.fields = doc["schema"]["fields"]
        self.inter = doc["interaction"]
        self.w0 = float(doc["w0"])
        self.w = np.asarray(doc["w"], dtype=float)
        self.V = [np.asarray(v, dtype=float) for v in doc["V"]]
        self.offsets = np.cumsum([0] + [len(v) for v in self.V])[:-1]
        if self.inter["variant"] not in ("fm", "ffm", "fwfm"):
            raise ValueError(f"no reference for variant {self.inter['variant']!r}")

    @staticmethod
    def load(path) -> "ReferenceModel":
        with open(path) as fh:
            return ReferenceModel(json.load(fh))

    def field_index(self, name: str) -> int:
        return [f["name"] for f in self.fields].index(name)

    def encode(self, fid: int, raw_values):
        """One field of raw column values as (index, dense basis): the
        one-hot index (n,) of a categorical or binned field, or the dense
        basis matrix (n, width) of a continuous one."""
        f = self.fields[fid]
        width = len(self.V[fid])
        if f["kind"] == "categorical":
            vocab = f["vocabulary"]
            idx = np.array([vocab.get(str(v), len(vocab)) for v in raw_values], dtype=int)
            if not f["unknown_slot"] and (idx == len(vocab)).any():
                raise ValueError(f"unseen value in field {f['name']!r}")
            return idx, None
        z = np.array([_number(v) for v in raw_values])
        if f["kind"] == "binned":
            b = np.asarray(f["boundaries"])
            z = np.where(np.isnan(z), 0.5 * (b[0] + b[-1]), z)
            return np.clip(np.searchsorted(b, z, side="right") - 1, 0, width - 1), None
        u = _transform(f["transform"], np.nan_to_num(z))
        u = np.where(np.isnan(z), 0.5, u)  # a missing value maps to u = 0.5
        return None, self.basis_at(fid, u)

    def basis_at(self, fid: int, u) -> np.ndarray:
        b = self.fields[fid]["basis"]
        return bspline_basis(u, b["num_functions"], b["degree"])

    def transform(self, fid: int, z) -> np.ndarray:
        return _transform(self.fields[fid]["transform"], np.asarray(z, dtype=float))

    def reduced(self, fid: int, X: np.ndarray):
        """Reduced embedding (n, k) and linear term (n,) of a dense basis X."""
        off = self.offsets[fid]
        return X @ self.V[fid], X @ self.w[off : off + X.shape[1]]

    def _pair(self, e: int, f: int, Pe, Pf) -> np.ndarray:
        variant = self.inter["variant"]
        if variant == "ffm":
            k = self.inter["block_dim"]
            return np.sum(Pe[:, f * k : (f + 1) * k] * Pf[:, e * k : (e + 1) * k], axis=1)
        dot = np.sum(Pe * Pf, axis=1)
        if variant == "fwfm":
            return self.inter["strengths"][e][f] * dot
        return dot

    def scores(self, rows) -> np.ndarray:
        """Raw (pre-link) scores of raw rows."""
        rows = list(rows)
        P = []
        total = np.full(len(rows), self.w0)
        for fid, f in enumerate(self.fields):
            idx, X = self.encode(fid, [r[f["name"]] for r in rows])
            if X is None:
                p, lin = self.V[fid][idx], self.w[self.offsets[fid] + idx]
            else:
                p, lin = self.reduced(fid, X)
            P.append(p)
            total += lin
        m = len(self.fields)
        for e in range(m):
            for f in range(e + 1, m):
                total += self._pair(e, f, P[e], P[f])
        return total


def logloss(scores, y) -> float:
    p = np.clip(1.0 / (1.0 + np.exp(-np.asarray(scores))), PROB_CLIP, 1.0 - PROB_CLIP)
    y = np.asarray(y, dtype=float)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))
