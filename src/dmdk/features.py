"""Visual feature files and the learned projection into the model width.

Feature maps arrive as plain-text matrices (one file per view, at most two
views per record) and pass through a trainable affine projection. Two views
are fused by stacking rows, so the decoder sees one token sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import Tensor, add, concat_rows, matmul, scale

FMAT_MAGIC = "FMAT"
FMAT_VERSION = "v1"


def load_features(path: str | Path) -> np.ndarray:
    """Read an FMAT v1 file: header `FMAT v1 <rows> <cols>`, then the rows."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != FMAT_MAGIC or header[1] != FMAT_VERSION:
            raise ValueError(f"{path}: expected header 'FMAT v1 <rows> <cols>'")
        try:
            rows, cols = int(header[2]), int(header[3])
        except ValueError:
            raise ValueError(f"{path}: non-integer dimensions in header") from None
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: dimensions must be positive, got {rows}x{cols}")
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) != rows:
        raise ValueError(f"{path}: header promises {rows} rows, file has {len(lines)}")
    out = np.empty((rows, cols))
    for r, line in enumerate(lines):
        cells = line.split()
        if len(cells) != cols:
            raise ValueError(
                f"{path}: row {r + 1} has {len(cells)} values, expected {cols}"
            )
        for c, cell in enumerate(cells):
            try:
                out[r, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} at row {r + 1}, column {c + 1}"
                ) from None
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: feature values must be finite")
    return out


def save_features(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got ndim={values.ndim}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FMAT_MAGIC} {FMAT_VERSION} {values.shape[0]} {values.shape[1]}\n")
        for row in values:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


@dataclass
class ProjectionParams:
    weight: Tensor  # d_in x d
    bias: Tensor  # 1 x d

    def __post_init__(self):
        if self.bias.shape != (1, self.weight.cols):
            raise ValueError(
                f"projection bias must be 1x{self.weight.cols}, got {self.bias.shape}"
            )


def project_features(raw: np.ndarray, params: ProjectionParams) -> Tensor:
    """Affine map raw @ W + b from the extractor width into the model width:
    the N x d visual tokens, N >= 1."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise ValueError(f"raw features must be 2-D, got ndim={raw.ndim}")
    if raw.shape[0] < 1:
        raise ValueError("a feature map needs at least one token row")
    if raw.shape[1] != params.weight.rows:
        raise ValueError(
            f"feature width {raw.shape[1]} does not match projection input {params.weight.rows}"
        )
    return add(matmul(Tensor(raw), params.weight), params.bias)


def fuse_views(a: Tensor, b: Tensor | None, mode: str = "concat") -> Tensor:
    """Merge up to two projected views; 'concat' stacks rows, 'mean' averages."""
    if b is None:
        return a
    if a.cols != b.cols:
        raise ValueError(f"view width mismatch: {a.cols} vs {b.cols}")
    if mode == "concat":
        return concat_rows([a, b])
    if mode == "mean":
        if a.rows != b.rows:
            raise ValueError(
                f"mean fusion needs equal token counts, got {a.rows} and {b.rows}"
            )
        return scale(add(a, b), 0.5)
    raise ValueError(f"unknown fusion mode {mode!r}; expected 'concat' or 'mean'")
