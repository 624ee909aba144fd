"""Visual feature files and the learned projection into the model width.

Feature maps arrive as plain-text matrices (one file per view, at most two
views per record) and pass through a trainable affine projection, whose node
keeps the features as a constant. ``model.encode_batch`` stacks a record's
views by rows. ``train()`` keeps the views it read until its next call, so
generating for, or training again on, files with the same bytes parses nothing.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import Tensor, affine
from .text import decode_utf8

FMAT_MAGIC = "FMAT"
FMAT_VERSION = "v1"

# The views of the last ``keep_views`` call, keyed by the SHA-256 of each
# file's bytes. A parse depends only on the bytes, so a hit is bitwise a parse.
_KEPT: dict[bytes, np.ndarray] = {}


def keep_views(records: Iterable[Iterable[str | Path]]) -> list[list[np.ndarray]]:
    """Each record's views, from its feature paths, for ``train()``, which
    holds them all anyway. Each distinct file content is parsed once, or taken
    from the views kept before, and these views replace the kept ones."""
    kept: dict[bytes, np.ndarray] = {}
    views = [[load_features(p, kept) for p in paths] for paths in records]
    _KEPT.clear()
    _KEPT.update(kept)
    return views


def load_features(path: str | Path, kept: dict[bytes, np.ndarray] | None = None) -> np.ndarray:
    """Read an FMAT v1 file: header `FMAT v1 <rows> <cols>`, then the rows.

    Every row is split and its value count checked against the header before
    the matrix is allocated, so a header alone cannot size it. Values are
    ASCII decimal numbers as Python's float() reads them, without underscores.

    The matrix is read-only. A file with the bytes of a view ``keep_views``
    kept returns that view unparsed. ``kept``, if given, is looked in first
    and receives the matrix under the digest; nothing else is stored.
    """
    path = Path(path)
    data = path.read_bytes()
    key = out = None
    if kept is not None or _KEPT:
        import hashlib  # on first use: its OpenSSL library adds about 4 MB RSS

        key = hashlib.sha256(data).digest()
        out = _KEPT.get(key) if kept is None else kept.get(key, _KEPT.get(key))
    if out is None:
        header, _, body = decode_utf8(data, str(path)).partition("\n")
        del data  # about 1 MB per view, not needed while the body is parsed
        out = _parse(header, body, path)
    if kept is not None:
        kept[key] = out
    return out


def _parse(header: str, body: str, path: Path) -> np.ndarray:
    header = header.split()
    if len(header) != 4 or header[0] != FMAT_MAGIC or header[1] != FMAT_VERSION:
        raise ValueError(f"{path}: expected header 'FMAT v1 <rows> <cols>'")
    try:
        rows, cols = int(header[2]), int(header[3])
    except ValueError:
        raise ValueError(f"{path}: non-integer dimensions in header") from None
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: dimensions must be positive, got {rows}x{cols}")
    lines = [cells for cells in map(str.split, body.splitlines()) if cells]
    if len(lines) != rows:
        raise ValueError(f"{path}: header promises {rows} rows, file has {len(lines)}")
    for r, cells in enumerate(lines):
        if len(cells) != cols:
            raise ValueError(
                f"{path}: row {r + 1} has {len(cells)} values, expected {cols}"
            )
    try:
        if not body.isascii() or "_" in body:  # float() reads 1_0 and non-ASCII digits
            raise ValueError
        out = np.array(lines, dtype=np.float64)  # parses each cell with Python's float()
    except ValueError:
        for r, cells in enumerate(lines):  # find the cell to name
            for c, cell in enumerate(cells):
                try:
                    if not cell.isascii() or "_" in cell:
                        raise ValueError
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at row {r + 1}, column {c + 1}"
                    ) from None
        # no cell holds it, so a non-ASCII character separates two values
        line = next(i for i, text in enumerate(body.split("\n"), start=2) if not text.isascii())
        raise ValueError(f"{path}: line {line} separates values by a non-ASCII character") from None
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: feature values must be finite")
    out.flags.writeable = False
    return out


@dataclass
class ProjectionParams:
    """The affine projection, shaped by ``model.ReportModel``."""

    weight: Tensor  # d_in x d
    bias: Tensor  # 1 x d


def project_features(raw: np.ndarray, params: ProjectionParams) -> Tensor:
    """Affine map raw @ W + b from the extractor width into the model width:
    the N x d visual tokens, N >= 1. ``raw`` holds finite float64 values, as
    ``load_features`` returns them, and is a constant of the node."""
    return affine(raw, params.weight, params.bias)

