"""Scaled dot-product attention, multi-head attention, feed-forward, embeddings.

Shapes follow one convention throughout: a sequence is rows, the model width
``d`` is columns. ``scaled_dot_attention(x, y, ...)`` reads queries from ``x``
and keys/values from ``y``, so the output always has ``x.rows`` rows.

Attention is two steps: ``project_kv`` projects the keys and values of ``y``,
and ``attend`` attends queries from ``x`` over them, causally from a position
offset if asked. Incremental decoding projects a memory once and attends over
it at every step; ``scaled_dot_attention`` and ``multi_head_attention`` run the
two steps back to back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .autograd import (
    Tensor,
    add,
    concat_cols,
    embedding,
    matmul,
    relu,
    scale,
    softmax_rows,
    transpose,
)

# Finite stand-in for -inf: keeps every tensor finite while exp() underflows
# masked scores to exactly 0 after max subtraction.
MASKED_SCORE = -1e9


@dataclass
class HeadParams:
    """Projection triple for one attention head; each matrix is d x d_n."""

    wq: Tensor
    wk: Tensor
    wv: Tensor

    def __post_init__(self):
        if not (self.wq.shape == self.wk.shape == self.wv.shape):
            raise ValueError(
                f"head projections must share a shape: {self.wq.shape}, "
                f"{self.wk.shape}, {self.wv.shape}"
            )

    @property
    def width(self) -> int:
        return self.wq.cols


@dataclass
class MhaParams:
    heads: list[HeadParams]
    wo: Tensor  # d x d output projection over the concatenated heads

    def __post_init__(self):
        if not self.heads:
            raise ValueError("multi-head attention needs at least one head")
        d = self.heads[0].wq.rows
        n = len(self.heads)
        if d % n != 0:
            raise ValueError(f"model width {d} not divisible by head count {n}")
        for h in self.heads:
            if h.wq.rows != d or h.width != d // n:
                raise ValueError(
                    f"every head must be {d}x{d // n}, got {h.wq.shape}"
                )
        if self.wo.shape != (d, d):
            raise ValueError(f"output projection must be {d}x{d}, got {self.wo.shape}")

    @property
    def d(self) -> int:
        return self.heads[0].wq.rows

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    @classmethod
    def create(cls, d: int, n_heads: int, rng: np.random.Generator) -> "MhaParams":
        if d % n_heads != 0:
            raise ValueError(f"model width {d} not divisible by head count {n_heads}")
        dn = d // n_heads
        std = 1.0 / math.sqrt(d)
        heads = [
            HeadParams(
                Tensor(rng.normal(0.0, std, (d, dn))),
                Tensor(rng.normal(0.0, std, (d, dn))),
                Tensor(rng.normal(0.0, std, (d, dn))),
            )
            for _ in range(n_heads)
        ]
        return cls(heads, Tensor(rng.normal(0.0, std, (d, d))))


def causal_mask(length: int, offset: int = 0) -> np.ndarray:
    """MASKED_SCORE above the causal diagonal for ``length`` query rows.

    Query row h sits at position offset + h and sees key columns <= offset + h;
    there are offset + length key columns.
    """
    return np.triu(np.full((length, offset + length), MASKED_SCORE), k=offset + 1)


def project_kv(y: Tensor, head: HeadParams) -> tuple[Tensor, Tensor]:
    """Keys and values of one head over the rows of ``y``."""
    if y.cols != head.wk.rows:
        raise ValueError(f"key width {y.cols} does not match projection {head.wk.shape}")
    return matmul(y, head.wk), matmul(y, head.wv)


def attend(
    x: Tensor,
    k: Tensor,
    v: Tensor,
    head: HeadParams,
    offset: int | None = None,
    with_weights: bool = False,
):
    """softmax(q k^T / sqrt(d_n)) v with q projected from x.

    With an ``offset`` the attention is causal: query row i sits at position
    offset + i and sees key columns <= offset + i, so ``k`` must hold exactly
    offset + x.rows rows. ``None`` lets every query see every key.
    """
    if x.cols != head.wq.rows:
        raise ValueError(f"query width {x.cols} does not match projection {head.wq.shape}")
    q = matmul(x, head.wq)
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(head.width))
    if offset is not None:
        if k.rows != offset + x.rows:
            raise ValueError(
                f"causal attention at offset {offset} needs {offset + x.rows} key rows, "
                f"got {k.rows}"
            )
        if x.rows > 1:  # a single query row at the end sees every key
            scores = add(scores, Tensor(causal_mask(x.rows, offset)))
    weights = softmax_rows(scores)
    out = matmul(weights, v)
    return (out, weights) if with_weights else out


def scaled_dot_attention(
    x: Tensor,
    y: Tensor,
    head: HeadParams,
    causal: bool = False,
    with_weights: bool = False,
):
    """One head: softmax(q k^T / sqrt(d_n)) v with q from x, k and v from y."""
    if causal and x.rows != y.rows:
        raise ValueError(
            f"causal attention requires matching lengths, got {x.rows} and {y.rows}"
        )
    k, v = project_kv(y, head)
    return attend(x, k, v, head, 0 if causal else None, with_weights)


def project_heads(y: Tensor, params: MhaParams) -> list[tuple[Tensor, Tensor]]:
    """Per-head (keys, values) over ``y``, for ``attend_heads``."""
    return [project_kv(y, h) for h in params.heads]


def attend_heads(
    x: Tensor, kv: Sequence[tuple[Tensor, Tensor]], params: MhaParams, offset: int | None = None
) -> Tensor:
    """Multi-head attention of ``x`` over projected per-head (keys, values)."""
    outs = [attend(x, k, v, h, offset) for h, (k, v) in zip(params.heads, kv)]
    return matmul(concat_cols(outs), params.wo)


def multi_head_attention(x: Tensor, y: Tensor, params: MhaParams, causal: bool = False) -> Tensor:
    return attend_heads(x, project_heads(y, params), params, 0 if causal else None)


@dataclass
class FfnParams:
    """Two-layer position-wise feed-forward: d -> multiplier*d -> d."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def __post_init__(self):
        if self.w1.cols != self.w2.rows or self.w1.rows != self.w2.cols:
            raise ValueError(
                f"feed-forward shapes inconsistent: {self.w1.shape} then {self.w2.shape}"
            )
        if self.b1.shape != (1, self.w1.cols) or self.b2.shape != (1, self.w2.cols):
            raise ValueError("feed-forward biases must be row vectors matching their layer")

    @classmethod
    def create(cls, d: int, rng: np.random.Generator, multiplier: int = 4) -> "FfnParams":
        if multiplier < 1:
            raise ValueError(f"feed-forward multiplier must be >= 1, got {multiplier}")
        inner = multiplier * d
        return cls(
            Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, inner))),
            Tensor(np.zeros((1, inner))),
            Tensor(rng.normal(0.0, 1.0 / math.sqrt(inner), (inner, d))),
            Tensor(np.zeros((1, d))),
        )


def feed_forward(x: Tensor, params: FfnParams) -> Tensor:
    return add(matmul(relu(add(matmul(x, params.w1), params.b1)), params.w2), params.b2)


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Classic fixed positional table; row 0 is (0, 1, 0, 1, ...)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    return np.where(i % 2 == 0, np.sin(angles), np.cos(angles))


# One read-only sinusoidal table per width, grown by doubling. Each row depends
# only on its position and the width, so a slice equals a fresh table bit for bit.
_SINUSOIDS: dict[int, np.ndarray] = {}


def sinusoidal_rows(start: int, stop: int, dim: int) -> np.ndarray:
    """Rows start..stop-1 of the sinusoidal table of width ``dim`` (read-only)."""
    table = _SINUSOIDS.get(dim)
    if table is None or table.shape[0] < stop:
        have = 0 if table is None else table.shape[0]
        table = sinusoidal_encoding(max(stop, 2 * have, 64), dim)
        table.flags.writeable = False
        _SINUSOIDS[dim] = table
    return table[start:stop]


@dataclass
class EmbeddingTable:
    """Token rows plus a positional signal (sinusoidal unless a table is given)."""

    rows: Tensor
    positions: Tensor | None = None  # learned positional table, else sinusoidal

    @property
    def vocab_size(self) -> int:
        return self.rows.rows

    @property
    def dim(self) -> int:
        return self.rows.cols

    @classmethod
    def create(
        cls,
        vocab_size: int,
        dim: int,
        rng: np.random.Generator,
        learned_positions: int | None = None,
    ) -> "EmbeddingTable":
        std = 1.0 / math.sqrt(dim)
        rows = Tensor(rng.normal(0.0, std, (vocab_size, dim)))
        positions = None
        if learned_positions is not None:
            positions = Tensor(rng.normal(0.0, std, (learned_positions, dim)))
        return cls(rows, positions)


def embed_tokens(ids: Sequence[int], table: EmbeddingTable, start: int = 0) -> Tensor:
    """len(ids) x d matrix of token embedding + the encoding of positions
    start, start + 1, ..."""
    tok = embedding(table.rows, ids)
    n = len(tok.value)
    if n == 0:
        return tok
    if start < 0:
        raise ValueError(f"start position must be >= 0, got {start}")
    stop = start + n
    if table.positions is None:
        pos = Tensor(sinusoidal_rows(start, stop, table.dim))
    else:
        if stop > table.positions.rows:
            raise ValueError(
                f"sequence length {stop} exceeds learned positional table "
                f"({table.positions.rows} rows)"
            )
        pos = embedding(table.positions, range(start, stop))
    return add(tok, pos)
