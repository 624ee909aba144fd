"""Multi-head attention, feed-forward, embeddings.

Shapes follow one convention throughout: a sequence is rows, the model width
``d`` is columns. ``multi_head_attention(x, y, ...)`` reads queries from ``x``
and keys/values from ``y``, so the output always has ``x.rows`` rows.

Each attention block is packed: one d x d ``wq``, ``wk``, ``wv`` and ``wo``.
Head h owns columns h*d_n .. (h+1)*d_n - 1 of the projected queries, keys and
values, and ``heads_attention`` attends every head in one autograd node whose
output holds the heads in that column order, ready for ``wo``.

Attention is two steps: ``project_kv`` projects the keys and values of ``y``,
and ``attend`` attends queries from ``x`` over them, causally from a position
offset if asked. Incremental decoding projects a memory once and attends over
it at every step; ``multi_head_attention`` runs the two steps back to back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .autograd import NonFiniteError, Tensor, add, embedding, matmul, relu

# Finite stand-in for -inf: keeps every tensor finite while exp() underflows
# masked scores to exactly 0 after max subtraction.
MASKED_SCORE = -1e9


@dataclass
class MhaParams:
    """One attention block: packed d x d query, key, value and output projections.

    Head h owns columns h*d_n .. (h+1)*d_n - 1 of the query, key and value
    projections, with d_n = d / heads.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor  # projects the heads' outputs, concatenated in column order
    heads: int

    def __post_init__(self):
        d = self.wq.rows
        if self.heads < 1 or d % self.heads != 0:
            raise ValueError(f"model width {d} not divisible by head count {self.heads}")
        for name in ("wq", "wk", "wv", "wo"):
            shape = getattr(self, name).shape
            if shape != (d, d):
                raise ValueError(f"attention projection {name} must be {d}x{d}, got {shape}")


def causal_mask(length: int, offset: int = 0) -> np.ndarray:
    """MASKED_SCORE above the causal diagonal for ``length`` query rows.

    Query row h sits at position offset + h and sees key columns <= offset + h;
    there are offset + length key columns.
    """
    return np.triu(np.full((length, offset + length), MASKED_SCORE), k=offset + 1)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """rows x d -> heads x rows x d_n, a view: head h reads its own columns."""
    return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """heads x rows x d_n -> rows x d, heads concatenated in column order."""
    heads, rows, width = a.shape
    return a.transpose(1, 0, 2).reshape(rows, heads * width)


def attention_weights(q: np.ndarray, k: np.ndarray, heads: int, offset: int | None = None) -> np.ndarray:
    """heads x rows x keys: softmax(q_h k_h^T / sqrt(d_n)) for each head h.

    With an ``offset`` the attention is causal: query row i sits at position
    offset + i and sees key columns <= offset + i, so ``k`` must hold exactly
    offset + rows rows. ``None`` lets every query see every key.
    """
    if q.shape[1] != k.shape[1] or q.shape[1] % heads != 0:
        raise ValueError(f"{heads}-head attention of {q.shape} queries over {k.shape} keys")
    scores = (_split_heads(q, heads) @ _split_heads(k, heads).transpose(0, 2, 1)) * (
        1.0 / math.sqrt(q.shape[1] // heads)
    )
    if not np.isfinite(scores).all():
        raise NonFiniteError("attention scores contain non-finite values")
    if offset is not None:
        if k.shape[0] != offset + q.shape[0]:
            raise ValueError(
                f"causal attention at offset {offset} needs {offset + q.shape[0]} key rows, "
                f"got {k.shape[0]}"
            )
        if q.shape[0] > 1:  # a single query row at the end sees every key
            scores = scores + causal_mask(q.shape[0], offset)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def heads_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, offset: int | None = None) -> Tensor:
    """Every head's softmax(q_h k_h^T / sqrt(d_n)) v_h as one autograd node.

    ``q``, ``k`` and ``v`` are packed (head h in columns h*d_n .. (h+1)*d_n - 1);
    the output holds the heads' results in the same column order. ``offset``
    is as in ``attention_weights``.
    """
    if v.shape != k.shape:
        raise ValueError(f"keys {k.shape} and values {v.shape} must share a shape")
    w = attention_weights(q.value, k.value, heads, offset)
    qh, kh, vh = (_split_heads(t.value, heads) for t in (q, k, v))
    c = 1.0 / math.sqrt(q.cols // heads)

    def grad_fn(g: np.ndarray):
        gh = _split_heads(g, heads)
        dw = gh @ vh.transpose(0, 2, 1)
        ds = (dw - (dw * w).sum(axis=2, keepdims=True)) * w * c
        return (
            _merge_heads(ds @ kh),
            _merge_heads(ds.transpose(0, 2, 1) @ qh),
            _merge_heads(w.transpose(0, 2, 1) @ gh),
        )

    return Tensor(_merge_heads(w @ vh), (q, k, v), grad_fn)


def project_kv(y: Tensor, params: MhaParams) -> tuple[Tensor, Tensor]:
    """Packed keys and values of every head over the rows of ``y``."""
    return matmul(y, params.wk), matmul(y, params.wv)


def attend(x: Tensor, k: Tensor, v: Tensor, params: MhaParams, offset: int | None = None) -> Tensor:
    """Multi-head attention of queries projected from ``x`` over packed keys
    and values from ``project_kv``; ``offset`` is as in ``attention_weights``."""
    q = matmul(x, params.wq)
    return matmul(heads_attention(q, k, v, params.heads, offset), params.wo)


def multi_head_attention(x: Tensor, y: Tensor, params: MhaParams, causal: bool = False) -> Tensor:
    """Queries from ``x``, keys and values from ``y``; causal masks position i
    from every key after i, so ``x`` and ``y`` must have equal lengths."""
    return attend(x, *project_kv(y, params), params, 0 if causal else None)


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
