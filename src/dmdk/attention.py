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

``feed_forward`` is one autograd node too, keeping no product or biased sum.

A training batch packs its records' rows into one matrix, records stacked in
order. ``Spans`` gives each record's query and key row counts: attention then
runs per record inside the one autograd node, so no record sees another's
rows and no batch-sized mask is ever built. ``embed_tokens`` restarts the
positions for each span in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from .autograd import NonFiniteError, Tensor, add, embedding, matmul

# Query and key row counts of each record of a packed batch, records in order.
Spans = tuple[Sequence[int], Sequence[int]]

# Finite stand-in for -inf: keeps every tensor finite while exp() underflows
# masked scores to exactly 0 after max subtraction.
MASKED_SCORE = -1e9


@dataclass
class MhaParams:
    """One attention block: packed d x d query, key, value and output projections.

    Head h owns columns h*d_n .. (h+1)*d_n - 1 of the query, key and value
    projections, with d_n = d / heads. ``model.ReportModel`` sets the shapes.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor  # projects the heads' outputs, concatenated in column order
    heads: int


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


def attention_weights(qh: np.ndarray, kh: np.ndarray, offset: int | None = None) -> np.ndarray:
    """heads x rows x keys: softmax(q_h k_h^T / sqrt(d_n)) for each head h of
    ``qh`` (heads x rows x d_n) and ``kh`` (heads x keys x d_n).

    With an ``offset`` the attention is causal: query row i sits at position
    offset + i and sees key columns <= offset + i, so there must be exactly
    offset + rows keys. ``None`` lets every query see every key.
    """
    scores = (qh @ kh.transpose(0, 2, 1)) * (1.0 / math.sqrt(qh.shape[2]))
    if not np.isfinite(scores).all():
        raise NonFiniteError("attention scores contain non-finite values")
    if offset is not None:
        if kh.shape[1] != offset + qh.shape[1]:
            raise ValueError(
                f"causal attention at offset {offset} needs {offset + qh.shape[1]} key rows, "
                f"got {kh.shape[1]}"
            )
        if qh.shape[1] > 1:  # a single query row at the end sees every key
            scores = scores + causal_mask(qh.shape[1], offset)
    e = np.exp(scores - np.maximum.reduce(scores, axis=2, keepdims=True))
    return e / np.add.reduce(e, axis=2, keepdims=True)


def _span_bounds(spans: Spans | None, q_rows: int, k_rows: int) -> list[tuple[int, int, int, int]]:
    """(query start, query stop, key start, key stop) of each record."""
    if spans is None:
        return [(0, q_rows, 0, k_rows)]
    qs, ks = spans
    if len(qs) != len(ks) or sum(qs) != q_rows or sum(ks) != k_rows or min([*qs, *ks], default=0) < 1:
        raise ValueError(
            f"spans {list(qs)} and {list(ks)} do not split {q_rows} query and {k_rows} key rows"
        )
    q_ends, k_ends = list(accumulate(qs)), list(accumulate(ks))
    return [(qe - qn, qe, ke - kn, ke) for qn, qe, kn, ke in zip(qs, q_ends, ks, k_ends)]


def _join_records(parts: Sequence[np.ndarray]) -> np.ndarray:
    """heads x rows x d_n blocks of consecutive records, stacked along the rows."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def heads_attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, offset: int | None = None, spans: Spans | None = None
) -> Tensor:
    """Every head's softmax(q_h k_h^T / sqrt(d_n)) v_h as one autograd node.

    ``q``, ``k`` and ``v`` are packed (head h in columns h*d_n .. (h+1)*d_n - 1);
    the output holds the heads' results in the same column order. ``offset``
    is as in ``attention_weights``. With ``spans`` the rows are records stacked
    in order: each record's queries attend its own keys only, causally from
    ``offset`` within the record when one is given.
    """
    if v.shape != k.shape:
        raise ValueError(f"keys {k.shape} and values {v.shape} must share a shape")
    if q.cols != k.cols or q.cols % heads != 0:
        raise ValueError(f"{heads}-head attention of {q.shape} queries over {k.shape} keys")
    bounds = _span_bounds(spans, q.rows, k.rows)
    qh, kh, vh = _split_heads(q.value, heads), _split_heads(k.value, heads), _split_heads(v.value, heads)
    c = 1.0 / math.sqrt(q.cols // heads)
    weights, out = [], []
    for qa, qb, ka, kb in bounds:
        weights.append(attention_weights(qh[:, qa:qb], kh[:, ka:kb], offset))
        out.append(weights[-1] @ vh[:, ka:kb])

    def grad_fn(g: np.ndarray):
        gh = _split_heads(g, heads)
        parts = []  # (dq, dk, dv) of each record; the records tile the rows in order
        for w, (qa, qb, ka, kb) in zip(weights, bounds):
            g_r, k_r, v_r = gh[:, qa:qb], kh[:, ka:kb], vh[:, ka:kb]
            dw = g_r @ v_r.transpose(0, 2, 1)
            ds = (dw - np.add.reduce(dw * w, axis=2, keepdims=True)) * w * c
            parts.append((ds @ k_r, ds.transpose(0, 2, 1) @ qh[:, qa:qb], w.transpose(0, 2, 1) @ g_r))
        return tuple(_merge_heads(_join_records(d)) for d in zip(*parts))

    return Tensor(_merge_heads(_join_records(out)), (q, k, v), grad_fn)


def project_kv(y: Tensor, params: MhaParams) -> tuple[Tensor, Tensor]:
    """Packed keys and values of every head over the rows of ``y``."""
    return matmul(y, params.wk), matmul(y, params.wv)


def attend(
    x: Tensor, k: Tensor, v: Tensor, params: MhaParams, offset: int | None = None, spans: Spans | None = None
) -> Tensor:
    """Multi-head attention of queries projected from ``x`` over packed keys
    and values from ``project_kv``; ``offset`` and ``spans`` are as in
    ``heads_attention``."""
    q = matmul(x, params.wq)
    return matmul(heads_attention(q, k, v, params.heads, offset, spans), params.wo)


def multi_head_attention(x: Tensor, y: Tensor, params: MhaParams, spans: Spans | None = None) -> Tensor:
    """Queries from ``x``, keys and values from ``y``, every query seeing every
    key (of its own record, with ``spans``)."""
    return attend(x, *project_kv(y, params), params, None, spans)


@dataclass
class FfnParams:
    """Two-layer position-wise feed-forward: d -> multiplier*d -> d, shaped by ``model.ReportModel``."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def feed_forward(x: Tensor, params: FfnParams) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one node, bitwise the chain of ``matmul``,
    ``add`` and ``relu`` it replaces, keeping only the hidden activation and its
    relu mask. The pre-activation is checked finite: relu would hide a -inf."""
    xv, w1, w2 = x.value, params.w1.value, params.w2.value
    pre = xv @ w1
    pre += params.b1.value
    if not np.isfinite(pre).all():
        raise NonFiniteError("feed-forward pre-activation contains non-finite values")
    mask = pre > 0.0
    hidden = np.where(mask, pre, 0.0)
    out = hidden @ w2
    out += params.b2.value

    def grad_fn(g: np.ndarray):
        dpre = (g @ w2.T) * mask
        dw1, db1 = xv.T @ dpre, dpre.sum(axis=0, keepdims=True)
        return dpre @ w1.T, dw1, db1, hidden.T @ g, g.sum(axis=0, keepdims=True)

    return Tensor(out, (x, params.w1, params.b1, params.w2, params.b2), grad_fn)


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


def embed_tokens(
    ids: Sequence[int], table: Tensor, start: int = 0, spans: Sequence[int] | None = None
) -> Tensor:
    """len(ids) x d matrix of the ids' rows of the token ``table`` + the
    sinusoidal encoding of positions start, start + 1, ...; with ``spans``
    (row counts summing to len(ids)) the positions restart at ``start`` for
    each span. Empty ``ids`` without ``spans`` give a 0 x d matrix."""
    tok = embedding(table, ids)
    n = tok.rows
    if start < 0:
        raise ValueError(f"start position must be >= 0, got {start}")
    if spans is None:
        stop, index = start + n, slice(start, start + n)
    else:
        spans = np.asarray(spans, dtype=np.intp)
        if spans.size == 0 or spans.sum() != n or spans.min() < 1:
            raise ValueError(f"spans {spans.tolist()} do not split {n} tokens")
        stop = start + int(spans.max())
        index = np.arange(n) - np.repeat(np.cumsum(spans) - spans, spans) + start
    return add(tok, Tensor(sinusoidal_rows(0, stop, table.cols)[index]))
