"""Multi-head attention, the decoder's residual sublayers, embeddings.

Shapes follow one convention throughout: a sequence is rows, the model width
``d`` is columns. Queries come from one matrix and keys/values from another,
so an attention output always has the query matrix's rows.

Each attention block is packed: one d x d ``wq``, ``wk``, ``wv`` and ``wo``.
Head h owns columns h*d_n .. (h+1)*d_n - 1 of the projected queries, keys and
values, and ``heads_attention`` attends every head at once, its output holding
the heads in that column order, ready for ``wo``.

``heads_attention`` and ``layer_norm`` work on arrays: each returns its value
and the backward rule that maps an output gradient to its inputs' gradients.
The autograd nodes are built from them, so the attention and the layer norm
math each exist once:

- ``multi_head_attention`` (the encoder's blocks) is one node from the queries'
  rows through ``wq``, the heads and ``wo``;
- ``residual_attention`` is one decoder sublayer, LayerNorm(h + attention(h)),
  causal from a position offset if asked;
- ``feed_forward`` is the decoder's other sublayer, LayerNorm(h + FFN(h)).

Keys and values are projected outside the nodes by ``project_kv``, so
incremental decoding projects a memory once and attends over it at every
step, and training and decoding share one forward. Each node runs the IEEE
operations of the chain of single ops it replaces, in that chain's order,
and keeps no chain intermediate that no backward rule reads.

Every attention call is packed: its rows are records stacked in order, and
each record's queries attend its own keys only. ``pack`` turns the records'
query and key row counts into a ``Packing``, the groups of records that share
both counts; each group attends as one stack along a leading record axis,
without padding, so no record sees another's rows and no batch-sized mask is
ever built. A lone record, such as one decode step, is a group of one: there
is no other path. The callers that know the row counts pack once per forward
and hand the same packing to every block over those rows. ``embed_tokens``
restarts the positions for each record in the same way.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .autograd import NonFiniteError, Tensor, embedding, matmul

# The groups ``pack`` builds, one per (query rows, key rows) of a packed call's
# records: their record count, and their query rows and key rows, each a slice
# when the records are adjacent, else an index array.
Packing = list[tuple[int, slice | np.ndarray, slice | np.ndarray]]

# Finite stand-in for -inf: keeps every tensor finite while exp() underflows
# masked scores to exactly 0 after max subtraction.
MASKED_SCORE = -1e9

# added to each row's variance before the square root in layer_norm
LAYER_NORM_EPS = 1e-5


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


@dataclass
class LayerNormParams:
    """The learned 1 x d gain and bias that close a residual sublayer."""

    gain: Tensor
    bias: Tensor


def causal_mask(length: int, offset: int = 0) -> np.ndarray:
    """MASKED_SCORE above the causal diagonal for ``length`` query rows.

    Query row h sits at position offset + h and sees key columns <= offset + h;
    there are offset + length key columns.
    """
    return np.triu(np.full((length, offset + length), MASKED_SCORE), k=offset + 1)


def _split_heads(a: np.ndarray, heads: int, records: int) -> np.ndarray:
    """The rows of ``records`` records of equal row counts, stacked in order ->
    records x heads x rows x d_n, a view: head h reads its own columns."""
    rows, width = a.shape
    return a.reshape(records, rows // records, heads, width // heads).swapaxes(1, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """records x heads x rows x d_n -> records * rows x d: heads concatenated
    in column order, records in order."""
    return a.swapaxes(1, 2).reshape(-1, a.shape[1] * a.shape[3])


def attention_weights(qh: np.ndarray, kh: np.ndarray, offset: int | None = None) -> np.ndarray:
    """... x heads x rows x keys: softmax(q_h k_h^T / sqrt(d_n)) for each head h
    of ``qh`` (... x heads x rows x d_n) and ``kh`` (... x heads x keys x d_n).
    Any leading axes, such as a stack of records, run as one batch of products.

    With an ``offset`` the attention is causal: query row i sits at position
    offset + i and sees key columns <= offset + i, so there must be exactly
    offset + rows keys. ``None`` lets every query see every key.
    """
    rows = qh.shape[-2]
    scores = (qh @ kh.swapaxes(-1, -2)) * (1.0 / math.sqrt(qh.shape[-1]))
    if not np.isfinite(scores).all():
        raise NonFiniteError("attention scores contain non-finite values")
    if offset is not None:
        if kh.shape[-2] != offset + rows:
            raise ValueError(
                f"causal attention at offset {offset} needs {offset + rows} key rows, got {kh.shape[-2]}"
            )
        if rows > 1:  # a single query row at the end sees every key
            scores = scores + causal_mask(rows, offset)
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def pack(q_rows: Sequence[int], k_rows: Sequence[int]) -> Packing:
    """The packing of records stacked in order, record r with ``q_rows[r]``
    query rows and ``k_rows[r]`` key rows: the records grouped by their (query
    rows, key rows), groups in order of their first record. A group's rows are
    a slice when its records are adjacent (as a lone record is), else an index
    array. The callers count the rows from the lists they stack, so the counts
    split the rows."""
    starts: dict[tuple[int, int], list[tuple[int, int]]] = {}
    qa = ka = 0
    for qn, kn in zip(q_rows, k_rows):
        starts.setdefault((qn, kn), []).append((qa, ka))
        qa, ka = qa + qn, ka + kn
    groups = []
    for (qn, kn), at in starts.items():
        n, (qa, ka) = len(at), at[0]
        if at[-1][0] - qa == (n - 1) * qn:  # no other record between them
            groups.append((n, slice(qa, qa + n * qn), slice(ka, ka + n * kn)))
        else:
            q_index = np.concatenate([np.arange(i, i + qn) for i, _ in at])
            groups.append((n, q_index, np.concatenate([np.arange(i, i + kn) for _, i in at])))
    return groups


Backward = Callable[[np.ndarray], tuple]  # output gradient -> the inputs' gradients


def _heads_backward(gh, qh, kh, vh, w, c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dq, dk, dv) per head, over any leading axes, of softmax(q_h k_h^T c) v_h
    with weights ``w``, given the output's gradient ``gh``."""
    dw = gh @ vh.swapaxes(-1, -2)
    ds = (dw - np.add.reduce(dw * w, axis=-1, keepdims=True)) * w * c
    return ds @ kh, ds.swapaxes(-1, -2) @ qh, w.swapaxes(-1, -2) @ gh


def heads_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, offset: int | None, packing: Packing
) -> tuple[np.ndarray, Backward]:
    """Every head's softmax(q_h k_h^T / sqrt(d_n)) v_h over packed arrays, and
    its backward rule, which maps the output's gradient to (dq, dk, dv).

    ``q``, ``k`` and ``v`` are packed (head h in columns h*d_n .. (h+1)*d_n - 1);
    the output holds the heads' results in the same column order. Their rows
    are the records of ``packing``: each record's queries attend its own keys
    only, causally from ``offset`` within the record when one is given (as in
    ``attention_weights``). Each group of the packing runs as one stack,
    records x heads x rows x d_n, and each result goes back to its records'
    rows; a lone record is a group of one. The stack is a view when the
    records are adjacent; otherwise it is a gathered copy, which the rule
    gathers again rather than keep. The scores are checked finite, so a
    non-finite query is refused here whenever there is a key.
    """
    c = 1.0 / math.sqrt(q.shape[1] // heads)
    out = np.empty((q.shape[0], v.shape[1]))
    weights = []
    for n, qi, ki in packing:
        weights.append(attention_weights(_split_heads(q[qi], heads, n), _split_heads(k[ki], heads, n), offset))
        out[qi] = _merge_heads(weights[-1] @ _split_heads(v[ki], heads, n))

    def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        grads = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for (n, qi, ki), w in zip(packing, weights):
            gh, qh, kh, vh = (_split_heads(a[i], heads, n) for a, i in ((g, qi), (q, qi), (k, ki), (v, ki)))
            for grad, i, part in zip(grads, (qi, ki, ki), _heads_backward(gh, qh, kh, vh, w, c)):
                grad[i] = _merge_heads(part)
        return grads

    return out, backward


def layer_norm(v: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, Backward]:
    """Per-row standardization of ``v`` followed by the learned 1 x cols
    ``gain`` and ``bias``, and its backward rule, which maps the output's
    gradient to (dv, dgain, dbias). The rule reads only the standardized rows,
    their scales and the gain."""
    n = v.shape[1]
    # np.add.reduce(...) / n is what ndarray.mean computes, minus its Python wrapper
    mu = np.add.reduce(v, axis=1, keepdims=True) / n
    centred = v - mu
    var = np.add.reduce(centred * centred, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centred * inv

    def backward(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        dgain = np.add.reduce(g * xhat, axis=0, keepdims=True)
        dbias = np.add.reduce(g, axis=0, keepdims=True)
        dxhat = g * gain
        dv = (
            dxhat
            - np.add.reduce(dxhat, axis=1, keepdims=True) / n
            - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / n)
        ) * inv
        return dv, dgain, dbias

    return xhat * gain + bias, backward


def project_kv(y: Tensor, params: MhaParams) -> tuple[Tensor, Tensor]:
    """Packed keys and values of every head over the rows of ``y``."""
    return matmul(y, params.wk), matmul(y, params.wv)


def _attend(
    x: Tensor, k: Tensor, v: Tensor, params: MhaParams, offset: int | None, packing: Packing
) -> tuple[np.ndarray, Backward]:
    """(x @ wq attended over ``k`` and ``v``) @ wo, and its backward rule, which
    maps the output's gradient to x's query-path gradient, then dwq, dk, dv and
    dwo. Keeps the queries, the attention weights and the heads' output."""
    xv, wq, wo = x.value, params.wq.value, params.wo.value
    heads, heads_backward = heads_attention(xv @ wq, k.value, v.value, params.heads, offset, packing)

    def backward(g: np.ndarray) -> tuple:
        dq, dk, dv = heads_backward(g @ wo.T)
        return dq @ wq.T, xv.T @ dq, dk, dv, heads.T @ g

    return heads @ wo, backward


def multi_head_attention(x: Tensor, y: Tensor, params: MhaParams, packing: Packing) -> Tensor:
    """Queries from ``x``, keys and values from ``y``, every query seeing every
    key of its own record of ``packing``: one node from ``x`` through ``wq``,
    the heads and ``wo``, over the key and value projections of ``y``."""
    k, v = project_kv(y, params)
    out, backward = _attend(x, k, v, params, None, packing)
    return Tensor(out, (x, params.wq, k, v, params.wo), backward)


def residual_attention(
    h: Tensor,
    k: Tensor,
    v: Tensor,
    params: MhaParams,
    norm: LayerNormParams,
    offset: int | None,
    packing: Packing,
) -> Tensor:
    """One post-norm attention sublayer, LayerNorm(h + attention), as one node:
    queries from ``h`` over packed keys and values from ``project_kv``, with
    ``offset`` and ``packing`` as in ``heads_attention``. Only its output is
    checked finite: a non-finite heads' output or ``wo`` product makes the
    whole row of the sum non-finite, and with it the output."""
    out, attend_backward = _attend(h, k, v, params, offset, packing)
    out += h.value
    out, norm_backward = layer_norm(out, norm.gain.value, norm.bias.value)

    def backward(g: np.ndarray) -> tuple:
        ds, dgain, dbias = norm_backward(g)
        dx, dwq, dk, dv, dwo = attend_backward(ds)
        return ds + dx, dwq, dk, dv, dwo, dgain, dbias

    return Tensor(out, (h, params.wq, k, v, params.wo, norm.gain, norm.bias), backward)


@dataclass
class FfnParams:
    """Two-layer position-wise feed-forward: d -> multiplier*d -> d, shaped by ``model.ReportModel``."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def feed_forward(h: Tensor, params: FfnParams, norm: LayerNormParams) -> Tensor:
    """The post-norm feed-forward sublayer, LayerNorm(h + relu(h @ w1 + b1) @ w2
    + b2), as one node keeping only the hidden activation, its relu mask and the
    layer norm's rows. The pre-activation is checked finite, because relu would
    hide a -inf; the feed-forward's output reaches the checked output."""
    hv, w1, w2 = h.value, params.w1.value, params.w2.value
    pre = hv @ w1
    pre += params.b1.value
    if not np.isfinite(pre).all():
        raise NonFiniteError("feed-forward pre-activation contains non-finite values")
    mask = pre > 0.0
    hidden = np.where(mask, pre, 0.0)
    out = hidden @ w2
    out += params.b2.value
    out += hv
    out, norm_backward = layer_norm(out, norm.gain.value, norm.bias.value)

    def backward(g: np.ndarray) -> tuple:
        ds, dgain, dbias = norm_backward(g)
        dpre = (ds @ w2.T) * mask
        dw1, db1 = hv.T @ dpre, dpre.sum(axis=0, keepdims=True)
        return ds + dpre @ w1.T, dw1, db1, hidden.T @ ds, ds.sum(axis=0, keepdims=True), dgain, dbias

    return Tensor(out, (h, params.w1, params.b1, params.w2, params.b2, norm.gain, norm.bias), backward)


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
    (positive row counts summing to len(ids), at least one) the positions
    restart at ``start`` for each span. Empty ``ids`` without ``spans`` give a
    0 x d matrix. One ``embedding`` node, which adds the positional rows to the
    rows it gathers."""
    n = len(ids)
    if spans is None:
        stop, index = start + n, slice(start, start + n)
    else:
        spans = np.asarray(spans, dtype=np.intp)
        stop = start + int(spans.max())
        index = np.arange(n) - np.repeat(np.cumsum(spans) - spans, spans) + start
    return embedding(table, ids, sinusoidal_rows(0, stop, table.cols)[index])
