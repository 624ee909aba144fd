"""Independent reference implementations used only by tests.

Everything here is written directly from the defining formulas, structured
differently from the package code on purpose: metric scores via brute-force
dict arithmetic, the entity-pair scan via a regex over a type-encoded string,
attention via per-row loops. Shared code with dmdk would defeat the point.
"""

from __future__ import annotations

import json
import math
import re
import struct

import numpy as np

from dmdk.attention import LAYER_NORM_EPS, project_kv, sinusoidal_rows
from dmdk.autograd import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NonFiniteError,
    SparseRows,
    Tensor,
    backward,
    embedding,
    matmul,
    relu,
)
from dmdk.graph import GraphNode, KnowledgeGraph, NodeKind
from dmdk.text import EntityType


# ---------------------------------------------------------------------------
# n-gram metrics, brute force


def _grams(seq, n):
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]


def _count(items):
    d = {}
    for it in items:
        d[it] = d.get(it, 0) + 1
    return d


def oracle_bleu(cands, refs, max_n=4):
    """Corpus BLEU-1..max_n; refs[i] is sample i's one reference token list."""
    match = {n: 0 for n in range(1, max_n + 1)}
    total = {n: 0 for n in range(1, max_n + 1)}
    c_total = 0
    r_total = 0
    for cand, ref in zip(cands, refs):
        c_total += len(cand)
        r_total += len(ref)
        for n in range(1, max_n + 1):
            cg = _count(_grams(cand, n))
            total[n] += sum(cg.values())
            for g, c in cg.items():
                match[n] += min(c, _count(_grams(ref, n)).get(g, 0))
    bp = 1.0 if c_total > r_total else math.exp(1.0 - r_total / max(c_total, 1))
    if c_total == 0:
        return [0.0] * max_n
    out = []
    for k in range(1, max_n + 1):
        ps = []
        for n in range(1, k + 1):
            ps.append(match[n] / total[n] if total[n] else 0.0)
        if min(ps) == 0.0:
            out.append(0.0)
        else:
            out.append(bp * math.exp(sum(math.log(p) / k for p in ps)))
    return out


def oracle_lcs(x, y):
    """Full DP table, no rolling-row trick."""
    t = [[0] * (len(y) + 1) for _ in range(len(x) + 1)]
    for i in range(1, len(x) + 1):
        for j in range(1, len(y) + 1):
            if x[i - 1] == y[j - 1]:
                t[i][j] = t[i - 1][j - 1] + 1
            else:
                t[i][j] = max(t[i - 1][j], t[i][j - 1])
    return t[len(x)][len(y)]


def oracle_rouge(cand, ref, beta=1.2):
    if not cand or not ref:
        return 0.0
    lcs = oracle_lcs(cand, ref)
    if lcs == 0:
        return 0.0
    r = lcs / len(ref)
    p = lcs / len(cand)
    return (1 + beta**2) * r * p / (r + beta**2 * p)


def oracle_cider(cands, refs, max_n=4):
    """Per the TF-IDF cosine definition; df counts images whose one reference
    contains the n-gram, idf = log(|I| / max(1, df))."""
    n_images = len(cands)
    per_image = []
    for cand, ref in zip(cands, refs):
        order_scores = []
        for n in range(1, max_n + 1):
            # document frequency over the whole corpus for this order
            df = {}
            for other in refs:
                for g in set(_grams(other, n)):
                    df[g] = df.get(g, 0) + 1

            def vec(tokens):
                counts = _count(_grams(tokens, n))
                tot = sum(counts.values())
                v = {}
                for g, c in counts.items():
                    v[g] = (c / tot) * math.log(n_images / max(1, df.get(g, 0)))
                return v

            def cos(u, v):
                keys = set(u) | set(v)
                dot = sum(u.get(g, 0.0) * v.get(g, 0.0) for g in keys)
                nu = math.sqrt(sum(x * x for x in u.values()))
                nv = math.sqrt(sum(x * x for x in v.values()))
                return 0.0 if nu == 0.0 or nv == 0.0 else dot / (nu * nv)

            cv = vec(cand) if len(cand) >= n else {}
            order_scores.append(cos(cv, vec(ref) if len(ref) >= n else {}))
        per_image.append(sum(order_scores) / max_n)
    return sum(per_image) / n_images


# ---------------------------------------------------------------------------
# entity-pair scan via regex over a type-encoded string


def oracle_pairs(entities):
    """(ANATOMY, non-ANATOMY) adjacent pairs found by regex lookahead."""
    code = "".join("A" if e.type is EntityType.ANATOMY else "O" for e in entities)
    return [
        (entities[m.start()], entities[m.start() + 1])
        for m in re.finditer(r"(?=AO)", code)
    ]


def oracle_tags(entities, base_labels):
    flat = []
    for a, b in oracle_pairs(entities):
        for text in (a.text, b.text):
            if text not in flat:
                flat.append(text)
    if flat:
        return flat, "dynamic"
    dedup = []
    for t in base_labels:
        if t not in dedup:
            dedup.append(t)
    return dedup, "base-fallback"


def oracle_triples(entities):
    return [(a.text, b.text, b.type) for a, b in oracle_pairs(entities)]


def oracle_specific_graph(base, labels, triples):
    """The specific graph by the tag-based rule: a DKE tag outside the base
    graph becomes a finding node (in tag order) when some triple mentions it;
    then each triple with two distinct, known endpoints sets its edge's
    relation, the latest triple winning."""
    nodes = list(base.nodes)
    mentioned = [name for src, tgt, _ in triples for name in (src, tgt)]
    for tag in labels.tags:
        if tag in mentioned and all(n.name != tag for n in nodes):
            nodes.append(GraphNode(tag, NodeKind.FINDING))
    index = {n.name: i for i, n in enumerate(nodes)}
    edges = dict(base.edges)
    for src, tgt, rel in triples:
        if src != tgt and src in index and tgt in index:
            edges[tuple(sorted((index[src], index[tgt])))] = rel
    return KnowledgeGraph(nodes, edges)


# ---------------------------------------------------------------------------
# attention by explicit loops


def oracle_attention(x, y, wq, wk, wv, causal=False):
    """Single-head scaled dot attention, one query row at a time."""
    q = x @ wq
    k = y @ wk
    v = y @ wv
    dk = wq.shape[1]
    out = np.zeros((x.shape[0], wv.shape[1]))
    for i in range(q.shape[0]):
        scores = np.array(
            [
                -1e9 if causal and j > i else float(q[i] @ k[j]) / math.sqrt(dk)
                for j in range(k.shape[0])
            ]
        )
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        out[i] = sum(w[j] * v[j] for j in range(v.shape[0]))
    return out


def oracle_mha(x, y, heads, wo, causal=False):
    """heads: list of (wq, wk, wv) arrays; concatenate then project."""
    parts = [oracle_attention(x, y, wq, wk, wv, causal) for wq, wk, wv in heads]
    return np.concatenate(parts, axis=1) @ wo


def oracle_self_kv(h, layer_index, params, cache):
    """Stand-in for ``dmdk.model._self_kv`` that re-concatenates the whole
    prefix every step: layer i's keys and values sit in ``cache.self_kv[i]``
    as exactly the rows fed so far, a fresh array after each step."""
    k, v = h.value @ params.wk.value, h.value @ params.wv.value
    if cache is not None:
        k0, v0 = cache.self_kv[layer_index]
        k, v = np.concatenate([k0, k]), np.concatenate([v0, v])
        cache.self_kv[layer_index] = (k, v)
    return Tensor(k), Tensor(v)


def oracle_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + bias


def oracle_adjacency(g):
    """Symmetric 0/1 matrix of ``g``'s edges, zero on the diagonal."""
    a = np.zeros((g.node_count(), g.node_count()))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def oracle_normalized_adjacency(a):
    """Dense D^-1/2 (A + I) D^-1/2 of a 0/1 adjacency matrix, matrix by matrix."""
    a = a + np.eye(len(a))
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return dinv[:, None] * a * dinv[None, :]


def from_dense(a):
    """The nonzero entries of the dense matrix ``a`` as a ``SparseRows``."""
    row, col = np.nonzero(a)
    return SparseRows(row, col, a[row, col], a.shape)


def oracle_gcn_layer(a_hat, h, w):
    """relu((A_hat @ h) @ w) via plain float matmul.

    The package sorts the products of A_hat @ h before summing, for bitwise
    permutation equivariance; a plain matmul there agrees only to rounding, so
    comparisons against this oracle use a numeric tolerance.
    """
    return np.maximum((a_hat @ h) @ w, 0.0)


def oracle_canonical_matmul(a, b):
    """Dense A @ B summing each entry's products in value-sorted order.

    Forms every product, zeros of the absent edges included, as an
    n x k x m array, sorts it along k and sums it in that order. The package
    sorts only each row's nonzero entries; the two must agree bit for bit.
    """
    prod = a[:, :, None] * b[None, :, :]
    prod.sort(axis=1)
    return prod.sum(axis=1)


def oracle_block_diagonal(blocks):
    """(nonzero values in row-major order, groups, transpose groups) of dense
    ``blocks`` placed along the diagonal of one dense matrix. A group holds,
    for one entry count in increasing order, the rows with that many nonzero
    entries in increasing order, each row's columns in increasing order, and
    their values."""
    shape = np.sum([b.shape for b in blocks], axis=0)
    a = np.zeros(shape)
    r = c = 0
    for b in blocks:
        a[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]

    def grouped(a):
        counts = (a != 0).sum(axis=1)
        groups = []
        for n in sorted(set(counts.tolist()) - {0}):
            rows = np.flatnonzero(counts == n)
            cols = np.array([np.flatnonzero(a[i]) for i in rows])
            groups.append((rows, cols, a[rows[:, None], cols][:, :, None]))
        return groups

    return a[a != 0], grouped(a), grouped(a.T)


def oracle_groups(row, col, vals, counts):
    """``autograd._groups`` with each count's run start found by
    ``np.diff(counts, prepend=-1)``: where the count changes, the first entry
    included (no count is -1)."""
    starts = np.flatnonzero(np.diff(counts, prepend=-1)).tolist()
    groups = []
    for start, end in zip(starts, starts[1:] + [len(counts)]):
        c = int(counts[start])
        cols, values = col[start:end].reshape(-1, c), vals[start:end].reshape(-1, c, 1)
        groups.append((row[start:end:c], cols, values))
    return groups


# ---------------------------------------------------------------------------
# initialization


def oracle_param(model, name, rows, cols, kind):
    """Stand-in for ``ReportModel._param`` on a fresh model that draws each
    weight and embedding with ``rng.normal(0, scale, shape)``."""
    assert model._state is None
    if kind in ("weight", "embed"):
        scale = 1.0 / math.sqrt(rows if kind == "weight" else cols)
        arr = model._rng.normal(0.0, scale, (rows, cols))
    else:
        arr = np.zeros((rows, cols)) if kind == "zeros" else np.ones((rows, cols))
    t = Tensor(arr)
    model._params.append((name, t))
    return t


# ---------------------------------------------------------------------------
# optimization


def oracle_adam_step(values, m, v, grads, t, lr, weight_decay):
    """One Adam step by the whole-array formula, over dicts keyed by name.

    Returns the new ``(values, m, v)`` dicts and leaves the arguments untouched.
    """
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    new_values, new_m, new_v = {}, {}, {}
    for name, p in values.items():
        g = grads[name]
        if weight_decay:
            g = g + weight_decay * p
        mn = new_m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        vn = new_v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
        new_values[name] = p - lr * (mn / bc1) / (np.sqrt(vn / bc2) + ADAM_EPS)
    return new_values, new_m, new_v


# ---------------------------------------------------------------------------
# backpropagation that keeps the graph


def oracle_backward(output):
    """Leaf gradients of a 1x1 output, by the engine ``autograd.backward`` ran
    before it consumed the graph: an iterative postorder, then one walk over
    it reversed. Leaves the graph intact, so the same output can then go
    through ``autograd.backward``."""
    order = []
    visited = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    grads = {id(output): np.ones((1, 1))}
    by_id = {id(n): n for n in order}
    for node in reversed(order):
        if node._grad_fn is None:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return {by_id[k]: g for k, g in grads.items() if not by_id[k]._parents}


def parameter_gradients(loss, params):
    """``autograd.backward``'s gradients of ``params``, as arrays it returned;
    a tensor the loss never reached (an op's unused input) gets zeros."""
    leaf_grads = backward(loss)
    return {p: leaf_grads[p] if p in leaf_grads else np.zeros(p.value.shape) for p in params}


# ---------------------------------------------------------------------------
# the op chains that the fused ops replace, op by op


def add(a, b):
    """Elementwise sum as its own node; ``b`` may be a 1 x cols row broadcast over rows."""
    if a.shape == b.shape:
        def grad_fn(g):
            return g, g
    elif b.shape == (1, a.cols):
        def grad_fn(g):
            return g, g.sum(axis=0, keepdims=True)
    else:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    return Tensor(a.value + b.value, (a, b), grad_fn)


def mul(a, b):
    """Elementwise product as its own node."""
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    av, bv = a.value, b.value
    return Tensor(av * bv, (a, b), lambda g: (g * bv, g * av))


def oracle_scale(a, c):
    """``c * a`` as its own node: the op ``weighted_sum`` folds in."""
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteError(f"scale factor must be finite, got {c}")
    return Tensor(a.value * c, (a,), lambda g: (g * c,))


def oracle_layer_norm_node(a, gain, bias):
    """Per-row standardization and a learned affine of ``a`` as its own node:
    the layer norm that closes each decoder sublayer."""
    v = a.value
    n = v.shape[1]
    mu = np.add.reduce(v, axis=1, keepdims=True) / n
    centred = v - mu
    var = np.add.reduce(centred * centred, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centred * inv
    gv = gain.value

    def grad_fn(g):
        dxhat = g * gv
        dx = (
            dxhat
            - np.add.reduce(dxhat, axis=1, keepdims=True) / n
            - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / n)
        ) * inv
        return dx, np.add.reduce(g * xhat, axis=0, keepdims=True), np.add.reduce(g, axis=0, keepdims=True)

    return Tensor(xhat * gv + bias.value, (a, gain, bias), grad_fn)


def oracle_heads_loop(q, k, v, heads, offset=None, spans=None):
    """Every head's softmax(q_h k_h^T / sqrt(d_n)) v_h over packed arrays, one
    record of ``spans`` at a time, causal from ``offset`` when one is given,
    and the backward rule that maps the output's gradient to (dq, dk, dv): the
    per-record loop that ``heads_attention`` groups."""
    qs, ks = ([q.shape[0]], [k.shape[0]]) if spans is None else spans
    if len(qs) != len(ks) or sum(qs) != q.shape[0] or sum(ks) != k.shape[0] or min([*qs, *ks], default=0) < 1:
        raise ValueError(f"spans {list(qs)} and {list(ks)} do not split {q.shape[0]} query and {k.shape[0]} key rows")
    q_at, k_at = np.cumsum([0, *qs]), np.cumsum([0, *ks])
    bounds = list(zip(q_at[:-1], q_at[1:], k_at[:-1], k_at[1:]))

    def split(a):
        return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)

    def merge(parts):
        a = np.concatenate(parts, axis=1)
        return a.transpose(1, 0, 2).reshape(a.shape[1], -1)

    qh, kh, vh = split(q), split(k), split(v)
    c = 1.0 / math.sqrt(qh.shape[2])
    weights, out = [], []
    for qa, qb, ka, kb in bounds:
        scores = (qh[:, qa:qb] @ kh[:, ka:kb].transpose(0, 2, 1)) * c
        if not np.isfinite(scores).all():
            raise NonFiniteError("attention scores contain non-finite values")
        if offset is not None:
            rows = qb - qa
            if kb - ka != offset + rows:
                raise ValueError(f"causal attention at offset {offset} needs {offset + rows} key rows, got {kb - ka}")
            if rows > 1:
                scores = scores + np.triu(np.full((rows, offset + rows), -1e9), k=offset + 1)
        e = np.exp(scores - np.maximum.reduce(scores, axis=2, keepdims=True))
        weights.append(e / np.add.reduce(e, axis=2, keepdims=True))
        out.append(weights[-1] @ vh[:, ka:kb])

    def grad_fn(g):
        gh = split(g)
        dq, dk, dv = [], [], []
        for w, (qa, qb, ka, kb) in zip(weights, bounds):
            g_r, k_r, v_r = gh[:, qa:qb], kh[:, ka:kb], vh[:, ka:kb]
            dw = g_r @ v_r.transpose(0, 2, 1)
            ds = (dw - np.add.reduce(dw * w, axis=2, keepdims=True)) * w * c
            dq.append(ds @ k_r)
            dk.append(ds.transpose(0, 2, 1) @ qh[:, qa:qb])
            dv.append(w.transpose(0, 2, 1) @ g_r)
        return merge(dq), merge(dk), merge(dv)

    return merge(out), grad_fn


def spans_of(packing):
    """The (query rows, key rows) of each record of an ``attention.pack``
    packing, records in order: the spans ``oracle_heads_loop`` takes."""
    records = sorted(
        (int(qs[0]), len(qs), len(ks))
        for n, qi, ki in packing
        for qs, ks in zip(np.r_[qi].reshape(n, -1), np.r_[ki].reshape(n, -1))
    )
    return [r[1] for r in records], [r[2] for r in records]


def oracle_heads_attention(q, k, v, heads, offset, packing):
    """``oracle_heads_loop`` over packed Tensors as its own node: the op the
    attention nodes fold in."""
    out, grad_fn = oracle_heads_loop(q.value, k.value, v.value, heads, offset, spans_of(packing))
    return Tensor(out, (q, k, v), grad_fn)


def oracle_attend(x, k, v, params, offset, packing):
    return matmul(oracle_heads_attention(matmul(x, params.wq), k, v, params.heads, offset, packing), params.wo)


def oracle_multi_head_attention(x, y, params, packing):
    return oracle_attend(x, *project_kv(y, params), params, None, packing)


def oracle_residual_attention(h, k, v, params, norm, offset, packing):
    return oracle_add_layer_norm(h, oracle_attend(h, k, v, params, offset, packing), norm.gain, norm.bias)


def oracle_affine(x, w, b):
    if isinstance(x, Tensor):
        return add(matmul(x, w), b)
    return add(Tensor(x @ w.value, (w,), lambda g: (x.T @ g,)), b)  # a constant x: no gradient


def oracle_feed_forward(x, params, norm):
    ffn = add(matmul(relu(add(matmul(x, params.w1), params.b1)), params.w2), params.b2)
    return oracle_add_layer_norm(x, ffn, norm.gain, norm.bias)


def oracle_add_layer_norm(a, b, gain, bias):
    return oracle_layer_norm_node(add(a, b), gain, bias)


def oracle_weighted_sum(terms, weights):
    out = oracle_scale(terms[0], weights[0])
    for t, c in zip(terms[1:], weights[1:]):
        out = add(out, oracle_scale(t, c))
    return out


def oracle_embed_tokens(ids, table, start=0, spans=None):
    """The token rows as one node, then their sum with the constant positional
    rows as another."""
    spans = [len(ids)] if spans is None else list(spans)
    index = [start + i for n in spans for i in range(n)]
    stop = max(index, default=start) + 1
    rows = embedding(table, ids)
    return Tensor(rows.value + sinusoidal_rows(0, stop, table.cols)[index], (rows,), lambda g: (g,))


# ---------------------------------------------------------------------------
# checkpoint bytes


def oracle_checkpoint_bytes(tensors, meta):
    """The checkpoint file for ``tensors`` and ``meta`` as one byte string,
    assembled from each tensor's ``tobytes`` copy."""
    manifest, blobs, offset = [], [], 0
    for name, arr in tensors:
        blob = np.asarray(arr).astype("<f8").tobytes()
        manifest.append({"name": name, "rows": arr.shape[0], "cols": arr.shape[1], "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"meta": meta, "tensors": manifest}, sort_keys=True, separators=(",", ":")).encode()
    return b"DMDK" + struct.pack("<IQ", 2, len(header)) + header + b"".join(blobs)
