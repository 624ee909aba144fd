"""Independent reference implementations used only by tests.

Everything here is written directly from the defining formulas, structured
differently from the package code on purpose: metric scores via brute-force
dict arithmetic, the entity-pair scan via a regex over a type-encoded string,
attention via per-row loops. Shared code with dmdk would defeat the point.
"""

from __future__ import annotations

import math
import re

import numpy as np

from dmdk.text import Entity, EntityType


# ---------------------------------------------------------------------------
# n-gram metrics, brute force


def _grams(seq, n):
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]


def _count(items):
    d = {}
    for it in items:
        d[it] = d.get(it, 0) + 1
    return d


def oracle_bleu(cands, refsets, max_n=4):
    """Corpus BLEU-1..max_n; refsets[i] is a list of reference token lists."""
    match = {n: 0 for n in range(1, max_n + 1)}
    total = {n: 0 for n in range(1, max_n + 1)}
    c_total = 0
    r_total = 0
    for cand, refs in zip(cands, refsets):
        c_total += len(cand)
        best = None
        for ref in refs:
            key = (abs(len(ref) - len(cand)), len(ref))
            if best is None or key < best:
                best = key
        r_total += best[1]
        for n in range(1, max_n + 1):
            cg = _count(_grams(cand, n))
            total[n] += sum(cg.values())
            for g, c in cg.items():
                cap = 0
                for ref in refs:
                    rc = _count(_grams(ref, n)).get(g, 0)
                    if rc > cap:
                        cap = rc
                match[n] += min(c, cap)
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


def oracle_cider(cands, refsets, max_n=4):
    """Per the TF-IDF cosine definition; df counts images whose reference
    set contains the n-gram, idf = log(|I| / max(1, df))."""
    n_images = len(cands)
    per_image = []
    for cand, refs in zip(cands, refsets):
        order_scores = []
        for n in range(1, max_n + 1):
            # document frequency over the whole corpus for this order
            df = {}
            for other_refs in refsets:
                seen = set()
                for ref in other_refs:
                    seen.update(_grams(ref, n))
                for g in seen:
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
            sims = [cos(cv, vec(r) if len(r) >= n else {}) for r in refs]
            order_scores.append(sum(sims) / len(sims))
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


def oracle_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + bias


def oracle_gcn_layer(a_hat, h, w):
    """relu((A_hat @ h) @ w) via plain float matmul.

    The package sorts the products of A_hat @ h before summing, for bitwise
    permutation equivariance; a plain matmul there agrees only to rounding, so
    comparisons against this oracle use a numeric tolerance.
    """
    return np.maximum((a_hat @ h) @ w, 0.0)
