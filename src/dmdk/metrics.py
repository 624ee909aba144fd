"""Corpus-level BLEU-1..4, ROUGE-L, and CIDEr with per-sample breakdown.

Every sample has exactly one reference, as in IU X-Ray and MIMIC-CXR, where
each study has one report. Conventions, all deliberate:
  * BLEU-1..4: clipped (modified) n-gram precision summed over the corpus, no
    smoothing by default, brevity penalty from the summed reference lengths,
    uniform 1/k weights. Any zero P_n zeroes every BLEU-k with k >= n.
  * ROUGE-L: recall against the reference, precision against the candidate,
    F-measure with beta = 1.2 weighting recall.
  * CIDEr: TF-IDF vectors for orders 1..4 with idf = log(|I| / max(1, df)),
    uniform order weights, no 10x display scaling, and cosine against a zero
    vector defined as 0.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from .text import read_json_lines, tokenize

logger = logging.getLogger(__name__)

TokenSeq = Sequence[str]

MAX_N = 4  # BLEU and CIDEr use n-gram orders 1..MAX_N
ROUGE_BETA = 1.2  # ROUGE-L weighs recall beta^2 times precision


def ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    """Sliding-window counts of length-n windows (n >= 1); shorter sequences give {}."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _check_pairs(candidates: Sequence[TokenSeq], references: Sequence[TokenSeq], metric: str) -> None:
    """One nonempty reference per candidate, all tokens strings, and at least one candidate."""
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates but {len(references)} references")
    if not candidates:
        raise ValueError(f"{metric} needs a nonempty corpus")
    for i, (cand, ref) in enumerate(zip(candidates, references)):
        if not ref:
            raise ValueError(f"sample {i} has an empty reference")
        if not all(isinstance(t, str) for t in (*cand, *ref)):
            raise ValueError(f"sample {i}: tokens must be strings, one reference token list per candidate")


def bleu(
    candidates: Sequence[TokenSeq], references: Sequence[TokenSeq], smooth: bool = False
) -> list[float]:
    """Corpus BLEU-1..4 as a list.

    ``smooth`` adds one to the matched and total counts of every order >= 2
    (sentence-level style smoothing), useful for per-sample scores where exact
    higher-order matches are rare; the corpus defaults stay unsmoothed.
    """
    _check_pairs(candidates, references, "BLEU")
    matched = [0] * (MAX_N + 1)
    total = [0] * (MAX_N + 1)
    c_len = 0
    r_len = 0
    for cand, ref in zip(candidates, references):
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, MAX_N + 1):
            counts = ngram_counts(cand, n)
            if not counts:
                continue
            ceiling = ngram_counts(ref, n)
            matched[n] += sum(min(c, ceiling[g]) for g, c in counts.items())
            total[n] += sum(counts.values())
    if c_len == 0:
        return [0.0] * MAX_N
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    precisions = []
    for n in range(1, MAX_N + 1):
        m, t = matched[n], total[n]
        if smooth and n >= 2:
            m, t = m + 1, t + 1
        precisions.append(m / t if t else 0.0)
    scores = []
    for k in range(1, MAX_N + 1):
        head = precisions[:k]
        if any(p == 0.0 for p in head):
            scores.append(0.0)
        else:
            scores.append(bp * math.exp(sum(math.log(p) for p in head) / k))
    return scores


def lcs_len(x: TokenSeq, y: TokenSeq) -> int:
    if not x or not y:
        return 0
    prev = [0] * (len(y) + 1)
    for xi in x:
        cur = [0]
        for j, yj in enumerate(y, start=1):
            cur.append(prev[j - 1] + 1 if xi == yj else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: TokenSeq, reference: TokenSeq) -> float:
    """F-measure over the longest common subsequence; 0 when nothing overlaps."""
    if not all(isinstance(t, str) for t in (*candidate, *reference)):
        raise ValueError("ROUGE-L tokens must be strings")
    if not candidate or not reference:
        logger.warning("ROUGE-L against an empty sequence is defined as 0")
        return 0.0
    lcs = lcs_len(candidate, reference)
    if lcs == 0:
        return 0.0
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    b2 = ROUGE_BETA * ROUGE_BETA
    return (1.0 + b2) * recall * precision / (recall + b2 * precision)


def cider_per_image(candidates: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> list[float]:
    """Per-image CIDEr; document frequency counts the images whose reference
    holds the n-gram."""
    _check_pairs(candidates, references, "CIDEr")
    n_images = len(candidates)
    df: list[Counter] = [Counter() for _ in range(MAX_N + 1)]
    for ref in references:
        for n in range(1, MAX_N + 1):
            df[n].update(ngram_counts(ref, n).keys())

    def vector(tokens: TokenSeq, n: int) -> dict:
        counts = ngram_counts(tokens, n)
        tot = sum(counts.values())
        if tot == 0:
            return {}
        return {
            g: (c / tot) * math.log(n_images / max(1, df[n][g])) for g, c in counts.items()
        }

    def cosine(u: dict, v: dict) -> float:
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return sum(x * v.get(g, 0.0) for g, x in u.items()) / (nu * nv)

    return [
        sum(cosine(vector(cand, n), vector(ref, n)) for n in range(1, MAX_N + 1)) / MAX_N
        for cand, ref in zip(candidates, references)
    ]


def cider(candidates: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> float:
    scores = cider_per_image(candidates, references)
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# file-level evaluation


@dataclass
class SampleScores:
    id: str
    bleu4_smoothed: float
    rouge_l: float
    cider: float


@dataclass
class MetricReport:
    bleu: list[float]  # BLEU-1..4
    rouge_l: float
    cider: float
    samples: list[SampleScores]

    def to_dict(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        lines = []
        for k, v in zip(range(1, 5), self.bleu):
            lines.append(f"BLEU-{k}   {v:.4f}")
        lines.append(f"ROUGE-L  {self.rouge_l:.4f}")
        lines.append(f"CIDEr    {self.cider:.4f}")
        if self.samples:
            width = max(len("id"), max(len(s.id) for s in self.samples))
            lines.append("")
            lines.append(f"{'id':<{width}}  BLEU-4s  ROUGE-L  CIDEr")
            for s in self.samples:
                lines.append(
                    f"{s.id:<{width}}  {s.bleu4_smoothed:7.4f}  {s.rouge_l:7.4f}  {s.cider:6.4f}"
                )
        return "\n".join(lines)


def _load_pairs(path: str | Path, role: str) -> dict[str, str]:
    """JSON-lines of {id, text}; empty text is rejected with its id."""
    out: dict[str, str] = {}
    for where, rid, obj in read_json_lines(path, role):
        text = obj.get("text")
        if not isinstance(text, str):
            raise ValueError(f"{where}: missing required field 'text'")
        if not text.strip():
            raise ValueError(f"{where}: empty {role} text for id {rid!r}")
        out[rid] = text
    if not out:
        raise ValueError(f"{path}: no {role} records")
    return out


def evaluate_corpus(predictions_path: str | Path, references_path: str | Path) -> MetricReport:
    """Score a predictions file against a references file, aligned by id.

    Samples are reported in predictions-file order; the id sets must match
    exactly.
    """
    preds = _load_pairs(predictions_path, "prediction")
    refs = _load_pairs(references_path, "reference")
    missing_refs = sorted(set(preds) - set(refs))
    missing_preds = sorted(set(refs) - set(preds))
    if missing_refs or missing_preds:
        parts = []
        if missing_refs:
            parts.append(f"ids without references: {', '.join(missing_refs)}")
        if missing_preds:
            parts.append(f"ids without predictions: {', '.join(missing_preds)}")
        raise ValueError("id mismatch: " + "; ".join(parts))
    ids = list(preds)
    cands = [tokenize(preds[i]) for i in ids]
    refseqs = [tokenize(refs[i]) for i in ids]
    bleu_scores = bleu(cands, refseqs)
    per_rouge = [rouge_l(c, r) for c, r in zip(cands, refseqs)]
    per_cider = cider_per_image(cands, refseqs)
    samples = [
        SampleScores(rid, bleu([c], [r], smooth=True)[3], rl, cd)
        for rid, c, r, rl, cd in zip(ids, cands, refseqs, per_rouge, per_cider)
    ]
    return MetricReport(
        bleu=bleu_scores,
        rouge_l=sum(per_rouge) / len(per_rouge),
        cider=sum(per_cider) / len(per_cider),
        samples=samples,
    )
