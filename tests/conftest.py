"""Shared fixture builders: small corpora with real feature files on disk."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dmdk.attention import MhaParams, pack
from dmdk.autograd import Tensor
from dmdk.config import RunConfig, parse_config
from dmdk.graph import GcnParams, KnowledgeGraph

# Eight short reports built from lexicon vocabulary. The entity lists mirror
# what the bundled lexicon would produce; some records deliberately yield no
# (ANATOMY, non-ANATOMY) pair so the base-label fallback path gets exercised
# during training, and record r06 introduces the out-of-base-graph "trachea".
OVERFIT_REPORTS = [
    "the lungs are clear .",
    "there is a small right pneumothorax .",
    "mild edema in the lower lung .",
    "heart is enlarged with cardiomegaly .",
    "no pleural effusion is seen .",
    "large consolidation in the right lung .",
    "the trachea is deviated to the left .",
    "bones are normal without fracture .",
]

OVERFIT_ENTITIES = [
    [("lungs", "ANATOMY"), ("clear", "OBSERVATION")],
    [("small", "OBSERVATION_MODIFIER"), ("right", "ANATOMY_MODIFIER"), ("pneumothorax", "OBSERVATION")],
    [("mild", "OBSERVATION_MODIFIER"), ("edema", "OBSERVATION"), ("lower", "ANATOMY_MODIFIER"), ("lung", "ANATOMY")],
    [("heart", "ANATOMY"), ("enlarged", "OBSERVATION"), ("cardiomegaly", "OBSERVATION")],
    [("pleural effusion", "OBSERVATION")],
    [("large", "OBSERVATION_MODIFIER"), ("consolidation", "OBSERVATION"), ("right", "ANATOMY_MODIFIER"), ("lung", "ANATOMY")],
    [("trachea", "ANATOMY"), ("deviated", "OBSERVATION"), ("left", "ANATOMY_MODIFIER")],
    [("normal", "OBSERVATION"), ("fracture", "OBSERVATION")],
]

# Three record pairs share a feature file: visually indistinguishable studies
# whose reports only the mined knowledge can tell apart. A knowledge-free model
# faces an irreducible first-token ambiguity on those pairs, so fitting them
# separates the full pipeline from the base ablation by more than seed noise.
OVERFIT_ALIASES = {1: 0, 4: 3, 7: 6}


def same_graph(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    """Equal nodes in the same order, and equal edges with equal relations."""
    return a.nodes == b.nodes and a.edges == b.edges


def save_features(path, values) -> None:
    """Write a 2-D matrix as an FMAT v1 file, every value in its shortest round-trip form."""
    lines = [f"FMAT v1 {values.shape[0]} {values.shape[1]}"]
    lines += [" ".join(repr(float(x)) for x in row) for row in values]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_corpus(
    root: Path,
    reports,
    entity_lists=None,
    dim: int = 4,
    tokens: int = 4,
    seed: int = 11,
    feature_alias=None,
) -> Path:
    """Write feature files plus a corpus JSONL under root; returns the corpus path.

    feature_alias maps record index -> record index whose feature file it reuses.
    """
    rng = np.random.default_rng(seed)
    feature_alias = feature_alias or {}
    (root / "feats").mkdir(parents=True, exist_ok=True)
    lines = []
    for i, report in enumerate(reports):
        rel = f"feats/r{i:02d}.fmat"
        save_features(root / rel, rng.normal(0.0, 1.0, (tokens, dim)))
    for i, report in enumerate(reports):
        rel = f"feats/r{feature_alias.get(i, i):02d}.fmat"
        obj = {"id": f"r{i:02d}", "features": [rel], "report": report}
        if entity_lists is not None:
            obj["entities"] = [{"text": t, "type": ty} for t, ty in entity_lists[i]]
        lines.append(json.dumps(obj))
    path = root / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_config(
    *,
    d: int = 16,
    heads: int = 2,
    decoder_layers: int = 1,
    gcn_layers: int = 2,
    ffn_multiplier: int = 2,
    lr: float = 3e-3,
    batch: int = 8,
    weight_decay: float = 0.0,
    epochs: int = 5,
    seed: int = 0,
    min_freq: int = 1,
    max_length: int = 16,
    ablation: str = "full",
    fallback: str = "all",
    lambdas=(1.0, 1.0, 1.0),
) -> RunConfig:
    return parse_config(
        {
            "model": {
                "d": d,
                "heads": heads,
                "decoder_layers": decoder_layers,
                "gcn_layers": gcn_layers,
                "ffn_multiplier": ffn_multiplier,
            },
            "fusion": {
                "lambda1": lambdas[0],
                "lambda2": lambdas[1],
                "lambda3": lambdas[2],
            },
            "train": {
                "lr": lr,
                "batch": batch,
                "weight_decay": weight_decay,
                "epochs": epochs,
                "seed": seed,
                "min_freq": min_freq,
            },
            "decode": {"max_length": max_length},
            "labels": {"fallback": fallback},
            "ablation": ablation,
        }
    )


def random_mha(d: int, heads: int, rng: np.random.Generator) -> MhaParams:
    """An attention block of normal(0, 1/sqrt(d)) wq, wk, wv, wo, drawn in that order."""
    return MhaParams(*(Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))) for _ in range(4)), heads)


def lone(q, k):
    """The packing of one record: every row of ``q`` attends every row of ``k``."""
    return pack([q.shape[0]], [k.shape[0]])


def random_gcn(names, d: int, rng: np.random.Generator, n_layers: int = 2) -> GcnParams:
    """GCN parameters of normal(0, 1/sqrt(d)) entries: the embeddings, then each layer."""
    std = 1.0 / math.sqrt(d)
    emb = Tensor(rng.normal(0.0, std, (len(names) + 1, d)))
    return GcnParams(list(names), emb, [Tensor(rng.normal(0.0, std, (d, d))) for _ in range(n_layers)])


@pytest.fixture
def overfit_corpus(tmp_path):
    return build_corpus(
        tmp_path, OVERFIT_REPORTS, OVERFIT_ENTITIES, feature_alias=OVERFIT_ALIASES
    )
