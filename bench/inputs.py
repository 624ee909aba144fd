"""Seeded input generator: feature files, a corpus and, where needed, a checkpoint.

The same workload and seed always produce byte-identical files, and
``digest`` fingerprints them so two runs can confirm they read the same
inputs. Run as a script to write one workload's inputs to a directory:

    python3 bench/inputs.py <workload> <seed> <out-dir>
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import program
from spec import WORKLOADS, Workload, config_dict

# The criterion-4 overfit corpus: eight short reports and their entities.
# Three record pairs share a feature file, so only the mined knowledge tells
# those reports apart.
DESK_REPORTS = [
    "the lungs are clear .",
    "there is a small right pneumothorax .",
    "mild edema in the lower lung .",
    "heart is enlarged with cardiomegaly .",
    "no pleural effusion is seen .",
    "large consolidation in the right lung .",
    "the trachea is deviated to the left .",
    "bones are normal without fracture .",
]
DESK_ENTITIES = [
    [("lungs", "ANATOMY"), ("clear", "OBSERVATION")],
    [("small", "OBSERVATION_MODIFIER"), ("right", "ANATOMY_MODIFIER"), ("pneumothorax", "OBSERVATION")],
    [("mild", "OBSERVATION_MODIFIER"), ("edema", "OBSERVATION"), ("lower", "ANATOMY_MODIFIER"), ("lung", "ANATOMY")],
    [("heart", "ANATOMY"), ("enlarged", "OBSERVATION"), ("cardiomegaly", "OBSERVATION")],
    [("pleural effusion", "OBSERVATION")],
    [("large", "OBSERVATION_MODIFIER"), ("consolidation", "OBSERVATION"), ("right", "ANATOMY_MODIFIER"), ("lung", "ANATOMY")],
    [("trachea", "ANATOMY"), ("deviated", "OBSERVATION"), ("left", "ANATOMY_MODIFIER")],
    [("normal", "OBSERVATION"), ("fracture", "OBSERVATION")],
]
DESK_ALIASES = {1: 0, 4: 3, 7: 6}

# Chest-lexicon words for the generated full-width reports. The NOVEL_* terms
# are absent from the bundled base graph, so each record's graph grows.
ANATOMY = ["lung", "heart", "pleura", "mediastinum", "spine", "diaphragm", "bone"]
NOVEL_ANATOMY = ["lungs", "rib", "trachea"]
OBSERVATION = ["opacity", "consolidation", "pneumonia", "edema", "emphysema", "atelectasis",
               "nodule", "infiltrate", "cardiomegaly", "pneumothorax", "fracture", "normal"]
NOVEL_OBSERVATION = ["clear", "enlarged", "deviated", "effusion"]
MODIFIERS = ["left", "right", "upper", "lower", "bilateral", "mild", "moderate", "severe",
             "small", "large", "possible", "probable"]
FILLER = ["the", "is", "are", "no", "there", "with", "in", "of", "and", "."]
REPORT_WORDS = ANATOMY + NOVEL_ANATOMY + OBSERVATION + NOVEL_OBSERVATION + MODIFIERS + FILLER

CORPUS = "corpus.jsonl"
CHECKPOINT = "model.ckpt"


def write_fmat(path: Path, values: np.ndarray) -> None:
    """FMAT v1: a ``FMAT v1 <rows> <cols>`` header, then one row per line."""
    lines = [f"FMAT v1 {values.shape[0]} {values.shape[1]}"]
    lines += [" ".join(repr(float(x)) for x in row) for row in values]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _desk_records(rng: np.random.Generator, out: Path, w: Workload) -> list[dict]:
    for i in range(w.records):
        if i not in DESK_ALIASES:
            write_fmat(out / f"feats/r{i:02d}.fmat", rng.normal(0.0, 1.0, (w.view_rows, w.view_cols)))
    return [
        {
            "id": f"r{i:02d}",
            "features": [f"feats/r{DESK_ALIASES.get(i, i):02d}.fmat"],
            "report": report,
            "entities": [{"text": t, "type": ty} for t, ty in entities],
        }
        for i, (report, entities) in enumerate(zip(DESK_REPORTS, DESK_ENTITIES))
    ]


def _full_records(rng: np.random.Generator, out: Path, w: Workload) -> list[dict]:
    lo, hi = w.report_tokens
    records = []
    for i in range(w.records):
        features = []
        for v in range(w.views):
            rel = f"feats/r{i:02d}_v{v}.fmat"
            write_fmat(out / rel, rng.normal(0.0, 1.0, (w.view_rows, w.view_cols)))
            features.append(rel)
        # adjacent (anatomy, observation) pairs; the first pair is always novel
        pairs = [(str(rng.choice(NOVEL_ANATOMY)), str(rng.choice(NOVEL_OBSERVATION)))]
        for _ in range(int(rng.integers(2, 5))):
            pairs.append((str(rng.choice(ANATOMY)), str(rng.choice(OBSERVATION + NOVEL_OBSERVATION))))
        entities = []
        for anatomy, observation in pairs:
            entities += [{"text": anatomy, "type": "ANATOMY"}, {"text": observation, "type": "OBSERVATION"}]
        length = int(rng.integers(lo, hi + 1))
        report = " ".join(str(t) for t in rng.choice(REPORT_WORDS, length))
        records.append({"id": f"r{i:02d}", "features": features, "report": report, "entities": entities})
    return records


def fix_decode_length(model) -> None:
    """Push the PAD, BOS and EOS logits far below the rest, so greedy decoding
    never stops early and always emits exactly the length cap."""
    head_bias = dict(model.parameters())["head.bias"]
    value = head_bias.value.copy()
    vocab = model.vocab
    value[0, [vocab.PAD, vocab.BOS, vocab.EOS]] = -1e4
    head_bias.value = value


def make_inputs(w: Workload, seed: int, out: Path) -> None:
    """Write the workload's inputs for ``seed`` under ``out``."""
    dmdk = program.load()
    (out / "feats").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name)])
    make = _full_records if w.report_tokens else _desk_records
    lines = [json.dumps(obj, sort_keys=True) for obj in make(rng, out, w)]
    (out / CORPUS).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if w.checkpoint:
        # a seeded random model: train() with zero epochs only initialises it
        records = dmdk.load_corpus(out / CORPUS)
        base = dmdk.load_base_graph(dmdk.graph.default_base_graph_path())
        model, _ = dmdk.train(records, dmdk.parse_config(config_dict(w, 0, seed)), base)
        fix_decode_length(model)
        dmdk.save_model(out / CHECKPOINT, model, base)


def digest(out: Path) -> str:
    """SHA-256 over every generated file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: inputs.py <{'|'.join(WORKLOADS)}> <seed> <out-dir>")
    make_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
