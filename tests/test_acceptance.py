"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest -v -s tests/test_acceptance.py` to watch).

The suite exercises the pipeline end to end at desk scale: metric oracles,
the label-mining scan, reverse-mode gradients, an overfit run with exact
report reproduction, the ablation direction, graph invariants, bit-level
determinism, and fusion-weight invariances.
"""

import io
import itertools
import json
import math
import statistics
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from dmdk.attention import multi_head_attention
from dmdk.autograd import Tensor
from dmdk.cli import main
from dmdk.config import effective_dict
from dmdk.graph import (
    build_specific_graph,
    default_base_graph_path,
    extract_relations,
    gcn_forward,
    load_base_graph,
    normalized_adjacency,
)
from dmdk.metrics import bleu, cider, rouge_l
from dmdk.model import (
    FusionWeights,
    fuse_knowledge,
    generate_for_records,
    run_gradient_check,
    train,
)
from dmdk.text import Entity, EntityType, load_corpus
from dmdk.topics import LabelSource, anatomy_pairs, extract_topic_labels

from conftest import (
    OVERFIT_ALIASES,
    OVERFIT_ENTITIES,
    OVERFIT_REPORTS,
    build_corpus,
    make_config,
    random_gcn,
    random_mha,
)
from oracles import (
    from_dense,
    oracle_adjacency,
    oracle_bleu,
    oracle_cider,
    oracle_normalized_adjacency,
    oracle_pairs,
    oracle_rouge,
    oracle_tags,
)


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {label}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS  {label} [{elapsed:.1f}s]", flush=True)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def overfit_records(tmp_path):
    corpus = build_corpus(
        tmp_path, OVERFIT_REPORTS, OVERFIT_ENTITIES, feature_alias=OVERFIT_ALIASES
    )
    return corpus, load_corpus(corpus)


# ---------------------------------------------------------------------------
# 1. metric implementations agree with brute-force oracles


BLEU_FIXTURES = [
    # (candidates, references): one reference per candidate
    ([["a", "b", "c", "d"]], [["a", "b", "c", "d"]]),
    ([["the", "cat", "sat"]], [["the", "cat", "sat", "on", "the", "mat"]]),
    ([["the", "the", "the"]], [["the", "cat"]]),
    ([["a", "b", "c"]], [["a", "b"]]),
    ([[]], [["a", "b"]]),
    ([["x"]], [["y"]]),
    (
        [["the", "cat", "sat", "on", "the", "mat"], ["dogs", "run", "fast"]],
        [["the", "cat", "sat", "on", "a", "mat"], ["the", "dogs", "run", "quickly"]],
    ),
    ([["a"] * 8], [["a"] * 4]),
    ([["a", "b"], ["b", "a"]], [["a", "b"], ["a", "b"]]),
    ([["p", "q", "r", "s", "t"]], [["p", "q", "x", "s", "t"]]),
]

ROUGE_FIXTURES = [
    (["a", "c"], ["a", "b", "c"]),
    (["a", "b", "c"], ["a", "b", "c"]),
    (["x"], ["y"]),
    (list("abcbdab"), list("bdcaba")),
    (["the", "cat"], ["the", "cat", "sat"]),
    (["sat", "cat", "the"], ["the", "cat", "sat"]),
    (["a"] * 5, ["a"] * 3),
    (["q", "w", "e", "r"], ["e", "r", "q", "w"]),
    (["one"], ["one"]),
    (["a", "b", "c", "d", "e"], ["b", "d"]),
]

CIDER_FIXTURES = [
    ([list("abcde"), list("fghij")], [list("abcde"), list("fghij")]),
    ([["a", "b"], ["c", "d"]], [["a", "b"], ["c", "d"]]),
    ([["a", "b"]], [["a", "b"]]),
    (
        [["the", "cat", "sat", "on", "the", "mat"], ["dogs", "run", "fast"]],
        [["the", "cat", "sat", "on", "a", "mat"], ["the", "dogs", "run", "quickly"]],
    ),
    (
        [["a", "a", "b"], ["a", "b", "b"], ["b", "a", "b"]],
        [["a", "b", "a"], ["b", "b", "a"], ["a", "a", "a"]],
    ),
    ([list("abcd"), list("abce")], [list("abcf"), list("abcg")]),
]


def test_criterion_1_metric_oracle_suite():
    with criterion(1, "metrics match brute-force oracles on hand fixtures", budget=1.0):
        assert len(BLEU_FIXTURES) + len(ROUGE_FIXTURES) + len(CIDER_FIXTURES) >= 10
        for cands, refs in BLEU_FIXTURES:
            got = bleu(cands, refs)
            want = oracle_bleu(cands, refs)
            assert got == pytest.approx(want, abs=1e-6), (cands, refs)
        for cand, ref in ROUGE_FIXTURES:
            assert rouge_l(cand, ref) == pytest.approx(
                oracle_rouge(cand, ref, 1.2), abs=1e-6
            ), (cand, ref)
        for cands, refs in CIDER_FIXTURES:
            assert cider(cands, refs) == pytest.approx(
                oracle_cider(cands, refs), abs=1e-6
            ), (cands, refs)

        # pinned derived values
        half = bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "on", "the", "mat"]])
        assert half[1] == pytest.approx(math.exp(-1), abs=1e-9)  # BLEU-2 = e^-1
        assert rouge_l(["a", "c"], ["a", "b", "c"]) == pytest.approx(0.7722, abs=1e-4)
        assert cider(*CIDER_FIXTURES[0]) == pytest.approx(1.0, abs=1e-12)
        assert cider(*CIDER_FIXTURES[2]) == 0.0


# ---------------------------------------------------------------------------
# 2. label-mining scan equals the independent oracle, exhaustively


def test_criterion_2_label_scan_exhaustive():
    with criterion(2, "pair scan equals oracle over all type sequences <= 6", budget=5.0):
        base_labels = ["opacity", "effusion"]
        symbols = [
            (name, etype)
            for name in ("alpha", "beta")
            for etype in (EntityType.ANATOMY, EntityType.OBSERVATION)
        ]
        checked = 0
        for length in range(7):
            for combo in itertools.product(symbols, repeat=length):
                seq = [Entity(text, etype) for text, etype in combo]
                pairs = anatomy_pairs(seq)
                assert [(a.text, b.text) for a, b in pairs] == [
                    (a.text, b.text) for a, b in oracle_pairs(seq)
                ]
                for a, b in pairs:
                    assert a.type is EntityType.ANATOMY
                    assert b.type is not EntityType.ANATOMY
                labels = extract_topic_labels(seq, base_labels)
                want_tags, want_source = oracle_tags(seq, base_labels)
                assert labels.tags == want_tags
                assert labels.source.value == want_source
                if not pairs:
                    assert labels.tags == base_labels
                    assert labels.source is LabelSource.BASE_FALLBACK
                checked += 1
        assert checked == (4 ** 7 - 1) // 3  # 5461 sequences


# ---------------------------------------------------------------------------
# 3. reverse-mode gradients match central finite differences


def test_criterion_3_gradient_check():
    with criterion(3, "all gradients match finite differences at 1e-4", budget=120.0):
        run = make_config(
            d=8, heads=2, decoder_layers=1, gcn_layers=2, min_freq=1, max_length=12, seed=0
        )
        results = run_gradient_check(run)
        names = [name for name, _ in results]
        assert len(names) == len(set(names))
        for expected in ("proj.weight", "embed.tokens", "gcn.embeddings",
                         "dec.0.self.wq", "dec.0.ffn.w2", "head.bias"):
            assert expected in names
        worst_name, worst = max(results, key=lambda item: item[1])
        print(f"  worst tensor {worst_name}: {worst:.3e}", flush=True)
        for name, err in results:
            assert err < 1e-4, f"{name}: relative error {err:.3e}"


# ---------------------------------------------------------------------------
# 4. overfit: loss < 0.1 and exact report reproduction, BLEU-4 = 1


def test_criterion_4_overfit_exact_reproduction(tmp_path):
    with criterion(4, "overfit corpus reproduced exactly, BLEU-4 = 1.0", budget=300.0):
        _, records = overfit_records(tmp_path)
        assert len(records) == 8
        for rec in records:
            assert len(rec.report.split()) <= 12
        run = make_config(
            d=32, heads=2, decoder_layers=1, lr=3e-3, batch=8, epochs=500, seed=0,
            ablation="full",
        )
        base = load_base_graph(default_base_graph_path())
        model, trace = train(records, run, base)
        below = next((i + 1 for i, v in enumerate(trace) if v < 0.1), None)
        print(f"  loss first under 0.1 at epoch {below}, final {trace[-1]:.4f}", flush=True)
        assert below is not None and below <= 500

        outputs = generate_for_records(model, records, base, "all")
        for (rid, text), rec in zip(outputs, records):
            assert rid == rec.id
            assert text == rec.report, f"{rid}: {text!r} != {rec.report!r}"
        scores = bleu(
            [text.split() for _, text in outputs],
            [rec.report.split() for rec in records],
        )
        assert scores[3] == 1.0


# ---------------------------------------------------------------------------
# 5. ablation direction: full fits at least as well as base


def test_criterion_5_ablation_direction(tmp_path):
    with criterion(5, "median final loss: full <= base over seeds 0,1,2"):
        _, records = overfit_records(tmp_path)
        base = load_base_graph(default_base_graph_path())
        finals = {}
        for mode in ("full", "base"):
            finals[mode] = []
            for seed in (0, 1, 2):
                run = make_config(
                    d=16, heads=2, decoder_layers=1, lr=3e-3, batch=8, epochs=200,
                    seed=seed, ablation=mode,
                )
                _, trace = train(records, run, base)
                finals[mode].append(trace[-1])
        med_full = statistics.median(finals["full"])
        med_base = statistics.median(finals["base"])
        print(f"  full median {med_full:.4f}, base median {med_base:.4f}", flush=True)
        assert med_full <= med_base


# ---------------------------------------------------------------------------
# 6. specific-graph invariants on randomized records


def test_criterion_6_graph_invariants():
    with criterion(6, "graph superset/addition invariants and bitwise GCN equivariance"):
        base = load_base_graph(default_base_graph_path())
        rng = np.random.default_rng(2024)
        names = ["lung", "heart", "opacity", "trachea", "airway", "mass", "lesion"]
        types = list(EntityType)

        novel = [n for n in names if base.node_index(n) is None]
        gcn = random_gcn(base.names + novel, 8, rng, n_layers=2)
        for _ in range(100):
            seq = [
                Entity(names[rng.integers(len(names))], types[rng.integers(len(types))])
                for _ in range(rng.integers(0, 8))
            ]
            triples = extract_relations(seq)
            g = build_specific_graph(base, triples)

            assert set(g.names) >= set(base.names)
            mentioned = {s for s, _, _ in triples} | {t for _, t, _ in triples}
            for added in set(g.names) - set(base.names):
                assert added in mentioned

            out = gcn_forward(g.names, normalized_adjacency(g), gcn).value
            perm = rng.permutation(g.node_count())
            permuted_names = [g.names[i] for i in perm]
            a_perm = from_dense(oracle_normalized_adjacency(oracle_adjacency(g)[np.ix_(perm, perm)]))
            out_perm = gcn_forward(permuted_names, a_perm, gcn).value
            assert np.array_equal(out_perm, out[perm])

        fixture = [Entity("trachea", EntityType.ANATOMY), Entity("deviated", EntityType.OBSERVATION)]
        g = build_specific_graph(base, extract_relations(fixture))
        assert base.node_index("trachea") is None
        assert g.node_index("trachea") is not None


# ---------------------------------------------------------------------------
# 7. bit-identical training and generation under a fixed seed


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "train + generate are bit-identical across runs"):
        corpus, _ = overfit_records(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(effective_dict(make_config(epochs=3, seed=0))), encoding="utf-8"
        )
        blobs = {}
        for tag in ("one", "two"):
            ckpt = tmp_path / f"{tag}.ckpt"
            preds = tmp_path / f"{tag}.jsonl"
            with redirect_stdout(io.StringIO()):
                assert main(["train", "--config", str(cfg), "--corpus", str(corpus), "--out", str(ckpt)]) == 0
                assert main(["generate", "--model", str(ckpt), "--corpus", str(corpus), "--out", str(preds)]) == 0
            blobs[tag] = (ckpt.read_bytes(), preds.read_bytes())
        assert blobs["one"][0] == blobs["two"][0]  # checkpoints
        assert blobs["one"][1] == blobs["two"][1]  # predictions


# ---------------------------------------------------------------------------
# 8. fusion-weight invariances


def test_criterion_8_fusion_invariances():
    with criterion(8, "raw-weight scale invariance and self-fusion collapse"):
        rng = np.random.default_rng(88)
        params = random_mha(16, 4, rng)
        x = Tensor(rng.normal(size=(6, 16)))
        w = Tensor(rng.normal(size=(6, 16)))
        m = Tensor(rng.normal(size=(6, 16)))

        reference = fuse_knowledge(x, w, m, FusionWeights.from_raw(1.0, 2.0, 5.0), params)
        for c in (0.5, 2.0, 10.0):
            scaled = fuse_knowledge(
                x, w, m, FusionWeights.from_raw(1.0 * c, 2.0 * c, 5.0 * c), params
            )
            assert np.array_equal(scaled.value, reference.value), f"scale {c}"

        collapsed = fuse_knowledge(x, x, x, FusionWeights.from_raw(3.0, 1.0, 4.0), params)
        plain = multi_head_attention(x, x, params)
        edge = np.abs(collapsed.value - plain.value).max()
        print(f"  self-fusion max deviation {edge:.2e}", flush=True)
        assert edge < 1e-12
