import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdk.metrics import (
    MetricReport,
    bleu,
    cider,
    cider_per_image,
    evaluate_corpus,
    lcs_len,
    ngram_counts,
    rouge_l,
)

from oracles import oracle_bleu, oracle_cider, oracle_lcs, oracle_rouge

tokens = st.lists(st.sampled_from("a b c d e".split()), min_size=0, max_size=8)
sentences = st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=8)


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# n-gram counting


def test_ngram_counts_bigrams():
    c = ngram_counts(["a", "b", "a", "b"], 2)
    assert c == {("a", "b"): 2, ("b", "a"): 1}


def test_ngram_counts_order_longer_than_sequence():
    assert ngram_counts(["a"], 2) == {}


# ---------------------------------------------------------------------------
# BLEU: frozen values


def test_bleu_perfect_match_is_all_ones():
    assert bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d"]]) == [1.0] * 4


def test_bleu_short_candidate_brevity_penalty():
    # 3 of 4 reference tokens, all n-grams up to 3 match; no 4-grams exist
    got = bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    e = math.exp(-1 / 3)
    assert got == pytest.approx([e, e, e, 0.0], abs=1e-12)
    assert got[0] == pytest.approx(0.7165313105737893, abs=1e-15)


def test_bleu_unigram_clipping():
    # "the" appears once in the reference, so only one of three counts;
    # the candidate is longer than the reference, so no brevity penalty
    got = bleu([["the", "the", "the"]], [["the", "cat"]])
    assert got[0] == pytest.approx(1 / 3, abs=1e-12)


def test_bleu_zero_precision_zeroes_higher_orders():
    got = bleu([["a", "b", "c"]], [["a", "b", "d"]])
    assert got == pytest.approx([2 / 3, math.sqrt(1 / 3), 0.0, 0.0], abs=1e-12)


def test_bleu_smoothing_frozen_case():
    got = bleu([["a", "b", "c"]], [["a", "b", "d"]], smooth=True)
    assert got == pytest.approx(
        [2 / 3, 2 / 3, (2 / 9) ** (1 / 3), (2 / 9) ** 0.25], abs=1e-12
    )


def test_bleu_corpus_frozen():
    # 9 candidate tokens against 10 reference tokens: brevity penalty e^(-1/9)
    cands = [["the", "cat", "sat", "on", "the", "mat"], ["dogs", "run", "fast"]]
    refs = [["the", "cat", "sat", "on", "a", "mat"], ["the", "dogs", "run", "quickly"]]
    got = bleu(cands, refs)
    assert got == pytest.approx(
        [
            0.6959861353000654,
            0.596559544542913,
            0.5031578066650267,
            0.4415034607719595,
        ],
        abs=1e-12,
    )
    assert got[0] == pytest.approx(7 / 9 * math.exp(-1 / 9), abs=1e-15)


def test_bleu_empty_candidate_scores_zero():
    assert bleu([[]], [["a", "b"]]) == [0.0] * 4


def test_bleu_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="candidates"):
        bleu([["a"]], [])


def test_bleu_rejects_empty_reference():
    with pytest.raises(ValueError, match="sample 1 has an empty reference"):
        bleu([["a"], ["b"]], [["a"], []])


@pytest.mark.parametrize("metric", [bleu, cider_per_image])
@pytest.mark.parametrize(
    "candidates, references",
    [
        ([["a"], ["a", "b"]], [["a"], [["a", "b"], ["a"]]]),  # the old list-of-alternatives form
        ([["a"], ["a", 2]], [["a"], ["a", "b"]]),
        ([["a"], ["a", "b"]], [["a"], ["a", None]]),
    ],
)
def test_bleu_and_cider_refuse_tokens_that_are_not_strings(metric, candidates, references):
    with pytest.raises(ValueError, match="sample 1: tokens must be strings, one reference token list per candidate"):
        metric(candidates, references)


def test_bleu_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(41)
    vocab = "a b c d".split()
    for _ in range(30):
        cands, refs = [], []
        for _ in range(rng.integers(1, 4)):
            cands.append([vocab[i] for i in rng.integers(0, 4, rng.integers(1, 9))])
            refs.append([vocab[i] for i in rng.integers(0, 4, rng.integers(1, 9))])
        assert bleu(cands, refs) == pytest.approx(oracle_bleu(cands, refs), abs=1e-12)


@given(st.lists(st.tuples(sentences, sentences), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_bleu_corpus_order_invariance(pairs):
    cands = [c for c, _ in pairs]
    refs = [r for _, r in pairs]
    forward = bleu(cands, refs)
    backward = bleu(cands[::-1], refs[::-1])
    assert forward == pytest.approx(backward, abs=1e-12)


@given(sentences, sentences)
@settings(max_examples=60, deadline=None)
def test_bleu_bounded(c, r):
    for v in bleu([c], [r], smooth=True):
        assert 0.0 <= v <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# ROUGE-L


def test_lcs_frozen_cases():
    assert lcs_len(["a", "c"], ["a", "b", "c"]) == 2
    assert lcs_len([], ["a"]) == 0
    assert lcs_len(list("abcbdab"), list("bdcaba")) == 4


@given(tokens, tokens)
@settings(max_examples=80, deadline=None)
def test_lcs_matches_oracle_and_is_symmetric(x, y):
    assert lcs_len(x, y) == oracle_lcs(x, y) == oracle_lcs(y, x)
    assert lcs_len(x, y) <= min(len(x), len(y))


def test_rouge_l_frozen_value():
    assert rouge_l(["a", "c"], ["a", "b", "c"]) == pytest.approx(
        0.7721518987341772, abs=1e-12
    )


def test_rouge_l_identity():
    assert rouge_l(["x", "y"], ["x", "y"]) == pytest.approx(1.0, abs=1e-12)


def test_rouge_l_empty_sides_are_zero():
    assert rouge_l([], ["a"]) == 0.0
    assert rouge_l(["a"], []) == 0.0


@pytest.mark.parametrize("candidate, reference", [(["a"], [["a"]]), ([["a"]], ["a"]), ([1], [1])])
def test_rouge_l_refuses_tokens_that_are_not_strings(candidate, reference):
    with pytest.raises(ValueError, match="ROUGE-L tokens must be strings"):
        rouge_l(candidate, reference)


@given(sentences, sentences)
@settings(max_examples=60, deadline=None)
def test_rouge_matches_oracle(c, r):
    assert rouge_l(c, r) == pytest.approx(oracle_rouge(c, r, 1.2), abs=1e-12)
    assert 0.0 <= rouge_l(c, r) <= 1.0


# ---------------------------------------------------------------------------
# CIDEr


def test_cider_identity_on_disjoint_corpus():
    # two images with no shared vocabulary: every n-gram is informative and
    # each candidate equals its reference, so consensus is exact
    cands = [list("abcde"), list("fghij")]
    refs = [list("abcde"), list("fghij")]
    assert cider(cands, refs) == pytest.approx(1.0, abs=1e-12)


def test_cider_short_sentences_lose_missing_orders():
    # length-2 sentences have no 3- or 4-grams, so two of four orders score 0
    cands = [["a", "b"], ["c", "d"]]
    refs = [["a", "b"], ["c", "d"]]
    assert cider(cands, refs) == pytest.approx(0.5, abs=1e-12)


def test_cider_single_image_is_zero():
    # with one image every reference n-gram has idf log(1/1) = 0
    assert cider([["a", "b"]], [["a", "b"]]) == 0.0


def test_cider_corpus_frozen():
    cands = [["the", "cat", "sat", "on", "the", "mat"], ["dogs", "run", "fast"]]
    refs = [["the", "cat", "sat", "on", "a", "mat"], ["the", "dogs", "run", "quickly"]]
    per = cider_per_image(cands, refs)
    assert per == pytest.approx(
        [0.5819401310833123, 0.2687287392826324], abs=1e-12
    )
    assert cider(cands, refs) == pytest.approx(sum(per) / len(per), abs=1e-12)
    assert cider(cands, refs) == pytest.approx(oracle_cider(cands, refs), abs=1e-12)


def test_cider_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(43)
    vocab = "a b c d e".split()
    for _ in range(20):
        n_imgs = int(rng.integers(2, 5))
        cands, refs = [], []
        for _ in range(n_imgs):
            cands.append([vocab[i] for i in rng.integers(0, 5, rng.integers(1, 8))])
            refs.append([vocab[i] for i in rng.integers(0, 5, rng.integers(1, 8))])
        assert cider(cands, refs) == pytest.approx(
            oracle_cider(cands, refs), abs=1e-12
        )


def test_cider_invariant_to_image_order():
    cands = [list("abcd"), list("bcda"), list("cdab")]
    refs = [list("abcd"), list("dcba"), list("cdab")]
    base = cider_per_image(cands, refs)
    perm = [2, 0, 1]
    moved = cider_per_image([cands[i] for i in perm], [refs[i] for i in perm])
    assert moved == pytest.approx([base[i] for i in perm], abs=1e-12)


# ---------------------------------------------------------------------------
# corpus evaluation over files


def corpus_files(tmp_path):
    preds = write_jsonl(
        tmp_path / "preds.jsonl",
        [
            {"id": "r1", "text": "the lungs are clear ."},
            {"id": "r2", "text": "heart size is enlarged ."},
        ],
    )
    refs = write_jsonl(
        tmp_path / "refs.jsonl",
        [
            {"id": "r2", "text": "the heart is enlarged ."},
            {"id": "r1", "text": "the lungs are clear ."},
        ],
    )
    return preds, refs


def test_evaluate_corpus_end_to_end(tmp_path):
    report = evaluate_corpus(*corpus_files(tmp_path))
    assert isinstance(report, MetricReport)
    assert [s.id for s in report.samples] == ["r1", "r2"]  # prediction order
    assert report.samples[0].rouge_l == pytest.approx(1.0, abs=1e-12)
    d = report.to_dict()
    json.dumps(d)
    assert d["bleu"][0] == pytest.approx(report.bleu[0])
    text = report.table()
    assert "BLEU-4" in text and "ROUGE-L" in text and "r2" in text


def test_evaluate_corpus_id_mismatch_lists_both_sides(tmp_path):
    preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x"}])
    refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "b", "text": "x"}])
    with pytest.raises(ValueError) as err:
        evaluate_corpus(preds, refs)
    assert "a" in str(err.value) and "b" in str(err.value)


def test_evaluate_corpus_duplicate_id_rejected(tmp_path):
    preds = write_jsonl(
        tmp_path / "p.jsonl", [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}]
    )
    refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
    with pytest.raises(ValueError, match="duplicate.*'a'"):
        evaluate_corpus(preds, refs)


def test_evaluate_corpus_empty_text_names_id(tmp_path):
    preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "   "}])
    refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
    with pytest.raises(ValueError, match="'a'"):
        evaluate_corpus(preds, refs)


def test_evaluate_corpus_bad_json_line_numbered(tmp_path):
    p = tmp_path / "p.jsonl"
    p.write_text('{"id": "a", "text": "x"}\n{oops\n', encoding="utf-8")
    refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
    with pytest.raises(ValueError, match=r"p\.jsonl:2"):
        evaluate_corpus(p, refs)


def test_evaluate_corpus_missing_key_rejected(tmp_path):
    preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a"}])
    refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
    with pytest.raises(ValueError, match="text"):
        evaluate_corpus(preds, refs)


def test_evaluate_corpus_per_sample_bleu_is_smoothed_singleton(tmp_path):
    preds, refs = corpus_files(tmp_path)
    report = evaluate_corpus(preds, refs)
    c = "heart size is enlarged .".split()
    r = "the heart is enlarged .".split()
    assert report.samples[1].bleu4_smoothed == pytest.approx(
        bleu([c], [r], smooth=True)[3], abs=1e-15
    )
