import itertools

import numpy as np
import pytest

from dmdk.attention import heads_attention, multi_head_attention, project_kv, sinusoidal_encoding
from dmdk.autograd import Tensor, matmul
from dmdk.text import Entity, EntityType, Vocabulary
from dmdk.topics import (
    DiseaseTopicLabels,
    LabelSource,
    anatomy_pairs,
    extract_topic_labels,
    pool_tag_embeddings,
)

from conftest import lone, random_mha
from oracles import oracle_pairs, oracle_tags

RNG = np.random.default_rng(13)

A = EntityType.ANATOMY
O = EntityType.OBSERVATION
BASE = ["normal", "opacity", "effusion"]


def ents(*pairs):
    return [Entity(t, ty) for t, ty in pairs]


# ---------------------------------------------------------------------------
# the pair scan


def test_heart_cardiomegaly_pair():
    labels = extract_topic_labels(ents(("heart", A), ("cardiomegaly", O)), BASE)
    assert labels.tags == ["heart", "cardiomegaly"]
    assert labels.source is LabelSource.DYNAMIC


def test_all_anatomy_falls_back_to_base_labels():
    labels = extract_topic_labels(ents(("lung", A), ("heart", A)), BASE)
    assert labels.tags == BASE
    assert labels.source is LabelSource.BASE_FALLBACK


def test_anatomy_followed_by_anatomy_is_skipped():
    labels = extract_topic_labels(
        ents(("lung", A), ("lobe", A), ("opacity", O)), BASE
    )
    assert labels.tags == ["lobe", "opacity"]


def test_trailing_anatomy_emits_nothing():
    labels = extract_topic_labels(ents(("opacity", O), ("lung", A)), BASE)
    assert labels.source is LabelSource.BASE_FALLBACK


def test_duplicate_tags_collapse_first_seen():
    labels = extract_topic_labels(
        ents(("lung", A), ("opacity", O), ("lung", A), ("edema", O)), BASE
    )
    assert labels.tags == ["lung", "opacity", "edema"]


def test_empty_entity_list_falls_back():
    labels = extract_topic_labels([], BASE)
    assert labels.tags == BASE
    assert labels.source is LabelSource.BASE_FALLBACK


def test_base_labels_must_be_nonempty():
    with pytest.raises(ValueError, match="base_labels"):
        extract_topic_labels([], [])


def test_pair_provenance_alternates():
    seq = ents(("a", A), ("b", O), ("c", A), ("d", EntityType.UNCERTAINTY))
    for anat, other in anatomy_pairs(seq):
        assert anat.type is A
        assert other.type is not A


def test_scan_matches_regex_oracle_exhaustively_to_length_5():
    # both entity-name alphabets and both types at every position
    names = ["n0", "n1"]
    types = [A, O]
    for length in range(6):
        for combo in itertools.product(itertools.product(names, types), repeat=length):
            seq = ents(*combo)
            assert anatomy_pairs(seq) == oracle_pairs(seq)
            got = extract_topic_labels(seq, BASE)
            want_tags, want_source = oracle_tags(seq, BASE)
            assert got.tags == want_tags
            assert got.source.value == want_source


# ---------------------------------------------------------------------------
# embedding and enhancement


def make_vocab():
    return Vocabulary.build([["heart", "cardiomegaly", "left", "lung"] * 2], min_freq=1)


def make_table(vocab_size, d):
    return Tensor(RNG.normal(0.0, 1.0 / np.sqrt(d), (vocab_size, d)))


def tag_ids(labels, vocab):
    """Token ids per tag, as ``prepare_record`` encodes them."""
    return [vocab.encode(tag.split()) for tag in labels.tags]


def test_single_tag_embeds_to_its_token_row_plus_position_zero():
    vocab = make_vocab()
    table = make_table(len(vocab), 6)
    labels = DiseaseTopicLabels(["heart"], LabelSource.DYNAMIC)
    out = pool_tag_embeddings(tag_ids(labels, vocab), table).value
    tid = vocab.encode(["heart"])[0]
    expected = table.value[tid] + sinusoidal_encoding(1, 6)[0]
    assert np.allclose(out, [expected], atol=1e-12)


def test_multi_word_tag_mean_pools_its_rows():
    vocab = make_vocab()
    table = make_table(len(vocab), 4)
    ids = vocab.encode(["left", "lung"])
    out = pool_tag_embeddings([ids], table).value
    rows = table.value[ids] + sinusoidal_encoding(2, 4)
    assert np.allclose(out, rows.mean(axis=0, keepdims=True), atol=1e-12)


def test_label_matrix_shape_is_tags_by_d():
    vocab = make_vocab()
    table = make_table(len(vocab), 4)
    labels = DiseaseTopicLabels(["heart", "left lung", "cardiomegaly"], LabelSource.DYNAMIC)
    assert pool_tag_embeddings(tag_ids(labels, vocab), table).shape == (3, 4)


def test_oov_tag_tokens_map_to_unk():
    vocab = make_vocab()
    table = make_table(len(vocab), 4)
    labels = DiseaseTopicLabels(["zzz"], LabelSource.DYNAMIC)
    out = pool_tag_embeddings(tag_ids(labels, vocab), table).value
    unk = table.value[Vocabulary.UNK] + sinusoidal_encoding(1, 4)[0]
    assert np.allclose(out, [unk], atol=1e-12)


def test_single_tag_enhancement_is_constant_rows():
    # with one key row, every pre-projection attention row is that value row,
    # so the mixed output rows are all identical
    params = random_mha(4, 2, RNG)
    x = Tensor(RNG.normal(size=(5, 4)))
    w = Tensor(RNG.normal(size=(1, 4)))
    out = multi_head_attention(x, w, params, lone(x, w)).value
    assert np.allclose(out, np.tile(out[0], (5, 1)), atol=1e-12)


def test_enhancement_shape_independent_of_tag_count():
    params = random_mha(4, 2, RNG)
    x = Tensor(RNG.normal(size=(5, 4)))
    for m in (1, 3, 9):
        w = Tensor(RNG.normal(size=(m, 4)))
        assert multi_head_attention(x, w, params, lone(x, w)).shape == (5, 4)


def test_enhancement_rows_in_projected_tag_hull_per_head():
    # before wo, every column belongs to one head and mixes that column of w @ wv
    params = random_mha(4, 2, RNG)
    x = Tensor(RNG.normal(size=(3, 4)))
    w = Tensor(RNG.normal(size=(4, 4)))
    k, v = project_kv(w, params)
    pre, _ = heads_attention(matmul(x, params.wq).value, k.value, v.value, params.heads, None, lone(x, w))
    projected = v.value
    assert (pre <= projected.max(axis=0) + 1e-12).all()
    assert (pre >= projected.min(axis=0) - 1e-12).all()
