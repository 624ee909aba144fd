import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdk.text import (
    Entity,
    EntityType,
    Lexicon,
    Vocabulary,
    lexicon_tag,
    load_corpus,
    save_corpus,
    tokenize,
)


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_lowercases_and_detaches_punctuation():
    assert tokenize("Lungs are clear.") == ["lungs", "are", "clear", "."]
    assert tokenize("no edema, effusion; or mass?") == [
        "no", "edema", ",", "effusion", ";", "or", "mass", "?",
    ]


def test_tokenize_empty_input():
    assert tokenize("") == []
    assert tokenize("   \n\t ") == []


@given(st.text(max_size=80))
@settings(max_examples=100, deadline=None)
def test_tokenize_idempotent_on_joined_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def test_tokens_are_never_empty_strings():
    assert all(tokenize("a .. b ,, !!c") )


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_frequency_threshold():
    reports = [["lung", "clear", "lung"], ["lung", "clear"], ["heart"]]
    vocab = Vocabulary.build(reports, min_freq=3)
    assert "lung" in vocab.index  # frequency 3 kept
    assert "clear" not in vocab.index  # frequency 2 filtered
    assert "heart" not in vocab.index


def test_vocab_min_freq_one_keeps_everything():
    vocab = Vocabulary.build([["a", "b"], ["c"]], min_freq=1)
    assert {"a", "b", "c"} <= set(vocab.index)


def test_vocab_specials_fixed_and_first():
    vocab = Vocabulary.build([["x"] * 5], min_freq=3)
    assert vocab.tokens[:4] == list(Vocabulary.SPECIALS)
    assert (Vocabulary.PAD, Vocabulary.BOS, Vocabulary.EOS, Vocabulary.UNK) == (0, 1, 2, 3)


def test_vocab_order_is_count_desc_then_lexicographic():
    reports = [["b", "b", "a", "a", "z", "z", "z"]]
    vocab = Vocabulary.build(reports, min_freq=2)
    assert vocab.tokens[4:] == ["z", "a", "b"]


def test_vocab_independent_of_report_order():
    r1 = [["a", "b"], ["b", "c"], ["c", "b"]]
    v1 = Vocabulary.build(r1, min_freq=1)
    v2 = Vocabulary.build(list(reversed(r1)), min_freq=1)
    assert v1.tokens == v2.tokens


def test_literal_specials_in_text_encode_as_unk():
    """``<eos>`` written in a report (or a tag) is text: it must not end the
    target, and ``<pad>``/``<bos>`` must not vanish on decode."""
    tokens = tokenize("the lung <eos> is clear .")
    vocab = Vocabulary.build([tokens], min_freq=1)
    assert vocab.encode(tokens) == [vocab.index[t] if t != "<eos>" else Vocabulary.UNK for t in tokens]
    assert vocab.encode(list(Vocabulary.SPECIALS)) == [Vocabulary.UNK] * 4
    assert vocab.decode(vocab.encode(["<pad>", "lung", "<bos>"])) == ["<unk>", "lung", "<unk>"]


def test_encode_maps_oov_to_unk_and_decode_round_trips():
    vocab = Vocabulary.build([["lung", "lung", "clear", "clear"]], min_freq=2)
    ids = vocab.encode(["lung", "mystery", "clear"])
    assert ids[1] == Vocabulary.UNK
    assert vocab.decode(ids) == ["lung", "<unk>", "clear"]
    # specials are dropped on decode, never emitted
    assert vocab.decode([Vocabulary.BOS] + ids + [Vocabulary.EOS, Vocabulary.PAD]) == [
        "lung", "<unk>", "clear",
    ]


def test_decode_rejects_out_of_range():
    vocab = Vocabulary.build([["a", "a"]], min_freq=1)
    with pytest.raises(ValueError, match="out of range"):
        vocab.decode([len(vocab)])


# ---------------------------------------------------------------------------
# corpus I/O


def write_lines(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")


def test_load_corpus_reads_well_formed_records(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(
        p,
        [
            {"id": "a", "features": ["x.fmat"], "report": "ok"},
            {"id": "b", "features": ["x.fmat", "y.fmat"]},
            {"id": "c", "features": ["x.fmat"], "entities": [{"text": "lung", "type": "ANATOMY"}]},
        ],
    )
    records = load_corpus(p)
    assert [r.id for r in records] == ["a", "b", "c"]
    assert records[2].entities == [Entity("lung", EntityType.ANATOMY)]
    # relative feature paths are resolved against the corpus directory
    assert records[0].features[0] == str(tmp_path / "x.fmat")


def test_load_corpus_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "features": ["x"]}\n{oops\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"c\.jsonl:2"):
        load_corpus(p)
    p.write_text('{"id": "a", "features": ["x"]}\n["b"]\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"c\.jsonl:2: each line must be a JSON object"):
        load_corpus(p)


def test_load_corpus_skips_blank_lines_and_still_counts_them(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "features": ["x"]}\n\n   \n{"id": "b", "features": ["x"]}\n', encoding="utf-8")
    assert [r.id for r in load_corpus(p)] == ["a", "b"]
    p.write_text('{"id": "a", "features": ["x"]}\n\n   \n{"id": "b", "features": 3}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"c\.jsonl:4: 'features' must list"):
        load_corpus(p)


def test_load_corpus_missing_report_named_when_required(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, [{"id": "a", "features": ["x.fmat"]}])
    with pytest.raises(ValueError, match="report"):
        load_corpus(p, require_report=True)


def test_load_corpus_rejects_duplicate_ids_and_bad_features(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(
        p,
        [
            {"id": "a", "features": ["x.fmat"]},
            {"id": "a", "features": ["y.fmat"]},
        ],
    )
    with pytest.raises(ValueError, match="duplicate"):
        load_corpus(p)
    write_lines(p, [{"id": "a", "features": []}])
    with pytest.raises(ValueError, match="features"):
        load_corpus(p)
    write_lines(p, [{"id": "a", "features": ["1", "2", "3"]}])
    with pytest.raises(ValueError, match="features"):
        load_corpus(p)


def test_load_corpus_rejects_unknown_entity_type(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(
        p, [{"id": "a", "features": ["x"], "entities": [{"text": "t", "type": "NOPE"}]}]
    )
    with pytest.raises(ValueError, match="NOPE"):
        load_corpus(p)


def test_corpus_round_trip_preserves_records(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(
        p,
        [
            {
                "id": "a",
                "features": ["x.fmat"],
                "report": "Lungs are clear.",
                "entities": [{"text": "lungs", "type": "ANATOMY"}],
            }
        ],
    )
    records = load_corpus(p)
    q = tmp_path / "copy.jsonl"
    save_corpus(q, records)
    again = load_corpus(q)
    assert again == records


# ---------------------------------------------------------------------------
# lexicon tagger


def make_lexicon(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Lexicon.load(path)


def test_lexicon_tags_heart_cardiomegaly(tmp_path):
    lex = make_lexicon(
        tmp_path / "l.tsv", ["heart\tANATOMY", "cardiomegaly\tOBSERVATION"]
    )
    out = lexicon_tag(["heart", "cardiomegaly"], lex)
    assert out == [
        Entity("heart", EntityType.ANATOMY),
        Entity("cardiomegaly", EntityType.OBSERVATION),
    ]


def test_empty_lexicon_tags_nothing(tmp_path):
    lex = make_lexicon(tmp_path / "l.tsv", ["# only a comment"])
    assert lexicon_tag(["anything", "at", "all"], lex) == []


def test_longest_match_beats_prefix(tmp_path):
    lex = make_lexicon(
        tmp_path / "l.tsv",
        ["pleural\tANATOMY", "pleural effusion\tOBSERVATION"],
    )
    out = lexicon_tag(["pleural", "effusion"], lex)
    assert out == [Entity("pleural effusion", EntityType.OBSERVATION)]
    # the one-word entry still fires when the longer term cannot complete
    assert lexicon_tag(["pleural", "space"], lex) == [Entity("pleural", EntityType.ANATOMY)]


def test_lexicon_rejects_malformed_lines(tmp_path):
    p = tmp_path / "l.tsv"
    p.write_text("justonefield\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"l\.tsv:1"):
        Lexicon.load(p)
    p.write_text("term\tNOT_A_TYPE\n", encoding="utf-8")
    with pytest.raises(ValueError, match="NOT_A_TYPE"):
        Lexicon.load(p)


@given(st.lists(st.sampled_from(["heart", "lung", "clear", "wild", "mass"]), max_size=8))
@settings(max_examples=60, deadline=None)
def test_lexicon_tag_types_always_in_enum(tokens):
    lex = Lexicon(
        {
            ("heart",): EntityType.ANATOMY,
            ("lung",): EntityType.ANATOMY,
            ("clear", "lung"): EntityType.OBSERVATION,
        }
    )
    for ent in lexicon_tag(tokens, lex):
        assert isinstance(ent.type, EntityType)
