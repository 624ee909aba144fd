"""Cached incremental decoding against the full-prefix recompute it replaces.

``generate_greedy`` feeds one token per step through a ``DecoderCache``. The
reference here reruns ``decoder_forward`` over the whole BOS-prefixed prefix
at every step. Both must choose the same tokens, and the cached last-row
logits must match the recomputed ones to 1e-12 relative: a one-row matmul
may round differently from the same row inside a bigger one.
"""

import numpy as np
import pytest

from dmdk.autograd import Tensor
from dmdk.graph import default_base_graph_path, load_base_graph
from dmdk.model import (
    AblationMode,
    DecoderCache,
    FusionWeights,
    ModelSpec,
    ReportModel,
    decoder_forward,
    encode_record,
    fallback_labels,
    generate_greedy,
    prepare_record,
    train,
)
from dmdk.text import Vocabulary, load_corpus

from conftest import OVERFIT_ALIASES, OVERFIT_ENTITIES, OVERFIT_REPORTS, build_corpus, make_config

TOL = dict(rtol=1e-12, atol=1e-12)


def recompute_greedy(streams, dec, table, cap):
    """Greedy decoding that reruns the whole prefix each step; (ids, last rows)."""
    prefix, rows = [Vocabulary.BOS], []
    while len(prefix) - 1 < cap:
        rows.append(decoder_forward(prefix, *streams, dec, table).value[-1])
        token = int(np.argmax(rows[-1]))
        if token == Vocabulary.EOS:
            break
        prefix.append(token)
    return prefix[1:], rows


def cached_rows(streams, dec, table, ids):
    """Last-row logits of each cached step, feeding BOS then ``ids``."""
    cache = DecoderCache()
    rows = [
        decoder_forward([token], *streams, dec, table, cache).value[-1]
        for token in [Vocabulary.BOS] + list(ids)
    ]
    assert cache.length == len(ids) + 1
    return rows


def assert_cached_matches_recompute(streams, dec, table, cap):
    expected, full = recompute_greedy(streams, dec, table, cap)
    ids = generate_greedy(*streams, dec, table, cap)
    assert ids == expected
    cached = cached_rows(streams, dec, table, ids)[: len(full)]
    assert len(cached) == len(full)
    for step, (a, b) in enumerate(zip(cached, full)):
        np.testing.assert_allclose(a, b, **TOL, err_msg=f"step {step}")
    return ids


def random_model(d, heads, layers, vocab_size=40, **kw):
    tokens = list(Vocabulary.SPECIALS) + [f"w{i}" for i in range(vocab_size - 4)]
    spec = ModelSpec(
        d=d, heads=heads, decoder_layers=layers, gcn_layers=1, ffn_multiplier=2,
        feature_dim=4, fusion=FusionWeights.from_raw(1.0, 1.0, 1.0),
        ablation=AblationMode.FULL, max_length=16, **kw,
    )
    model = ReportModel(Vocabulary(tokens, 1), ["root"], spec, rng=np.random.default_rng(29))
    # keep PAD/BOS/EOS out of reach so every decode runs to the cap
    model.decoder.head_b.value[0, :3] = -1e3
    return model


def random_streams(d, rows=(7, 5, 6), seed=31):
    rng = np.random.default_rng(seed)
    return tuple(Tensor(rng.normal(size=(n, d))) for n in rows)


@pytest.fixture(scope="module")
def overfit_model(tmp_path_factory):
    """The criterion-4 configuration, trained for 100 epochs: enough to
    reproduce all eight reports (the desk benchmark checks the same)."""
    root = tmp_path_factory.mktemp("overfit")
    records = load_corpus(
        build_corpus(root, OVERFIT_REPORTS, OVERFIT_ENTITIES, feature_alias=OVERFIT_ALIASES)
    )
    base = load_base_graph(default_base_graph_path())
    run = make_config(d=32, heads=2, decoder_layers=1, lr=3e-3, batch=8, epochs=100, seed=0)
    model, _ = train(records, run, base)
    return model, records, base


def test_cached_decode_matches_recompute_on_overfit_model(overfit_model):
    model, records, base = overfit_model
    labels = fallback_labels(base, "all")
    for rec in records:
        prep = prepare_record(rec, model.vocab, base, labels, model.spec, with_report=False)
        streams = encode_record(model, prep)
        ids = assert_cached_matches_recompute(streams, model.decoder, model.embed, model.spec.max_length)
        assert " ".join(model.vocab.decode(ids)) == rec.report


def test_cached_decode_matches_recompute_at_full_width():
    model = random_model(d=512, heads=8, layers=3)
    ids = assert_cached_matches_recompute(random_streams(512), model.decoder, model.embed, 8)
    assert len(ids) == 8


@pytest.mark.parametrize(
    "options", [dict(pre_norm=True), dict(learned_positions=12)], ids=["pre_norm", "learned_positions"]
)
def test_cached_decode_matches_recompute_per_variant(options):
    model = random_model(d=16, heads=2, layers=2, **options)
    ids = assert_cached_matches_recompute(random_streams(16), model.decoder, model.embed, 10)
    assert len(ids) == 10


def test_cached_prefill_then_steps_matches_full_logits():
    # several tokens in one cached call take the causal mask at an offset
    model = random_model(d=16, heads=2, layers=2)
    streams = random_streams(16)
    ids = [Vocabulary.BOS, 5, 9, 7, 11, 4]
    full = decoder_forward(ids, *streams, model.decoder, model.embed).value
    cache = DecoderCache()
    head = decoder_forward(ids[:3], *streams, model.decoder, model.embed, cache).value
    tail = decoder_forward(ids[3:], *streams, model.decoder, model.embed, cache).value
    np.testing.assert_allclose(np.vstack([head, tail]), full, **TOL)


def test_cache_serves_one_record_only():
    model = random_model(d=16, heads=2, layers=1)
    streams = random_streams(16)
    cache = DecoderCache()
    decoder_forward([Vocabulary.BOS], *streams, model.decoder, model.embed, cache)
    with pytest.raises(ValueError, match="one record"):
        decoder_forward([5], *random_streams(16, seed=2), model.decoder, model.embed, cache)


def test_learned_positions_bound_the_cached_length():
    model = random_model(d=16, heads=2, layers=1, learned_positions=3)
    streams = random_streams(16)
    cache = DecoderCache()
    decoder_forward([Vocabulary.BOS, 5, 6], *streams, model.decoder, model.embed, cache)
    with pytest.raises(ValueError, match="exceeds learned positional table"):
        decoder_forward([7], *streams, model.decoder, model.embed, cache)
