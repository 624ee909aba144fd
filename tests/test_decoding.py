"""Cached incremental decoding against the full-prefix recompute it replaces.

``generate_greedy`` feeds one token per step through a ``DecoderCache``. The
reference here reruns ``decoder_forward`` over the whole BOS-prefixed prefix
at every step. Both must choose the same tokens, and the cached last-row
logits must match the recomputed ones to 1e-12 relative: a one-row matmul
may round differently from the same row inside a bigger one.

The cache writes each layer's self-attention keys and values in place into
buffers it grows as rows arrive; ``oracles.oracle_self_kv`` re-concatenates
the prefix instead, and the two must agree bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import dmdk.model
from dmdk.autograd import NonFiniteError, Tensor, no_grad
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
from oracles import oracle_self_kv

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
    with no_grad():
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


def random_model(d, heads, layers, vocab_size=40):
    tokens = list(Vocabulary.SPECIALS) + [f"w{i}" for i in range(vocab_size - 4)]
    spec = ModelSpec(
        d=d, heads=heads, decoder_layers=layers, gcn_layers=1, ffn_multiplier=2,
        feature_dim=4, fusion=FusionWeights.from_raw(1.0, 1.0, 1.0),
        ablation=AblationMode.FULL, max_length=16,
    )
    model = ReportModel(Vocabulary(tokens, 1), ["root"], spec, rng=np.random.default_rng(29))
    # keep PAD/BOS/EOS out of reach so every decode runs to the cap
    model.decoder.head_b.value[0, :3] = -1e3
    return model


def random_streams(d):
    """X', W' and M' of one 7-row record: ``encode_batch`` gives all three its visual rows."""
    rng = np.random.default_rng(31)
    return tuple(Tensor(rng.normal(size=(7, d))) for _ in range(3))


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


@pytest.mark.parametrize(
    "tied, first", [((9, 5), 5), ((7, Vocabulary.EOS), None)], ids=["two words", "a word and EOS"]
)
def test_greedy_breaks_an_exact_tie_toward_the_lower_id(tied, first):
    """A zero head makes every step's logits its bias; two ids share the
    largest, and each step emits the lower one (EOS ends the decode)."""
    model = random_model(d=16, heads=2, layers=1)
    model.decoder.head_w.value[:] = 0.0
    model.decoder.head_b.value[:] = 0.0
    model.decoder.head_b.value[0, list(tied)] = 1.5
    ids = generate_greedy(*random_streams(16), model.decoder, model.embed, 4)
    assert ids == ([] if first is None else [first] * 4)


def test_cached_decode_matches_recompute_at_full_width():
    model = random_model(d=512, heads=8, layers=3)
    ids = assert_cached_matches_recompute(random_streams(512), model.decoder, model.embed, 8)
    assert len(ids) == 8


def test_cached_prefill_then_steps_matches_full_logits():
    # several tokens in one cached call take the causal mask at an offset
    model = random_model(d=16, heads=2, layers=2)
    streams = random_streams(16)
    ids = [Vocabulary.BOS, 5, 9, 7, 11, 4]
    full = decoder_forward(ids, *streams, model.decoder, model.embed).value
    cache = DecoderCache()
    with no_grad():
        head = decoder_forward(ids[:3], *streams, model.decoder, model.embed, cache).value
        tail = decoder_forward(ids[3:], *streams, model.decoder, model.embed, cache).value
    np.testing.assert_allclose(np.vstack([head, tail]), full, **TOL)


# ---------------------------------------------------------------------------
# in-place cache buffers against the re-concatenating oracle


def greedy_steps(streams, dec, table, cap, prefill=()):
    """Feed BOS + ``prefill`` in one cached call, then greedy tokens one per
    step until EOS or ``cap`` of them; (emitted ids, every call's logits, cache)."""
    cache, ids, logits = DecoderCache(), [], []
    feed = [Vocabulary.BOS, *prefill]
    with no_grad():
        while len(ids) < cap:
            logits.append(decoder_forward(feed, *streams, dec, table, cache).value)
            feed = [int(np.argmax(logits[-1][-1]))]
            if feed[0] == Vocabulary.EOS:
                break
            ids += feed
    return ids, logits, cache


def assert_cache_matches_oracle(monkeypatch, *args, **kwargs):
    ids, logits, cache = greedy_steps(*args, **kwargs)
    with monkeypatch.context() as patched:
        patched.setattr(dmdk.model, "_self_kv", oracle_self_kv)
        old_ids, old_logits, _ = greedy_steps(*args, **kwargs)
    assert ids == old_ids
    assert len(logits) == len(old_logits)
    for step, (new, old) in enumerate(zip(logits, old_logits)):
        assert np.array_equal(new, old), f"step {step}"
    return ids, cache


def test_cache_matches_oracle_bitwise_on_overfit_model(overfit_model, monkeypatch):
    model, records, base = overfit_model
    labels = fallback_labels(base, "all")
    for rec in records:
        prep = prepare_record(rec, model.vocab, base, labels, model.spec, with_report=False)
        streams = encode_record(model, prep)
        ids, _ = assert_cache_matches_oracle(
            monkeypatch, streams, model.decoder, model.embed, model.spec.max_length
        )
        assert ids == generate_greedy(*streams, model.decoder, model.embed, model.spec.max_length)


def test_cache_matches_oracle_bitwise_across_buffer_growth(monkeypatch):
    model = random_model(d=512, heads=8, layers=3)
    ids, cache = assert_cache_matches_oracle(monkeypatch, random_streams(512), model.decoder, model.embed, 150)
    assert len(ids) == 150
    # 151 rows fed: capacity went 64 -> 128 -> 256
    assert [k.shape[0] for k, _ in cache.self_kv] == [256] * 3


def test_cache_matches_oracle_bitwise_after_a_prefill(monkeypatch):
    model = random_model(d=16, heads=2, layers=2)
    _, cache = assert_cache_matches_oracle(
        monkeypatch, random_streams(16), model.decoder, model.embed, 12, prefill=[5, 9, 7, 11]
    )
    assert cache.length == 5 + 11


@pytest.mark.parametrize("weight", ["wk", "wv"])
def test_a_non_finite_cached_key_or_value_raises(weight):
    model = random_model(d=16, heads=2, layers=2)
    streams, cache = random_streams(16), DecoderCache()
    with no_grad():
        decoder_forward([Vocabulary.BOS, 5], *streams, model.decoder, model.embed, cache)
        getattr(model.decoder.layers[1].self_attn, weight).value[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="self-attention keys or values contain non-finite values"):
            decoder_forward([9], *streams, model.decoder, model.embed, cache)


def test_cached_step_allocates_the_same_at_any_prefix_length():
    # a cache that re-concatenates its prefix allocates 2 x t x d x 8 bytes per
    # layer and step: 4.9 MB at t = 200 here, against 0.5 MB at t = 20
    model = random_model(d=512, heads=8, layers=3)
    streams, cache, peaks = random_streams(512), DecoderCache(), {}
    with no_grad():
        for t in range(201):
            if t in (20, 200):  # capacity 64 and 256: neither step grows a buffer
                tracemalloc.start()
            decoder_forward([5 + t % 30], *streams, model.decoder, model.embed, cache)
            if t in (20, 200):
                peaks[t] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
    assert abs(peaks[200] - peaks[20]) <= 256 * 1024, peaks
    assert cache.self_kv[0][0].shape[0] == 256
