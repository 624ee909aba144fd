import re

import numpy as np
import pytest

from dmdk.attention import multi_head_attention
from dmdk.autograd import Tensor, embedding, no_grad
from dmdk.graph import default_base_graph_path, load_base_graph
from dmdk.model import (
    AblationMode,
    FusionWeights,
    ModelSpec,
    ReportModel,
    DecoderCache,
    TrainingDiverged,
    decoder_forward,
    encode_record,
    fallback_labels,
    fuse_knowledge,
    generate_for_records,
    generate_greedy,
    load_model,
    model_meta,
    prepare_record,
    run_gradient_check,
    save_model,
    teacher_forcing_loss,
    train,
)
from dmdk.text import CorpusRecord, Entity, EntityType, Vocabulary, load_corpus, tokenize

from conftest import make_config, random_mha, save_features
from oracles import oracle_param

RNG = np.random.default_rng(53)


def small_spec(**kw):
    args = dict(
        d=16,
        heads=2,
        decoder_layers=1,
        gcn_layers=2,
        ffn_multiplier=2,
        feature_dim=4,
        fusion=FusionWeights.from_raw(1.0, 1.0, 1.0),
        ablation=AblationMode.FULL,
        max_length=16,
    )
    args.update(kw)
    return ModelSpec(**args)


def small_vocab():
    return Vocabulary.build([tokenize("the heart is enlarged . lungs are clear")], 1)


def small_model(**kw):
    return ReportModel(
        small_vocab(),
        ["root", "lung", "heart"],
        small_spec(**kw),
        rng=np.random.default_rng(7),
    )


# ---------------------------------------------------------------------------
# fusion weights


def test_fusion_weights_normalize_from_raw():
    w = FusionWeights.from_raw(1.0, 1.0, 2.0)
    assert (w.l1, w.l2, w.l3) == (0.25, 0.25, 0.5)


def test_fusion_weights_scaling_invariance_is_bitwise():
    for c in (0.5, 2.0, 10.0):
        a = FusionWeights.from_raw(1.0, 2.0, 5.0)
        b = FusionWeights.from_raw(c * 1.0, c * 2.0, c * 5.0)
        assert (a.l1, a.l2, a.l3) == (b.l1, b.l2, b.l3)


def test_fusion_weights_reject_nonpositive():
    with pytest.raises(ValueError):
        FusionWeights.from_raw(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        FusionWeights.from_raw(1.0, -1.0, 1.0)


def test_fusion_weights_reject_nonfinite():
    with pytest.raises(ValueError):
        FusionWeights.from_raw(float("inf"), 1.0, 1.0)


def test_fusion_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        FusionWeights(0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# spec


def test_spec_round_trips_through_dict():
    spec = small_spec(fusion=FusionWeights.from_raw(1.0, 2.0, 5.0), ablation=AblationMode.DKE, max_length=20)
    assert ModelSpec.from_dict(spec.to_dict()) == spec


def test_spec_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="head"):
        small_spec(d=10, heads=4)


def test_spec_rejects_nonpositive_max_length():
    with pytest.raises(ValueError, match="max_length"):
        small_spec(max_length=0)


# ---------------------------------------------------------------------------
# parameter registry


def test_parameter_count_and_naming():
    model = small_model()
    names = [n for n, _ in model.parameters()]
    assert len(names) == len(set(names))
    assert "proj.weight" in names
    assert "embed.tokens" in names
    assert "gcn.layer1.weight" in names
    for w in ("wq", "wk", "wv", "wo"):
        assert f"dec.0.self.{w}" in names
    assert not any(".h0." in n for n in names)  # one packed block, no per-head tensors
    assert "dec.0.norm4.bias" in names
    assert "head.weight" in names
    assert not any("embed.positions" == n for n in names)  # positions are sinusoidal, not trained


def test_init_is_deterministic_per_seed():
    a = ReportModel(small_vocab(), ["root"], small_spec(), rng=np.random.default_rng(3))
    b = ReportModel(small_vocab(), ["root"], small_spec(), rng=np.random.default_rng(3))
    for (n1, p1), (n2, p2) in zip(a.parameters(), b.parameters()):
        assert n1 == n2
        assert np.array_equal(p1.value, p2.value)


def test_initial_parameters_are_bitwise_the_rng_normal_draws_at_d512(monkeypatch):
    spec = small_spec(d=512, heads=8, ffn_multiplier=1)
    rngs = np.random.default_rng(19), np.random.default_rng(19)
    model = ReportModel(small_vocab(), ["root", "lung"], spec, rng=rngs[0])
    monkeypatch.setattr(ReportModel, "_param", oracle_param)
    expected = ReportModel(small_vocab(), ["root", "lung"], spec, rng=rngs[1])
    assert [n for n, _ in model.parameters()] == [n for n, _ in expected.parameters()]
    for (name, p), (_, q) in zip(model.parameters(), expected.parameters()):
        assert p.value.tobytes() == q.value.tobytes(), name
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state  # the same draws were used


def test_state_dict_round_trip():
    model = small_model()
    state = {n: p.value.copy() for n, p in model.parameters()}
    again = ReportModel(model.vocab, model.node_names, model.spec, state=state)
    for (_, p1), (_, p2) in zip(model.parameters(), again.parameters()):
        assert np.array_equal(p1.value, p2.value)


def test_state_dict_missing_tensor_rejected():
    model = small_model()
    state = {n: p.value for n, p in model.parameters()}
    state.pop("head.bias")
    with pytest.raises(ValueError, match="missing tensor 'head.bias'"):
        ReportModel(model.vocab, model.node_names, model.spec, state=state)


def test_state_dict_extra_tensor_rejected():
    model = small_model()
    state = {n: p.value for n, p in model.parameters()}
    state["rogue"] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="unexpected tensors.*rogue"):
        ReportModel(model.vocab, model.node_names, model.spec, state=state)


@pytest.mark.parametrize("name", [n for n, _ in small_model().parameters()])
def test_state_dict_shape_mismatch_rejected(name):
    # ReportModel is the one shape check of every tensor: no container repeats it
    model = small_model()
    state = {n: p.value for n, p in model.parameters()}
    state[name] = np.zeros((state[name].shape[0] + 1, state[name].shape[1]))
    with pytest.raises(ValueError, match=rf"checkpoint tensor '{re.escape(name)}' has shape"):
        ReportModel(model.vocab, model.node_names, model.spec, state=state)


def test_model_needs_rng_or_state():
    with pytest.raises(ValueError, match="rng.*state"):
        ReportModel(small_vocab(), ["root"], small_spec())


# ---------------------------------------------------------------------------
# knowledge fusion


def test_fuse_knowledge_shape_mismatch_rejected():
    params = random_mha(4, 2, RNG)
    x = Tensor(RNG.normal(size=(3, 4)))
    w = Tensor(RNG.normal(size=(2, 4)))
    with pytest.raises(ValueError, match=r"add shape mismatch: \(3, 4\) \+ \(2, 4\)"):
        fuse_knowledge(x, w, x, FusionWeights.from_raw(1, 1, 1), params)


def test_fuse_knowledge_self_collapse_matches_plain_attention():
    # when both enhanced streams equal X the mix is exactly X again
    params = random_mha(8, 2, RNG)
    x = Tensor(RNG.normal(size=(5, 8)))
    fused = fuse_knowledge(x, x, x, FusionWeights.from_raw(2.0, 3.0, 7.0), params)
    plain = multi_head_attention(x, x, params)
    assert np.allclose(fused.value, plain.value, atol=1e-12)


def test_fuse_knowledge_raw_scale_invariance_end_to_end():
    params = random_mha(8, 2, RNG)
    x = Tensor(RNG.normal(size=(4, 8)))
    w = Tensor(RNG.normal(size=(4, 8)))
    m = Tensor(RNG.normal(size=(4, 8)))
    base = fuse_knowledge(x, w, m, FusionWeights.from_raw(1.0, 2.0, 5.0), params)
    for c in (0.5, 2.0, 10.0):
        scaled = fuse_knowledge(
            x, w, m, FusionWeights.from_raw(c, 2.0 * c, 5.0 * c), params
        )
        assert np.array_equal(scaled.value, base.value)


@pytest.mark.parametrize("rows", [49, 98])
def test_fusion_invariances_hold_at_paper_width(rows):
    # criterion 8 at d=512 and 8 heads over one or two 49-row views
    rng = np.random.default_rng(rows)
    params = random_mha(512, 8, rng)
    x, w, m = (Tensor(rng.normal(size=(rows, 512))) for _ in range(3))
    base = fuse_knowledge(x, w, m, FusionWeights.from_raw(1.0, 2.0, 5.0), params)
    for c in (0.5, 2.0, 10.0):
        scaled = fuse_knowledge(x, w, m, FusionWeights.from_raw(c, 2.0 * c, 5.0 * c), params)
        assert np.array_equal(scaled.value, base.value)
    collapsed = fuse_knowledge(x, x, x, FusionWeights.from_raw(3.0, 1.0, 4.0), params)
    np.testing.assert_allclose(collapsed.value, multi_head_attention(x, x, params).value, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# decoding


def fixture_streams(model, n=3):
    d = model.spec.d
    rng = np.random.default_rng(17)
    return (
        Tensor(rng.normal(size=(n, d))),
        Tensor(rng.normal(size=(n, d))),
        Tensor(rng.normal(size=(n, d))),
    )


def test_decoder_forward_logit_shape():
    model = small_model()
    x, w, m = fixture_streams(model)
    logits = decoder_forward([Vocabulary.BOS, 5, 6], x, w, m, model.decoder, model.embed)
    assert logits.shape == (3, len(model.vocab))


def test_decoder_forward_rejects_empty_prefix():
    model = small_model()
    x, w, m = fixture_streams(model)
    with pytest.raises(ValueError, match="nonempty"):
        decoder_forward([], x, w, m, model.decoder, model.embed)


def test_decode_step_is_a_distribution():
    model = small_model()
    x, w, m = fixture_streams(model)
    cache = DecoderCache()
    with no_grad():
        decoder_forward([Vocabulary.BOS], x, w, m, model.decoder, model.embed, cache)
        last = decoder_forward([5], x, w, m, model.decoder, model.embed, cache).value[-1]
    e = np.exp(last - last.max())
    probs = e / e.sum()
    assert probs.shape == (len(model.vocab),)
    assert (probs >= 0).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_greedy_respects_cap_and_strips_specials():
    model = small_model()
    x, w, m = fixture_streams(model)
    for cap in (1, 3, 8):
        ids = generate_greedy(x, w, m, model.decoder, model.embed, cap)
        assert len(ids) <= cap
        assert Vocabulary.BOS not in ids and Vocabulary.EOS not in ids


def test_greedy_is_deterministic():
    model = small_model()
    x, w, m = fixture_streams(model)
    a = generate_greedy(x, w, m, model.decoder, model.embed, 8)
    b = generate_greedy(x, w, m, model.decoder, model.embed, 8)
    assert a == b


def test_causal_decoder_prefix_logits_stable_under_suffix():
    # autoregressive consistency: adding a token must not disturb the logits
    # already computed for earlier positions
    model = small_model()
    x, w, m = fixture_streams(model)
    short = decoder_forward([Vocabulary.BOS, 5], x, w, m, model.decoder, model.embed)
    longer = decoder_forward([Vocabulary.BOS, 5, 6], x, w, m, model.decoder, model.embed)
    assert np.array_equal(longer.value[:2], short.value)


# ---------------------------------------------------------------------------
# record preparation


def base_graph():
    return load_base_graph(default_base_graph_path())


def feature_file(tmp_path, rows=3, cols=4, seed=0):
    p = tmp_path / f"f{seed}.fmat"
    save_features(p, np.random.default_rng(seed).normal(size=(rows, cols)))
    return str(p)


def test_fallback_label_sets():
    g = base_graph()
    assert len(fallback_labels(g, "all")) == 27  # every node except the root
    assert len(fallback_labels(g, "findings")) == 20
    with pytest.raises(ValueError, match="'nope'"):
        fallback_labels(g, "nope")


def test_prepare_record_token_layout(tmp_path):
    g = base_graph()
    vocab = small_vocab()
    rec = CorpusRecord(
        "x1",
        [feature_file(tmp_path)],
        report="the heart is enlarged .",
        entities=[Entity("heart", EntityType.ANATOMY), Entity("enlarged", EntityType.OBSERVATION)],
    )
    prep = prepare_record(rec, vocab, g, fallback_labels(g), small_spec())
    ids = vocab.encode(tokenize(rec.report))
    assert prep.input_ids == [Vocabulary.BOS] + ids
    assert prep.target_ids == ids + [Vocabulary.EOS]
    assert prep.tag_token_ids  # dynamic labels from the pair
    assert prep.graph is not None
    assert (prep.a_hat.n_rows, prep.a_hat.n_cols) == (len(prep.node_names), len(prep.node_names))


def test_prepare_record_feature_width_checked(tmp_path):
    g = base_graph()
    rec = CorpusRecord("bad", [feature_file(tmp_path, cols=5)], report="x", entities=[])
    with pytest.raises(ValueError, match="record 'bad'.*width 5"):
        prepare_record(rec, small_vocab(), g, [], small_spec())


def test_prepare_record_full_mode_requires_entities(tmp_path):
    g = base_graph()
    rec = CorpusRecord("ne", [feature_file(tmp_path)], report="x", entities=None)
    with pytest.raises(ValueError, match="record 'ne'.*tag"):
        prepare_record(rec, small_vocab(), g, [], small_spec())


def test_prepare_record_base_mode_skips_knowledge(tmp_path):
    g = base_graph()
    rec = CorpusRecord("b", [feature_file(tmp_path)], report="the heart", entities=None)
    prep = prepare_record(
        rec, small_vocab(), g, [], small_spec(ablation=AblationMode.BASE)
    )
    assert prep.tag_token_ids == []
    assert prep.node_names == []
    assert prep.graph is None


def test_prepare_record_without_report(tmp_path):
    g = base_graph()
    rec = CorpusRecord("p", [feature_file(tmp_path)], entities=[])
    prep = prepare_record(
        rec, small_vocab(), g, fallback_labels(g), small_spec(), with_report=False
    )
    assert prep.input_ids is None and prep.target_ids is None


def test_prepare_record_missing_report_rejected(tmp_path):
    g = base_graph()
    rec = CorpusRecord("m", [feature_file(tmp_path)], report="  ", entities=[])
    with pytest.raises(ValueError, match="record 'm' has no report"):
        prepare_record(rec, small_vocab(), g, fallback_labels(g), small_spec())


def test_encode_record_disabled_branches_return_x(tmp_path):
    g = base_graph()
    vocab = small_vocab()
    rec = CorpusRecord("e", [feature_file(tmp_path)], report="the heart", entities=[])
    labels = fallback_labels(g)

    base = ReportModel(vocab, g.names, small_spec(ablation=AblationMode.BASE), rng=np.random.default_rng(2))
    prep = prepare_record(rec, vocab, g, labels, base.spec)
    x_fused, w_enh, m_enh = encode_record(base, prep)
    assert w_enh is m_enh  # both are the projected features themselves
    assert x_fused.shape == w_enh.shape

    dke = ReportModel(vocab, g.names, small_spec(ablation=AblationMode.DKE), rng=np.random.default_rng(2))
    prep = prepare_record(rec, vocab, g, labels, dke.spec)
    _, w_enh, m_enh = encode_record(dke, prep)
    assert not np.array_equal(w_enh.value, m_enh.value)  # labels on, graph off


def test_encode_record_two_views_concat(tmp_path):
    g = base_graph()
    vocab = small_vocab()
    rec = CorpusRecord(
        "tv",
        [feature_file(tmp_path, rows=3, seed=1), feature_file(tmp_path, rows=2, seed=2)],
        report="the heart",
        entities=[],
    )
    model = ReportModel(vocab, g.names, small_spec(), rng=np.random.default_rng(2))
    prep = prepare_record(rec, vocab, g, fallback_labels(g), model.spec)
    x_fused, _, _ = encode_record(model, prep)
    assert x_fused.shape == (5, model.spec.d)  # 3 + 2 rows stacked


# ---------------------------------------------------------------------------
# loss


def test_loss_is_mean_over_records(tmp_path):
    g = base_graph()
    vocab = small_vocab()
    model = ReportModel(vocab, g.names, small_spec(), rng=np.random.default_rng(4))
    labels = fallback_labels(g)
    recs = [
        CorpusRecord("a", [feature_file(tmp_path, seed=1)], report="the heart is enlarged .", entities=[]),
        CorpusRecord("b", [feature_file(tmp_path, seed=2)], report="lungs are clear", entities=[]),
    ]
    preps = [prepare_record(r, vocab, g, labels, model.spec) for r in recs]
    joint = teacher_forcing_loss(preps, model).value[0, 0]
    solo = [teacher_forcing_loss([p], model).value[0, 0] for p in preps]
    assert joint == pytest.approx(sum(solo) / 2, abs=1e-12)


def test_loss_rejects_empty_batch():
    model = small_model()
    with pytest.raises(ValueError, match="nonempty"):
        teacher_forcing_loss([], model)


def test_loss_rejects_generation_only_records(tmp_path):
    g = base_graph()
    vocab = small_vocab()
    model = ReportModel(vocab, g.names, small_spec(), rng=np.random.default_rng(4))
    rec = CorpusRecord("g", [feature_file(tmp_path)], entities=[])
    prep = prepare_record(rec, vocab, g, fallback_labels(g), model.spec, with_report=False)
    with pytest.raises(ValueError, match="without a report"):
        teacher_forcing_loss([prep], model)


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_epochs_returns_initialized_model(overfit_corpus):
    records = load_corpus(overfit_corpus)
    run = make_config(epochs=0)
    model, trace = train(records, run, base_graph())
    assert trace == []
    assert model.spec.d == 16


def test_train_loss_decreases(overfit_corpus):
    records = load_corpus(overfit_corpus)[:4]
    run = make_config(epochs=8, d=16)
    _, trace = train(records, run, base_graph())
    assert len(trace) == 8
    assert trace[-1] < trace[0]


def test_train_is_bitwise_deterministic(overfit_corpus):
    records = load_corpus(overfit_corpus)[:3]
    run = make_config(epochs=2)
    m1, t1 = train(records, run, base_graph())
    m2, t2 = train(records, run, base_graph())
    assert t1 == t2
    for (n1, p1), (n2, p2) in zip(m1.parameters(), m2.parameters()):
        assert n1 == n2
        assert np.array_equal(p1.value, p2.value)


def test_train_seed_changes_weights(overfit_corpus):
    records = load_corpus(overfit_corpus)[:2]
    m1, _ = train(records, make_config(epochs=1, seed=0), base_graph())
    m2, _ = train(records, make_config(epochs=1, seed=1), base_graph())
    assert not np.array_equal(m1.parameters()[0][1].value, m2.parameters()[0][1].value)


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_diverges_visibly_on_absurd_lr(overfit_corpus):
    records = load_corpus(overfit_corpus)[:2]
    run = make_config(epochs=10, lr=1e150)
    with pytest.raises(TrainingDiverged, match="diverged at epoch"):
        train(records, run, base_graph())


def test_train_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        train([], make_config(), base_graph())


def test_train_vocab_includes_novel_graph_nodes(overfit_corpus):
    records = load_corpus(overfit_corpus)
    model, _ = train(records, make_config(epochs=0), base_graph())
    assert "trachea" in model.node_names  # r06 mentions it; base graph lacks it
    assert model.node_names[: base_graph().node_count()] == base_graph().names


def test_gradient_audit_checks_the_tensors_train_builds(overfit_corpus):
    run = make_config(d=4, heads=2, gcn_layers=1, epochs=0, max_length=12)
    model, _ = train(load_corpus(overfit_corpus), run, base_graph())
    assert [name for name, _ in run_gradient_check(run)] == [name for name, _ in model.parameters()]


def test_gcn_unk_row_starts_and_stays_zero(overfit_corpus):
    assert not small_model().gcn.embeddings.value[-1].any()
    records = load_corpus(overfit_corpus)
    base = base_graph()
    model, _ = train(records, make_config(epochs=3, weight_decay=0.1), base)
    gcn = model.gcn
    assert not gcn.embeddings.value[gcn.unk_row].any()
    # at generate time a tag the model never saw enters the GCN on the UNK row
    rec = CorpusRecord(
        "new", records[0].features,
        entities=[Entity("carina", EntityType.ANATOMY), Entity("widened", EntityType.OBSERVATION)],
    )
    prep = prepare_record(rec, model.vocab, base, fallback_labels(base), model.spec, with_report=False)
    rows, widened = gcn.row_ids(prep.node_names), prep.node_names.index("widened")
    assert rows[widened] == gcn.unk_row
    assert not embedding(gcn.embeddings, rows).value[widened].any()


# ---------------------------------------------------------------------------
# checkpoint round trip


def test_save_load_round_trip(tmp_path, overfit_corpus):
    records = load_corpus(overfit_corpus)[:3]
    run = make_config(epochs=2)
    g = base_graph()
    model, _ = train(records, run, g)
    path = tmp_path / "model.ckpt"
    save_model(path, model, g, "findings")

    loaded, g2, fallback = load_model(path)
    assert fallback == "findings"
    assert g2 == g
    assert loaded.spec == model.spec
    assert loaded.vocab.tokens == model.vocab.tokens
    assert loaded.node_names == model.node_names
    for (n1, p1), (n2, p2) in zip(model.parameters(), loaded.parameters()):
        assert n1 == n2 and np.array_equal(p1.value, p2.value)

    a = generate_for_records(model, records, g, "findings")
    b = generate_for_records(loaded, records, g2, fallback)
    assert a == b


def test_model_meta_is_self_contained():
    import json

    model = small_model()
    meta = model_meta(model, base_graph(), "all")
    assert set(meta) == {"spec", "vocab", "node_names", "base_graph", "labels_fallback"}
    json.dumps(meta)


def save_with_meta(path, edit):
    from dmdk.checkpoint import save_checkpoint

    model = small_model()
    meta = model_meta(model, base_graph(), "all")
    edit(meta)
    save_checkpoint(path, [(n, p.value) for n, p in model.parameters()], meta)
    return path


def test_load_model_rejects_vocab_without_tokens(tmp_path):
    path = save_with_meta(tmp_path / "m.ckpt", lambda meta: meta["vocab"].pop("tokens"))
    with pytest.raises(ValueError, match=f"{path}: .*'vocab' needs a 'tokens' list"):
        load_model(path)


def test_load_model_rejects_missing_spec_fields(tmp_path):
    def edit(meta):
        del meta["spec"]["heads"], meta["spec"]["max_length"]

    path = save_with_meta(tmp_path / "m.ckpt", edit)
    with pytest.raises(ValueError, match=f"{path}: .*'spec' is missing 'heads', 'max_length'"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value", [("d", 16.0), ("heads", "2"), ("fusion", 1), ("ablation", "most")]
)
def test_load_model_rejects_malformed_spec_values(tmp_path, field, value):
    path = save_with_meta(tmp_path / "m.ckpt", lambda meta: meta["spec"].update({field: value}))
    with pytest.raises(ValueError, match=f"{path}: .*'spec' is invalid"):
        load_model(path)


def test_load_model_rejects_an_unknown_fallback_rule(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(path, small_model(), base_graph(), "xyz")
    with pytest.raises(ValueError, match=f"{path}: .*'labels_fallback' must be 'all' or 'findings', got 'xyz'"):
        load_model(path)


def test_load_model_names_the_file_on_a_tensor_mismatch(tmp_path):
    path = save_with_meta(tmp_path / "m.ckpt", lambda meta: meta["node_names"].append("extra"))
    with pytest.raises(ValueError, match=f"{path}: checkpoint tensor 'gcn.embeddings'"):
        load_model(path)


def test_generate_for_records_order_and_ids(tmp_path, overfit_corpus):
    records = load_corpus(overfit_corpus)[:3]
    model, _ = train(records, make_config(epochs=1), base_graph())
    out = generate_for_records(model, records, base_graph())
    assert [rid for rid, _ in out] == [r.id for r in records]
    for _, text in out:
        assert isinstance(text, str)
