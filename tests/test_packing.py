"""One packed forward per batch against one forward per record.

``teacher_forcing_loss`` stacks a batch's visual rows, tags, graph nodes and
tokens in record order and attends within each record's rows. Its loss and
every parameter gradient must equal the mean over one-record batches, and no
record's logits may depend on the values of another record in the batch.

The same configurations, and the gradient-check fixture, also pin the
consuming ``backward`` to the engine that kept the graph: every gradient must
be bitwise equal.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dmdk import model as model_module
from dmdk.attention import pack
from dmdk.autograd import backward
from dmdk.config import load_config
from dmdk.graph import default_base_graph_path, load_base_graph
from dmdk.model import (
    AblationMode,
    FusionWeights,
    ModelSpec,
    ReportModel,
    decoder_forward,
    encode_batch,
    fallback_labels,
    prepare_record,
    run_gradient_check,
    teacher_forcing_loss,
    train,
)
from dmdk.text import CorpusRecord, Entity, EntityType, Vocabulary, load_corpus, tokenize

from conftest import make_config, save_features
from oracles import oracle_backward, parameter_gradients

TOL = dict(rtol=1e-12, atol=1e-12)
A, O = EntityType.ANATOMY, EntityType.OBSERVATION
FEATURES = 6

# (report, entities, rows of each view). Record 0 mines dynamic tags and adds
# the novel node "enlarged"; record 1 has no anatomy pair, so it falls back to
# the base labels and keeps the base graph; record 2 adds "trachea", which the
# model knows, and "deviated", which maps to the GCN's UNK row. Record 3 has
# record 0's token count, view rows, tag count and node count but other
# tokens, features, tags and edges, so every packed attention block stacks
# the two records as one group.
RECORDS = [
    ("the heart is enlarged .", [Entity("heart", A), Entity("enlarged", O)], [3]),
    ("lungs are clear", [Entity("clear", O)], [2, 2]),
    (
        "a small trachea nodule is deviated in the left lung .",
        [Entity("trachea", A), Entity("nodule", O), Entity("lung", A), Entity("deviated", O)],
        [4],
    ),
    ("the lungs are enlarged .", [Entity("lung", A), Entity("enlarged", O)], [3]),
]

CONFIGS = {
    "full": dict(d=8, heads=2, decoder_layers=1),
    "dke": dict(d=8, heads=2, decoder_layers=1, ablation=AblationMode.DKE),
    "ske": dict(d=8, heads=2, decoder_layers=1, ablation=AblationMode.SKE),
    "base": dict(d=8, heads=2, decoder_layers=1, ablation=AblationMode.BASE),
    "d512": dict(d=512, heads=8, decoder_layers=3, ffn_multiplier=1),
}


def batch_logits(batch, model):
    """The packed forward of ``teacher_forcing_loss``, up to the logits."""
    x_fused, w_enh, m_enh, rows = encode_batch(model, batch)
    ids = [i for rec in batch for i in rec.input_ids]
    spans = ([len(rec.input_ids) for rec in batch], rows)
    return decoder_forward(ids, x_fused, w_enh, m_enh, model.decoder, model.embed, spans=spans)


def build(tmp_path, config):
    """A seeded model and the three records prepared under its spec."""
    base = load_base_graph(default_base_graph_path())
    vocab = Vocabulary.build((tokenize(r) for r, _, _ in RECORDS), min_freq=1)
    args = dict(
        gcn_layers=2,
        ffn_multiplier=2,
        feature_dim=FEATURES,
        fusion=FusionWeights.from_raw(1.0, 2.0, 3.0),
    )
    args.update(config)
    spec = ModelSpec(**args)
    model = ReportModel(vocab, base.names + ["enlarged", "trachea"], spec, rng=np.random.default_rng(5))
    rng = np.random.default_rng(6)
    preps = []
    for i, (report, entities, rows) in enumerate(RECORDS):
        paths = []
        for v, n in enumerate(rows):
            paths.append(tmp_path / f"r{i}-{v}.fmat")
            save_features(paths[-1], rng.normal(size=(n, FEATURES)))
        rec = CorpusRecord(f"r{i}", paths, report=report, entities=entities)
        preps.append(prepare_record(rec, vocab, base, fallback_labels(base), spec))
    return model, preps


def test_the_records_cover_the_cases(tmp_path):
    model, preps = build(tmp_path, CONFIGS["full"])
    base_names = load_base_graph(default_base_graph_path()).names
    assert [len(p.raw_views) for p in preps] == [1, 2, 1, 1]
    first, same = preps[0], preps[3]
    assert len(same.input_ids) == len(first.input_ids)
    assert [len(v) for v in same.raw_views] == [len(v) for v in first.raw_views]
    assert len(same.tag_token_ids) == len(first.tag_token_ids)
    assert len(same.node_names) == len(first.node_names)
    assert same.input_ids != first.input_ids and same.tag_token_ids != first.tag_token_ids
    assert not np.array_equal(same.a_hat.value, first.a_hat.value)
    assert len(preps[1].tag_token_ids) == len(fallback_labels(load_base_graph(default_base_graph_path())))
    assert preps[1].node_names == base_names
    assert preps[0].node_names == base_names + ["enlarged"]
    assert model.gcn.row_ids(preps[2].node_names)[-2:] == [len(base_names) + 1, model.gcn.unk_row]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_packed_loss_and_gradients_equal_the_mean_of_one_record_batches(tmp_path, name):
    model, preps = build(tmp_path, CONFIGS[name])
    params = [p for _, p in model.parameters()]
    solo_loss = 0.0
    solo = None
    for prep in preps:
        loss = teacher_forcing_loss([prep], model)
        solo_loss += loss.value[0, 0] / len(preps)
        grads = parameter_gradients(loss, params)
        if solo is None:
            solo = grads
        else:
            for p in params:
                solo[p] += grads[p]
        del loss, grads
    packed = teacher_forcing_loss(preps, model)
    np.testing.assert_allclose(packed.value[0, 0], solo_loss, **TOL)
    grads = parameter_gradients(packed, params)
    for (pname, p) in model.parameters():
        np.testing.assert_allclose(grads[p], solo[p] / len(preps), **TOL, err_msg=pname)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_packed_logits_equal_one_record_logits(tmp_path, name):
    model, preps = build(tmp_path, CONFIGS[name])
    packed = batch_logits(preps, model).value
    solo = np.concatenate([batch_logits([p], model).value for p in preps])
    np.testing.assert_allclose(packed, solo, **TOL)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_record_never_sees_another_records_values(tmp_path, name):
    # record 3 shares its attention stacks with record 0
    model, preps = build(tmp_path, CONFIGS[name])
    rng = np.random.default_rng(7)
    other = dataclasses.replace(
        preps[3],
        raw_views=[rng.normal(size=v.shape) for v in preps[3].raw_views],
        input_ids=[(i + 3) % len(model.vocab) for i in preps[3].input_ids],
        target_ids=[(i + 5) % len(model.vocab) for i in preps[3].target_ids],
    )
    assert other.input_ids != preps[3].input_ids
    before = batch_logits(preps, model).value
    after = batch_logits(preps[:3] + [other], model).value
    changed = sum(len(p.input_ids) for p in preps[:3])
    assert np.array_equal(after[:changed], before[:changed])
    assert not np.array_equal(after[changed:], before[changed:])


@pytest.mark.parametrize("name", list(CONFIGS))
def test_consuming_backward_equals_the_graph_keeping_engine(tmp_path, name):
    model, preps = build(tmp_path, CONFIGS[name])
    loss = teacher_forcing_loss(preps, model)
    expected = oracle_backward(loss)  # leaves the graph for ``backward``
    grads = backward(loss)
    assert grads.keys() == expected.keys()
    names = {p: pname for pname, p in model.parameters()}
    for leaf, g in expected.items():
        assert np.array_equal(grads[leaf], g), names[leaf]


def test_gradient_check_fixture_gradients_equal_the_graph_keeping_engine(monkeypatch):
    checked = []

    def against_oracle(loss):
        expected = oracle_backward(loss)
        grads = backward(loss)
        assert grads.keys() == expected.keys()
        for leaf, g in grads.items():
            assert np.array_equal(g, expected[leaf])
        checked.extend(grads)
        return grads

    monkeypatch.setattr(model_module, "backward", against_oracle)
    # only the analytic gradients are under test here
    monkeypatch.setattr(model_module, "finite_diff_grad", lambda f, ts: [np.zeros(t.shape) for t in ts])
    config = Path(__file__).resolve().parent.parent / "configs" / "gradcheck.json"
    results = run_gradient_check(load_config(config))
    assert len(checked) == len(results) > 0


@pytest.mark.parametrize("layers", [1, 3])
def test_a_forward_packs_each_distinct_shape_once(overfit_corpus, monkeypatch, layers):
    # one epoch of one batch is one teacher_forcing_loss; it packs visual rows
    # by tags, by graph nodes and by visual rows, then tokens by tokens and by
    # visual rows, however many blocks and layers attend over each
    calls = []

    def counted(q_rows, k_rows):
        calls.append((list(q_rows), list(k_rows)))
        return pack(q_rows, k_rows)

    monkeypatch.setattr(model_module, "pack", counted)
    run = make_config(decoder_layers=layers, epochs=1, batch=8)
    train(load_corpus(overfit_corpus), run, load_base_graph(default_base_graph_path()))
    assert len(calls) == 5, calls
