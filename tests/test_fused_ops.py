"""The fused graph nodes against the chains of ops they replace.

``affine``, ``weighted_sum``, ``embed_tokens``, ``multi_head_attention`` and the
decoder's sublayers ``residual_attention`` and ``feed_forward`` each run the
IEEE operations of a chain in ``tests/oracles.py`` in the same order, with the
parents in the same order, as one graph node. Values and every gradient must
equal the chain's bit for bit, training through them must equal training
through the chains, and each must raise ``NonFiniteError`` where the chain
does, although a node scans fewer arrays than its chain. What they save is the
point: a forward keeps each node's output and the arrays its backward rule
reads, and no intermediate of a chain.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmdk import attention as attention_module
from dmdk import features as features_module
from dmdk import model as model_module
from dmdk import topics as topics_module
from dmdk.attention import (
    FfnParams,
    LayerNormParams,
    MhaParams,
    embed_tokens,
    feed_forward,
    multi_head_attention,
    project_kv,
    residual_attention,
)
from dmdk.autograd import NonFiniteError, Tensor, affine, backward, sum_all, weighted_sum
from dmdk.config import load_config
from dmdk.graph import default_base_graph_path, load_base_graph
from dmdk.model import FusionWeights, ModelSpec, ReportModel, decoder_forward, train
from dmdk.text import Vocabulary, load_corpus

from conftest import random_mha
from oracles import (
    mul,
    oracle_affine,
    oracle_embed_tokens,
    oracle_feed_forward,
    oracle_multi_head_attention,
    oracle_residual_attention,
    oracle_weighted_sum,
)

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json"


def bits(a: np.ndarray) -> tuple:
    """Shape and bytes: equal only when every entry is the same float, sign of zero included."""
    return a.shape, a.tobytes()


def assert_bitwise_equal(fused, chain, leaves, rng):
    """``fused()`` and ``chain()`` build one output from ``leaves``: its value and
    every leaf's gradient, under a random upstream gradient, must be equal bits.
    The chain may also hold a constant as a leaf (the positional rows), which
    the node folds into its value."""
    out, reference = fused(), chain()
    assert bits(out.value) == bits(reference.value)
    upstream = Tensor(rng.normal(size=out.shape))
    got, want = backward(sum_all(mul(out, upstream))), backward(sum_all(mul(reference, upstream)))
    assert set(want) >= set(got) >= set(leaves)
    for leaf in leaves:
        assert bits(got[leaf]) == bits(want[leaf])


def normal(rng, rows, cols, mean=0.0):
    return Tensor(rng.normal(mean, 1.0, size=(rows, cols)))


WIDTHS = [8, 512]


@pytest.mark.parametrize("d", WIDTHS)
def test_affine_is_bitwise_the_matmul_add_chain(d):
    rng = np.random.default_rng(d)
    x, w, b = normal(rng, 6, d), normal(rng, d, d + 3), normal(rng, 1, d + 3)
    assert_bitwise_equal(lambda: affine(x, w, b), lambda: oracle_affine(x, w, b), [x, w, b], rng)


def layer_norm_params(rng, d):
    return LayerNormParams(normal(rng, 1, d, 1.0), normal(rng, 1, d))


@pytest.mark.parametrize("d", WIDTHS)
def test_feed_forward_is_bitwise_the_matmul_add_relu_chain(d):
    # the chain: matmul, add, relu, matmul, add, then the residual add and the layer norm
    rng = np.random.default_rng(d + 1)
    params = FfnParams(normal(rng, d, 4 * d), normal(rng, 1, 4 * d), normal(rng, 4 * d, d), normal(rng, 1, d))
    norm = layer_norm_params(rng, d)
    x = normal(rng, 6, d)
    leaves = [x, params.w1, params.b1, params.w2, params.b2, norm.gain, norm.bias]
    fused, chain = feed_forward, oracle_feed_forward
    assert_bitwise_equal(lambda: fused(x, params, norm), lambda: chain(x, params, norm), leaves, rng)


# (query rows, key rows) of each record of a packed pair of records
SPANS = {"one": None, "packed": ([2, 4], [3, 5])}


@pytest.mark.parametrize("causal", [False, True], ids=["cross", "self"])
@pytest.mark.parametrize("spans", sorted(SPANS))
@pytest.mark.parametrize("d", WIDTHS)
def test_residual_attention_is_bitwise_the_attend_add_layer_norm_chain(d, spans, causal):
    # the chain: the query matmul, the heads, the wo matmul, the residual add, the layer norm
    rng = np.random.default_rng(d + 2)
    params, norm = random_mha(d, 2 if d == 8 else 8, rng), layer_norm_params(rng, d)
    spans = SPANS[spans]
    h = normal(rng, 6, d)
    if causal:  # self-attention: h also feeds the keys and values, as in the decoder
        memory, offset, spans = h, 0, spans and (spans[0], spans[0])
    else:
        memory, offset = normal(rng, 8 if spans else 5, d), None
    leaves = [h, params.wq, params.wk, params.wv, params.wo, norm.gain, norm.bias] + ([] if causal else [memory])

    def node(op):
        return lambda: op(h, *project_kv(memory, params), params, norm, offset, spans)

    assert_bitwise_equal(node(residual_attention), node(oracle_residual_attention), leaves, rng)


@pytest.mark.parametrize("spans", sorted(SPANS))
@pytest.mark.parametrize("d", WIDTHS)
def test_multi_head_attention_is_bitwise_the_matmul_heads_matmul_chain(d, spans):
    rng = np.random.default_rng(d + 4)
    params, spans = random_mha(d, 2 if d == 8 else 8, rng), SPANS[spans]
    x, y = normal(rng, 6, d), normal(rng, 8 if spans else 5, d)
    leaves = [x, y, params.wq, params.wk, params.wv, params.wo]
    fused, chain = multi_head_attention, oracle_multi_head_attention
    assert_bitwise_equal(lambda: fused(x, y, params, spans), lambda: chain(x, y, params, spans), leaves, rng)


@pytest.mark.parametrize("start, spans", [(0, None), (3, None), (0, [2, 1, 3])], ids=["from0", "from3", "spans"])
@pytest.mark.parametrize("d", WIDTHS)
def test_embed_tokens_is_bitwise_the_embedding_add_chain(d, start, spans):
    # a decode step embeds from its cache's length; training embeds records from 0
    rng = np.random.default_rng(d + 5)
    table, ids = normal(rng, 7, d), [1, 4, 4, 6, 2, 5]

    def node(op):
        return lambda: op(ids, table, start, spans)

    assert_bitwise_equal(node(embed_tokens), node(oracle_embed_tokens), [table], rng)


# Which of X, W' and M' the fusion mix reads: an ablation substitutes X for a
# disabled knowledge stream, so a term can repeat.
MIXES = {"full": (0, 1, 2), "dke": (0, 1, 0), "ske": (0, 0, 2), "base": (0, 0, 0)}


@pytest.mark.parametrize("mix", sorted(MIXES))
@pytest.mark.parametrize("d", WIDTHS)
def test_weighted_sum_is_bitwise_the_scale_add_chain(d, mix):
    rng = np.random.default_rng(d + 3)
    streams = [normal(rng, 6, d) for _ in range(3)]
    terms = [streams[i] for i in MIXES[mix]]
    fusion = FusionWeights.from_raw(1.0, 2.0, 5.0)
    weights = (fusion.l1, fusion.l2, fusion.l3)
    leaves = list({id(t): t for t in terms}.values())
    assert_bitwise_equal(
        lambda: weighted_sum(terms, weights), lambda: oracle_weighted_sum(terms, weights), leaves, rng
    )


def chains(monkeypatch):
    """Put the chains back wherever the model calls a fused op."""
    monkeypatch.setattr(features_module, "affine", oracle_affine)
    monkeypatch.setattr(model_module, "affine", oracle_affine)
    monkeypatch.setattr(model_module, "feed_forward", oracle_feed_forward)
    monkeypatch.setattr(model_module, "residual_attention", oracle_residual_attention)
    monkeypatch.setattr(model_module, "multi_head_attention", oracle_multi_head_attention)
    monkeypatch.setattr(model_module, "embed_tokens", oracle_embed_tokens)
    monkeypatch.setattr(topics_module, "embed_tokens", oracle_embed_tokens)
    monkeypatch.setattr(model_module, "weighted_sum", oracle_weighted_sum)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("ablation", ["full", "dke", "ske", "base"])
def test_training_through_the_fused_ops_equals_training_through_the_chains(
    overfit_corpus, monkeypatch, ablation, weight_decay
):
    # The walk sums a node's gradients in the order its consumers' rules run,
    # so this also pins that fusing kept that order wherever a value is read
    # twice: X in the mix, h by its sublayer's residual, queries, keys and
    # values, the memories by every layer, and the token table by the decoder
    # and the tag embeddings.
    run = load_config(DESK)
    run = replace(run, train=replace(run.train, epochs=4, weight_decay=weight_decay), ablation=ablation)
    records, base = load_corpus(overfit_corpus), load_base_graph(default_base_graph_path())
    fused, fused_trace = train(records, run, base)
    with monkeypatch.context() as patch:
        chains(patch)
        chained, chained_trace = train(records, run, base)
    assert fused_trace == chained_trace
    for (name, p), (_, q) in zip(fused.parameters(), chained.parameters()):
        assert bits(p.value) == bits(q.value), name


HUGE = 1e308  # finite, but a product or a sum of two overflows


def unit_norm():
    return LayerNormParams(Tensor([[1.0, 1.0]]), Tensor([[0.0, 0.0]]))


@pytest.mark.parametrize("w1", [[[-10.0], [-10.0]], [[10.0], [-10.0]]], ids=["-inf", "nan"])
def test_feed_forward_refuses_a_pre_activation_that_relu_would_hide(w1):
    params = FfnParams(Tensor(w1), Tensor([[0.0]]), Tensor([[1.0, 1.0]]), Tensor([[0.0, 0.0]]))
    x = Tensor([[HUGE, HUGE]])
    for ffn in (oracle_feed_forward, feed_forward):
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            ffn(x, params, unit_norm())


def assert_both_raise(cases):
    """Each (node, its chain, arguments) of ``cases`` raises ``NonFiniteError``
    through the chain and through the node."""
    for fused, chain, args in cases:
        for op in (chain, fused):
            with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
                op(*args)


def test_each_fused_op_raises_where_its_chain_does():
    big, one = Tensor([[HUGE, HUGE]]), Tensor([[1.0, 1.0]])
    assert_both_raise([
        (affine, oracle_affine, (big, Tensor([[2.0], [2.0]]), Tensor([[0.0]]))),
        (weighted_sum, oracle_weighted_sum, ((big, big), (1.0, 1.0))),
        (weighted_sum, oracle_weighted_sum, ((one, one), (0.5, float("nan")))),
    ])


def block(wq=1.0, wo=1.0) -> MhaParams:
    """A one-head 2 x 2 attention block whose keys and values are its input
    rows; ``wq`` and ``wo`` are 2 x 2 matrices or a value filling one."""
    eye = Tensor(np.eye(2))
    return MhaParams(Tensor(np.broadcast_to(wq, (2, 2))), eye, eye, Tensor(np.broadcast_to(wo, (2, 2))), 1)


SUM_TO_NAN = [[10.0, 10.0], [-10.0, -10.0]]  # a HUGE row times it is inf - inf


def attention_cases(params, x, k, v):
    """(node, its chain, arguments): both residual sublayers, cross and causal,
    queries from ``x`` over ``k`` and ``v``."""
    norm = unit_norm()
    return [
        (residual_attention, oracle_residual_attention, (x, k, v, params, norm)),
        (residual_attention, oracle_residual_attention, (x, k, v, params, norm, 0)),
    ]


# A node scans the attention scores and its output. The chain also scanned the
# query, the heads' output and the wo product: a value that is not finite there
# must still reach a scan the node keeps. A non-finite query makes a score
# non-finite; a non-finite heads' output or wo product makes its whole row of
# the residual sum non-finite, and with it the node's output.


@pytest.mark.parametrize("wq", [-10.0, SUM_TO_NAN], ids=["-inf", "nan"])
def test_a_non_finite_query_is_refused_by_the_score_scan(wq):
    params, x = block(wq=wq), Tensor([[HUGE, HUGE]])
    y = Tensor([[1.0, 2.0]])
    cases = attention_cases(params, x, *project_kv(y, params))
    assert_both_raise(cases + [(multi_head_attention, oracle_multi_head_attention, (x, y, params))])


@pytest.mark.parametrize("bad", [-np.inf, np.nan], ids=["-inf", "nan"])
def test_a_non_finite_heads_output_is_refused_by_the_output_scan(monkeypatch, bad):
    # only a decode cache's key and value views, which are not scanned again,
    # can feed the heads a value that is not finite
    params, x = block(), Tensor([[1.0, 2.0]])
    cached = Tensor.checked(np.array([[bad, 0.0]]))
    assert_both_raise(attention_cases(params, x, cached, cached))
    # the encoder's heads read only scanned projections: put the value into
    # the heads' output itself
    heads_attention = attention_module.heads_attention

    def injected(*args):
        out, rule = heads_attention(*args)
        out[0, 0] = bad
        return out, rule

    monkeypatch.setattr(attention_module, "heads_attention", injected)
    for node in (
        lambda: multi_head_attention(x, x, params),
        lambda: residual_attention(x, *project_kv(x, params), params, unit_norm(), 0),
    ):
        with pytest.raises(NonFiniteError, match="tensor contains"), np.errstate(invalid="ignore"):
            node()


@pytest.mark.parametrize("wo", [-10.0, SUM_TO_NAN], ids=["-inf", "nan"])
def test_a_non_finite_wo_product_is_refused_by_the_output_scan(wo):
    params, x, y = block(wo=wo), Tensor([[1.0, 2.0]]), Tensor([[HUGE, HUGE]])
    assert_both_raise(attention_cases(params, x, *project_kv(y, params)))


@pytest.mark.parametrize("w2", [[[-10.0, -10.0]], SUM_TO_NAN], ids=["-inf", "nan"])
def test_a_non_finite_feed_forward_output_is_refused_by_the_output_scan(w2):
    # a finite pre-activation of HUGE in each hidden unit, times w2
    inner = len(w2)
    params = FfnParams(Tensor(np.full((2, inner), 0.5)), Tensor(np.zeros((1, inner))), Tensor(w2), Tensor([[0.0, 0.0]]))
    for ffn in (oracle_feed_forward, feed_forward):
        with pytest.raises(NonFiniteError, match="tensor contains"), np.errstate(over="ignore", invalid="ignore"):
            ffn(Tensor([[HUGE, HUGE]]), params, unit_norm())


def test_fused_ops_keep_the_chains_shape_messages():
    x, w = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"matmul shape mismatch: \(3, 4\) x \(3, 2\)"):
        affine(x, Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))
    with pytest.raises(ValueError, match=r"add shape mismatch: \(3, 2\) \+ \(1, 3\)"):
        affine(x, w, Tensor(np.ones((1, 3))))
    with pytest.raises(ValueError, match=r"add shape mismatch: \(3, 4\) \+ \(3, 2\)"):
        weighted_sum((x, x, Tensor(np.ones((3, 2)))), (0.2, 0.3, 0.5))


def decoder_bytes(n: int, m: int, d: int, heads: int, inner: int, layers: int, vocab: int) -> int:
    """What a decoder forward over n tokens and three m-row memories keeps:
    each node's output and the arrays its backward rule reads, in float64
    (a relu mask is one byte an entry)."""
    per_layer = (
        # self-attention: q, k, v, the heads' output and their weights
        4 * n * d + heads * n * n
        # three cross-attentions: q, keys and values over the memory, the
        # heads' output and their weights
        + 3 * (n * d + 2 * m * d + n * d + heads * n * m)
        # the feed-forward's hidden activation
        + n * inner
        # five sublayers: the standardized rows and the output
        + 5 * 2 * n * d
    )
    mask = layers * n * inner // 8
    # the embedded tokens and the logits
    return 8 * (n * d + layers * per_layer + n * vocab + mask)


def test_a_decoder_forward_at_d512_keeps_no_chain_intermediate():
    n, m, d, heads, layers, multiplier = 48, 16, 512, 8, 2, 4
    spec = ModelSpec(
        d=d, heads=heads, decoder_layers=layers, gcn_layers=1, ffn_multiplier=multiplier, feature_dim=8,
        fusion=FusionWeights.from_raw(1.0, 1.0, 1.0),
    )
    vocab = Vocabulary(list(Vocabulary.SPECIALS) + [f"w{i}" for i in range(36)], 1)
    model = ReportModel(vocab, ["root"], spec, rng=np.random.default_rng(5))
    rng = np.random.default_rng(6)
    memories = [Tensor(rng.normal(size=(m, d))) for _ in range(3)]
    ids = rng.integers(1, len(vocab), n).tolist()
    decoder_forward(ids, *memories, model.decoder, model.embed)  # fills the positional table
    tracemalloc.start()
    try:
        logits = decoder_forward(ids, *memories, model.decoder, model.embed)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert logits.shape == (n, len(vocab))
    kept = decoder_bytes(n, m, d, heads, multiplier * d, layers, len(vocab))
    # the chains also kept, per layer, four wo products, the feed-forward's
    # output and five residual sums, and the token and positional rows; before
    # the sublayers were nodes a forward here held 2.1 MB more than this bound
    assert held <= kept + 64 * 1024, (held, kept)


@pytest.mark.parametrize("rows", [[98] * 4, [98, 98, 49, 98, 98]], ids=["adjacent", "apart"])
def test_a_packed_attention_node_at_d512_keeps_no_stacked_copy(rows):
    # the fusion block of a packed training forward at full width: four
    # records of 98 rows, adjacent or around a lone record, attend as one stack
    d, heads = 512, 8
    rng = np.random.default_rng(9)
    params = random_mha(d, heads, rng)
    x, y = (Tensor(rng.normal(size=(sum(rows), d))) for _ in range(2))
    multi_head_attention(x, y, params, spans=(rows, rows))
    tracemalloc.start()
    try:
        out = multi_head_attention(x, y, params, spans=(rows, rows))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = sum(rows)
    assert out.shape == (n, d)
    # the keys, values and queries, the heads' output, the node's output and
    # the attention weights; stacked copies of the keys and values kept next
    # to them would add 3.2 MB
    kept = 8 * (5 * n * d + heads * sum(r * r for r in rows))
    assert held <= kept + 64 * 1024, (held, kept)
