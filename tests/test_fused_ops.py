"""The fused autograd ops against the chains of ops they replace.

``affine``, ``feed_forward``, ``add_layer_norm`` and ``weighted_sum`` each run
the IEEE operations of a chain in ``tests/oracles.py`` in the same order, with
the parents in the same order, as one graph node. Values and every gradient
must equal the chain's bit for bit, training through them must equal training
through the chains, and each must raise ``NonFiniteError`` where the chain
does. What they save is the point: a forward keeps each op's output and the
arrays its backward rule reads, and no intermediate of a chain.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmdk import features as features_module
from dmdk import model as model_module
from dmdk.attention import FfnParams, feed_forward
from dmdk.autograd import NonFiniteError, Tensor, add_layer_norm, affine, backward, mul, sum_all, weighted_sum
from dmdk.config import load_config
from dmdk.graph import default_base_graph_path, load_base_graph
from dmdk.model import FusionWeights, ModelSpec, ReportModel, decoder_forward, train
from dmdk.text import Vocabulary, load_corpus

from oracles import oracle_add_layer_norm, oracle_affine, oracle_feed_forward, oracle_weighted_sum

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json"


def bits(a: np.ndarray) -> tuple:
    """Shape and bytes: equal only when every entry is the same float, sign of zero included."""
    return a.shape, a.tobytes()


def assert_bitwise_equal(fused, chain, leaves, rng):
    """``fused()`` and ``chain()`` build one output from ``leaves``: its value and
    every leaf's gradient, under a random upstream gradient, must be equal bits."""
    out, reference = fused(), chain()
    assert bits(out.value) == bits(reference.value)
    upstream = Tensor(rng.normal(size=out.shape))
    got, want = backward(sum_all(mul(out, upstream))), backward(sum_all(mul(reference, upstream)))
    assert set(got) == set(want) >= set(leaves)
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


@pytest.mark.parametrize("d", WIDTHS)
def test_feed_forward_is_bitwise_the_matmul_add_relu_chain(d):
    rng = np.random.default_rng(d + 1)
    params = FfnParams(normal(rng, d, 4 * d), normal(rng, 1, 4 * d), normal(rng, 4 * d, d), normal(rng, 1, d))
    x = normal(rng, 6, d)
    leaves = [x, params.w1, params.b1, params.w2, params.b2]
    assert_bitwise_equal(lambda: feed_forward(x, params), lambda: oracle_feed_forward(x, params), leaves, rng)


@pytest.mark.parametrize("d", WIDTHS)
def test_add_layer_norm_is_bitwise_the_add_then_layer_norm_chain(d):
    rng = np.random.default_rng(d + 2)
    a, b, gain, bias = normal(rng, 6, d), normal(rng, 6, d), normal(rng, 1, d, 1.0), normal(rng, 1, d)
    a.value[2], b.value[2] = 0.5, 0.25  # a constant sum row: every entry standardizes to 0
    fused, chain = add_layer_norm, oracle_add_layer_norm
    assert_bitwise_equal(lambda: fused(a, b, gain, bias), lambda: chain(a, b, gain, bias), [a, b, gain, bias], rng)


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
    monkeypatch.setattr(model_module, "add_layer_norm", oracle_add_layer_norm)
    monkeypatch.setattr(model_module, "weighted_sum", oracle_weighted_sum)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("ablation", ["full", "dke", "ske", "base"])
def test_training_through_the_fused_ops_equals_training_through_the_chains(
    overfit_corpus, monkeypatch, ablation, weight_decay
):
    # The walk sums a node's gradients in the order its consumers' rules run,
    # so this also pins that fusing kept that order where X is read twice.
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


@pytest.mark.parametrize("w1", [[[-10.0], [-10.0]], [[10.0], [-10.0]]], ids=["-inf", "nan"])
def test_feed_forward_refuses_a_pre_activation_that_relu_would_hide(w1):
    params = FfnParams(Tensor(w1), Tensor([[0.0]]), Tensor([[1.0]]), Tensor([[0.0]]))
    x = Tensor([[HUGE, HUGE]])
    for ffn in (oracle_feed_forward, feed_forward):
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            ffn(x, params)


def test_each_fused_op_raises_where_its_chain_does():
    big, one, row = Tensor([[HUGE, HUGE]]), Tensor([[1.0, 1.0]]), Tensor([[0.0, 0.0]])
    for fused, chain, args in [
        (affine, oracle_affine, (big, Tensor([[2.0], [2.0]]), Tensor([[0.0]]))),
        (add_layer_norm, oracle_add_layer_norm, (big, big, one, row)),
        (weighted_sum, oracle_weighted_sum, ((big, big), (1.0, 1.0))),
        (weighted_sum, oracle_weighted_sum, ((one, one), (0.5, float("nan")))),
    ]:
        for op in (chain, fused):
            with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
                op(*args)


def test_fused_ops_keep_the_chains_shape_messages():
    x, w = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"matmul shape mismatch: \(3, 4\) x \(3, 2\)"):
        affine(x, Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))
    with pytest.raises(ValueError, match=r"add shape mismatch: \(3, 2\) \+ \(1, 3\)"):
        affine(x, w, Tensor(np.ones((1, 3))))
    with pytest.raises(ValueError, match=r"add shape mismatch: \(3, 4\) \+ \(2, 4\)"):
        add_layer_norm(x, Tensor(np.ones((2, 4))), Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))
    with pytest.raises(ValueError, match=r"layer_norm gain/bias must be 1x4"):
        add_layer_norm(x, x, Tensor(np.ones((1, 3))), Tensor(np.ones((1, 4))))
    with pytest.raises(ValueError, match=r"add shape mismatch: \(3, 4\) \+ \(3, 2\)"):
        weighted_sum((x, x, Tensor(np.ones((3, 2)))), (0.2, 0.3, 0.5))


def decoder_bytes(n: int, m: int, d: int, heads: int, inner: int, layers: int, vocab: int) -> int:
    """What a decoder forward over n tokens and three m-row memories keeps:
    each op's output and the arrays its backward rule reads, in float64
    (a relu mask is one byte an entry)."""
    per_layer = (
        # self-attention: q, k, v, the heads' output, their weights, the wo output
        4 * n * d + heads * n * n + n * d
        # three cross-attentions: q, keys and values over the memory, the heads'
        # output, their weights, the wo output
        + 3 * (n * d + 2 * m * d + n * d + heads * n * m + n * d)
        # the feed-forward's hidden activation and its output
        + n * inner + n * d
        # five residual layer norms: the standardized rows and the output
        + 5 * 2 * n * d
    )
    mask = layers * n * inner // 8
    # the embedded tokens, their sum with the positions and the logits
    return 8 * (2 * n * d + layers * per_layer + n * vocab + mask)


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
    # the chains also kept, per layer, five residual sums, the feed-forward's
    # two products and its biased hidden sum, and the head's product: over 5 MB here
    assert held <= kept + 64 * 1024, (held, kept)
