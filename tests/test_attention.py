import math

import numpy as np
import pytest

from dmdk.attention import (
    FfnParams,
    LayerNormParams,
    MhaParams,
    attention_weights,
    causal_mask,
    embed_tokens,
    feed_forward,
    heads_attention,
    multi_head_attention,
    pack,
    project_kv,
    residual_attention,
    sinusoidal_encoding,
    sinusoidal_rows,
)
from dmdk.autograd import (
    NonFiniteError,
    Tensor,
    finite_diff_grad,
    matmul,
    relative_error,
    sum_all,
)
from dmdk.model import FusionWeights, ModelSpec, ReportModel, decoder_forward
from dmdk.text import Vocabulary

from conftest import lone, random_mha
from oracles import mul, oracle_attention, oracle_heads_loop, oracle_layer_norm, oracle_mha, parameter_gradients

RNG = np.random.default_rng(7)
TOL = dict(rtol=1e-12, atol=1e-12)


def identity_block(d: int) -> MhaParams:
    eye = np.eye(d)
    return MhaParams(Tensor(eye), Tensor(eye), Tensor(eye), Tensor(eye), heads=1)


def unit_norm(d: int) -> LayerNormParams:
    """A layer norm of gain 1 and bias 0."""
    return LayerNormParams(Tensor(np.ones((1, d))), Tensor(np.zeros((1, d))))


def self_attention(x: np.ndarray, params: MhaParams, offset: int = 0, spans=None, keys: np.ndarray | None = None):
    """The causal self-attention sublayer over ``x``'s rows at ``offset``, keys
    and values projected from ``keys`` (``x`` itself when None), one record
    unless ``spans`` packs several."""
    keys = x if keys is None else keys
    packing = lone(x, keys) if spans is None else pack(*spans)
    kv = project_kv(Tensor(keys), params)
    return residual_attention(Tensor(x), *kv, params, unit_norm(x.shape[1]), offset, packing).value


def post_norm(x: np.ndarray, sublayer: np.ndarray) -> np.ndarray:
    """The oracle of LayerNorm(x + sublayer) at gain 1 and bias 0."""
    return oracle_layer_norm(x + sublayer, 1.0, 0.0)


def oracle_heads(params: MhaParams) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The packed projections sliced into per-head (wq, wk, wv) column blocks."""
    dn = params.wq.cols // params.heads
    return [
        tuple(w.value[:, h * dn : (h + 1) * dn] for w in (params.wq, params.wk, params.wv))
        for h in range(params.heads)
    ]


# ---------------------------------------------------------------------------
# attention weights and closed forms


def test_single_key_row_passes_value_through():
    x = Tensor(RNG.normal(size=(3, 2)))
    y = Tensor([[4.0, -1.0]])
    out = multi_head_attention(x, y, identity_block(2), lone(x, y))
    assert np.allclose(out.value, np.tile([4.0, -1.0], (3, 1)), atol=1e-12)


def test_zero_query_gives_uniform_average():
    x = Tensor(np.zeros((1, 2)))
    y = Tensor([[2.0, 0.0], [4.0, 6.0]])
    out = multi_head_attention(x, y, identity_block(2), lone(x, y))
    assert np.allclose(out.value, [[3.0, 3.0]], atol=1e-12)


def test_quarter_three_quarter_split_closed_form():
    # q k^T / sqrt(2) = [0, ln 3] -> weights [0.25, 0.75]
    # values are the y rows themselves, so out = [0.75 ln 3, 0.25*1 + 0.75*5]
    x = Tensor([[math.sqrt(2.0), 0.0]])
    y = Tensor([[0.0, 1.0], [math.log(3.0), 5.0]])
    weights = attention_weights(x.value[None], y.value[None])
    out = multi_head_attention(x, y, identity_block(2), lone(x, y))
    assert np.allclose(weights, [[[0.25, 0.75]]], atol=1e-12)
    assert np.allclose(out.value, [[0.75 * math.log(3.0), 4.0]], atol=1e-12)


def per_head(a, heads):
    """rows x d -> heads x rows x d/heads: head h takes the h-th block of d/heads columns."""
    return np.stack(np.split(a, heads, axis=1))


def assert_stochastic_in_value_hull(d, heads, q_rows, k_rows, rng):
    params = random_mha(d, heads, rng)
    x = Tensor(rng.normal(size=(q_rows, d)))
    y = Tensor(rng.normal(size=(k_rows, d)))
    q = matmul(x, params.wq)
    k, v = project_kv(y, params)
    w = attention_weights(per_head(q.value, heads), per_head(k.value, heads))
    assert w.shape == (heads, q_rows, k_rows)
    assert (w >= 0).all() and np.allclose(w.sum(axis=2), 1.0, atol=1e-9)
    out, _ = heads_attention(q.value, k.value, v.value, params.heads, None, lone(q, k))  # every column is one head's
    assert (out <= v.value.max(axis=0) + 1e-12).all()
    assert (out >= v.value.min(axis=0) - 1e-12).all()


def test_attention_weights_are_stochastic_and_output_in_value_hull():
    assert_stochastic_in_value_hull(4, 2, 5, 7, RNG)


@pytest.mark.parametrize("k_rows", [49, 98])
def test_value_hull_holds_at_paper_width(k_rows):
    # d=512 and 8 heads over one or two 49-row views, as the paper's model attends
    assert_stochastic_in_value_hull(512, 8, 49, k_rows, np.random.default_rng(k_rows))


def test_causal_mask_layout():
    m = causal_mask(3)
    assert np.array_equal(m == 0.0, np.tril(np.ones((3, 3), dtype=bool)))


def test_causal_suffix_change_leaves_prefix_rows_bit_identical():
    params = random_mha(4, 2, RNG)
    seq = RNG.normal(size=(5, 4))
    full = self_attention(seq, params)
    bumped = seq.copy()
    bumped[-1] += 3.5
    redone = self_attention(bumped, params)
    assert np.array_equal(full[:-1], redone[:-1])


# ---------------------------------------------------------------------------
# multi-head


def test_single_head_identity_projection_collapse():
    # one head and wo = I: plain scaled dot attention
    d = 4
    w = [Tensor(RNG.normal(size=(d, d))) for _ in range(3)]
    params = MhaParams(*w, Tensor(np.eye(d)), heads=1)
    x = RNG.normal(size=(3, d))
    y = RNG.normal(size=(5, d))
    np.testing.assert_allclose(
        multi_head_attention(Tensor(x), Tensor(y), params, lone(x, y)).value,
        oracle_attention(x, y, *(t.value for t in w)),
        **TOL,
    )


def test_mha_output_shape_ignores_key_length():
    params = random_mha(6, 3, RNG)
    x = Tensor(RNG.normal(size=(4, 6)))
    for rows in (1, 2, 9):
        y = Tensor(RNG.normal(size=(rows, 6)))
        assert multi_head_attention(x, y, params, lone(x, y)).shape == (4, 6)


def test_two_head_mha_matches_loop_oracle():
    params = random_mha(4, 2, RNG)
    x = RNG.normal(size=(3, 4))
    y = RNG.normal(size=(5, 4))
    expected = oracle_mha(x, y, oracle_heads(params), params.wo.value)
    got = multi_head_attention(Tensor(x), Tensor(y), params, lone(x, y)).value
    assert np.allclose(got, expected, atol=1e-10)


def test_causal_mha_matches_loop_oracle():
    params = random_mha(4, 2, RNG)
    x = RNG.normal(size=(4, 4))
    expected = post_norm(x, oracle_mha(x, x, oracle_heads(params), params.wo.value, causal=True))
    assert np.allclose(self_attention(x, params), expected, atol=1e-10)


@pytest.mark.parametrize("d, heads", [(8, 2), (512, 8)])
def test_packed_heads_match_the_per_head_oracle(d, heads):
    # the oracle slices the packed projections into heads and loops over rows
    rng = np.random.default_rng(d)
    params = random_mha(d, heads, rng)
    x = rng.normal(size=(6, d))
    y = rng.normal(size=(9, d))
    per_head, wo = oracle_heads(params), params.wo.value
    np.testing.assert_allclose(
        multi_head_attention(Tensor(x), Tensor(y), params, lone(x, y)).value, oracle_mha(x, y, per_head, wo), **TOL
    )
    causal = post_norm(x, oracle_mha(x, x, per_head, wo, causal=True))
    np.testing.assert_allclose(self_attention(x, params), causal, **TOL)
    for offset in (1, 4, 5):
        tail = self_attention(x[offset:], params, offset, keys=x)
        np.testing.assert_allclose(tail, causal[offset:], **TOL, err_msg=f"offset {offset}")


def assert_heads_backward_matches_finite_differences(q, k, v, offset, packing, rng):
    """heads_attention's backward rule under a probe gradient that weights
    every output entry differently, against central differences."""
    probe = rng.normal(size=q.shape)

    def f():
        return float((heads_attention(q.value, k.value, v.value, 2, offset, packing)[0] * probe).sum())

    grads = heads_attention(q.value, k.value, v.value, 2, offset, packing)[1](probe)
    numeric = finite_diff_grad(f, [q, k, v])
    for name, grad, num in zip("qkv", grads, numeric):
        assert relative_error(num, grad).max() < 1e-6, name


@pytest.mark.parametrize("offset", [None, 0, 2])
def test_heads_attention_gradients_match_finite_differences(offset):
    rng = np.random.default_rng(11)
    rows = 3 if offset is None else 3 - offset
    q = Tensor(rng.normal(size=(rows, 8)))
    k, v = Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(3, 8)))
    assert_heads_backward_matches_finite_differences(q, k, v, offset, lone(q, k), rng)


@pytest.mark.parametrize("offset, spans", [(None, None), (0, None), (2, None), (0, ([2, 3], [2, 3]))])
def test_residual_attention_gradients_match_finite_differences(offset, spans):
    rng = np.random.default_rng(13)
    params = random_mha(4, 2, rng)
    norm = LayerNormParams(Tensor(rng.uniform(0.5, 1.5, size=(1, 4))), Tensor(rng.normal(size=(1, 4))))
    keys = 5 if spans else 3
    h = Tensor(rng.normal(size=(keys if offset is None else keys - offset, 4)))
    y = Tensor(rng.normal(size=(keys, 4)))
    probe = Tensor(rng.normal(size=h.shape))
    packing = lone(h, y) if spans is None else pack(*spans)
    leaves = [h, y, params.wq, params.wk, params.wv, params.wo, norm.gain, norm.bias]

    def build():
        out = residual_attention(h, *project_kv(y, params), params, norm, offset, packing)
        return sum_all(mul(out, probe))

    grads = parameter_gradients(build(), leaves)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), leaves)
    for leaf, num in zip(leaves, numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-4


def test_attention_gradients_match_finite_differences():
    params = random_mha(4, 2, RNG)
    x = Tensor(RNG.normal(size=(3, 4)))
    y = Tensor(RNG.normal(size=(4, 4)))
    leaves = [x, y, params.wq, params.wk, params.wv, params.wo]

    def build():
        return sum_all(multi_head_attention(x, y, params, lone(x, y)))

    grads = parameter_gradients(build(), leaves)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), leaves)
    for leaf, num in zip(leaves, numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-4


# ---------------------------------------------------------------------------
# feed-forward


def test_ffn_zero_weights_yield_bias_rows():
    # the feed-forward adds its bias row to every input row before the layer norm
    d = 3
    params = FfnParams(
        Tensor(np.zeros((d, 2 * d))),
        Tensor(np.zeros((1, 2 * d))),
        Tensor(np.zeros((2 * d, d))),
        Tensor([[1.0, -2.0, 0.5]]),
    )
    x = RNG.normal(size=(4, d))
    out = feed_forward(Tensor(x), params, unit_norm(d))
    np.testing.assert_allclose(out.value, post_norm(x, np.tile([1.0, -2.0, 0.5], (4, 1))), **TOL)


def test_ffn_scalar_trace():
    # hidden relu(3*1 + 1*0 - 1) = 2; feed-forward 2*(-0.5, 0.5) + (-0.25, 0.25) = (-1.25, 1.25);
    # residual (1.75, 2.25) has mean 2 and variance 0.0625
    params = FfnParams(
        Tensor([[1.0], [0.0]]), Tensor([[-1.0]]), Tensor([[-0.5, 0.5]]), Tensor([[-0.25, 0.25]])
    )
    norm = LayerNormParams(Tensor([[2.0, 2.0]]), Tensor([[1.0, -1.0]]))
    out = feed_forward(Tensor([[3.0, 1.0]]), params, norm)
    scale = 0.25 / math.sqrt(0.0625 + 1e-5)
    assert out.value[0] == pytest.approx([1.0 - 2.0 * scale, -1.0 + 2.0 * scale], abs=1e-12)


def test_ffn_preserves_shape_and_passes_gradcheck():
    params = FfnParams(
        Tensor(RNG.normal(size=(4, 8))), Tensor(np.zeros((1, 8))),
        Tensor(RNG.normal(size=(8, 4))), Tensor(np.zeros((1, 4))),
    )
    norm = LayerNormParams(Tensor(RNG.uniform(0.5, 1.5, size=(1, 4))), Tensor(RNG.normal(size=(1, 4))))
    x = Tensor(RNG.normal(size=(5, 4)) + 0.2)
    probe = Tensor(RNG.normal(size=(5, 4)))  # the rows of a layer norm sum to a constant
    out = feed_forward(x, params, norm)
    assert out.shape == (5, 4)
    leaves = [x, params.w1, params.b1, params.w2, params.b2, norm.gain, norm.bias]

    def build():
        return sum_all(mul(feed_forward(x, params, norm), probe))

    grads = parameter_gradients(build(), leaves)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), leaves)
    for leaf, num in zip(leaves, numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-4


# ---------------------------------------------------------------------------
# embeddings


def test_sinusoidal_row_zero_alternates_zero_one():
    enc = sinusoidal_encoding(3, 6)
    assert np.array_equal(enc[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_embed_empty_sequence_gives_zero_rows():
    table = Tensor(RNG.normal(size=(5, 4)))
    assert embed_tokens([], table).shape == (0, 4)


def test_repeated_token_rows_differ_by_positional_rows():
    table = Tensor(RNG.normal(size=(5, 4)))
    out = embed_tokens([2, 2], table).value
    enc = sinusoidal_encoding(2, 4)
    assert np.allclose(out[1] - out[0], enc[1] - enc[0], atol=1e-12)


def test_sinusoidal_rows_slice_equals_fresh_table_bitwise():
    for dim in (8, 32, 512):
        for n in range(1, 300):
            assert np.array_equal(sinusoidal_rows(0, n, dim), sinusoidal_encoding(n, dim)), (n, dim)
        assert np.array_equal(sinusoidal_rows(290, 299, dim), sinusoidal_encoding(299, dim)[290:])


def test_sinusoidal_rows_are_read_only():
    rows = sinusoidal_rows(0, 4, 6)
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0


def test_embed_tokens_from_a_start_position_matches_the_full_sequence():
    table = Tensor(np.random.default_rng(5).normal(size=(7, 4)))
    ids = [1, 4, 4, 6, 2]
    full = embed_tokens(ids, table).value
    parts = [embed_tokens(ids[:2], table).value, embed_tokens(ids[2:], table, start=2).value]
    assert np.array_equal(np.vstack(parts), full)


def test_causal_mask_at_offset_is_the_bottom_of_the_full_mask():
    assert np.array_equal(causal_mask(2, offset=3), causal_mask(5)[3:])


def test_attend_at_offset_matches_the_full_causal_rows():
    rng = np.random.default_rng(8)
    params = random_mha(6, 2, rng)
    seq = Tensor(rng.normal(size=(5, 6)))
    full = self_attention(seq.value, params)
    tail = self_attention(seq.value[3:], params, offset=3, keys=seq.value)
    np.testing.assert_allclose(tail, full[3:], **TOL)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_scores_are_refused():
    q = np.full((2, 4), 1e200)
    with pytest.raises(NonFiniteError, match="attention scores"):
        heads_attention(q, q, q, 2, None, lone(q, q))


# ---------------------------------------------------------------------------
# packed records: row spans


def split_rows(a, counts):
    return np.split(a, np.cumsum(counts)[:-1])


@pytest.mark.parametrize("offset", [None, 0])
@pytest.mark.parametrize("d,heads", [(8, 2), (512, 8)])
def test_spans_attend_each_record_alone(offset, d, heads):
    rng = np.random.default_rng(d)
    q_rows = [3, 1, 5, 2]
    k_rows = q_rows if offset == 0 else [4, 2, 1, 6]
    q = rng.normal(size=(sum(q_rows), d))
    k, v = rng.normal(size=(2, sum(k_rows), d))
    packed, _ = heads_attention(q, k, v, heads, offset, pack(q_rows, k_rows))
    parts = zip(split_rows(q, q_rows), split_rows(k, k_rows), split_rows(v, k_rows))
    alone = [heads_attention(a, b, c, heads, offset, lone(a, b))[0] for a, b, c in parts]
    assert np.array_equal(packed, np.concatenate(alone))


def test_a_record_without_queries_keeps_the_key_rows_of_its_neighbours_apart():
    # records 0 and 2 share a shape; record 1 has no query rows but 4 key rows,
    # so the group's queries are adjacent and its keys are not
    [(n, qi, ki), (m, qj, kj)] = pack([2, 0, 2], [3, 4, 3])
    assert (n, m) == (2, 1)
    assert list(np.r_[qi]) == [0, 1, 2, 3] and list(np.r_[ki]) == [0, 1, 2, 7, 8, 9]
    assert (qj, kj) == (slice(2, 2), slice(3, 7))
    rng = np.random.default_rng(12)
    q, g = rng.normal(size=(2, 4, 8))
    k, v = rng.normal(size=(2, 10, 8))
    out, rule = heads_attention(q, k, v, 2, None, pack([2, 0, 2], [3, 4, 3]))
    keep = np.r_[0:3, 7:10]  # the two records' keys, without record 1's
    expected, oracle_rule = oracle_heads_loop(q, k[keep], v[keep], 2, None, ([2, 2], [3, 3]))
    assert np.array_equal(out, expected)
    dq, dk, dv = rule(g)
    for name, grad, oracle_grad in zip("qkv", (dq, dk[keep], dv[keep]), oracle_rule(g)):
        assert np.array_equal(grad, oracle_grad), name
    assert not dk[3:7].any() and not dv[3:7].any()


# (query rows, key rows) of each record: one shape for every record, a shape
# each, two groups around a lone record, one record (which the loop also runs
# unsplit, as "no spans"), and one token of a cached decode step. Causal
# blocks take each record's offset + query rows as its key rows, the offset
# being 0 but for the decode step's four cached tokens.
SPANS = {
    "equal": ([4, 4, 4, 4], [6, 6, 6, 6]),
    "distinct": ([3, 1, 5, 2], [4, 2, 1, 6]),
    "mixed": ([3, 2, 3, 5, 2, 3], [4, 1, 4, 2, 1, 4]),
    "one record": ([5], [7]),
    "no spans": ([6], [9]),
    "decode step": ([1], [5]),
}


@pytest.mark.parametrize("offset", [None, 0])
@pytest.mark.parametrize("case", list(SPANS))
@pytest.mark.parametrize("d,heads", [(8, 2), (512, 8)])
def test_grouped_records_equal_the_per_record_loop(d, heads, case, offset):
    rng = np.random.default_rng(d)
    q_rows, k_rows = SPANS[case]
    if offset is not None:
        offset = 4 if case == "decode step" else 0
        k_rows = [n + offset for n in q_rows]
    spans = None if case == "no spans" else (q_rows, k_rows)
    q, g = rng.normal(size=(2, sum(q_rows), d))
    k, v = rng.normal(size=(2, sum(k_rows), d))
    out, rule = heads_attention(q, k, v, heads, offset, pack(q_rows, k_rows))
    expected, oracle_rule = oracle_heads_loop(q, k, v, heads, offset, spans)
    assert np.array_equal(out, expected)
    for name, grad, oracle_grad in zip("qkv", rule(g), oracle_rule(g)):
        assert np.array_equal(grad, oracle_grad), name


@pytest.mark.parametrize("d,heads", [(8, 2), (512, 8)])
def test_a_decoder_forward_without_spans_is_a_packed_batch_of_one(d, heads):
    # one record's logits, as a replay check recomputes them, bit for bit
    spec = ModelSpec(
        d=d, heads=heads, decoder_layers=2, gcn_layers=1, ffn_multiplier=2, feature_dim=8,
        fusion=FusionWeights.from_raw(1.0, 1.0, 1.0),
    )
    vocab = Vocabulary(list(Vocabulary.SPECIALS) + [f"w{i}" for i in range(12)], 1)
    model = ReportModel(vocab, ["root"], spec, rng=np.random.default_rng(d))
    rng = np.random.default_rng(d + 1)
    memories = [Tensor(rng.normal(size=(7, d))) for _ in range(3)]
    ids = [Vocabulary.BOS, 5, 9, 4, 11]
    alone = decoder_forward(ids, *memories, model.decoder, model.embed).value
    packed = decoder_forward(ids, *memories, model.decoder, model.embed, spans=([len(ids)], [7])).value
    assert alone.tobytes() == packed.tobytes()


@pytest.mark.parametrize("offset", [None, 0, 2])
def test_attention_weights_of_stacked_records_equal_one_call_per_record(offset):
    rng = np.random.default_rng(3)
    qh = rng.normal(size=(3, 2, 4, 8))
    kh = rng.normal(size=(3, 2, 4 + (2 if offset is None else offset), 8))
    stacked = attention_weights(qh, kh, offset)
    assert stacked.shape == (3, 2, 4, kh.shape[2])
    for r in range(3):
        assert np.array_equal(stacked[r], attention_weights(qh[r], kh[r], offset))


def test_spans_keep_the_causal_offset_within_each_record():
    rng = np.random.default_rng(4)
    params = random_mha(8, 2, rng)
    rows = [3, 5]
    x = rng.normal(size=(8, 8))
    packed = self_attention(x, params, 0, (rows, rows))
    for part, (a, b) in zip(split_rows(packed, rows), ((0, 3), (3, 8))):
        np.testing.assert_allclose(part, self_attention(x[a:b], params), **TOL)


def test_span_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    spans = ([2, 3], [2, 3])
    q, k, v = (Tensor(rng.normal(size=(5, 8))) for _ in range(3))
    assert_heads_backward_matches_finite_differences(q, k, v, 0, pack(*spans), rng)


def test_embed_tokens_restarts_positions_for_each_span():
    table = Tensor(np.random.default_rng(6).normal(size=(7, 4)))
    ids = [1, 4, 4, 6, 2, 5]
    packed = embed_tokens(ids, table, spans=[2, 1, 3]).value
    alone = [embed_tokens(ids[:2], table), embed_tokens(ids[2:3], table), embed_tokens(ids[3:], table)]
    assert np.array_equal(packed, np.vstack([t.value for t in alone]))
