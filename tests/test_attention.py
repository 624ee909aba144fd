import math

import numpy as np
import pytest

from dmdk.attention import (
    EmbeddingTable,
    FfnParams,
    MhaParams,
    attend,
    attention_weights,
    causal_mask,
    embed_tokens,
    feed_forward,
    heads_attention,
    multi_head_attention,
    project_kv,
    sinusoidal_encoding,
    sinusoidal_rows,
)
from dmdk.autograd import (
    NonFiniteError,
    Tensor,
    finite_diff_grad,
    matmul,
    mul,
    parameter_gradients,
    relative_error,
    sum_all,
)

from conftest import random_mha
from oracles import oracle_attention, oracle_mha

RNG = np.random.default_rng(7)
TOL = dict(rtol=1e-12, atol=1e-12)


def identity_block(d: int) -> MhaParams:
    eye = np.eye(d)
    return MhaParams(Tensor(eye), Tensor(eye), Tensor(eye), Tensor(eye), heads=1)


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
    out = multi_head_attention(x, y, identity_block(2))
    assert np.allclose(out.value, np.tile([4.0, -1.0], (3, 1)), atol=1e-12)


def test_zero_query_gives_uniform_average():
    x = Tensor(np.zeros((1, 2)))
    y = Tensor([[2.0, 0.0], [4.0, 6.0]])
    out = multi_head_attention(x, y, identity_block(2))
    assert np.allclose(out.value, [[3.0, 3.0]], atol=1e-12)


def test_quarter_three_quarter_split_closed_form():
    # q k^T / sqrt(2) = [0, ln 3] -> weights [0.25, 0.75]
    # values are the y rows themselves, so out = [0.75 ln 3, 0.25*1 + 0.75*5]
    x = Tensor([[math.sqrt(2.0), 0.0]])
    y = Tensor([[0.0, 1.0], [math.log(3.0), 5.0]])
    weights = attention_weights(x.value, y.value, heads=1)
    out = multi_head_attention(x, y, identity_block(2))
    assert np.allclose(weights, [[[0.25, 0.75]]], atol=1e-12)
    assert np.allclose(out.value, [[0.75 * math.log(3.0), 4.0]], atol=1e-12)


def test_attention_weights_are_stochastic_and_output_in_value_hull():
    params = random_mha(4, 2, RNG)
    x = Tensor(RNG.normal(size=(5, 4)))
    y = Tensor(RNG.normal(size=(7, 4)))
    q = matmul(x, params.wq)
    k, v = project_kv(y, params)
    w = attention_weights(q.value, k.value, params.heads)
    assert w.shape == (2, 5, 7)
    assert (w >= 0).all() and np.allclose(w.sum(axis=2), 1.0, atol=1e-9)
    out = heads_attention(q, k, v, params.heads).value  # every column is one head's
    assert (out <= v.value.max(axis=0) + 1e-12).all()
    assert (out >= v.value.min(axis=0) - 1e-12).all()


def test_causal_mask_layout():
    m = causal_mask(3)
    assert np.array_equal(m == 0.0, np.tril(np.ones((3, 3), dtype=bool)))


def test_causal_suffix_change_leaves_prefix_rows_bit_identical():
    params = random_mha(4, 2, RNG)
    seq = RNG.normal(size=(5, 4))
    full = multi_head_attention(Tensor(seq), Tensor(seq), params, causal=True).value
    bumped = seq.copy()
    bumped[-1] += 3.5
    redone = multi_head_attention(Tensor(bumped), Tensor(bumped), params, causal=True).value
    assert np.array_equal(full[:-1], redone[:-1])


def test_causal_requires_equal_lengths():
    with pytest.raises(ValueError, match="needs 2 key rows, got 3"):
        multi_head_attention(
            Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))), identity_block(2), causal=True
        )


def test_head_param_shapes_must_agree():
    ones = Tensor(np.ones((4, 4)))
    with pytest.raises(ValueError, match="wv must be 4x4"):
        MhaParams(ones, ones, Tensor(np.ones((4, 3))), ones, heads=2)


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
        multi_head_attention(Tensor(x), Tensor(y), params).value,
        oracle_attention(x, y, *(t.value for t in w)),
        **TOL,
    )


def test_mha_output_shape_ignores_key_length():
    params = random_mha(6, 3, RNG)
    x = Tensor(RNG.normal(size=(4, 6)))
    for rows in (1, 2, 9):
        y = Tensor(RNG.normal(size=(rows, 6)))
        assert multi_head_attention(x, y, params).shape == (4, 6)


def test_two_head_mha_matches_loop_oracle():
    params = random_mha(4, 2, RNG)
    x = RNG.normal(size=(3, 4))
    y = RNG.normal(size=(5, 4))
    expected = oracle_mha(x, y, oracle_heads(params), params.wo.value)
    got = multi_head_attention(Tensor(x), Tensor(y), params).value
    assert np.allclose(got, expected, atol=1e-10)


def test_causal_mha_matches_loop_oracle():
    params = random_mha(4, 2, RNG)
    x = RNG.normal(size=(4, 4))
    expected = oracle_mha(x, x, oracle_heads(params), params.wo.value, causal=True)
    got = multi_head_attention(Tensor(x), Tensor(x), params, causal=True).value
    assert np.allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("d, heads", [(8, 2), (512, 8)])
def test_packed_heads_match_the_per_head_oracle(d, heads):
    # the oracle slices the packed projections into heads and loops over rows
    rng = np.random.default_rng(d)
    params = random_mha(d, heads, rng)
    x = rng.normal(size=(6, d))
    y = rng.normal(size=(9, d))
    per_head, wo = oracle_heads(params), params.wo.value
    np.testing.assert_allclose(
        multi_head_attention(Tensor(x), Tensor(y), params).value, oracle_mha(x, y, per_head, wo), **TOL
    )
    causal = oracle_mha(x, x, per_head, wo, causal=True)
    np.testing.assert_allclose(
        multi_head_attention(Tensor(x), Tensor(x), params, causal=True).value, causal, **TOL
    )
    k, v = project_kv(Tensor(x), params)
    for offset in (1, 4, 5):
        tail = attend(Tensor(x[offset:]), k, v, params, offset).value
        np.testing.assert_allclose(tail, causal[offset:], **TOL, err_msg=f"offset {offset}")


@pytest.mark.parametrize("offset", [None, 0, 2])
def test_heads_attention_gradients_match_finite_differences(offset):
    rng = np.random.default_rng(11)
    rows = 3 if offset is None else 3 - offset
    q = Tensor(rng.normal(size=(rows, 8)))
    k, v = Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(3, 8)))
    probe = Tensor(rng.normal(size=(rows, 8)))  # weights every output entry differently

    def build():
        return sum_all(mul(heads_attention(q, k, v, 2, offset), probe))

    grads = parameter_gradients(build(), [q, k, v])
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), [q, k, v])
    for name, leaf, num in zip("qkv", (q, k, v), numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-6, name


def test_mha_rejects_indivisible_head_count():
    ones = Tensor(np.ones((5, 5)))
    with pytest.raises(ValueError, match="not divisible"):
        MhaParams(ones, ones, ones, ones, heads=2)


def test_attention_gradients_match_finite_differences():
    params = random_mha(4, 2, RNG)
    x = Tensor(RNG.normal(size=(3, 4)))
    y = Tensor(RNG.normal(size=(4, 4)))
    leaves = [x, y, params.wq, params.wk, params.wv, params.wo]

    def build():
        return sum_all(multi_head_attention(x, y, params))

    grads = parameter_gradients(build(), leaves)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), leaves)
    for leaf, num in zip(leaves, numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-4


# ---------------------------------------------------------------------------
# feed-forward


def test_ffn_zero_weights_yield_bias_rows():
    d = 3
    params = FfnParams(
        Tensor(np.zeros((d, 2 * d))),
        Tensor(np.zeros((1, 2 * d))),
        Tensor(np.zeros((2 * d, d))),
        Tensor([[1.0, -2.0, 0.5]]),
    )
    out = feed_forward(Tensor(RNG.normal(size=(4, d))), params)
    assert np.allclose(out.value, np.tile([1.0, -2.0, 0.5], (4, 1)), atol=1e-12)


def test_ffn_scalar_trace():
    # relu(3*1 - 1) * (-0.5) - 0.25 = -1.25
    params = FfnParams(
        Tensor([[1.0]]), Tensor([[-1.0]]), Tensor([[-0.5]]), Tensor([[-0.25]])
    )
    out = feed_forward(Tensor([[3.0]]), params)
    assert out.value[0, 0] == pytest.approx(-1.25, abs=1e-12)


def test_ffn_preserves_shape_and_passes_gradcheck():
    params = FfnParams(
        Tensor(RNG.normal(size=(4, 8))), Tensor(np.zeros((1, 8))),
        Tensor(RNG.normal(size=(8, 4))), Tensor(np.zeros((1, 4))),
    )
    x = Tensor(RNG.normal(size=(5, 4)) + 0.2)
    out = feed_forward(x, params)
    assert out.shape == (5, 4)
    leaves = [x, params.w1, params.b1, params.w2, params.b2]

    def build():
        return sum_all(feed_forward(x, params))

    grads = parameter_gradients(build(), leaves)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), leaves)
    for leaf, num in zip(leaves, numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-4


def test_ffn_inconsistent_shapes_rejected():
    with pytest.raises(ValueError, match="inconsistent"):
        FfnParams(
            Tensor(np.ones((4, 8))),
            Tensor(np.ones((1, 8))),
            Tensor(np.ones((8, 5))),
            Tensor(np.ones((1, 5))),
        )
    with pytest.raises(ValueError, match="biases"):
        FfnParams(
            Tensor(np.ones((4, 8))),
            Tensor(np.ones((1, 7))),
            Tensor(np.ones((8, 4))),
            Tensor(np.ones((1, 4))),
        )


# ---------------------------------------------------------------------------
# embeddings


def test_sinusoidal_row_zero_alternates_zero_one():
    enc = sinusoidal_encoding(3, 6)
    assert np.array_equal(enc[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_embed_empty_sequence_gives_zero_rows():
    table = EmbeddingTable(Tensor(RNG.normal(size=(5, 4))))
    assert embed_tokens([], table).shape == (0, 4)


def test_repeated_token_rows_differ_by_positional_rows():
    table = EmbeddingTable(Tensor(RNG.normal(size=(5, 4))))
    out = embed_tokens([2, 2], table).value
    enc = sinusoidal_encoding(2, 4)
    assert np.allclose(out[1] - out[0], enc[1] - enc[0], atol=1e-12)


def test_learned_positions_cap_sequence_length():
    table = EmbeddingTable(Tensor(RNG.normal(size=(5, 4))), Tensor(RNG.normal(size=(3, 4))))
    assert embed_tokens([0, 1, 2], table).shape == (3, 4)
    with pytest.raises(ValueError, match="exceeds learned positional table"):
        embed_tokens([0, 1, 2, 3], table)


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
    rng = np.random.default_rng(5)
    for positions in (None, Tensor(rng.normal(size=(6, 4)))):
        table = EmbeddingTable(Tensor(rng.normal(size=(7, 4))), positions)
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
    full = multi_head_attention(seq, seq, params, causal=True).value
    k, v = project_kv(seq, params)
    tail = attend(Tensor(seq.value[3:]), k, v, params, offset=3).value
    np.testing.assert_allclose(tail, full[3:], **TOL)
    with pytest.raises(ValueError, match="needs 4 key rows, got 5"):
        attend(Tensor(seq.value[3:]), k, v, params, offset=2)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_scores_are_refused():
    q = Tensor(np.full((2, 4), 1e200))
    with pytest.raises(NonFiniteError, match="attention scores"):
        heads_attention(q, q, q, heads=2)
