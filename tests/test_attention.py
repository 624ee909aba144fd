import math

import numpy as np
import pytest

from dmdk.attention import (
    EmbeddingTable,
    FfnParams,
    HeadParams,
    MhaParams,
    attend,
    causal_mask,
    embed_tokens,
    feed_forward,
    multi_head_attention,
    project_kv,
    scaled_dot_attention,
    sinusoidal_encoding,
    sinusoidal_rows,
)
from dmdk.autograd import Tensor, parameter_gradients, finite_diff_grad, relative_error, sum_all

from oracles import oracle_mha

RNG = np.random.default_rng(7)


def identity_head(d: int) -> HeadParams:
    eye = np.eye(d)
    return HeadParams(Tensor(eye), Tensor(eye), Tensor(eye))


# ---------------------------------------------------------------------------
# single head


def test_single_key_row_passes_value_through():
    head = identity_head(2)
    x = Tensor(RNG.normal(size=(3, 2)))
    y = Tensor([[4.0, -1.0]])
    out = scaled_dot_attention(x, y, head)
    assert np.allclose(out.value, np.tile([4.0, -1.0], (3, 1)), atol=1e-12)


def test_zero_query_gives_uniform_average():
    head = identity_head(2)
    x = Tensor(np.zeros((1, 2)))
    y = Tensor([[2.0, 0.0], [4.0, 6.0]])
    out = scaled_dot_attention(x, y, head)
    assert np.allclose(out.value, [[3.0, 3.0]], atol=1e-12)


def test_quarter_three_quarter_split_closed_form():
    # q k^T / sqrt(2) = [0, ln 3] -> weights [0.25, 0.75]
    # values are the y rows themselves, so out = [0.75 ln 3, 0.25*1 + 0.75*5]
    head = identity_head(2)
    x = Tensor([[math.sqrt(2.0), 0.0]])
    y = Tensor([[0.0, 1.0], [math.log(3.0), 5.0]])
    out, weights = scaled_dot_attention(x, y, head, with_weights=True)
    assert np.allclose(weights.value, [[0.25, 0.75]], atol=1e-12)
    assert np.allclose(out.value, [[0.75 * math.log(3.0), 4.0]], atol=1e-12)


def test_attention_weights_are_stochastic_and_output_in_value_hull():
    d = 4
    head = HeadParams(*(Tensor(RNG.normal(size=(d, 2))) for _ in range(3)))
    x = Tensor(RNG.normal(size=(5, d)))
    y = Tensor(RNG.normal(size=(7, d)))
    out, weights = scaled_dot_attention(x, y, head, with_weights=True)
    w = weights.value
    assert (w >= 0).all() and np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
    v = y.value @ head.wv.value
    assert (out.value <= v.max(axis=0) + 1e-12).all()
    assert (out.value >= v.min(axis=0) - 1e-12).all()


def test_causal_mask_layout():
    m = causal_mask(3)
    assert np.array_equal(m == 0.0, np.tril(np.ones((3, 3), dtype=bool)))


def test_causal_suffix_change_leaves_prefix_rows_bit_identical():
    d = 4
    head = HeadParams(*(Tensor(RNG.normal(size=(d, 2))) for _ in range(3)))
    seq = RNG.normal(size=(5, d))
    full = scaled_dot_attention(Tensor(seq), Tensor(seq), head, causal=True).value
    bumped = seq.copy()
    bumped[-1] += 3.5
    redone = scaled_dot_attention(Tensor(bumped), Tensor(bumped), head, causal=True).value
    assert np.array_equal(full[:-1], redone[:-1])


def test_causal_requires_equal_lengths():
    head = identity_head(2)
    with pytest.raises(ValueError, match="matching lengths"):
        scaled_dot_attention(
            Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))), head, causal=True
        )


def test_head_param_shapes_must_agree():
    with pytest.raises(ValueError):
        HeadParams(Tensor(np.ones((4, 2))), Tensor(np.ones((4, 2))), Tensor(np.ones((4, 3))))


# ---------------------------------------------------------------------------
# multi-head


def test_single_head_identity_projection_collapse():
    d = 4
    head = HeadParams(*(Tensor(RNG.normal(size=(d, d))) for _ in range(3)))
    params = MhaParams([head], Tensor(np.eye(d)))
    x = Tensor(RNG.normal(size=(3, d)))
    y = Tensor(RNG.normal(size=(5, d)))
    assert np.array_equal(
        multi_head_attention(x, y, params).value,
        scaled_dot_attention(x, y, head).value,
    )


def test_mha_output_shape_ignores_key_length():
    params = MhaParams.create(6, 3, RNG)
    x = Tensor(RNG.normal(size=(4, 6)))
    for rows in (1, 2, 9):
        y = Tensor(RNG.normal(size=(rows, 6)))
        assert multi_head_attention(x, y, params).shape == (4, 6)


def test_two_head_mha_matches_loop_oracle():
    params = MhaParams.create(4, 2, RNG)
    x = RNG.normal(size=(3, 4))
    y = RNG.normal(size=(5, 4))
    expected = oracle_mha(
        x,
        y,
        [(h.wq.value, h.wk.value, h.wv.value) for h in params.heads],
        params.wo.value,
    )
    got = multi_head_attention(Tensor(x), Tensor(y), params).value
    assert np.allclose(got, expected, atol=1e-10)


def test_causal_mha_matches_loop_oracle():
    params = MhaParams.create(4, 2, RNG)
    x = RNG.normal(size=(4, 4))
    expected = oracle_mha(
        x,
        x,
        [(h.wq.value, h.wk.value, h.wv.value) for h in params.heads],
        params.wo.value,
        causal=True,
    )
    got = multi_head_attention(Tensor(x), Tensor(x), params, causal=True).value
    assert np.allclose(got, expected, atol=1e-10)


def test_mha_rejects_indivisible_head_count():
    with pytest.raises(ValueError):
        MhaParams.create(5, 2, RNG)


def test_attention_gradients_match_finite_differences():
    params = MhaParams.create(4, 2, RNG)
    x = Tensor(RNG.normal(size=(3, 4)))
    y = Tensor(RNG.normal(size=(4, 4)))
    leaves = [x, y] + [t for h in params.heads for t in (h.wq, h.wk, h.wv)] + [params.wo]

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
    params = FfnParams.create(4, RNG, multiplier=2)
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
    table = EmbeddingTable.create(5, 4, RNG)
    assert embed_tokens([], table).shape == (0, 4)


def test_repeated_token_rows_differ_by_positional_rows():
    table = EmbeddingTable.create(5, 4, RNG)
    out = embed_tokens([2, 2], table).value
    enc = sinusoidal_encoding(2, 4)
    assert np.allclose(out[1] - out[0], enc[1] - enc[0], atol=1e-12)


def test_learned_positions_cap_sequence_length():
    table = EmbeddingTable.create(5, 4, RNG, learned_positions=3)
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
    for positions in (None, 6):
        table = EmbeddingTable.create(7, 4, np.random.default_rng(5), learned_positions=positions)
        ids = [1, 4, 4, 6, 2]
        full = embed_tokens(ids, table).value
        parts = [embed_tokens(ids[:2], table).value, embed_tokens(ids[2:], table, start=2).value]
        assert np.array_equal(np.vstack(parts), full)


def test_causal_mask_at_offset_is_the_bottom_of_the_full_mask():
    assert np.array_equal(causal_mask(2, offset=3), causal_mask(5)[3:])


def test_attend_at_offset_matches_the_full_causal_rows():
    rng = np.random.default_rng(8)
    head = MhaParams.create(6, 2, rng).heads[0]
    seq = Tensor(rng.normal(size=(5, 6)))
    full = scaled_dot_attention(seq, seq, head, causal=True).value
    k, v = project_kv(seq, head)
    tail = attend(Tensor(seq.value[3:]), k, v, head, offset=3).value
    np.testing.assert_allclose(tail, full[3:], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="needs 4 key rows, got 5"):
        attend(Tensor(seq.value[3:]), k, v, head, offset=2)
