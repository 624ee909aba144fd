import math
import tracemalloc
import weakref

import numpy as np
import pytest

from dmdk import autograd
from dmdk.attention import LAYER_NORM_EPS, layer_norm
from dmdk.autograd import (
    Adam,
    NonFiniteError,
    SparseRows,
    Tensor,
    backward,
    canonical_matmul,
    cross_entropy_logits,
    embedding,
    finite_diff_grad,
    leaf_gradients,
    matmul,
    no_grad,
    relative_error,
    relu,
    sum_all,
    weighted_sum,
)

import oracles
from oracles import add, from_dense, mul, oracle_adam_step, oracle_layer_norm, parameter_gradients

RNG = np.random.default_rng(42)


def fd_check(build, params, rtol=1e-4):
    """Compare reverse-mode gradients of build() against central differences."""
    loss = build()
    grads = parameter_gradients(loss, params)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), params)
    for p, num in zip(params, numeric):
        err = relative_error(num, grads[p]).max()
        assert err < rtol, f"gradient mismatch: rel err {err}"


# ---------------------------------------------------------------------------
# construction


def test_tensor_refuses_scalars_and_vectors():
    for value in (3.0, [1.0, 2.0], np.ones((2, 2, 1))):
        with pytest.raises(ValueError, match="tensors are 2-D matrices"):
            Tensor(value)
    assert Tensor([[1.0], [2.0]]).shape == (2, 1)


def test_tensor_rejects_nan_and_inf():
    with pytest.raises(NonFiniteError):
        Tensor([[1.0, float("nan")]])
    with pytest.raises(NonFiniteError):
        Tensor([[float("inf")]])


# ---------------------------------------------------------------------------
# forwards


def test_matmul_identity_and_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(matmul(eye, a).value, a.value)
    out = matmul(a, Tensor([[0.0], [1.0]]))
    assert np.array_equal(out.value, [[2.0], [4.0]])


def test_matmul_zero_annihilates():
    z = Tensor(np.zeros((2, 3)))
    b = Tensor(RNG.normal(size=(3, 2)))
    assert np.array_equal(matmul(z, b).value, np.zeros((2, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_matmul_associativity():
    a, b, c = (Tensor(RNG.normal(size=(3, 3))) for _ in range(3))
    left = matmul(matmul(a, b), c).value
    right = matmul(a, matmul(b, c)).value
    assert np.allclose(left, right, atol=1e-9)


def test_canonical_matmul_matches_matmul():
    a = RNG.normal(size=(4, 5)) * (RNG.random((4, 5)) < 0.6)
    b = Tensor(RNG.normal(size=(5, 3)))
    assert np.allclose(canonical_matmul(from_dense(a), b).value, a @ b.value, atol=1e-12)


def test_canonical_matmul_is_bitwise_permutation_stable():
    # summing the same multiset of products in sorted order cannot depend on
    # the original row ordering of the contraction
    a = RNG.normal(size=(1, 6))
    b = RNG.normal(size=(6, 3))
    perm = RNG.permutation(6)
    out = canonical_matmul(from_dense(a), Tensor(b)).value
    out_p = canonical_matmul(from_dense(a[:, perm]), Tensor(b[perm])).value
    assert np.array_equal(out, out_p)


def test_sparse_rows_group_rows_by_entry_count():
    a = np.array([[0.0, 2.0, 5.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0], [0.0, 0.0, 6.0]])
    s = from_dense(a)
    # a Tensor of the nonzero entries, one per row
    assert s.shape == (5, 1) and (s.n_rows, s.n_cols) == (4, 3)
    assert sorted(s.value[:, 0].tolist()) == [2.0, 3.0, 4.0, 5.0, 6.0]
    (one, one_cols, one_vals), (two, two_cols, two_vals) = s.groups
    assert one.tolist() == [3] and one_cols.tolist() == [[2]] and one_vals[:, :, 0].tolist() == [[6.0]]
    assert two.tolist() == [0, 2] and two_cols.tolist() == [[1, 2], [0, 2]]
    assert two_vals[:, :, 0].tolist() == [[2.0, 5.0], [3.0, 4.0]]
    assert [g[0].tolist() for g in s.t_groups] == [[0, 1], [2]]  # column 2 has three entries
    out = canonical_matmul(s, Tensor(np.ones((3, 2)))).value
    assert np.array_equal(out, [[7.0, 7.0], [0.0, 0.0], [7.0, 7.0], [6.0, 6.0]])


def test_sparse_rows_block_diagonal_offsets_blocks():
    blocks = [RNG.normal(size=(2, 2)), RNG.normal(size=(3, 3))]
    dense = np.zeros((5, 5))
    dense[:2, :2], dense[2:, 2:] = blocks
    h = RNG.normal(size=(5, 4))
    out = canonical_matmul(SparseRows.block_diagonal([from_dense(b) for b in blocks]), Tensor(h)).value
    assert np.allclose(out, dense @ h, atol=1e-12)


def test_canonical_matmul_rejects_bad_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        canonical_matmul(from_dense(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_relu_values_and_idempotence():
    x = Tensor([[-1.0, 0.0, 2.0]])
    out = relu(x)
    assert np.array_equal(out.value, [[0.0, 0.0, 2.0]])
    assert np.array_equal(relu(out).value, out.value)


def layer_norm_node(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """The array-level layer norm and its backward rule as one graph node."""
    out, backward_rule = layer_norm(x.value, gain.value, bias.value)
    return Tensor(out, (x, gain, bias), backward_rule)


def test_layer_norm_closed_forms():
    gain, bias = np.ones((1, 2)), np.zeros((1, 2))
    const, _ = layer_norm(np.array([[5.0, 5.0]]), gain, bias)
    assert np.allclose(const, 0.0, atol=1e-9)
    sym, _ = layer_norm(np.array([[1.0, -1.0]]), gain, bias)
    assert np.allclose(sym, np.array([[1.0, -1.0]]) / math.sqrt(1.0 + LAYER_NORM_EPS), atol=1e-12)
    only_bias, _ = layer_norm(RNG.normal(size=(2, 2)), np.zeros((1, 2)), np.array([[7.0, -2.0]]))
    assert np.allclose(only_bias, [[7.0, -2.0], [7.0, -2.0]], atol=1e-12)


@pytest.mark.parametrize("d", [8, 512])
def test_layer_norm_matches_the_oracle(d):
    rng = np.random.default_rng(d)
    h, y = rng.normal(0.5, 2.0, size=(6, d)), rng.normal(0.5, 2.0, size=(6, d))
    h[2], y[2] = 0.5, 0.25  # a constant row: every entry standardizes to 0
    # |gain * xhat| stays below the bias, so no output entry is a near-cancellation
    gain = rng.uniform(0.5, 1.5, size=(1, d)) * rng.choice([-1.0, 1.0], size=(1, d))
    bias = rng.uniform(8.0, 12.0, size=(1, d))
    got, _ = layer_norm(h + y, gain, bias)
    want = oracle_layer_norm(h + y, gain, bias, LAYER_NORM_EPS)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(got[2], bias[0])


def test_embedding_gathers_rows_and_validates():
    table = Tensor(RNG.normal(size=(5, 3)))
    out = embedding(table, [4, 0, 4])
    assert np.array_equal(out.value, table.value[[4, 0, 4]])
    with pytest.raises(ValueError):
        embedding(table, [5])
    with pytest.raises(ValueError):
        embedding(table, [-1])


def test_embedding_takes_python_and_numpy_integers_and_refuses_other_ids():
    table = Tensor(RNG.normal(size=(5, 3)))
    for ids in ([np.int64(4), 0, np.int32(2)], np.array([4, 0, 2]), np.array([4, 0, 2], dtype=np.uint8)):
        assert np.array_equal(embedding(table, ids).value, table.value[[4, 0, 2]])
    for bad in (1.7, 1.0, np.float64(2.0), "1", None):
        with pytest.raises(ValueError, match="embedding ids must be integers: .* cannot be interpreted as an integer"):
            embedding(table, [0, bad])


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((3, 7)))
    loss = cross_entropy_logits(logits, [0, 3, 6], np.full(3, 1.0 / 3))
    assert math.isclose(loss.value[0, 0], math.log(7.0), rel_tol=1e-12)


def test_cross_entropy_matches_manual_nll():
    z = RNG.normal(size=(2, 4))
    targets = [1, 3]
    loss = cross_entropy_logits(Tensor(z), targets, np.full(2, 1.0 / 2)).value[0, 0]
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    manual = -np.mean([math.log(probs[i, t]) for i, t in enumerate(targets)])
    assert math.isclose(loss, manual, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# backward


def test_backward_square_function():
    x = Tensor([[3.0]])
    grads = backward(sum_all(mul(x, x)))
    assert np.allclose(grads[x], [[6.0]], atol=1e-12)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        backward(x)


def test_disconnected_parameter_gets_zero_gradient():
    x = Tensor([[2.0]])
    other = Tensor([[5.0]])
    grads = parameter_gradients(sum_all(mul(x, x)), [x, other])
    assert np.array_equal(grads[other], np.zeros((1, 1)))


def _loss_over_an_activation():
    """A loss and a weak reference to an interior activation's array."""
    a, b = Tensor(RNG.normal(size=(3, 4))), Tensor(RNG.normal(size=(4, 2)))
    h = matmul(a, b)
    return sum_all(relu(h)), weakref.ref(h.value)


def test_backward_frees_interior_activations():
    loss, activation = _loss_over_an_activation()
    assert activation() is not None
    backward(loss)
    assert activation() is None


def test_adam_step_updates_the_parameter_in_place_while_the_loss_is_held():
    p = Tensor(RNG.normal(size=(4, 4)))
    opt = Adam([("p", p)], lr=0.1)  # rebinds the small p.value to a view of Adam's buffer
    loss = sum_all(matmul(p, p))
    held, before = p.value, p.value.copy()
    opt.step(leaf_gradients(loss))
    assert p.value is held and not np.array_equal(held, before)
    assert loss.shape == (1, 1)  # the caller still holds the loss


def test_backward_through_a_consumed_graph_raises():
    a = Tensor(RNG.normal(size=(2, 2)))
    shared = matmul(a, a)
    first, second = sum_all(shared), sum_all(relu(shared))
    assert backward(first)[a].shape == (2, 2)
    for loss in (first, second):  # the same output again, then one sharing a subgraph
        with pytest.raises(RuntimeError, match="build the graph again"):
            backward(loss)


def test_gradient_accumulates_over_fanout():
    x = Tensor([[1.5]])
    # y = x*x + x -> dy/dx = 2x + 1 = 4
    y = add(mul(x, x), x)
    grads = backward(sum_all(y))
    assert np.allclose(grads[x], [[4.0]], atol=1e-12)


def test_matmul_gradients_match_fd():
    a = Tensor(RNG.normal(size=(3, 4)))
    b = Tensor(RNG.normal(size=(4, 2)))
    fd_check(lambda: sum_all(matmul(a, b)), [a, b])


def test_canonical_matmul_gradients_match_fd():
    a = from_dense(RNG.normal(size=(4, 5)) * (RNG.random((4, 5)) < 0.6))
    b = Tensor(RNG.normal(size=(5, 3)))
    fd_check(lambda: sum_all(mul(canonical_matmul(a, b), canonical_matmul(a, b))), [b])


def test_elementwise_op_gradients_match_fd():
    x = Tensor(RNG.normal(size=(3, 3)) + 0.3)  # offset keeps relu off its kink
    y = Tensor(RNG.normal(size=(3, 3)))
    fd_check(lambda: sum_all(mul(relu(x), y)), [x, y])
    fd_check(lambda: sum_all(mul(weighted_sum([x], [-1.7]), y)), [x, y])
    fd_check(lambda: sum_all(mul(weighted_sum([x, y, x], [0.2, -1.7, 0.5]), y)), [x, y])


def test_broadcast_add_gradients_match_fd():
    x = Tensor(RNG.normal(size=(4, 3)))
    row = Tensor(RNG.normal(size=(1, 3)))
    fd_check(lambda: sum_all(mul(add(x, row), add(x, row))), [x, row])


def test_softmax_and_layer_norm_gradients_match_fd():
    x = Tensor(RNG.normal(size=(3, 4)))
    gain = Tensor(np.ones((1, 4)) + 0.1 * RNG.normal(size=(1, 4)))
    bias = Tensor(0.1 * RNG.normal(size=(1, 4)))
    r = Tensor(RNG.normal(size=(3, 4)))
    y = Tensor(RNG.normal(size=(3, 4)))

    def build():  # cross_entropy_logits takes the softmax of its logits
        return cross_entropy_logits(mul(layer_norm_node(add(x, r), gain, bias), y), [0, 3, 1], np.full(3, 1.0 / 3))

    fd_check(build, [x, r, gain, bias])


def test_reduction_gradients_match_fd():
    a = Tensor(RNG.normal(size=(2, 3)))
    c = Tensor(RNG.normal(size=(1, 3)))

    def build():
        shifted = add(a, c)
        return add(sum_all(mul(a, a)), sum_all(mul(weighted_sum([shifted], [0.5]), shifted)))

    fd_check(build, [a, c])


def test_embedding_gradient_scatter_adds_duplicates():
    table = Tensor(RNG.normal(size=(4, 2)))
    loss = sum_all(embedding(table, [1, 1, 3]))
    grads = backward(loss)
    expected = np.zeros((4, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(grads[table], expected)


def test_cross_entropy_gradients_match_fd():
    z = Tensor(RNG.normal(size=(3, 5)))
    fd_check(lambda: cross_entropy_logits(z, [0, 2, 4], np.full(3, 1.0 / 3)), [z])


# ---------------------------------------------------------------------------
# optimizer and oracle helpers


def test_adam_zero_gradient_zero_decay_is_identity():
    p = Tensor(RNG.normal(size=(2, 2)))
    before = p.value.copy()
    opt = Adam([("p", p)], lr=0.1)
    opt.step({p: np.zeros((2, 2))}.items())
    assert np.array_equal(p.value, before)


def test_adam_single_step_from_theta_one():
    # f(t) = t^2, grad 2 at t=1; bias-corrected first step moves by ~lr
    p = Tensor([[1.0]])
    opt = Adam([("p", p)], lr=0.1)
    opt.step({p: np.array([[2.0]])}.items())
    assert abs(p.value[0, 0] - 0.9) < 1e-7
    assert abs(p.value[0, 0]) < 1.0


def test_adam_descends_against_constant_gradient():
    p = Tensor([[0.0]])
    opt = Adam([("p", p)], lr=0.05)
    for _ in range(50):
        opt.step({p: np.array([[1.0]])}.items())
    assert p.value[0, 0] < -1.0


def test_adam_weight_decay_pulls_toward_zero():
    p = Tensor([[4.0]])
    opt = Adam([("p", p)], lr=0.1, weight_decay=0.5)
    for _ in range(20):
        opt.step({p: np.zeros((1, 1))}.items())
    assert 0.0 < p.value[0, 0] < 4.0


# 1x1, under one chunk, exactly one chunk, many chunks, a ragged last chunk
ADAM_SHAPES = [(1, 1), (3, 7), (1, autograd._ADAM_CHUNK), (512, 2048), (3, 40000)]


@pytest.mark.parametrize(
    "missing", [None, "p", "q", "r"], ids=["all-grads", "missing-grad", "missing-small", "missing-large"]
)
@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("shape", ADAM_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_chunked_adam_equals_the_whole_array_formula_bitwise(shape, weight_decay, missing):
    rng = np.random.default_rng(shape[1])
    # small q, s and t pack around p (small or large) and the large r; a small p
    # of a whole chunk straddles the sweep's chunks
    shapes = {"q": (2, 3), "p": shape, "r": (2, 20000), "s": (5, 4), "t": (1, 1)}
    values = {name: rng.normal(size=s) for name, s in shapes.items()}
    m = {name: np.zeros(a.shape) for name, a in values.items()}
    v = {name: np.zeros(a.shape) for name, a in values.items()}
    tensors = {name: Tensor(a.copy()) for name, a in values.items()}
    opt = Adam(list(tensors.items()), lr=1e-3, weight_decay=weight_decay)
    held = {name: t.value for name, t in tensors.items()}  # small values are views from here on
    for t in range(1, 6):
        grads = {name: rng.normal(size=a.shape) for name, a in values.items()}
        pairs = [(tensors[name], g) for name, g in grads.items() if name != missing or t not in (2, 4)]
        if len(pairs) < len(grads):
            with pytest.raises(ValueError, match=rf"no gradient for parameters \['{missing}'\]"):
                opt.step(pairs)
            # refused once the pairs end: each large parameter was stepped as its pair arrived
            grads = {name: g for name, g in grads.items() if name != missing and g.size > autograd._ADAM_CHUNK}
        else:
            opt.step(pairs)
        stepped = oracle_adam_step(*({n: d[n] for n in grads} for d in (values, m, v)), grads, t, 1e-3, weight_decay)
        for before, after in zip((values, m, v), stepped):
            before.update(after)
        for name, expected in values.items():
            assert tensors[name].value is held[name], (t, name)  # stepped in place, not rebound
            assert np.array_equal(tensors[name].value, expected), (t, name)
            assert np.array_equal(opt._m[name].reshape(expected.shape), m[name]), (t, name)
            assert np.array_equal(opt._v[name].reshape(expected.shape), v[name]), (t, name)


def test_adam_step_allocates_nothing_parameter_sized():
    p = Tensor(RNG.normal(size=(512, 2048)))
    g = RNG.normal(size=p.shape)
    opt = Adam([("p", p)], lr=1e-3, weight_decay=1e-3)
    assert opt._scratch is None  # a run of zero steps allocates no scratch
    held = p.value
    tracemalloc.start()
    try:
        opt.step({p: g}.items())  # the first step also allocates the scratch buffers
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.value is held
    scratch = 2 * autograd._ADAM_CHUNK * 8
    assert peak <= scratch + 64 * 1024 < p.value.nbytes // 8, peak


def test_adam_refuses_a_parameter_left_without_a_gradient():
    big = (1, autograd._ADAM_CHUNK + 1)
    p, small, left = Tensor(np.ones(big)), Tensor(np.ones((2, 2))), Tensor(np.ones((1, 3)))
    opt = Adam([("p", p), ("small", small), ("left", left)], lr=0.1)
    with pytest.raises(ValueError, match=r"no gradient for parameters \['left'\]"):
        opt.step([(small, np.ones((2, 2))), (p, np.ones(big))])
    assert not np.array_equal(p.value, np.ones(big))  # stepped as its pair arrived
    assert np.array_equal(small.value, np.ones((2, 2))) and np.array_equal(left.value, np.ones((1, 3)))


def test_adam_refuses_a_leaf_that_is_not_a_parameter_and_a_second_gradient():
    p, const = Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))
    opt = Adam([("p", p)], lr=0.1)
    with pytest.raises(ValueError, match=r"for Tensor\(shape=\(3, 2\)\), which is not a parameter"):
        opt.step([(p, np.ones((2, 2))), (const, np.ones((3, 2)))])
    with pytest.raises(ValueError, match="which is not a parameter or already has one"):
        opt.step([(p, np.ones((2, 2))), (p, np.ones((2, 2)))])
    assert np.array_equal(p.value, np.ones((2, 2))) and np.array_equal(const.value, np.ones((3, 2)))


@pytest.mark.parametrize(
    "lr,weight_decay,message",
    [
        (float("nan"), 0.0, "lr must be positive and finite, got nan"),
        (float("inf"), 0.0, "lr must be positive and finite, got inf"),
        (0.1, float("nan"), "weight_decay must be >= 0 and finite, got nan"),
        (0.1, float("inf"), "weight_decay must be >= 0 and finite, got inf"),
    ],
)
def test_adam_refuses_a_rate_or_decay_that_is_not_finite(lr, weight_decay, message):
    with pytest.raises(ValueError, match=message):
        Adam([("p", Tensor([[1.0]]))], lr=lr, weight_decay=weight_decay)


def test_adam_refuses_a_duplicate_parameter_name():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((3, 1)))
    with pytest.raises(ValueError, match="duplicate parameter name 'w'"):
        Adam([("w", a), ("v", Tensor([[1.0]])), ("w", b)], lr=0.1)


def test_adam_refuses_the_same_tensor_listed_twice():
    a = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError, match="parameter 'alias' is the Tensor already listed as 'w'"):
        Adam([("w", a), ("alias", a)], lr=0.1)


def test_adam_steps_pairs_as_they_arrive():
    big = (1, autograd._ADAM_CHUNK + 1)
    p, q, small = Tensor(np.ones(big)), Tensor(np.ones((1, 3))), Tensor(np.ones((2, 2)))
    opt = Adam([("p", p), ("q", q), ("small", small)], lr=0.1)
    seen = []

    def pairs():
        yield small, np.ones((2, 2))
        yield p, np.ones(big)
        seen.append(p.value.copy())  # a large p is stepped before the next pair is asked for
        assert np.array_equal(small.value, np.ones((2, 2)))  # small ones wait for the walk's end
        yield q, np.ones((1, 3))

    opt.step(pairs())
    assert np.array_equal(seen[0], p.value) and not np.array_equal(p.value, np.ones(big))
    for t in (small, q):  # the same step, after the walk
        assert np.array_equal(t.value, np.full(t.shape, p.value[0, 0]))


def test_a_walk_that_raises_leaves_the_small_parameters_unstepped():
    big = (1, autograd._ADAM_CHUNK + 1)
    p, small = Tensor(np.ones(big)), Tensor(np.ones((2, 2)))
    opt = Adam([("p", p), ("small", small)], lr=0.1)

    def pairs():
        yield small, np.ones((2, 2))
        yield p, np.ones(big)
        raise NonFiniteError("the walk failed")

    with pytest.raises(NonFiniteError, match="the walk failed"):
        opt.step(pairs())
    assert not np.array_equal(p.value, np.ones(big))  # stepped as its pair arrived
    assert np.array_equal(small.value, np.ones((2, 2)))


def test_parameter_gradients_pass_backwards_arrays_through(monkeypatch):
    a, b, untouched = Tensor(RNG.normal(size=(2, 3))), Tensor(RNG.normal(size=(2, 3))), Tensor(np.ones((4, 5)))
    returned = {}

    def spy(loss):
        returned.update(backward(loss))
        return returned

    monkeypatch.setattr(oracles, "backward", spy)
    grads = parameter_gradients(sum_all(mul(a, b)), [a, b, untouched])
    assert grads[a] is returned[a] and grads[b] is returned[b]
    assert untouched not in returned
    assert grads[untouched].shape == (4, 5) and not grads[untouched].any()


def test_parameter_gradients_allocate_nothing_when_every_parameter_is_touched(monkeypatch):
    params = [Tensor(RNG.normal(size=(512, 512))) for _ in range(3)]
    loss = sum_all(add(add(params[0], params[1]), params[2]))
    leaf_grads = backward(loss)
    monkeypatch.setattr(oracles, "backward", lambda _: leaf_grads)
    tracemalloc.start()
    try:
        grads = parameter_gradients(loss, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(grads[p] is leaf_grads[p] for p in params)
    assert peak < params[0].value.nbytes // 4, peak


def test_finite_diff_is_exact_on_linear_and_restores_values():
    x = Tensor([[2.0, -1.0]])
    before = x.value.copy()
    grad = finite_diff_grad(lambda: float(3.0 * x.value[0, 0] - 7.0 * x.value[0, 1]), [x])[0]
    assert np.allclose(grad, [[3.0, -7.0]], atol=1e-9)
    assert np.array_equal(x.value, before)


def test_finite_diff_square_at_three():
    x = Tensor([[3.0]])
    grad = finite_diff_grad(lambda: float(x.value[0, 0] ** 2), [x])[0]
    assert abs(grad[0, 0] - 6.0) < 1e-8


def test_relative_error_uses_floor_near_zero():
    a = np.array([[1e-9]])
    b = np.array([[0.0]])
    assert relative_error(a, b).max() == pytest.approx(1e-9 / 1e-6)


# ---------------------------------------------------------------------------
# no_grad


def _small_graph(a, b):
    return cross_entropy_logits(weighted_sum([matmul(a, b), a], [1.0, 0.5]), [0, 2, 1], np.full(3, 1.0 / 3))


def test_no_grad_values_are_bitwise_equal():
    a, b = Tensor(RNG.normal(size=(3, 3))), Tensor(RNG.normal(size=(3, 3)))
    with_graph = _small_graph(a, b)
    with no_grad():
        without = _small_graph(a, b)
    assert np.array_equal(with_graph.value, without.value)


def test_no_grad_keeps_no_parents():
    a, b = Tensor(RNG.normal(size=(2, 2))), Tensor(RNG.normal(size=(2, 2)))
    with no_grad():
        out = matmul(a, b)
    assert out._parents == () and out._grad_fn is None
    assert matmul(a, b)._parents == (a, b)  # the graph is back after the block


def test_backward_refused_inside_no_grad():
    a = Tensor([[2.0]])
    out = mul(a, a)
    with no_grad():
        with pytest.raises(RuntimeError, match="no_grad"):
            backward(out)
    assert backward(out)[a][0, 0] == 4.0


def test_no_grad_still_rejects_non_finite():
    with no_grad():
        with pytest.raises(NonFiniteError):
            Tensor([[float("nan")]])


def test_no_grad_resets_after_an_exception():
    with pytest.raises(ValueError):
        with no_grad():
            raise ValueError("boom")
    a = Tensor([[3.0]])
    assert backward(mul(a, a))[a][0, 0] == 6.0
