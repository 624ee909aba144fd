"""Reverse-mode automatic differentiation over dense float64 matrices.

Every quantity in this package is a 2-D float64 array wrapped in a
:class:`Tensor` node. Ops build a DAG as a side effect of the forward pass;
``backward`` walks it once in reverse topological order, accumulating
gradients additively across fan-out. Inside ``no_grad()`` ops compute the
same values but keep no graph, for inference. ``finite_diff_grad`` is the
independent central-difference estimator used to audit every backward rule.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = [
    "Adam",
    "NonFiniteError",
    "Tensor",
    "add",
    "backward",
    "canonical_matmul",
    "concat_cols",
    "concat_rows",
    "cross_entropy_logits",
    "embedding",
    "finite_diff_grad",
    "layer_norm",
    "matmul",
    "mean_rows",
    "mul",
    "no_grad",
    "parameter_gradients",
    "relative_error",
    "relu",
    "scale",
    "softmax_rows",
    "sum_all",
    "transpose",
]


class NonFiniteError(ValueError):
    """A value escaped the finite-float64 domain (NaN or infinity)."""


_grad_enabled: ContextVar[bool] = ContextVar("dmdk_grad_enabled", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no graph inside the block: tensors keep no parents or grad_fn.

    Values are computed exactly as with the graph on, and the non-finite
    check still runs; ``backward`` refuses to run inside the block.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"tensors are 2-D matrices, got ndim={arr.ndim}")
    return arr


class Tensor:
    """One node of the computation graph holding a rows x cols float64 matrix."""

    __slots__ = ("value", "grad", "_parents", "_grad_fn")

    def __init__(
        self,
        value,
        _parents: tuple[Tensor, ...] = (),
        _grad_fn: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.value = _as_matrix(value)
        if not np.isfinite(self.value).all():
            raise NonFiniteError("tensor contains non-finite values")
        self.grad: np.ndarray | None = None
        if _grad_enabled.get():
            self._parents = _parents
            self._grad_fn = _grad_fn
        else:
            self._parents = ()
            self._grad_fn = None

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


def _topo_order(output: Tensor) -> list[Tensor]:
    # Iterative postorder: inputs always precede their consumers.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(output: Tensor) -> dict[Tensor, np.ndarray]:
    """Backpropagate from a 1x1 output; returns gradients for every reachable leaf."""
    if not _grad_enabled.get():
        raise RuntimeError("backward called inside no_grad()")
    if output.shape != (1, 1):
        raise ValueError(f"backward requires a 1x1 scalar output, got shape {output.shape}")
    order = _topo_order(output)
    grads: dict[int, np.ndarray] = {id(output): np.ones((1, 1))}
    by_id: dict[int, Tensor] = {id(n): n for n in order}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        node.grad = g
        if node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return {by_id[k]: g for k, g in grads.items() if not by_id[k]._parents}


def parameter_gradients(loss: Tensor, params: Iterable[Tensor]) -> dict[Tensor, np.ndarray]:
    """Gradient map over ``params``; parameters the loss never touched get zeros."""
    leaf_grads = backward(loss)
    return {p: leaf_grads.get(p, np.zeros_like(p.value)) for p in params}


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    av, bv = a.value, b.value

    def grad_fn(g: np.ndarray):
        return g @ bv.T, av.T @ g

    return Tensor(av @ bv, (a, b), grad_fn)


def canonical_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matmul whose contraction sums addends in value-sorted order.

    The result depends only on the multiset of products per output entry, so
    permuting the contraction axis (e.g. relabeling graph nodes) leaves the
    output bitwise unchanged. Costs an n*k*m intermediate, so use it only where
    the contraction axis can be permuted: the GCN's ``A_hat @ H``.
    """
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    av, bv = a.value, b.value
    prod = av[:, :, None] * bv[None, :, :]
    prod.sort(axis=1)
    out = prod.sum(axis=1)

    def grad_fn(g: np.ndarray):
        return g @ bv.T, av.T @ g

    return Tensor(out, (a, b), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a 1 x cols row vector broadcast over rows."""
    if a.shape == b.shape:
        def grad_fn(g: np.ndarray):
            return g, g
    elif b.shape == (1, a.cols):
        def grad_fn(g: np.ndarray):
            return g, g.sum(axis=0, keepdims=True)
    else:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    return Tensor(a.value + b.value, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    av, bv = a.value, b.value

    def grad_fn(g: np.ndarray):
        return g * bv, g * av

    return Tensor(av * bv, (a, b), grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteError(f"scale factor must be finite, got {c}")

    def grad_fn(g: np.ndarray):
        return (g * c,)

    return Tensor(a.value * c, (a,), grad_fn)


def transpose(a: Tensor) -> Tensor:
    def grad_fn(g: np.ndarray):
        return (g.T,)

    return Tensor(a.value.T, (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    av = a.value
    mask = av > 0.0

    def grad_fn(g: np.ndarray):
        return (g * mask,)

    return Tensor(np.where(mask, av, 0.0), (a,), grad_fn)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; each row sums to 1."""
    if a.cols == 0:
        raise ValueError("softmax_rows needs at least one column")
    v = a.value
    e = np.exp(v - v.max(axis=1, keepdims=True)) if a.rows else np.zeros_like(v)
    y = e / e.sum(axis=1, keepdims=True) if a.rows else e

    def grad_fn(g: np.ndarray):
        dot = (g * y).sum(axis=1, keepdims=True)
        return ((g - dot) * y,)

    return Tensor(y, (a,), grad_fn)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by a learned affine (gain, bias)."""
    if gain.shape != (1, a.cols) or bias.shape != (1, a.cols):
        raise ValueError(
            f"layer_norm gain/bias must be 1x{a.cols}, got {gain.shape} and {bias.shape}"
        )
    if eps < 0:
        raise ValueError("layer_norm eps must be >= 0")
    v = a.value
    mu = v.mean(axis=1, keepdims=True)
    var = ((v - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (v - mu) * inv
    gv = gain.value

    def grad_fn(g: np.ndarray):
        dgain = (g * xhat).sum(axis=0, keepdims=True)
        dbias = g.sum(axis=0, keepdims=True)
        dxhat = g * gv
        dx = (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        ) * inv
        return dx, dgain, dbias

    return Tensor(xhat * gv + bias.value, (a, gain, bias), grad_fn)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("concat_rows needs at least one part")
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise ValueError(f"concat_rows column mismatch: {cols} vs {p.cols}")
    splits = np.cumsum([p.rows for p in parts])[:-1]

    def grad_fn(g: np.ndarray):
        return tuple(np.split(g, splits, axis=0))

    return Tensor(np.concatenate([p.value for p in parts], axis=0), tuple(parts), grad_fn)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("concat_cols needs at least one part")
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise ValueError(f"concat_cols row mismatch: {rows} vs {p.rows}")
    splits = np.cumsum([p.cols for p in parts])[:-1]

    def grad_fn(g: np.ndarray):
        return tuple(np.split(g, splits, axis=1))

    return Tensor(np.concatenate([p.value for p in parts], axis=1), tuple(parts), grad_fn)


def mean_rows(a: Tensor) -> Tensor:
    if a.rows == 0:
        raise ValueError("mean_rows of an empty matrix")
    n = a.rows

    def grad_fn(g: np.ndarray):
        return (np.broadcast_to(g / n, (n, g.shape[1])).copy(),)

    return Tensor(a.value.mean(axis=0, keepdims=True), (a,), grad_fn)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def grad_fn(g: np.ndarray):
        return (np.full(shape, g[0, 0]),)

    return Tensor([[a.value.sum()]], (a,), grad_fn)


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Row lookup: stacks table rows for ``ids``; gradients scatter-add back."""
    ids = [int(i) for i in ids]
    n_rows = table.rows
    for i in ids:
        if not 0 <= i < n_rows:
            raise ValueError(f"embedding index {i} out of range [0, {n_rows})")
    out = table.value[ids] if ids else np.zeros((0, table.cols))

    def grad_fn(g: np.ndarray):
        gt = np.zeros((n_rows, table.cols))
        np.add.at(gt, ids, g)
        return (gt,)

    return Tensor(out, (table,), grad_fn)


def cross_entropy_logits(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under row-wise softmax(logits)."""
    targets = [int(t) for t in targets]
    n = logits.rows
    if n == 0 or len(targets) != n:
        raise ValueError(f"cross entropy needs one target per row: {n} rows, {len(targets)} targets")
    for t in targets:
        if not 0 <= t < logits.cols:
            raise ValueError(f"target index {t} out of range [0, {logits.cols})")
    v = logits.value
    m = v.max(axis=1, keepdims=True)
    z = v - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True)) + m
    gold = v[np.arange(n), targets][:, None]
    idx = np.arange(n)

    def grad_fn(g: np.ndarray):
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[idx, targets] -= 1.0
        return (g[0, 0] * p / n,)

    return Tensor([[float((lse - gold).mean())]], (logits,), grad_fn)


# ---------------------------------------------------------------------------
# optimization and the finite-difference oracle


class Adam:
    """Adam with bias correction; optional L2 acts through the gradient.

    The weight-decay term ``wd * theta`` is added to the raw gradient before
    the first/second moments are updated.
    """

    def __init__(
        self,
        params: Sequence[tuple[str, Tensor]],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {name: np.zeros_like(p.value) for name, p in self.params}
        self._v = {name: np.zeros_like(p.value) for name, p in self.params}

    def step(self, grads: Mapping[Tensor, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(p.value)
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            m = self._m[name] = self.beta1 * self._m[name] + (1.0 - self.beta1) * g
            v = self._v[name] = self.beta2 * self._v[name] + (1.0 - self.beta2) * (g * g)
            # rebind rather than mutate: closures from the last graph stay valid
            p.value = p.value - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def finite_diff_grad(
    f: Callable[[], float], tensors: Sequence[Tensor], h: float = 1e-5
) -> list[np.ndarray]:
    """Central-difference gradient of ``f()`` w.r.t. every entry of ``tensors``.

    Perturbs values in place and restores them; ``f`` must be a pure function
    of the current tensor values.
    """
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    out = []
    for t in tensors:
        g = np.zeros_like(t.value)
        flat = t.value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def relative_error(approx, exact, floor: float = 1e-6) -> np.ndarray:
    """|a - b| / max(|a|, |b|, floor); the floor keeps near-zero entries honest."""
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom
