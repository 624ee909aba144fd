"""Reverse-mode automatic differentiation over dense float64 matrices.

Every quantity in this package is a 2-D float64 array wrapped in a
:class:`Tensor` node. Ops build a DAG as a side effect of the forward pass;
``leaf_gradients`` consumes it in one walk in reverse topological order,
accumulating gradients additively across fan-out and freeing each node's
gradient, parents and saved arrays once the walk has passed it, so
backpropagating twice means running the forward again. The walk hands out
each leaf's gradient as soon as the leaf's last consumer has run, so
``Adam.step`` can update a parameter in place while the walk goes on;
``backward`` collects the whole walk into a dict. Inside ``no_grad()`` ops
compute the same values but keep no graph, for inference.
``finite_diff_grad`` is the independent central-difference estimator used to
audit every backward rule.

``SparseRows`` holds a constant sparse matrix as a Tensor of its nonzero
entries; ``canonical_matmul`` multiplies it into a tensor, summing each output
entry's products in value-sorted order.
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
    "SparseRows",
    "Tensor",
    "add",
    "backward",
    "canonical_matmul",
    "cross_entropy_logits",
    "embedding",
    "finite_diff_grad",
    "grad_enabled",
    "layer_norm",
    "leaf_gradients",
    "matmul",
    "mul",
    "no_grad",
    "parameter_gradients",
    "relative_error",
    "relu",
    "scale",
    "sum_all",
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


def grad_enabled() -> bool:
    """False inside ``no_grad()``, where ops record no graph."""
    return _grad_enabled.get()


_all_true = np.logical_and.reduce  # ndarray.all without its Python-level wrapper


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

    __slots__ = ("value", "_parents", "_grad_fn")

    def __init__(
        self,
        value,
        _parents: tuple[Tensor, ...] = (),
        _grad_fn: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.value = _as_matrix(value)
        if not _all_true(np.isfinite(self.value), axis=None):
            raise NonFiniteError("tensor contains non-finite values")
        if _grad_enabled.get():
            self._parents = _parents
            self._grad_fn = _grad_fn
        else:
            self._parents = ()
            self._grad_fn = None

    @classmethod
    def checked(cls, value: np.ndarray) -> Tensor:
        """A graph-free tensor over a float64 matrix already checked finite: no copy, no scan."""
        t = cls.__new__(cls)
        t.value, t._parents, t._grad_fn = value, (), None
        return t

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


def _topo_order(output: Tensor) -> tuple[list[Tensor], dict[int, int]]:
    # Iterative postorder: inputs always precede their consumers. Also counts
    # each node's consumer edges (a node used twice by one op counts twice).
    order: list[Tensor] = []
    visited: set[int] = set()
    consumers: dict[int, int] = {}
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
            key = id(parent)
            consumers[key] = consumers.get(key, 0) + 1
            if key not in visited:
                stack.append((parent, False))
    return order, consumers


def _consumed(g: np.ndarray):
    raise RuntimeError("backward already ran through this node; build the graph again")


def leaf_gradients(output: Tensor) -> Iterator[tuple[Tensor, np.ndarray]]:
    """Backpropagate from a 1x1 output, yielding ``(leaf, gradient)`` pairs.

    Each reachable leaf that receives a gradient is yielded exactly once, as
    soon as the backward rule of its last consumer has run, so its gradient is
    final and no pending rule reads its value: the caller may update the leaf
    in place before asking for the next pair. The walk drops its references to
    a yielded gradient before it runs the next backward rule.

    Consumes the graph: each interior node drops its parents and its backward
    rule once the walk has passed it, which frees its saved arrays as soon as
    nothing downstream needs them. A later walk through any consumed node
    raises ``RuntimeError``; run the forward again to backpropagate again.
    The arguments are checked at the call, before any pair is asked for.
    """
    if not _grad_enabled.get():
        raise RuntimeError("backward called inside no_grad()")
    if output.shape != (1, 1):
        raise ValueError(f"backward requires a 1x1 scalar output, got shape {output.shape}")
    return _walk(output)


def _walk(output: Tensor) -> Iterator[tuple[Tensor, np.ndarray]]:
    order, consumers = _topo_order(output)
    grads: dict[int, np.ndarray] = {id(output): np.ones((1, 1))}
    while order:
        node = order.pop()
        if node._grad_fn is None:
            if id(node) in grads:  # the output is itself a leaf
                yield node, grads.pop(id(node))
            continue  # any other leaf was yielded after its last consumer
        parents = node._parents
        g = grads.pop(id(node), None)
        pgs = (None,) * len(parents) if g is None else node._grad_fn(g)
        node._parents = ()
        node._grad_fn = _consumed
        del g
        for parent, pg in zip(parents, pgs):
            key = id(parent)
            if pg is not None:
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
            if parent._grad_fn is None:
                consumers[key] -= 1
                if not consumers[key] and key in grads:
                    yield parent, grads.pop(key)
        pgs = pg = None  # drop yielded gradients before the next rule runs


def backward(output: Tensor) -> dict[Tensor, np.ndarray]:
    """Every reachable leaf's gradient from a 1x1 output: ``leaf_gradients``
    run to the end and collected, consuming the graph the same way."""
    return dict(leaf_gradients(output))


def parameter_gradients(loss: Tensor, params: Iterable[Tensor]) -> dict[Tensor, np.ndarray]:
    """Gradient map over ``params``; parameters the loss never touched get zeros."""
    leaf_grads = backward(loss)
    return {p: leaf_grads[p] if p in leaf_grads else np.zeros(p.value.shape) for p in params}


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    av, bv = a.value, b.value

    def grad_fn(g: np.ndarray):
        return g @ bv.T, av.T @ g

    return Tensor(av @ bv, (a, b), grad_fn)


class SparseRows(Tensor):
    """A constant ``n_rows`` x ``n_cols`` sparse matrix: a Tensor of its
    nonzero entries, one per row (so ``rows * cols`` products are formed per
    column of the right operand of ``canonical_matmul``).

    Rows are grouped by their entry count, which makes each group one dense
    gather; the transpose is grouped the same way for the gradient. The
    entries are kept sorted by their row's count, then row, then column
    (``entries``, ``t_entries``), so each group is a run of them.
    """

    __slots__ = ("n_rows", "n_cols", "entries", "t_entries", "groups", "t_groups")

    def __init__(self, row: np.ndarray, col: np.ndarray, vals: np.ndarray, shape: tuple[int, int]):
        n, m = shape
        super().__init__(vals.reshape(-1, 1))
        vals = self.value[:, 0]
        self._arrange(n, m, _by_count(row, col, vals, n), _by_count(col, row, vals, m))

    def _arrange(self, n: int, m: int, entries: tuple, t_entries: tuple) -> None:
        self.n_rows, self.n_cols = n, m
        self.entries, self.t_entries = entries, t_entries
        self.groups, self.t_groups = _groups(*entries), _groups(*t_entries)

    @classmethod
    def block_diagonal(cls, parts: Sequence["SparseRows"]) -> "SparseRows":
        """``parts`` placed along the diagonal. Their sorted entries are offset,
        concatenated and stably sorted by count: nothing is located again."""
        if len(parts) == 1:
            return parts[0]
        at = np.cumsum([(0, 0)] + [(p.n_rows, p.n_cols) for p in parts], axis=0)
        out = cls.__new__(cls)
        Tensor.__init__(out, np.concatenate([p.value for p in parts]))
        out._arrange(
            *at[-1],
            _stack([p.entries for p in parts], at[:-1, 0], at[:-1, 1]),
            _stack([p.t_entries for p in parts], at[:-1, 1], at[:-1, 0]),
        )
        return out


def _by_count(row, col, vals, n: int) -> tuple:
    """(row, col, value, row's entry count) of each entry, sorted by count,
    then row, then column."""
    counts = np.bincount(row, minlength=n)[row]
    order = np.lexsort((col, row, counts))
    return row[order], col[order], vals[order], counts[order]


def _stack(parts: Sequence[tuple], row_at: np.ndarray, col_at: np.ndarray) -> tuple:
    """``_by_count`` of block-diagonal parts whose rows start at ``row_at`` and
    columns at ``col_at``. A block's rows all precede the next block's, so a
    stable sort by count alone restores the order."""
    sizes = [len(entries[0]) for entries in parts]
    row, col, vals, counts = (np.concatenate(a) for a in zip(*parts))
    row = row + np.repeat(row_at, sizes)
    col = col + np.repeat(col_at, sizes)
    order = np.argsort(counts, kind="stable")
    return row[order], col[order], vals[order], counts[order]


def _groups(row, col, vals, counts) -> list:
    """(rows, their entries' columns, their values) for each entry count."""
    starts = np.flatnonzero(np.diff(counts, prepend=-1)).tolist()  # where each count's run begins
    groups = []
    for start, end in zip(starts, starts[1:] + [len(counts)]):
        c = int(counts[start])  # each row's c entries are adjacent
        cols, values = col[start:end].reshape(-1, c), vals[start:end].reshape(-1, c, 1)
        groups.append((row[start:end:c], cols, values))
    return groups


def _sparse_product(groups: list, n: int, h: np.ndarray, sort: bool) -> np.ndarray:
    out = np.zeros((n, h.shape[1]))
    for rows, cols, vals in groups:
        prod = vals * h[cols]
        if sort and prod.shape[1] > 2:  # two addends sum alike in either order
            prod.sort(axis=1)
        out[rows] = prod.sum(axis=1)
    return out


def canonical_matmul(a: SparseRows, h: Tensor) -> Tensor:
    """``a @ h`` for a constant sparse ``a``, summing addends in value-sorted order.

    Each output entry sums its row's products sorted by value, so it depends
    only on the multiset of those products: permuting the rows of ``h`` along
    with the columns of ``a`` (relabeling graph nodes) leaves the result
    bitwise unchanged. Only each row's own entries are sorted, yet on rows
    with an entry the result equals sorting and summing all of a dense row's
    products, zeros included, bit for bit whenever ``h`` holds no -0.0.
    Only ``h`` gets a gradient.
    """
    if a.n_cols != h.rows:
        raise ValueError(f"canonical_matmul shape mismatch: {a.n_rows}x{a.n_cols} sparse x {h.shape}")

    def grad_fn(g: np.ndarray):
        return (_sparse_product(a.t_groups, a.n_cols, g, sort=False),)

    return Tensor(_sparse_product(a.groups, a.n_rows, h.value, sort=True), (h,), grad_fn)


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


def relu(a: Tensor) -> Tensor:
    av = a.value
    mask = av > 0.0

    def grad_fn(g: np.ndarray):
        return (g * mask,)

    return Tensor(np.where(mask, av, 0.0), (a,), grad_fn)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by a learned affine (gain, bias)."""
    if gain.shape != (1, a.cols) or bias.shape != (1, a.cols):
        raise ValueError(
            f"layer_norm gain/bias must be 1x{a.cols}, got {gain.shape} and {bias.shape}"
        )
    if eps < 0:
        raise ValueError("layer_norm eps must be >= 0")
    v = a.value
    n = v.shape[1]
    # np.add.reduce(...) / n is what ndarray.mean computes, minus its Python wrapper
    mu = np.add.reduce(v, axis=1, keepdims=True) / n
    centred = v - mu
    var = np.add.reduce(centred * centred, axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    gv = gain.value

    def grad_fn(g: np.ndarray):
        dgain = np.add.reduce(g * xhat, axis=0, keepdims=True)
        dbias = np.add.reduce(g, axis=0, keepdims=True)
        dxhat = g * gv
        dx = (
            dxhat
            - np.add.reduce(dxhat, axis=1, keepdims=True) / n
            - xhat * (np.add.reduce(dxhat * xhat, axis=1, keepdims=True) / n)
        ) * inv
        return dx, dgain, dbias

    return Tensor(xhat * gv + bias.value, (a, gain, bias), grad_fn)


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


def cross_entropy_logits(
    logits: Tensor, targets: Sequence[int], weights: Sequence[float] | None = None
) -> Tensor:
    """Sum over rows of weights[i] times row i's negative log-likelihood of
    targets[i] under softmax(logits); the weights default to 1/rows, a mean."""
    n = logits.rows
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    w = np.full(n, 1.0 / max(n, 1)) if weights is None else np.asarray(weights, dtype=np.float64)
    if n == 0 or len(targets) != n or len(w) != n:
        raise ValueError(
            f"cross entropy needs one target and weight per row: {n} rows, "
            f"{len(targets)} targets, {len(w)} weights"
        )
    bad = (targets < 0) | (targets >= logits.cols)
    if bad.any():
        raise ValueError(f"target index {targets[bad][0]} out of range [0, {logits.cols})")
    w = w.reshape(-1, 1)
    v = logits.value
    m = v.max(axis=1, keepdims=True)
    z = v - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True)) + m
    idx = np.arange(n)

    def grad_fn(g: np.ndarray):
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[idx, targets] -= 1.0
        return (g[0, 0] * w * p,)

    return Tensor([[float(((lse - v[idx, targets][:, None]) * w).sum())]], (logits,), grad_fn)


# ---------------------------------------------------------------------------
# optimization and the finite-difference oracle


# Adam's moment decay rates and the floor under its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# elements per Adam chunk: a chunk of each operand and both scratch buffers
# stay in L2, so DRAM sees p, g, m and v read once and m, v, p written once
_ADAM_CHUNK = 32768


class Adam:
    """Adam with bias correction; optional L2 acts through the gradient.

    The weight-decay term ``wd * theta`` is added to the raw gradient before
    the first/second moments are updated. Each parameter is updated in place,
    in chunks of ``_ADAM_CHUNK`` elements through two chunk-sized scratch
    buffers. Every chunk runs the IEEE operations of the whole-array formula
    in the same order, so the result is bitwise equal to

        g = g + wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)

    without a parameter-sized temporary. ``step`` writes into ``p.value``
    itself, so a caller that needs the pre-step values must copy them first.
    """

    def __init__(
        self,
        params: Sequence[tuple[str, Tensor]],
        lr: float,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._by_id: dict[int, tuple[str, Tensor]] = {}  # id(p) -> (name, p)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        for name, p in self.params:
            if name in self._m:
                raise ValueError(f"duplicate parameter name {name!r}")
            if id(p) in self._by_id:
                first = self._by_id[id(p)][0]
                raise ValueError(f"parameter {name!r} is the Tensor already listed as {first!r}")
            self._by_id[id(p)] = (name, p)
            # flat moments; np.zeros maps untouched pages, zeros_like would write every page
            self._m[name], self._v[name] = np.zeros(p.value.size), np.zeros(p.value.size)
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None  # allocated by the first step

    def step(self, grads: Mapping[Tensor, np.ndarray] | Iterable[tuple[Tensor, np.ndarray]]) -> None:
        """Step every parameter once from a gradient map or ``(tensor, gradient)`` pairs.

        Each parameter is updated as its pair arrives, so ``grads`` can be the
        ``leaf_gradients`` walk itself; the step keeps no gradient once it is
        used. Pairs for tensors that are not parameters are skipped. Parameters
        with no pair are stepped with a zero gradient after the last pair. If
        ``grads`` raises part-way, the parameters already stepped stay stepped.
        """
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        if self._scratch is None:
            self._scratch = (np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK))
        waiting = dict(self._by_id)
        for leaf, g in grads.items() if isinstance(grads, Mapping) else grads:
            entry = waiting.pop(id(leaf), None)
            if entry is not None:  # other leaves are constants
                self._step_one(*entry, g, bc1, bc2)
            del g
        for name, p in waiting.values():
            self._step_one(name, p, np.zeros(p.value.shape), bc1, bc2)

    def _step_one(self, name: str, p: Tensor, g: np.ndarray, bc1: float, bc2: float) -> None:
        flat = (p.value.reshape(-1, copy=False), g.reshape(-1), self._m[name], self._v[name])
        if flat[0].size <= _ADAM_CHUNK:
            self._update(*flat, bc1, bc2)
        else:
            for i in range(0, flat[0].size, _ADAM_CHUNK):
                self._update(*(a[i : i + _ADAM_CHUNK] for a in flat), bc1, bc2)

    def _update(self, p, g, m, v, bc1, bc2) -> None:
        """One chunk: ``p``, ``m`` and ``v`` in place."""
        s1, s2 = (s[: p.size] for s in self._scratch)
        if self.weight_decay:
            g = np.add(g, np.multiply(self.weight_decay, p, out=s1), out=s1)
        np.add(np.multiply(ADAM_BETA1, m, out=m), np.multiply(1.0 - ADAM_BETA1, g, out=s2), out=m)
        np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=s2), out=s2)
        np.add(np.multiply(ADAM_BETA2, v, out=v), s2, out=v)
        den = np.add(np.sqrt(np.divide(v, bc2, out=s1), out=s1), ADAM_EPS, out=s1)
        step = np.multiply(self.lr, np.divide(m, bc1, out=s2), out=s2)
        np.subtract(p, np.divide(step, den, out=s2), out=p)


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
