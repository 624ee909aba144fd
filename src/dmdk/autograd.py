"""Reverse-mode automatic differentiation over dense float64 matrices.

Every quantity in this package is a 2-D float64 array wrapped in a
:class:`Tensor` node; a Tensor refuses 0-D and 1-D values rather than
reshaping them. Ops build a DAG as a side effect of the forward pass;
``leaf_gradients`` consumes it in one walk in reverse topological order,
accumulating gradients additively across fan-out and freeing each node's
gradient, parents and saved arrays once the walk has passed it, so
backpropagating twice means running the forward again. The walk hands out
each leaf's gradient as soon as the leaf's last consumer has run, so
``Adam.step`` can update a large parameter in place while the walk goes on
(it steps the small ones together once the walk ends); ``backward`` collects
the whole walk into a dict, whose ``items()`` are pairs ``Adam.step`` takes
as well, one per parameter: a model passes its constant inputs as arrays, so
its training graph's leaves are exactly its parameters. Inside ``no_grad()``
ops compute the same values but keep no graph, for inference.
``finite_diff_grad`` is the independent central-difference estimator, with
step ``FD_STEP``, used to audit every backward rule.

``SparseRows`` holds a constant sparse matrix as a Tensor of its nonzero
entries; ``canonical_matmul`` multiplies it into a tensor, summing each output
entry's products in value-sorted order. Its transpose, which only that
product's backward reads, is built on first read, so inference never builds it.

``affine`` (``x @ w + b``) and ``weighted_sum`` each fuse a chain of ops into
one node, as ``attention`` does for whole decoder sublayers. A node keeps its
value while a consumer holds it as a parent, so the chain kept intermediates
that no backward rule reads. Each fused node runs the chain's IEEE operations
in the chain's order, with its parents in the chain's order, and equals the
chain bit for bit (``weighted_sum``'s gradients with the one exception it
gives). ``embedding`` adds a constant matrix to the rows it gathers, which is
how token and positional rows become one node.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = [
    "Adam",
    "NonFiniteError",
    "SparseRows",
    "Tensor",
    "affine",
    "backward",
    "canonical_matmul",
    "cross_entropy_logits",
    "embedding",
    "finite_diff_grad",
    "leaf_gradients",
    "matmul",
    "no_grad",
    "relative_error",
    "relu",
    "sum_all",
    "weighted_sum",
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


_all_true = np.logical_and.reduce  # ndarray.all without its Python-level wrapper


class Tensor:
    """One node of the computation graph holding a rows x cols float64 matrix.

    A 0-D or 1-D value raises ``ValueError``; nothing is promoted to a matrix.
    """

    __slots__ = ("value", "_parents", "_grad_fn")

    def __init__(
        self,
        value,
        _parents: tuple[Tensor, ...] = (),
        _grad_fn: Callable[[np.ndarray], tuple] | None = None,
    ):
        value = np.asarray(value, dtype=np.float64)
        if value.ndim != 2:
            raise ValueError(f"tensors are 2-D matrices, got ndim={value.ndim}")
        if not _all_true(np.isfinite(value), axis=None):
            raise NonFiniteError("tensor contains non-finite values")
        self.value = value
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


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    av, bv = a.value, b.value

    def grad_fn(g: np.ndarray):
        return g @ bv.T, av.T @ g

    return Tensor(av @ bv, (a, b), grad_fn)


def affine(x: Tensor | np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 1 x cols bias row ``b``: a ``matmul`` and a broadcast
    add as one node, bitwise, with no Tensor of the product. An ``x`` given as
    a finite float64 array is a constant of the node: it gets no gradient."""
    constant = not isinstance(x, Tensor)
    xv, wv = (x if constant else x.value), w.value
    if xv.shape[1] != w.rows:
        raise ValueError(f"matmul shape mismatch: {xv.shape} x {w.shape}")
    if b.shape != (1, w.cols):
        raise ValueError(f"add shape mismatch: {(xv.shape[0], w.cols)} + {b.shape}")

    def grad_fn(g: np.ndarray):
        gw, gb = xv.T @ g, g.sum(axis=0, keepdims=True)
        return (gw, gb) if constant else (g @ wv.T, gw, gb)

    out = xv @ wv
    out += b.value
    return Tensor(out, (w, b) if constant else (x, w, b), grad_fn)


class SparseRows(Tensor):
    """A constant ``n_rows`` x ``n_cols`` sparse matrix: a Tensor of its
    nonzero entries, one per row (so ``rows * cols`` products are formed per
    column of the right operand of ``canonical_matmul``).

    Rows are grouped by their entry count, which makes each group one dense
    gather; the transpose is grouped the same way for the gradient. The
    entries are kept sorted by their row's count, then row, then column
    (``entries``), so each group is a run of them. The transpose's groups are
    built on first read and kept: only ``canonical_matmul``'s backward reads
    them, so an operator used under ``no_grad`` never builds them.
    """

    __slots__ = ("n_rows", "n_cols", "entries", "groups", "_t_groups")

    def __init__(self, row: np.ndarray, col: np.ndarray, vals: np.ndarray, shape: tuple[int, int]):
        n, m = shape
        super().__init__(vals.reshape(-1, 1))
        self.n_rows, self.n_cols = n, m
        self.entries = _by_count(row, col, self.value[:, 0], n)
        self.groups = _groups(*self.entries)
        self._t_groups: list | None = None

    @property
    def t_groups(self) -> list:
        if self._t_groups is None:
            row, col, vals, _ = self.entries
            self._t_groups = _groups(*_by_count(col, row, vals, self.n_cols))
        return self._t_groups

    @classmethod
    def block_diagonal(cls, parts: Sequence["SparseRows"]) -> "SparseRows":
        """``parts`` placed along the diagonal: their entries, offset by block,
        in row-major order."""
        if len(parts) == 1:
            return parts[0]
        at = np.cumsum([(0, 0)] + [(p.n_rows, p.n_cols) for p in parts], axis=0)
        sizes = [len(p.entries[0]) for p in parts]
        row, col, vals, _ = (np.concatenate(a) for a in zip(*(p.entries for p in parts)))
        row, col = row + np.repeat(at[:-1, 0], sizes), col + np.repeat(at[:-1, 1], sizes)
        order = np.argsort(row, kind="stable")  # a row's entries are already in column order
        return cls(row[order], col[order], vals[order], tuple(at[-1]))


def _by_count(row, col, vals, n: int) -> tuple:
    """(row, col, value, row's entry count) of each entry, sorted by count,
    then row, then column."""
    counts = np.bincount(row, minlength=n)[row]
    order = np.lexsort((col, row, counts))
    return row[order], col[order], vals[order], counts[order]


def _groups(row, col, vals, counts) -> list:
    """(rows, their entries' columns, their values) for each entry count."""
    # each count's run begins at the first entry or where the count changes
    starts = [0] + (np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist() if len(counts) else []
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


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """``(c0*t0 + c1*t1) + ...`` over equal-shaped terms, left to right, as one
    node; a repeated term gets one gradient per place. The value is the chain of
    adds over the scaled terms bit for bit, and so are the gradients unless a
    repeated term also feeds another term and the walk first reaches it here:
    the chain then sums that term's gradients in another order. The decoder
    reads ``model.fuse_knowledge``'s terms before the walk reaches its mix."""
    for t in terms[1:]:
        if t.shape != terms[0].shape:
            raise ValueError(f"add shape mismatch: {terms[0].shape} + {t.shape}")
    out = terms[0].value * weights[0]
    for t, c in zip(terms[1:], weights[1:]):
        out += t.value * c

    def grad_fn(g: np.ndarray):
        return tuple(g * c for c in weights)

    return Tensor(out, tuple(terms), grad_fn)


def relu(a: Tensor) -> Tensor:
    av = a.value
    mask = av > 0.0

    def grad_fn(g: np.ndarray):
        return (g * mask,)

    return Tensor(np.where(mask, av, 0.0), (a,), grad_fn)


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def grad_fn(g: np.ndarray):
        return (np.full(shape, g[0, 0]),)

    return Tensor([[a.value.sum()]], (a,), grad_fn)


def embedding(table: Tensor, ids: Sequence[int], plus: np.ndarray | None = None) -> Tensor:
    """Row lookup: stacks table rows for ``ids``; gradients scatter-add back.

    Each id is a Python or numpy integer; any other value raises ``ValueError``.
    A constant len(ids) x cols matrix ``plus`` is added to the gathered rows.
    """
    try:
        ids = [operator.index(i) for i in ids]
    except TypeError as e:
        raise ValueError(f"embedding ids must be integers: {e}") from None
    n_rows = table.rows
    for i in ids:
        if not 0 <= i < n_rows:
            raise ValueError(f"embedding index {i} out of range [0, {n_rows})")
    out = table.value[ids]
    if plus is not None:
        out += plus

    def grad_fn(g: np.ndarray):
        gt = np.zeros((n_rows, table.cols))
        np.add.at(gt, ids, g)
        return (gt,)

    return Tensor(out, (table,), grad_fn)


def cross_entropy_logits(logits: Tensor, targets: Sequence[int], weights: Sequence[float]) -> Tensor:
    """Sum over rows of weights[i] times row i's negative log-likelihood of
    targets[i] under softmax(logits); weights of 1/rows give the mean.

    The caller gives one target in [0, cols) and one weight per row; nothing
    here checks it."""
    n = logits.rows
    targets = np.asarray(targets, dtype=np.intp).reshape(-1)
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    v = logits.value
    m = v.max(axis=1, keepdims=True)
    z = v - m
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    lse = np.log(total) + m
    idx = np.arange(n)

    def grad_fn(g: np.ndarray):
        p = e / total
        p[idx, targets] -= 1.0
        return (g[0, 0] * w * p,)

    return Tensor([[float(((lse - v[idx, targets][:, None]) * w).sum())]], (logits,), grad_fn)


# ---------------------------------------------------------------------------
# optimization and the finite-difference oracle


# Adam's moment decay rates and the floor under its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# most elements per Adam chunk: a chunk of each operand and both scratch buffers
# stay in L2, so DRAM sees p, g, m and v read once and m, v, p written once
_ADAM_CHUNK = 32768


class Adam:
    """Adam with bias correction; optional L2 acts through the gradient.

    The weight-decay term ``wd * theta`` is added to the raw gradient before
    the first/second moments are updated. Each parameter is updated in place,
    in chunks of at most ``_ADAM_CHUNK`` elements through chunk-sized scratch
    buffers. Every chunk runs the IEEE operations of the whole-array formula in
    the same order, so the result is bitwise equal to

        g = g + wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)

    without a parameter-sized temporary. ``step`` writes into ``p.value``
    itself, so a caller that needs the pre-step values must copy them first.
    Each step takes one gradient for every parameter and none for any other
    tensor: a training graph's leaves are exactly the model's parameters.

    A small parameter has at most ``_ADAM_CHUNK`` elements. The constructor
    packs the values of all small parameters into one flat buffer and rebinds
    each small ``p.value`` to a view of it, so an array taken from ``p.value``
    before then is no longer the parameter; their moments are views of two
    matching buffers. ``step`` updates them all in one chunked sweep over the
    buffers. A large parameter keeps its own value and moments and is updated
    chunk by chunk on its own. Build one ``Adam`` per set of tensors: a second
    one rebinds the small values again, and the first then steps arrays that
    are no longer the parameters.
    """

    def __init__(
        self,
        params: Sequence[tuple[str, Tensor]],
        lr: float,
        weight_decay: float = 0.0,
    ):
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be positive and finite, got {lr}")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(f"weight_decay must be >= 0 and finite, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._by_id: dict[int, tuple[str, Tensor]] = {}  # id(p) -> (name, p)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        names: set[str] = set()
        small: list[tuple[str, Tensor]] = []
        for name, p in self.params:
            if name in names:
                raise ValueError(f"duplicate parameter name {name!r}")
            if id(p) in self._by_id:
                first = self._by_id[id(p)][0]
                raise ValueError(f"parameter {name!r} is the Tensor already listed as {first!r}")
            names.add(name)
            self._by_id[id(p)] = (name, p)
            if p.value.size <= _ADAM_CHUNK:
                small.append((name, p))
            else:
                # flat moments; np.zeros maps untouched pages, zeros_like would write every page
                self._m[name], self._v[name] = np.zeros(p.value.size), np.zeros(p.value.size)
        # one concatenate however many small parameters; the first step allocates
        # their moments and the staging buffer, so that building an Adam stays cheap
        values = [p.value for _, p in small]
        self._values = np.concatenate(values, axis=None) if values else np.empty(0)
        lo = 0
        for _, p in small:
            hi = lo + p.value.size
            p.value = self._values[lo:hi].reshape(p.value.shape)
            lo = hi
        self._small = small
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def _allocate(self) -> None:
        n = self._values.size
        self._scratch = (np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK))
        self._m_flat, self._v_flat = np.zeros(n), np.zeros(n)
        # each small gradient is copied here as it arrives; the sweep then uses
        # each chunk of it as its first temporary, once the chunk's g is dead
        self._grads = np.empty(n)
        self._staged: dict[int, np.ndarray] = {}  # id(p) -> p's range of _grads
        lo = 0
        for name, p in self._small:
            hi = lo + p.value.size
            self._m[name], self._v[name] = self._m_flat[lo:hi], self._v_flat[lo:hi]
            self._staged[id(p)] = self._grads[lo:hi].reshape(p.value.shape)
            lo = hi

    def step(self, grads: Iterable[tuple[Tensor, np.ndarray]]) -> None:
        """Step every parameter once from ``(tensor, gradient)`` pairs, one
        pair per parameter.

        ``grads`` can be the ``leaf_gradients`` walk itself (or a gradient
        dict's ``items()``); the step keeps no gradient array once it is used.
        A large parameter is updated as its pair arrives; a small one's
        gradient is copied into the staging buffer, and all small parameters
        are updated together after the last pair. A pair for a tensor that is
        not a parameter (or for one already given) raises ``ValueError`` when
        it arrives, and so does a parameter left without a pair once ``grads``
        ends. If ``grads`` raises part-way, or the step refuses, the large
        parameters already stepped stay stepped and no small parameter is
        stepped.
        """
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        if self._scratch is None:
            self._allocate()
        waiting, staged = dict(self._by_id), self._staged
        for leaf, g in grads:
            entry = waiting.pop(id(leaf), None)
            if entry is None:
                raise ValueError(f"a gradient for {leaf!r}, which is not a parameter or already has one")
            if id(leaf) in staged:
                np.copyto(staged[id(leaf)], g)
            else:
                self._step_large(*entry, g, bc1, bc2)
            del g
        if waiting:
            raise ValueError(f"no gradient for parameters {sorted(name for name, _ in waiting.values())}")
        self._step_flat(self._values, self._grads, self._m_flat, self._v_flat, bc1, bc2)

    def _step_large(self, name: str, p: Tensor, g: np.ndarray, bc1: float, bc2: float) -> None:
        self._step_flat(p.value.reshape(-1, copy=False), g.reshape(-1), self._m[name], self._v[name], bc1, bc2)

    def _step_flat(self, p, g, m, v, bc1, bc2) -> None:
        """Flat ``p``, ``m`` and ``v`` in place, chunk by chunk; the staging
        buffer serves as its own first scratch."""
        s1, s2 = self._scratch
        staged = g is self._grads
        chunks = -(-p.size // _ADAM_CHUNK)  # as few as fit, of near-equal size
        for k in range(chunks):
            i, j = p.size * k // chunks, p.size * (k + 1) // chunks
            gi = g[i:j]
            self._update(p[i:j], gi, m[i:j], v[i:j], gi if staged else s1[: j - i], s2[: j - i], bc1, bc2)

    def _update(self, p, g, m, v, s1, s2, bc1, bc2) -> None:
        """One chunk: ``p``, ``m`` and ``v`` in place.

        ``s1`` and ``s2`` are scratch of the chunk's size; ``s1`` may be ``g``
        itself, which the update then overwrites.
        """
        if self.weight_decay:
            g = np.add(g, np.multiply(self.weight_decay, p, out=s2), out=s1)
        np.add(np.multiply(ADAM_BETA1, m, out=m), np.multiply(1.0 - ADAM_BETA1, g, out=s2), out=m)
        np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=s2), out=s2)
        np.add(np.multiply(ADAM_BETA2, v, out=v), s2, out=v)
        den = np.add(np.sqrt(np.divide(v, bc2, out=s1), out=s1), ADAM_EPS, out=s1)
        step = np.multiply(self.lr, np.divide(m, bc1, out=s2), out=s2)
        np.subtract(p, np.divide(step, den, out=s2), out=p)


# the step of finite_diff_grad's central differences
FD_STEP = 1e-5


def finite_diff_grad(f: Callable[[], float], tensors: Sequence[Tensor]) -> list[np.ndarray]:
    """Central-difference gradient of ``f()`` w.r.t. every entry of ``tensors``.

    Perturbs values in place and restores them; ``f`` must be a pure function
    of the current tensor values.
    """
    out = []
    for t in tensors:
        g = np.zeros_like(t.value)
        flat = t.value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = f()
            flat[i] = orig - FD_STEP
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * FD_STEP)
        out.append(g)
    return out


# relative_error's floor under its denominator
RELATIVE_ERROR_FLOOR = 1e-6


def relative_error(approx, exact) -> np.ndarray:
    """|a - b| / max(|a|, |b|, floor); the floor keeps near-zero entries honest."""
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), RELATIVE_ERROR_FLOOR)
    return np.abs(a - b) / denom
