"""The streamed training step: ``Adam.step(leaf_gradients(loss))``.

The walk hands each leaf's gradient to Adam as soon as the leaf's last
consumer has run. Adam updates a large parameter in place before it asks for
the next pair, and the small ones together once the walk ends. Every step must
equal, bit for bit, the engine that kept the graph (``oracle_backward``)
followed by the whole-array Adam formula (``oracle_adam_step``); and a step
must hold no more gradients than the layer it is working on.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmdk import autograd
from dmdk import model as model_module
from dmdk.autograd import Adam, Tensor, backward, leaf_gradients, matmul, relu, sum_all
from dmdk.config import load_config
from dmdk.graph import default_base_graph_path, load_base_graph
from dmdk.model import train
from dmdk.text import load_corpus

from oracles import add, mul, oracle_adam_step, oracle_backward

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json"


class OracleCheckedSteps:
    """Stands in for ``leaf_gradients`` inside ``train()``: passes the walk's
    pairs on to Adam and checks each parameter against the oracles once Adam
    has stepped it: a large one before the next pair, a small one after the
    walk. No more than one large parameter's oracle state is alive at once."""

    def __init__(self):
        self.optimizers = []  # filled by the Adam that ``train()`` builds
        self.steps = 0
        self.untouched = set()  # names of parameters the walk gave no gradient
        self.streamed, self.swept = set(), set()  # names of large and small parameters
        self._pending = []  # (name, p, expected value, m, v) of large ones stepped or about to be
        self._after_walk = []  # the same for small ones, stepped once the walk ends

    def adam(self, *args, **kwargs):
        opt = Adam(*args, **kwargs)
        self.optimizers.append(opt)
        return opt

    def __call__(self, loss):
        (opt,) = self.optimizers
        self.check()  # the previous step's small parameters
        self.steps += 1
        return self._stream(opt, loss, oracle_backward(loss))

    def check(self, *queues):
        (opt,) = self.optimizers
        for queue in queues or (self._pending, self._after_walk):
            while queue:
                name, p, value, m, v = queue.pop()
                assert np.array_equal(p.value, value), (self.steps, name)
                assert np.array_equal(opt._m[name].reshape(value.shape), m), (self.steps, name)
                assert np.array_equal(opt._v[name].reshape(value.shape), v), (self.steps, name)

    def _expect(self, opt, name, p, g):
        values, m, v = oracle_adam_step(
            {name: p.value}, {name: opt._m[name].reshape(p.shape)}, {name: opt._v[name].reshape(p.shape)},
            {name: g}, opt.t, opt.lr, opt.weight_decay,
        )
        large = p.value.size > autograd._ADAM_CHUNK
        (self.streamed if large else self.swept).add(name)
        (self._pending if large else self._after_walk).append((name, p, values[name], m[name], v[name]))

    def _stream(self, opt, loss, expected):
        waiting = {id(p): (name, p) for name, p in opt.params}
        for leaf, g in leaf_gradients(loss):
            self.check(self._pending)  # Adam steps each large pair before it asks for the next
            assert np.array_equal(g, expected.pop(leaf))  # KeyError: yielded twice
            name, p = waiting.pop(id(leaf))  # KeyError: a leaf that is not a parameter
            self._expect(opt, name, p, g)
            yield leaf, g
        self.check(self._pending)
        assert not expected  # every leaf the oracle reached was yielded
        self.untouched.update(name for name, _ in waiting.values())


def _graph(loss):
    """Every node reachable from ``loss``, and each node's consumers by id
    (a consumer reading a node twice is listed twice)."""
    nodes, consumers, stack = {}, {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        for parent in node._parents:
            consumers.setdefault(id(parent), []).append(node)
            stack.append(parent)
    return list(nodes.values()), consumers


WIDE = dict(d=512, heads=8, decoder_layers=3, ffn_multiplier=1)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize(
    "ablation,model", [("full", {}), ("dke", {}), ("dke", WIDE)], ids=["desk-full", "desk-dke", "d512-dke"]
)
def test_training_steps_equal_the_graph_keeping_oracles_bitwise(
    overfit_corpus, monkeypatch, ablation, model, weight_decay
):
    run = load_config(DESK)
    run = replace(
        run,
        model=replace(run.model, **model),
        train=replace(run.train, epochs=5, weight_decay=weight_decay),
        ablation=ablation,
    )
    checked = OracleCheckedSteps()
    fan_out = []

    def walk(loss):
        consumers = _graph(loss)[1]
        fan_out.extend(name for name, p in checked.optimizers[0].params if len(consumers.get(id(p), ())) > 1)
        return checked(loss)

    monkeypatch.setattr(model_module, "Adam", checked.adam)
    monkeypatch.setattr(model_module, "leaf_gradients", walk)
    train(load_corpus(overfit_corpus), run, load_base_graph(default_base_graph_path()))
    checked.check()
    assert checked.steps == 5  # one batch of all eight records per epoch
    assert "embed.tokens" in fan_out  # tag pooling and the decoder input both read it
    assert checked.swept and bool(checked.streamed) == bool(model)  # desk has no large parameter
    assert not checked.untouched  # an ablation builds no parameter that its streams do not read


@pytest.mark.parametrize("ablation", ["full", "dke", "ske", "base"])
def test_a_training_steps_leaves_are_exactly_the_parameters_each_once(overfit_corpus, monkeypatch, ablation):
    run = load_config(DESK)
    run = replace(run, train=replace(run.train, epochs=1), ablation=ablation)
    steps = []

    def walk(loss):
        pairs = list(leaf_gradients(loss))
        steps.append([leaf for leaf, _ in pairs])
        return pairs

    monkeypatch.setattr(model_module, "leaf_gradients", walk)
    model, _ = train(load_corpus(overfit_corpus), run, load_base_graph(default_base_graph_path()))
    (leaves,) = steps  # one batch of all eight records
    assert sorted(map(id, leaves)) == sorted(id(p) for _, p in model.parameters())


def test_each_leaf_is_yielded_once_right_after_its_last_consumers_rule():
    rng = np.random.default_rng(3)
    a, b, c, e = (Tensor(rng.normal(size=(3, 3))) for _ in range(4))
    h = matmul(matmul(a, b), e)
    # a feeds ops at two depths; h is read twice by one op; c only near the output
    loss = sum_all(add(mul(h, h), add(relu(matmul(a, c)), c)))
    nodes, consumers = _graph(loss)
    leaves = [n for n in nodes if n._grad_fn is None]
    assert sorted(map(id, leaves)) == sorted(map(id, [a, b, c, e]))
    events = []
    for node in nodes:
        if node._grad_fn is not None:
            node._grad_fn = lambda g, fn=node._grad_fn, node=node: (events.append(("rule", node)), fn(g))[1]
    yielded = []
    for leaf, g in leaf_gradients(loss):
        events.append(("leaf", leaf))
        yielded.append(leaf)
    assert sorted(map(id, yielded)) == sorted(map(id, leaves))  # each leaf once
    for leaf in leaves:
        at = events.index(("leaf", leaf))
        mine = {id(node) for node in consumers[id(leaf)]}
        ran = [i for i, (kind, node) in enumerate(events) if kind == "rule" and id(node) in mine]
        assert len(ran) == len(mine) and max(ran) < at
        assert all(kind == "leaf" for kind, _ in events[max(ran) + 1 : at])  # no rule ran in between


def test_a_leaf_output_is_yielded_with_a_unit_gradient():
    x = Tensor([[2.0]])
    ((leaf, g),) = leaf_gradients(x)
    assert leaf is x and np.array_equal(g, [[1.0]])
    assert np.array_equal(backward(Tensor([[3.0]])).popitem()[1], [[1.0]])


def test_a_streamed_step_holds_one_layer_of_gradients():
    rng = np.random.default_rng(11)
    d, layers = 256, 8
    x = Tensor(rng.normal(size=(4, d)))
    ws = [Tensor(rng.normal(0.0, 1.0 / 16, size=(d, d))) for _ in range(layers)]
    opt = Adam([("x", x)] + [(f"w{i}", w) for i, w in enumerate(ws)], lr=1e-3, weight_decay=1e-3)

    def forward():
        h = x
        for w in ws:
            h = matmul(h, w)
        return sum_all(h)

    opt.step(leaf_gradients(forward()))  # the first step allocates Adam's scratch
    tracemalloc.start()
    try:
        loss = forward()
        activations = tracemalloc.get_traced_memory()[0]
        opt.step(leaf_gradients(loss))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layer = ws[0].value.nbytes
    # all eight layers' gradients at once would be 7 layers over this bound
    assert peak <= activations + layer + layer // 4, (peak, activations, layer)
