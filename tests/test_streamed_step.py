"""The streamed training step: ``Adam.step(leaf_gradients(loss))``.

The walk hands each leaf's gradient to Adam as soon as the leaf's last
consumer has run, and Adam updates the parameter in place. Every step must
equal, bit for bit, the engine that kept the graph (``oracle_backward``)
followed by the whole-array Adam formula (``oracle_adam_step``); and a step
must hold no more gradients than the layer it is working on.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dmdk import model as model_module
from dmdk.autograd import Adam, Tensor, add, backward, leaf_gradients, matmul, mul, relu, sum_all
from dmdk.config import load_config
from dmdk.graph import default_base_graph_path, load_base_graph
from dmdk.model import train
from dmdk.text import load_corpus

from oracles import oracle_adam_step, oracle_backward

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json"


class OracleCheckedSteps:
    """Stands in for ``leaf_gradients`` inside ``train()``: passes the walk's
    pairs on to Adam and checks each parameter against the oracles once Adam
    has stepped it, with no more than one parameter's oracle state alive."""

    def __init__(self):
        self.optimizers = []  # filled by the Adam that ``train()`` builds
        self.steps = 0
        self.untouched = set()  # names of parameters stepped with a zero gradient
        self._pending = []  # (name, p, expected value, m, v) stepped or about to be

    def adam(self, *args, **kwargs):
        opt = Adam(*args, **kwargs)
        self.optimizers.append(opt)
        return opt

    def __call__(self, loss):
        (opt,) = self.optimizers
        self.check()  # the previous step's zero-gradient parameters
        self.steps += 1
        return self._stream(opt, loss, oracle_backward(loss))

    def check(self):
        (opt,) = self.optimizers
        while self._pending:
            name, p, value, m, v = self._pending.pop()
            assert np.array_equal(p.value, value), (self.steps, name)
            assert np.array_equal(opt._m[name].reshape(value.shape), m), (self.steps, name)
            assert np.array_equal(opt._v[name].reshape(value.shape), v), (self.steps, name)

    def _expect(self, opt, name, p, g):
        values, m, v = oracle_adam_step(
            {name: p.value}, {name: opt._m[name].reshape(p.shape)}, {name: opt._v[name].reshape(p.shape)},
            {} if g is None else {name: g}, opt.t, opt.lr, opt.weight_decay,
        )
        self._pending.append((name, p, values[name], m[name], v[name]))

    def _stream(self, opt, loss, expected):
        waiting = {id(p): (name, p) for name, p in opt.params}
        for leaf, g in leaf_gradients(loss):
            self.check()  # Adam steps each pair before it asks for the next
            assert np.array_equal(g, expected.pop(leaf))  # KeyError: yielded twice
            if id(leaf) in waiting:
                name, p = waiting.pop(id(leaf))
                self._expect(opt, name, p, g)
            yield leaf, g
        self.check()
        assert not expected  # every leaf the oracle reached was yielded
        for name, p in waiting.values():  # stepped by Adam after the walk ends
            self.untouched.add(name)
            self._expect(opt, name, p, None)


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
    if ablation == "dke":  # the graph streams are off, so their parameters get no gradient
        assert {"gcn.embeddings", "graph_attn.wq"} <= checked.untouched


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
    x = rng.normal(size=(4, d))
    ws = [Tensor(rng.normal(0.0, 1.0 / 16, size=(d, d))) for _ in range(layers)]
    opt = Adam([(f"w{i}", w) for i, w in enumerate(ws)], lr=1e-3, weight_decay=1e-3)

    def forward():
        h = Tensor(x)
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
