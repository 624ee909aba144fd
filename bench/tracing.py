"""Spans and counts around dmdk's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``dmdk`` module namespace that binds it (``model`` imports
``gcn_forward`` by name, for instance), and ``uninstall`` puts the originals
back. A function that no longer exists is listed in ``missing`` and its
metrics are left out rather than failing the run.

A span's self time is its duration minus the time of the traced spans it
encloses; time in untraced helpers counts toward the nearest traced caller.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter

# (module, function or Class.method, None or (count name, count of one call))
TARGETS = [
    ("text", "load_corpus", None),
    ("features", "load_features", ("values", lambda args, out: out.size)),
    ("features", "project_features", None),
    ("topics", "pool_tag_embeddings", None),
    ("graph", "build_specific_graph", ("nodes", lambda args, out: out.node_count())),
    ("graph", "gcn_forward", None),
    ("autograd", "canonical_matmul",
     ("products", lambda args, out: args[0].rows * args[0].cols * args[1].cols)),
    ("autograd", "backward", None),
    ("autograd", "Adam.step", None),
    ("attention", "multi_head_attention", None),
    ("attention", "feed_forward", None),
    ("attention", "embed_tokens", None),
    ("attention", "sinusoidal_encoding", None),
    ("model", "prepare_record", None),
    ("model", "encode_record", None),
    ("model", "teacher_forcing_loss", None),
    ("model", "decoder_forward", ("rows", lambda args, out: len(args[0]))),
    ("model", "generate_greedy", None),
    ("checkpoint", "load_checkpoint", ("bytes", lambda args, out: os.path.getsize(args[0]))),
]

TENSORS = "autograd.tensors"


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # "<span>.<count name>" and TENSORS
        self.traced: list[str] = []
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # per open span: time of its traced children
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extra):
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        if extra is not None:
            key, count = f"{name}.{extra[0]}", extra[1]
            counts[key] += 0  # reported even when the function is never called

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children[0]
            if extra is not None:
                counts[key] += count(args, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        owners = {}
        for module_name in dict.fromkeys(m for m, _, _ in TARGETS):
            try:  # some modules are imported lazily, on first use
                owners[module_name] = importlib.import_module(f"dmdk.{module_name}")
            except ModuleNotFoundError:
                owners[module_name] = None
        modules = [m for n, m in list(sys.modules.items()) if n == "dmdk" or n.startswith("dmdk.")]
        for module_name, qualname, extra in TARGETS:
            name = f"{module_name}.{qualname}"
            owner = owners[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self.traced.append(name)
            wrapped = self._wrap(name, fn, extra)
            if path:  # a method: patch the class
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapped)
        self._count_tensors()

    def _count_tensors(self) -> None:
        tensor = getattr(sys.modules.get("dmdk.autograd"), "Tensor", None)
        if tensor is None:
            self.missing.append(TENSORS)
            return
        init = tensor.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts[TENSORS] += 1
            init(obj, *args, **kwargs)

        self._set(tensor, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
