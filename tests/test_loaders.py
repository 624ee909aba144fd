"""Every file loader, fed arbitrary bytes, returns a result or raises a
ValueError that names the file (and the line, where it reads by line);
nothing else may escape to the CLI."""

import gc
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmdk.checkpoint import load_checkpoint
from dmdk.config import load_config
from dmdk.features import load_features
from dmdk.graph import load_base_graph
from dmdk.text import JSON_MAX_DEPTH, Lexicon, load_corpus, parse_json

CKPT_HEADER = b'{"meta":{"k":[1]},"tensors":[{"cols":3,"name":"w","offset":0,"rows":1}]}'

# Each loader with a valid input. The fuzzer also mutates that input, since
# arbitrary bytes rarely get past a format's first check.
LOADERS = {
    "corpus": (
        load_corpus,
        b'{"id": "a", "features": ["x.fmat"], "report": "clear lungs .", '
        b'"entities": [{"text": "lungs", "type": "ANATOMY"}]}\n{"id": "b", "features": ["y"]}\n',
    ),
    "fmat": (load_features, b"FMAT v1 2 3\n1 2 3\n4.5 -6 7e3\n"),
    "config": (
        load_config,
        b'{"model": {"d": 8, "heads": 2, "decoder_layers": 1}, "fusion": {"lambda1": 0.5}, '
        b'"paths": {"base_graph": null}, "ablation": "full"}',
    ),
    "base graph": (
        load_base_graph,
        b'{"nodes": [{"name": "root", "kind": "root"}, {"name": "lung", "kind": "organ"}, '
        b'{"name": "opacity", "kind": "finding"}], '
        b'"edges": [["root", "lung"], ["lung", "opacity", "OBSERVATION"]]}',
    ),
    "lexicon": (Lexicon.load, b"# terms\nlung\tANATOMY\npleural effusion\tOBSERVATION\n"),
    "checkpoint": (
        load_checkpoint,
        b"DMDK" + struct.pack("<IQ", 2, len(CKPT_HEADER)) + CKPT_HEADER + np.arange(3.0).tobytes(),
    ),
}


def mutated(valid: bytes):
    """``valid`` with one span of it replaced by arbitrary bytes."""
    return st.tuples(
        st.integers(0, len(valid)), st.integers(0, 8), st.binary(max_size=8)
    ).map(lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1]:])


JSON_LOADERS = ("base graph", "config", "corpus")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


def _json_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


@st.composite
def json_mutated(draw, valid: bytes):
    """``valid`` with one value of its first JSON line replaced by an arbitrary value."""
    first, newline, rest = valid.partition(b"\n")
    obj = json.loads(first)
    path = draw(st.sampled_from(list(_json_paths(obj))))
    value = draw(JSON_VALUES)
    if not path:
        obj = value
    else:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return json.dumps(obj).encode("utf-8") + newline + rest


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_returns_or_names_the_file(tmp_path, name, data):
    load, valid = LOADERS[name]
    path = tmp_path / "input"
    path.write_bytes(valid)
    load(path)
    path.write_bytes(
        data.draw(
            st.one_of(
                st.binary(max_size=200),
                mutated(valid),
                *([json_mutated(valid)] if name in JSON_LOADERS else []),
                st.integers(1, 5000).map(lambda n: b"[" * n),
            )
        )
    )
    try:
        load(path)
    except ValueError as e:
        assert str(path) in str(e), f"the message does not name the file: {e}"


def test_json_nested_deeper_than_the_bound_is_refused_before_parsing(monkeypatch):
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    at_bound = "[" * JSON_MAX_DEPTH + "]" * JSON_MAX_DEPTH
    assert parse_json(at_bound, "f") is not None and parsed == [at_bound]
    in_strings = json.dumps([{"[": "{" * 100}, "]]\\", '"[['])  # brackets in strings do not count
    assert parse_json(in_strings, "f") == json.loads(in_strings)
    parsed.clear()
    for deep in ("[" * (JSON_MAX_DEPTH + 1) + "]" * (JSON_MAX_DEPTH + 1), "[" * 5000, '{"a": ' * 100):
        with pytest.raises(ValueError, match=f"^f: malformed JSON: nested deeper than {JSON_MAX_DEPTH} levels$"):
            parse_json(deep, "f")
    assert parsed == []


def test_python_code_run_by_a_gc_during_a_json_parse_has_stack_to_run():
    """A parse that recursed to the interpreter's limit failed any Python code
    a gc ran at its deepest level: hypothesis's gc callback failed there under
    ``tests/untested_lines.py``'s tracer, which failed this file's fuzz test."""
    failed = []

    def callback(phase, info):
        def down(n):
            return n and down(n - 1)

        try:
            down(20)  # about as deep as a tracer's own calls
        except RecursionError:
            failed.append(phase)

    threshold = gc.get_threshold()
    gc.callbacks.append(callback)
    gc.set_threshold(1)  # a collection at every allocation, so at every level of the parse
    try:
        with pytest.raises(ValueError, match="malformed JSON"):
            parse_json("[" * 5000, "deep")
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(callback)
    assert failed == []


@pytest.mark.parametrize(
    "name, line",
    [("corpus", 2), ("lexicon", 2), ("config", None), ("base graph", None), ("fmat", None)],
)
def test_undecodable_bytes_name_the_file_and_line(tmp_path, name, line):
    """Line readers name the line of the bad bytes; whole-file readers the file."""
    load, valid = LOADERS[name]
    lines = valid.split(b"\n")
    i = (line or 1) - 1
    lines[i] = b"\xff\xfe" + lines[i]
    path = tmp_path / "input"
    path.write_bytes(b"\n".join(lines))
    where = f"{path}:{line}" if line else str(path)
    with pytest.raises(ValueError, match=re.escape(f"{where}: not UTF-8 text")):
        load(path)
