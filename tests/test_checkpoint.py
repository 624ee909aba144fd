import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdk.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint

from oracles import oracle_checkpoint_bytes

RNG = np.random.default_rng(37)


def test_round_trip_values_and_meta(tmp_path):
    tensors = [
        ("a", RNG.normal(size=(2, 3))),
        ("b", np.array([[1e-300, -0.0]])),
    ]
    meta = {"nested": {"k": [1, 2]}, "s": "text"}
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, tensors, meta)
    loaded, loaded_meta = load_checkpoint(p)
    assert set(loaded) == {"a", "b"}
    for name, arr in tensors:
        assert np.array_equal(loaded[name], arr)
    assert loaded_meta == meta


def test_byte_layout(tmp_path):
    p = tmp_path / "m.ckpt"
    arr = np.array([[1.5, -2.0]])
    save_checkpoint(p, [("w", arr)], {"v": 1})
    data = p.read_bytes()
    assert data[:4] == MAGIC == b"DMDK"
    assert struct.unpack_from("<I", data, 4)[0] == VERSION == 2
    hlen = struct.unpack_from("<Q", data, 8)[0]
    header = json.loads(data[16 : 16 + hlen])
    assert header["meta"] == {"v": 1}
    assert header["tensors"] == [{"cols": 2, "name": "w", "offset": 0, "rows": 1}]
    payload = data[16 + hlen :]
    assert payload == arr.astype("<f8").tobytes()


def test_save_is_byte_deterministic(tmp_path):
    tensors = [("x", RNG.normal(size=(3, 3)))]
    meta = {"b": 2, "a": 1}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, tensors, meta)
    save_checkpoint(p2, tensors, dict(reversed(list(meta.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_save_writes_the_bytes_of_the_copying_writer(tmp_path):
    tensors = [
        ("a", RNG.normal(size=(3, 4))),
        ("transposed", RNG.normal(size=(5, 2)).T),  # not C-contiguous
        ("big_endian", RNG.normal(size=(2, 2)).astype(">f8")),
        ("single", RNG.normal(size=(2, 3)).astype(np.float32)),
        ("empty", np.zeros((0, 4))),
        ("signed_zero", np.array([[-0.0, 0.0, 1e-310]])),
    ]
    meta = {"spec": {"d": 4}, "names": ["x", "y"]}
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, tensors, meta)
    assert p.read_bytes() == oracle_checkpoint_bytes(tensors, meta)


def test_save_allocates_less_than_one_tensor(tmp_path):
    arr = RNG.normal(size=(512, 2048))
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "m.ckpt", [("w", arr)], {"v": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arr.nbytes // 8, peak


def test_duplicate_tensor_names_rejected(tmp_path):
    with pytest.raises(ValueError, match="duplicate tensor name 'w'"):
        save_checkpoint(tmp_path / "m.ckpt", [("w", np.zeros((1, 1))), ("w", np.ones((1, 1)))], {})


def test_non_2d_tensor_rejected(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        save_checkpoint(tmp_path / "m.ckpt", [("w", np.zeros(3))], {})


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(p)


def test_short_file_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"DMDK\x01")
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(p)


def test_unsupported_version_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, [], {})
    data = bytearray(p.read_bytes())
    data[4:8] = struct.pack("<I", 9)
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="version 9"):
        load_checkpoint(p)


def test_truncated_header_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", 1000) + b"{}")
    with pytest.raises(ValueError, match="truncated header"):
        load_checkpoint(p)


def test_malformed_header_json_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    body = b"not json!!"
    p.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(body)) + body)
    with pytest.raises(ValueError, match="malformed"):
        load_checkpoint(p)


def test_tensor_past_end_of_file_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, [("w", np.zeros((2, 2)))], {})
    data = p.read_bytes()
    p.write_bytes(data[:-8])  # drop one float64
    with pytest.raises(ValueError, match="'w' extends past end"):
        load_checkpoint(p)


def test_empty_checkpoint_round_trips(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, [], {"only": "meta"})
    tensors, meta = load_checkpoint(p)
    assert tensors == {}
    assert meta == {"only": "meta"}


# ---------------------------------------------------------------------------
# malformed files fail with a ValueError that names the file


def write_raw(path, header, payload=b""):
    body = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(body)) + body + payload)
    return path


def entry(name="w", rows=1, cols=2, offset=0):
    return {"name": name, "rows": rows, "cols": cols, "offset": offset}


def test_list_header_rejected(tmp_path):
    p = write_raw(tmp_path / "m.ckpt", [])
    with pytest.raises(ValueError, match=f"{p}.*'meta' and 'tensors'"):
        load_checkpoint(p)


def test_tensor_entry_without_rows_rejected(tmp_path):
    item = entry()
    del item["rows"]
    p = write_raw(tmp_path / "m.ckpt", {"meta": {}, "tensors": [item]}, bytes(16))
    with pytest.raises(ValueError, match=rf"{p}: tensors\[0\]"):
        load_checkpoint(p)


@pytest.mark.parametrize(
    "bad",
    [dict(name=3), dict(rows=-1), dict(cols=1.0), dict(offset="0"), dict(rows=True)],
    ids=["name", "negative", "float", "string", "bool"],
)
def test_tensor_entry_field_types_checked(tmp_path, bad):
    p = write_raw(tmp_path / "m.ckpt", {"meta": {}, "tensors": [entry(**bad)]}, bytes(16))
    with pytest.raises(ValueError, match=rf"{p}: tensors\[0\]"):
        load_checkpoint(p)


def test_non_object_meta_rejected(tmp_path):
    p = write_raw(tmp_path / "m.ckpt", {"meta": [], "tensors": []})
    with pytest.raises(ValueError, match="'meta' must be an object"):
        load_checkpoint(p)


def test_overlapping_tensors_rejected(tmp_path):
    header = {"meta": {}, "tensors": [entry("a"), entry("b", offset=8)]}
    p = write_raw(tmp_path / "m.ckpt", header, bytes(32))
    with pytest.raises(ValueError, match="'b' overlaps"):
        load_checkpoint(p)


def test_trailing_payload_bytes_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, [("w", np.zeros((1, 2)))], {})
    p.write_bytes(p.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="payload is 24 bytes, tensors account for 16"):
        load_checkpoint(p)


def test_duplicate_tensor_entries_rejected(tmp_path):
    header = {"meta": {}, "tensors": [entry("a"), entry("a", offset=16)]}
    p = write_raw(tmp_path / "m.ckpt", header, bytes(32))
    with pytest.raises(ValueError, match="duplicate tensor name 'a'"):
        load_checkpoint(p)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_arbitrary_bytes_after_magic_and_version_load_or_raise_value_error(tmp_path_factory, rest):
    p = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    p.write_bytes(MAGIC + struct.pack("<I", VERSION) + rest)
    try:
        load_checkpoint(p)
    except ValueError as e:
        assert str(p) in str(e)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
header_like = st.fixed_dictionaries(
    {
        "meta": json_values,
        "tensors": st.lists(
            st.fixed_dictionaries(
                {k: json_values | st.integers(0, 24) for k in ("rows", "cols", "offset")},
                optional={"name": st.text(max_size=3) | json_values},
            ),
            max_size=3,
        )
        | json_values,
    }
) | json_values


@settings(max_examples=150, deadline=None)
@given(header_like)
def test_arbitrary_json_headers_load_or_raise_value_error(tmp_path_factory, header):
    p = write_raw(tmp_path_factory.mktemp("fuzz") / "m.ckpt", header, bytes(16))
    try:
        load_checkpoint(p)
    except ValueError as e:
        assert str(p) in str(e)
