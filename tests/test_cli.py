import json
import logging
import struct

import numpy as np
import pytest

from dmdk.cli import main
from dmdk.config import effective_dict
from dmdk.text import load_corpus

from conftest import OVERFIT_ENTITIES, OVERFIT_REPORTS, build_corpus, make_config, save_features


def write_config(tmp_path, name="run.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(effective_dict(make_config(**kw))), encoding="utf-8")
    return str(path)


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def tagged_corpus(tmp_path, n=3):
    return str(build_corpus(tmp_path, OVERFIT_REPORTS[:n], OVERFIT_ENTITIES[:n]))


# ---------------------------------------------------------------------------
# usage errors


def test_no_arguments_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


def test_missing_required_option_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["train", "--corpus", "x.jsonl", "--out", "m.ckpt"])
    assert err.value.code == 1
    assert "--config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tag


def test_tag_fills_missing_entities(tmp_path, capsys):
    corpus = str(build_corpus(tmp_path, OVERFIT_REPORTS[:3]))
    out = str(tmp_path / "tagged.jsonl")
    assert main(["tag", "--in", corpus, "--out", out]) == 0
    assert "tagged 3 of 3" in capsys.readouterr().out
    records = load_corpus(out)
    assert all(r.entities is not None for r in records)
    texts = [e.text for e in records[0].entities]
    assert "lungs" in texts and "clear" in texts


def test_tag_preserves_existing_annotations(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path)
    out = str(tmp_path / "tagged.jsonl")
    assert main(["tag", "--in", corpus, "--out", out]) == 0
    assert "tagged 0 of 3" in capsys.readouterr().out
    before = load_corpus(corpus)
    after = load_corpus(out)
    for b, a in zip(before, after):
        assert [(e.text, e.type) for e in b.entities] == [
            (e.text, e.type) for e in a.entities
        ]


def feature_file(tmp_path):
    p = tmp_path / "f.fmat"
    save_features(p, np.zeros((2, 4)))
    return str(p)


def test_tag_without_report_or_entities_exits_two(tmp_path, capsys):
    corpus = write_jsonl(
        tmp_path / "c.jsonl", [{"id": "r0", "features": [feature_file(tmp_path)]}]
    )
    assert main(["tag", "--in", corpus, "--out", str(tmp_path / "o.jsonl")]) == 2
    assert "neither entities nor report" in capsys.readouterr().err


def test_tag_custom_lexicon(tmp_path, capsys):
    lex = tmp_path / "lex.tsv"
    lex.write_text("lungs\tANATOMY\n", encoding="utf-8")
    corpus = str(build_corpus(tmp_path, OVERFIT_REPORTS[:1]))
    out = str(tmp_path / "o.jsonl")
    assert main(["tag", "--lexicon", str(lex), "--in", corpus, "--out", out]) == 0
    (rec,) = load_corpus(out)
    assert [e.text for e in rec.entities] == ["lungs"]


# ---------------------------------------------------------------------------
# build-graph


def test_build_graph_writes_one_file_per_record(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path)
    out_dir = tmp_path / "graphs"
    assert main(["build-graph", "--in", corpus, "--out-dir", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["r00.json", "r01.json", "r02.json"]
    obj = json.loads((out_dir / "r00.json").read_text())
    names = [n["name"] for n in obj["nodes"]]
    assert "root" in names and "lung" in names


def test_build_graph_exports_the_graphs_the_model_is_given(tmp_path, capsys):
    from dmdk.graph import default_base_graph_path, graph_from_dict, load_base_graph
    from dmdk.model import FusionWeights, ModelSpec, fallback_labels, prepare_record
    from dmdk.text import Vocabulary

    corpus = tagged_corpus(tmp_path, n=len(OVERFIT_REPORTS))
    out_dir = tmp_path / "graphs"
    assert main(["build-graph", "--in", corpus, "--out-dir", str(out_dir)]) == 0
    base = load_base_graph(default_base_graph_path())
    spec = ModelSpec(
        d=4, heads=1, decoder_layers=1, gcn_layers=1, ffn_multiplier=1, feature_dim=4,
        fusion=FusionWeights.from_raw(1.0, 1.0, 1.0),
    )
    vocab = Vocabulary(list(Vocabulary.SPECIALS), 1)
    grown = 0
    for rec in load_corpus(corpus):
        prep = prepare_record(rec, vocab, base, fallback_labels(base), spec, with_report=False)
        g = graph_from_dict(json.loads((out_dir / f"{rec.id}.json").read_text()))
        assert g.names == prep.node_names
        assert g == prep.graph
        grown += g.node_count() > base.node_count()
    assert grown >= 2


def test_build_graph_dot_format(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path, n=1)
    out_dir = tmp_path / "graphs"
    assert main(["build-graph", "--in", corpus, "--out-dir", str(out_dir), "--format", "dot"]) == 0
    dot = (out_dir / "r00.dot").read_text()
    assert dot.startswith("graph")


def test_build_graph_untagged_corpus_exits_two(tmp_path, capsys):
    corpus = str(build_corpus(tmp_path, OVERFIT_REPORTS[:2]))
    assert main(["build-graph", "--in", corpus, "--out-dir", str(tmp_path / "g")]) == 2
    assert "untagged" in capsys.readouterr().err


def test_build_graph_rejects_path_like_record_ids(tmp_path, capsys):
    corpus = write_jsonl(
        tmp_path / "c.jsonl",
        [{"id": "../evil", "features": [feature_file(tmp_path)], "report": "x", "entities": []}],
    )
    assert main(["build-graph", "--in", corpus, "--out-dir", str(tmp_path / "g")]) == 2
    assert "not usable as a file name" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / generate


def test_train_writes_checkpoint_and_trace(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path)
    cfg = write_config(tmp_path, epochs=2)
    out = tmp_path / "model.ckpt"
    assert main(["train", "--config", cfg, "--corpus", corpus, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert '"epochs": 2' in stdout  # effective config echoed
    assert out.exists()
    trace = (tmp_path / "model.ckpt.trace").read_text().splitlines()
    assert len(trace) == 2
    assert all(np.isfinite(float(v)) for v in trace)


def test_train_seed_flag_overrides_config(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path)
    cfg = write_config(tmp_path, epochs=1, seed=0)
    a, b, c = (str(tmp_path / f"{n}.ckpt") for n in "abc")
    assert main(["train", "--config", cfg, "--corpus", corpus, "--out", a]) == 0
    assert main(["train", "--config", cfg, "--corpus", corpus, "--out", b, "--seed", "0"]) == 0
    assert main(["train", "--config", cfg, "--corpus", corpus, "--out", c, "--seed", "5"]) == 0
    from pathlib import Path

    assert Path(a).read_bytes() == Path(b).read_bytes()  # explicit seed 0 = config seed 0
    assert Path(a).read_bytes() != Path(c).read_bytes()


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_exits_three(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path, n=2)
    cfg = write_config(tmp_path, epochs=10, lr=1e150)
    code = main(["train", "--config", cfg, "--corpus", corpus, "--out", str(tmp_path / "m.ckpt")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_train_missing_corpus_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["train", "--config", cfg, "--corpus", str(tmp_path / "no.jsonl"), "--out", "m"])
    assert code == 2


def test_train_config_setting_paths_lexicon_exits_two(tmp_path, capsys):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"paths": {"base_graph": None, "lexicon": None}}), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--corpus", tagged_corpus(tmp_path), "--out", "m"])
    assert code == 2
    assert "paths.lexicon" in capsys.readouterr().err


def test_train_config_with_an_empty_base_graph_path_exits_two(tmp_path, capsys):
    cfg = tmp_path / "empty-base.json"
    cfg.write_text(json.dumps({"paths": {"base_graph": ""}}), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--corpus", tagged_corpus(tmp_path), "--out", str(tmp_path / "m")])
    assert code == 2
    assert f"{cfg}: paths.base_graph must be null or a nonempty path" in capsys.readouterr().err


def test_train_invalid_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"d": 10, "heads": 4}}), encoding="utf-8")
    corpus = tagged_corpus(tmp_path)
    code = main(["train", "--config", str(cfg), "--corpus", corpus, "--out", "m"])
    assert code == 2
    assert "model.d" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"train": {"lr": "fast"}}, "config field 'train.lr' must be a number, got 'fast'"),
        ({"ablation": 5}, "config field 'ablation' must be a string, got 5"),
    ],
    ids=["number", "string"],
)
def test_train_config_field_of_the_wrong_type_exits_two(tmp_path, capsys, fields, message):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(fields), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--corpus", tagged_corpus(tmp_path), "--out", str(tmp_path / "m")])
    assert code == 2
    assert f"{cfg}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, allowed",
    [("d", 10**30, "1..4096"), ("decoder_layers", 33, "1..32"), ("gcn_layers", 33, "1..32"),
     ("ffn_multiplier", 17, "1..16")],
    ids=["d", "decoder_layers", "gcn_layers", "ffn_multiplier"],
)
def test_train_config_beyond_a_model_bound_exits_two(tmp_path, capsys, field, value, allowed):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"model": {"heads": 1, field: value}}), encoding="utf-8")
    code = main(["train", "--config", str(cfg), "--corpus", tagged_corpus(tmp_path), "--out", "m"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and f"model.{field}" in err and allowed in err


@pytest.mark.parametrize("command", ["train", "generate"])
def test_feature_header_claiming_a_huge_width_exits_two(tmp_path, capsys, command):
    """The rows are checked against the header before the header sizes anything."""
    corpus = tagged_corpus(tmp_path, n=2)
    ckpt = str(tmp_path / "m.ckpt")
    if command == "generate":
        assert main(["train", "--config", write_config(tmp_path, epochs=0), "--corpus", corpus, "--out", ckpt]) == 0
    bad = tmp_path / "feats" / "r00.fmat"
    bad.write_text(f"FMAT v1 2 {10**12}\n1 2 3\n4 5 6\n", encoding="utf-8")
    capsys.readouterr()
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", "--config", write_config(tmp_path), "--corpus", corpus, "--out", out]
    else:
        argv = ["generate", "--model", ckpt, "--corpus", corpus, "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "row 1 has 3 values" in err


def test_generate_round_trip(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path)
    cfg = write_config(tmp_path, epochs=2)
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", "--config", cfg, "--corpus", corpus, "--out", ckpt]) == 0
    preds = tmp_path / "preds.jsonl"
    assert main(["generate", "--model", ckpt, "--corpus", corpus, "--out", str(preds)]) == 0
    rows = [json.loads(l) for l in preds.read_text().splitlines()]
    assert [r["id"] for r in rows] == ["r00", "r01", "r02"]
    assert all(isinstance(r["text"], str) for r in rows)


def test_generate_missing_checkpoint_exits_two(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path, n=1)
    code = main(["generate", "--model", str(tmp_path / "no.ckpt"), "--corpus", corpus, "--out", "p"])
    assert code == 2


def test_generate_malformed_checkpoint_exits_two(tmp_path, capsys):
    from dmdk.checkpoint import load_checkpoint, save_checkpoint

    corpus = tagged_corpus(tmp_path, n=2)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", write_config(tmp_path, epochs=0), "--corpus", corpus, "--out", str(ckpt)]) == 0
    tensors, meta = load_checkpoint(ckpt)
    del meta["vocab"]["tokens"]
    save_checkpoint(ckpt, list(tensors.items()), meta)
    capsys.readouterr()
    code = main(["generate", "--model", str(ckpt), "--corpus", corpus, "--out", str(tmp_path / "p")])
    assert code == 2
    assert str(ckpt) in capsys.readouterr().err


BAD_NODE_NAMES = [None, 5, "", "  "]


@pytest.mark.parametrize("name", BAD_NODE_NAMES)
def test_build_graph_base_with_a_bad_node_name_exits_two(tmp_path, capsys, name):
    base = tmp_path / "base.json"
    nodes = [{"name": "root", "kind": "root"}, {"name": name, "kind": "organ"}]
    base.write_text(json.dumps({"nodes": nodes, "edges": []}), encoding="utf-8")
    argv = ["build-graph", "--base", str(base), "--in", tagged_corpus(tmp_path, n=1), "--out-dir", str(tmp_path / "g")]
    assert main(argv) == 2
    assert f"{base}: nodes[1].name must be a nonempty string" in capsys.readouterr().err


def test_build_graph_base_with_an_unknown_edge_relation_exits_two(tmp_path, capsys):
    base = tmp_path / "base.json"
    nodes = [{"name": "root", "kind": "root"}, {"name": "lung", "kind": "organ"}]
    base.write_text(json.dumps({"nodes": nodes, "edges": [["root", "lung", "cause"]]}), encoding="utf-8")
    argv = ["build-graph", "--base", str(base), "--in", tagged_corpus(tmp_path, n=1), "--out-dir", str(tmp_path / "g")]
    assert main(argv) == 2
    assert f"{base}: edges[0] has unknown relation 'cause'" in capsys.readouterr().err


@pytest.mark.parametrize("name", BAD_NODE_NAMES)
def test_generate_on_a_checkpoint_with_a_bad_base_node_name_exits_two(tmp_path, capsys, name):
    from dmdk.checkpoint import load_checkpoint, save_checkpoint

    corpus = tagged_corpus(tmp_path, n=1)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", write_config(tmp_path, epochs=0), "--corpus", corpus, "--out", str(ckpt)]) == 0
    tensors, meta = load_checkpoint(ckpt)
    meta["base_graph"]["nodes"][1]["name"] = name
    save_checkpoint(ckpt, list(tensors.items()), meta)
    capsys.readouterr()
    assert main(["generate", "--model", str(ckpt), "--corpus", corpus, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "nodes[1].name must be a nonempty string" in err


def test_generate_on_a_checkpoint_with_a_repeated_node_name_exits_two(tmp_path, capsys):
    from dmdk.checkpoint import load_checkpoint, save_checkpoint

    corpus = tagged_corpus(tmp_path, n=1)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", write_config(tmp_path, epochs=0), "--corpus", corpus, "--out", str(ckpt)]) == 0
    tensors, meta = load_checkpoint(ckpt)
    names = meta["node_names"]
    names[1] = names[0]  # as many names as GCN embedding rows, one of them twice
    save_checkpoint(ckpt, list(tensors.items()), meta)
    capsys.readouterr()
    assert main(["generate", "--model", str(ckpt), "--corpus", corpus, "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: node embedding names must be unique" in err


@pytest.mark.parametrize("command", ["train", "tag", "build-graph", "generate"])
def test_json_nested_too_deeply_exits_two(tmp_path, capsys, command):
    from dmdk.checkpoint import MAGIC, VERSION

    deep = b"[" * 100_000
    path = tmp_path / "deep"
    if command == "generate":  # a checkpoint whose JSON header nests too deeply
        deep = MAGIC + struct.pack("<IQ", VERSION, len(deep)) + deep
    path.write_bytes(deep)
    corpus, out = tagged_corpus(tmp_path, n=1), str(tmp_path / "out")
    argv = {
        "train": ["--config", str(path), "--corpus", corpus, "--out", out],
        "tag": ["--in", str(path), "--out", out],
        "build-graph": ["--base", str(path), "--in", corpus, "--out-dir", out],
        "generate": ["--model", str(path), "--corpus", corpus, "--out", out],
    }[command]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "malformed JSON" in err


def test_tag_on_a_corpus_that_is_not_utf8_exits_two(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(b"\xff\xfe" + '{"id": "a", "features": ["x"]}\n'.encode("utf-16-le"))
    assert main(["tag", "--in", str(corpus), "--out", str(tmp_path / "o")]) == 2
    assert f"{corpus}:1: not UTF-8 text" in capsys.readouterr().err


def test_generate_on_a_version_1_checkpoint_exits_two(tmp_path, capsys):
    corpus = tagged_corpus(tmp_path, n=1)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", write_config(tmp_path, epochs=0), "--corpus", corpus, "--out", str(ckpt)]) == 0
    data = bytearray(ckpt.read_bytes())
    data[4:8] = (1).to_bytes(4, "little")
    ckpt.write_bytes(bytes(data))
    capsys.readouterr()
    code = main(["generate", "--model", str(ckpt), "--corpus", corpus, "--out", str(tmp_path / "p")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "per-head attention weights" in err and "retrain" in err


@pytest.mark.parametrize(
    "edit, named",
    [
        # the spec layout of files saved while the model still had these options
        (lambda spec: spec.update(pre_norm=False, learned_positions=None, fuse_mode="concat"),
         ["'pre_norm'", "'learned_positions'", "'fuse_mode'", "retrain"]),
        (lambda spec: spec.pop("heads"), ["'heads'"]),
    ],
    ids=["extra", "missing"],
)
def test_generate_on_a_checkpoint_whose_spec_fields_differ_exits_two(tmp_path, capsys, edit, named):
    from dmdk.checkpoint import load_checkpoint, save_checkpoint

    corpus = tagged_corpus(tmp_path, n=1)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", write_config(tmp_path, epochs=0), "--corpus", corpus, "--out", str(ckpt)]) == 0
    tensors, meta = load_checkpoint(ckpt)
    edit(meta["spec"])
    save_checkpoint(ckpt, list(tensors.items()), meta)
    capsys.readouterr()
    code = main(["generate", "--model", str(ckpt), "--corpus", corpus, "--out", str(tmp_path / "p")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and all(name in err for name in named)


def trained_checkpoint(tmp_path, capsys):
    """(checkpoint, corpus) of a zero-epoch ``train`` run on a one-record corpus."""
    corpus = tagged_corpus(tmp_path, n=1)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", write_config(tmp_path, epochs=0), "--corpus", corpus, "--out", str(ckpt)]) == 0
    capsys.readouterr()
    return ckpt, corpus


def generate_error(ckpt, corpus, tmp_path, capsys) -> str:
    """``generate``'s standard error, once it has exited with code 2."""
    assert main(["generate", "--model", str(ckpt), "--corpus", corpus, "--out", str(tmp_path / "p")]) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda meta: meta.pop("labels_fallback"), "is missing 'labels_fallback'"),
        (lambda meta: meta.update(spec=[]), "'spec' must be an object"),
        (lambda meta: meta.update(node_names=[1, 2]), "'node_names' must be a list of strings"),
    ],
    ids=["missing key", "spec", "node names"],
)
def test_generate_on_checkpoint_metadata_of_the_wrong_form_exits_two(tmp_path, capsys, edit, problem):
    from dmdk.checkpoint import load_checkpoint, save_checkpoint

    ckpt, corpus = trained_checkpoint(tmp_path, capsys)
    tensors, meta = load_checkpoint(ckpt)
    edit(meta)
    save_checkpoint(ckpt, list(tensors.items()), meta)
    assert f"{ckpt}: checkpoint metadata {problem}" in generate_error(ckpt, corpus, tmp_path, capsys)


def test_generate_on_a_checkpoint_tensor_of_an_impossible_shape_exits_two(tmp_path, capsys):
    # an empty tensor takes no payload bytes, whatever its other dimension
    ckpt, corpus = trained_checkpoint(tmp_path, capsys)
    data = ckpt.read_bytes()
    (length,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + length])
    header["tensors"].append({"name": "huge", "rows": 0, "cols": 2**63, "offset": 0})
    encoded = json.dumps(header).encode()
    ckpt.write_bytes(data[:8] + struct.pack("<Q", len(encoded)) + encoded + data[16 + length :])
    assert f"{ckpt}: tensor 'huge' has shape 0x{2**63}" in generate_error(ckpt, corpus, tmp_path, capsys)


def test_generate_on_a_checkpoint_that_shrinks_while_it_is_read_exits_two(tmp_path, capsys, monkeypatch):
    # the file is cut short after its size was taken: the header still checks
    # out against that size, but the last tensor cannot be read in full
    from types import SimpleNamespace

    from dmdk import checkpoint

    ckpt, corpus = trained_checkpoint(tmp_path, capsys)
    taken = SimpleNamespace(st_size=ckpt.stat().st_size)
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    monkeypatch.setattr(checkpoint, "os", SimpleNamespace(fstat=lambda fd: taken))
    assert "' extends past end of file" in generate_error(ckpt, corpus, tmp_path, capsys)


def test_train_on_a_report_that_is_not_a_string_exits_two(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    lines = tagged_corpus(tmp_path, n=2)
    rows = [json.loads(line) for line in open(lines, encoding="utf-8")]
    rows[1]["report"] = ["not", "a", "string"]
    write_jsonl(corpus, rows)
    argv = ["train", "--config", write_config(tmp_path), "--corpus", str(corpus), "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    assert f"{corpus}:2: 'report' must be a string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("entities", "heart", "'entities' must be a list"),
        ("entities", [{"text": " ", "type": "ANATOMY"}], "entities[0].text must be a nonempty string"),
        ("id", "", "missing required field 'id'"),
    ],
    ids=["entities", "entity-text", "id"],
)
def test_train_on_a_record_field_of_the_wrong_form_exits_two(tmp_path, capsys, field, value, message):
    corpus = tmp_path / "c.jsonl"
    rows = [json.loads(line) for line in open(tagged_corpus(tmp_path, n=2), encoding="utf-8")]
    rows[1][field] = value
    write_jsonl(corpus, rows)
    argv = ["train", "--config", write_config(tmp_path), "--corpus", str(corpus), "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    assert f"{corpus}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("empty", ["preds", "refs"])
def test_evaluate_on_a_file_with_no_records_exits_two(tmp_path, capsys, empty):
    files = {
        name: write_jsonl(tmp_path / f"{name}.jsonl", [] if name == empty else [{"id": "a", "text": "x"}])
        for name in ("preds", "refs")
    }
    argv = ["evaluate", "--preds", files["preds"], "--refs", files["refs"], "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    role = "prediction" if empty == "preds" else "reference"
    assert f"{files[empty]}: no {role} records" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_writes_report(tmp_path, capsys):
    preds = write_jsonl(
        tmp_path / "p.jsonl",
        [{"id": "a", "text": "the lungs are clear"}, {"id": "b", "text": "heart enlarged"}],
    )
    refs = write_jsonl(
        tmp_path / "r.jsonl",
        [{"id": "a", "text": "the lungs are clear"}, {"id": "b", "text": "the heart is enlarged"}],
    )
    out = tmp_path / "report.json"
    assert main(["evaluate", "--preds", preds, "--refs", refs, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "BLEU-4" in stdout and "CIDEr" in stdout
    report = json.loads(out.read_text())
    assert set(report) >= {"bleu", "rouge_l", "cider", "samples"}
    assert len(report["samples"]) == 2


def test_evaluate_id_mismatch_exits_two(tmp_path, capsys):
    preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x"}])
    refs = write_jsonl(tmp_path / "r.jsonl", [{"id": "z", "text": "x"}])
    assert main(["evaluate", "--preds", preds, "--refs", refs, "--out", str(tmp_path / "o")]) == 2
    assert "id mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seeds


def seed_argv(tmp_path, command, cfg):
    argv = [command, "--config", cfg]
    if command == "train":
        argv += ["--corpus", tagged_corpus(tmp_path, n=1), "--out", str(tmp_path / "m.ckpt")]
    return argv


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_negative_config_seed_exits_two(tmp_path, capsys, command):
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"train": {"seed": -1}}), encoding="utf-8")
    assert main(seed_argv(tmp_path, command, str(cfg))) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "'train.seed' is out of range: -1 (allowed >= 0)" in err


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_negative_seed_flag_exits_one_naming_the_flag(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as err:
        main(seed_argv(tmp_path, command, write_config(tmp_path)) + ["--seed", "-3"])
    assert err.value.code == 1
    assert "argument --seed: must be a non-negative integer, got -3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_on_tiny_config(tmp_path, capsys):
    cfg = write_config(tmp_path, d=4, heads=2, gcn_layers=1, max_length=12)
    assert main(["gradcheck", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "OK: max relative error" in out
    assert "proj.weight" in out  # per-tensor lines


def test_gradcheck_failure_exits_two(tmp_path, capsys, monkeypatch):
    import dmdk.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_gradient_check", lambda run: [("w", 0.5)])
    cfg = write_config(tmp_path)
    assert main(["gradcheck", "--config", cfg]) == 2
    assert "FAIL" in capsys.readouterr().err


def test_log_level_env_is_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DMDK_LOG", "DEBUG")
    preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x y"}])
    assert main(["evaluate", "--preds", preds, "--refs", preds, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "value, level",
    [("debug", logging.DEBUG), ("INFO", logging.INFO), ("bogus", logging.WARNING),
     ("basic_format", logging.WARNING), ("_styles", logging.WARNING), ("10", logging.WARNING)],
)
def test_log_level_env_sets_a_level_or_falls_back_to_warning(tmp_path, monkeypatch, value, level):
    monkeypatch.setenv("DMDK_LOG", value)
    monkeypatch.setattr(logging.root, "handlers", [])  # else basicConfig leaves the level alone
    before = logging.root.level
    preds = write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x y"}])
    try:
        assert main(["evaluate", "--preds", preds, "--refs", preds, "--out", str(tmp_path / "o")]) == 0
        assert logging.root.level == level
    finally:
        logging.root.setLevel(before)
