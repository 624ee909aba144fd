import json

import numpy as np
import pytest

from dmdk.cli import main
from dmdk.config import effective_dict
from dmdk.text import load_corpus

from conftest import OVERFIT_ENTITIES, OVERFIT_REPORTS, build_corpus, make_config


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
    from dmdk.features import save_features

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


def test_train_invalid_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": {"d": 10, "heads": 4}}), encoding="utf-8")
    corpus = tagged_corpus(tmp_path)
    code = main(["train", "--config", str(cfg), "--corpus", corpus, "--out", "m"])
    assert code == 2
    assert "model.d" in capsys.readouterr().err


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
