"""README's ``## Library use`` Python block runs as written."""

import json
import re
import shutil
from pathlib import Path

from dmdk.cli import main

from conftest import OVERFIT_ALIASES, OVERFIT_ENTITIES, OVERFIT_REPORTS, build_corpus

ROOT = Path(__file__).resolve().parent.parent


def library_use_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_use_block_runs_on_the_overfit_corpus(tmp_path, monkeypatch, capsys):
    corpus = build_corpus(tmp_path, OVERFIT_REPORTS, OVERFIT_ENTITIES, feature_alias=OVERFIT_ALIASES)
    corpus.rename(tmp_path / "tagged.jsonl")
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "desk_scale.json", tmp_path / "configs")
    # the checkpoint the block loads: a one-epoch `dmdk train` run is enough
    config = json.loads((ROOT / "configs" / "desk_scale.json").read_text(encoding="utf-8"))
    config["train"]["epochs"] = 1
    (tmp_path / "one_epoch.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", "one_epoch.json", "--corpus", "tagged.jsonl", "--out", "model.ckpt"]) == 0
    capsys.readouterr()

    scope = {}
    exec(compile(library_use_block(), "README.md", "exec"), scope)

    printed = capsys.readouterr().out.splitlines()
    assert printed[:8] == [f"r{i:02d} {report}" for i, report in enumerate(OVERFIT_REPORTS)]
    assert scope["model"].spec.d == config["model"]["d"]
    assert (scope["before"] != scope["w"].value).all()
