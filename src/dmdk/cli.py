"""Command-line pipeline driver.

Exit codes: 0 success, 1 usage, 2 validation or I/O failure, 3 runtime
divergence (non-finite values during training or generation). The DMDK_LOG
environment variable sets the logging level (DEBUG, INFO, ...); a value that
names no level leaves it at WARNING.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import config as config_mod
from .autograd import NonFiniteError
from .graph import (
    build_specific_graph,
    default_base_graph_path,
    export_graph,
    extract_relations,
    load_base_graph,
)
from .metrics import evaluate_corpus
from .model import (
    TrainingDiverged,
    generate_for_records,
    load_model,
    run_gradient_check,
    save_model,
    train,
)
from .text import Lexicon, default_lexicon_path, lexicon_tag, load_corpus, save_corpus, tokenize

logger = logging.getLogger(__name__)

GRADCHECK_THRESHOLD = 1e-4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this pipeline reserves 2 for
    # validation failures, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="dmdk",
        description="Radiology report generation with disease-topic and graph knowledge.",
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    tag = sub.add_parser("tag", help="fill missing entity annotations via a term lexicon")
    tag.add_argument("--lexicon", help="term TSV; the bundled lexicon when omitted")
    tag.add_argument("--in", dest="inp", required=True, help="corpus JSONL")
    tag.add_argument("--out", required=True, help="tagged corpus JSONL")

    bg = sub.add_parser("build-graph", help="write one specific graph per record")
    bg.add_argument("--base", help="base graph JSON; the bundled graph when omitted")
    bg.add_argument("--in", dest="inp", required=True, help="tagged corpus JSONL")
    bg.add_argument("--out-dir", required=True)
    bg.add_argument("--format", choices=("dot", "json"), default="json")

    tr = sub.add_parser("train", help="train a model and write a checkpoint")
    tr.add_argument("--config", required=True, help="run configuration JSON")
    tr.add_argument("--corpus", required=True, help="tagged corpus JSONL with reports")
    tr.add_argument("--out", required=True, help="checkpoint path; trace lands at <out>.trace")
    tr.add_argument("--seed", type=int, help="override train.seed")

    ge = sub.add_parser("generate", help="greedy-decode reports for a corpus")
    ge.add_argument("--model", required=True, help="checkpoint from the train command")
    ge.add_argument("--corpus", required=True, help="tagged corpus JSONL")
    ge.add_argument("--out", required=True, help="predictions JSONL")

    ev = sub.add_parser("evaluate", help="score predictions against references")
    ev.add_argument("--preds", required=True, help="predictions JSONL of {id, text}")
    ev.add_argument("--refs", required=True, help="references JSONL of {id, text}")
    ev.add_argument("--out", required=True, help="metric report JSON")

    gc = sub.add_parser("gradcheck", help="audit gradients against finite differences")
    gc.add_argument("--config", required=True, help="run configuration JSON (dims and seed)")
    gc.add_argument("--seed", type=int, help="override train.seed")
    return p


def cmd_tag(args) -> int:
    lexicon = Lexicon.load(args.lexicon or default_lexicon_path())
    records = load_corpus(args.inp)
    tagged = 0
    for rec in records:
        if rec.entities is not None:
            continue
        if not (rec.report and rec.report.strip()):
            raise ValueError(f"record {rec.id!r} has neither entities nor report text to tag")
        rec.entities = lexicon_tag(tokenize(rec.report), lexicon)
        tagged += 1
    save_corpus(args.out, records)
    print(f"tagged {tagged} of {len(records)} records -> {args.out}")
    return 0


def cmd_build_graph(args) -> int:
    base = load_base_graph(args.base or default_base_graph_path())
    records = load_corpus(args.inp)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec in records:
        if rec.entities is None:
            raise ValueError(f"record {rec.id!r} is untagged; run the tag command first")
        if any(part in rec.id for part in ("/", "\\", "..")):
            raise ValueError(f"record id {rec.id!r} is not usable as a file name")
        g = build_specific_graph(base, extract_relations(rec.entities))
        path = out_dir / f"{rec.id}.{args.format}"
        path.write_text(export_graph(g, args.format), encoding="utf-8")
    print(f"wrote {len(records)} graphs -> {out_dir}")
    return 0


def cmd_train(args) -> int:
    run = config_mod.load_config(args.config)
    if args.seed is not None:
        run.train.seed = args.seed
    print(json.dumps(config_mod.effective_dict(run), indent=2, sort_keys=True))
    records = load_corpus(args.corpus, require_report=True)
    base = load_base_graph(run.paths.base_graph or default_base_graph_path())
    model, trace = train(records, run, base)
    save_model(args.out, model, base, run.labels.fallback)
    trace_path = Path(str(args.out) + ".trace")
    trace_path.write_text("".join(f"{v!r}\n" for v in trace), encoding="utf-8")
    print(f"checkpoint -> {args.out}")
    print(f"loss trace -> {trace_path}")
    return 0


def cmd_generate(args) -> int:
    model, base, fallback = load_model(args.model)
    records = load_corpus(args.corpus)
    pairs = generate_for_records(model, records, base, fallback)
    with open(args.out, "w", encoding="utf-8") as fh:
        for rid, text in pairs:
            fh.write(json.dumps({"id": rid, "text": text}, ensure_ascii=False) + "\n")
    print(f"wrote {len(pairs)} predictions -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    report = evaluate_corpus(args.preds, args.refs)
    print(report.table())
    Path(args.out).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def cmd_gradcheck(args) -> int:
    run = config_mod.load_config(args.config)
    if args.seed is not None:
        run.train.seed = args.seed
    results = run_gradient_check(run)
    width = max(len(name) for name, _ in results)
    for name, err in results:
        print(f"{name:<{width}}  {err:.3e}")
    worst = max(err for _, err in results)
    if worst >= GRADCHECK_THRESHOLD:
        print(
            f"FAIL: max relative error {worst:.3e} >= {GRADCHECK_THRESHOLD:.0e}",
            file=sys.stderr,
        )
        return 2
    print(f"OK: max relative error {worst:.3e} < {GRADCHECK_THRESHOLD:.0e}")
    return 0


_HANDLERS = {
    "tag": cmd_tag,
    "build-graph": cmd_build_graph,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error(f"argument --seed: must be a non-negative integer, got {args.seed}")
    level = logging.getLevelName(os.environ.get("DMDK_LOG", "WARNING").upper())
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,  # "Level X" for unknown names
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _HANDLERS[args.command](args)
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NonFiniteError as e:
        print(f"error: non-finite value: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
