"""Run one workload: set-up, training and generation stages, checks and metrics.

The benchmark drives dmdk only through its library API. Training step times
come from timestamping the INFO record ``train()`` logs to ``dmdk.model``
once per epoch; every epoch is one step, because the batch holds all
training records.

Every operation (a training step, a decode, a correctness check) is counted
in a ``Ledger``. An operation that raises or a check that fails counts as
failed and is described in ``Ledger.failures``; nothing is swallowed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import logging
import math
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dmdk
import dmdk.model
from inputs import CHECKPOINT, CORPUS
from spec import Workload, config_dict
from tracing import TENSORS, Tracer

TARGET_LOSS = 0.1
FIRST_TOKEN_REPEATS = 3  # cap-1 decodes are short; repeats steady first_token_s
BOS, EOS = dmdk.Vocabulary.BOS, dmdk.Vocabulary.EOS


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def attempt(self, what: str, steps: int, fn, *args):
        """Run one operation of ``steps`` counted steps; None if it raised."""
        self.attempted += steps
        try:
            return fn(*args)
        except Exception:  # a failing operation is a measured outcome, reported below
            self.failed += steps
            self.failures.append(f"{what}: {traceback.format_exc()}")
            return None

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: " + "; ".join(problems[:5]))


class EpochClock(logging.Handler):
    """Timestamps each per-epoch record that train() logs."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.stamps: list[float] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.stamps.append(time.perf_counter())


@contextmanager
def epoch_clock():
    logger = logging.getLogger("dmdk.model")
    saved = (logger.level, logger.propagate)
    clock = EpochClock()
    logger.setLevel(logging.INFO)
    logger.propagate = False
    logger.addHandler(clock)
    try:
        yield clock
    finally:
        logger.removeHandler(clock)
        logger.setLevel(saved[0])
        logger.propagate = saved[1]


@contextmanager
def decode_cap(model, cap: int):
    """Decode with ``decode.max_length`` = cap (generate_for_records reads the spec)."""
    spec = model.spec
    model.spec = dataclasses.replace(spec, max_length=cap)
    try:
        yield
    finally:
        model.spec = spec


@dataclass
class Cycle:
    """One train() call: its start, per-epoch timestamps and loss trace."""

    start: float
    stamps: list[float]
    losses: list[float]

    def steps(self) -> list[float]:
        """Step times of epochs 2.. (epoch 1 also carries train()'s set-up)."""
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]

    def time_to_target(self) -> float | None:
        hit = next((i for i, v in enumerate(self.losses) if v < TARGET_LOSS), None)
        return None if hit is None else self.stamps[hit] - self.start


@dataclass
class Decode:
    record: int
    first_s: float  # best of FIRST_TOKEN_REPEATS decodes at decode.max_length = 1
    full_s: float
    ids: list[int]


@dataclass
class Pass:
    """What one stretch of work produced, for metrics and the identity check."""

    setup_s: list[float] = field(default_factory=list)
    cycles: list[Cycle] = field(default_factory=list)
    decodes: list[Decode] = field(default_factory=list)
    wall_s: float = 0.0
    train_tensors: int = 0
    decode_tensors: int = 0
    decode_rows: int = 0

    def outputs(self, n_decodes: int) -> tuple:
        """Loss trace of the first cycle and token ids of the first decodes."""
        losses = self.cycles[0].losses if self.cycles else []
        return losses, [d.ids for d in self.decodes[:n_decodes]]


def median(values):
    return statistics.median(values) if values else None


def replay_problems(model, base, fallback: str, rec, ids: list[int], cap: int,
                    fixed_length: bool) -> list[str]:
    """Teacher-forced replay of a greedy decode.

    One ``decoder_forward`` over BOS + ids must pick every emitted token as
    its row argmax, and EOS where the decode stopped before the cap. This
    stays a valid reference however decoding is implemented.
    """
    problems = []
    if fixed_length and len(ids) != cap:
        problems.append(f"{rec.id}: emitted {len(ids)} tokens, expected {cap}")
    labels = dmdk.model.fallback_labels(base, fallback)
    prep = dmdk.model.prepare_record(rec, model.vocab, base, labels, model.spec, with_report=False)
    x_fused, w_enh, m_enh = dmdk.model.encode_record(model, prep)
    logits = dmdk.model.decoder_forward([BOS] + ids, x_fused, w_enh, m_enh, model.decoder, model.embed)
    best = np.argmax(logits.value, axis=1)
    for i, token in enumerate(ids):
        if best[i] != token:
            problems.append(f"{rec.id}: position {i} emitted {token}, replay argmax {best[i]}")
    if len(ids) < cap and best[len(ids)] != EOS:
        problems.append(f"{rec.id}: stopped after {len(ids)} tokens, replay argmax {best[len(ids)]}")
    return problems


def report_problems(records, texts: list[str]) -> list[str]:
    """Greedy outputs must equal the reports exactly."""
    return [
        f"{rec.id}: {text!r} != {rec.report!r}"
        for rec, text in zip(records, texts)
        if text != rec.report
    ]


class WorkloadRun:
    def __init__(self, w: Workload, inputs: Path, ledger: Ledger):
        self.w = w
        self.inputs = inputs
        self.ledger = ledger
        self.tracer: Tracer | None = None
        self.records = None
        self.base = None
        self.gen = None  # (model, base graph, label fallback) used for decoding

    def _tensors(self) -> int:
        return self.tracer.counts[TENSORS] if self.tracer else 0

    def _rows(self) -> int:
        return self.tracer.counts["model.decoder_forward.rows"] if self.tracer else 0

    # -- stages -----------------------------------------------------------

    def load(self) -> None:
        self.records = dmdk.load_corpus(self.inputs / CORPUS)
        self.base = dmdk.load_base_graph(dmdk.graph.default_base_graph_path())

    def setup_once(self) -> float:
        """train() with zero epochs, then load_model + load_corpus +
        load_base_graph where the workload decodes a checkpoint."""
        start = time.perf_counter()
        dmdk.train(self.records, dmdk.parse_config(config_dict(self.w, 0)), self.base)
        if self.w.checkpoint:
            dmdk.load_model(self.inputs / CHECKPOINT)
            dmdk.load_corpus(self.inputs / CORPUS)
            dmdk.load_base_graph(dmdk.graph.default_base_graph_path())
        return time.perf_counter() - start

    def train_cycle(self, out: Pass, clock: EpochClock) -> None:
        w = self.w
        self.gen = None  # one model in memory at a time
        gc.collect()
        config = dmdk.parse_config(config_dict(w, w.epochs))
        clock.stamps.clear()
        tensors = self._tensors()
        start = time.perf_counter()
        model, losses = self.ledger.attempt(
            "train", w.epochs, dmdk.train, self.records, config, self.base
        ) or (None, None)
        if model is None:
            return
        out.train_tensors += self._tensors() - tensors
        cycle = Cycle(start, list(clock.stamps), [float(v) for v in losses])
        out.cycles.append(cycle)
        problems = [f"epoch {i + 1} loss {v!r}" for i, v in enumerate(cycle.losses) if not math.isfinite(v)]
        if len(cycle.stamps) != w.epochs:
            problems.append(f"{len(cycle.stamps)} epoch records for {w.epochs} epochs")
        self.ledger.check("training losses finite, one record per epoch", problems)
        if w.overfit:
            self.ledger.check(
                f"loss below {TARGET_LOSS}",
                [] if cycle.time_to_target() is not None else [f"final loss {cycle.losses[-1]!r}"],
            )
        if len(out.cycles) > 1:
            self.ledger.check(
                "loss trace identical across cycles",
                [] if cycle.losses == out.cycles[0].losses else ["loss traces differ"],
            )
        if not w.checkpoint:
            self.gen = (model, self.base, config.labels.fallback)

    def load_generator(self) -> None:
        """The model to decode with: a checkpoint, or the model just trained."""
        if self.w.checkpoint:
            self.gen = None
            gc.collect()
            self.gen = dmdk.load_model(self.inputs / CHECKPOINT)

    def decode(self, out: Pass, index: int) -> None:
        """Decode one record at cap 1, FIRST_TOKEN_REPEATS times, then at the full cap."""
        model, base, fallback = self.gen
        rec = self.records[index]
        timed = []
        for cap in [1] * FIRST_TOKEN_REPEATS + [self.w.decode_length]:
            tensors, rows = self._tensors(), self._rows()
            with decode_cap(model, cap):
                start = time.perf_counter()
                pairs = self.ledger.attempt(
                    "generate", 1, dmdk.generate_for_records, model, [rec], base, fallback
                )
                elapsed = time.perf_counter() - start
            if pairs is None:
                return
            timed.append((elapsed, model.vocab.encode(pairs[0][1].split())))
        out.decode_tensors += self._tensors() - tensors
        out.decode_rows += self._rows() - rows
        *firsts, (full_s, ids) = timed
        out.decodes.append(Decode(index, min(s for s, _ in firsts), full_s, ids))
        self.ledger.check("cap-1 decode is the first token", [
            f"{rec.id}: {first} vs {ids[:1]}" for _, first in firsts if first != ids[:1]
        ])

    def check_decodes(self, out: Pass) -> list[float]:
        """Checks on recorded decodes, run outside any trace; returns the BLEU-4
        of each pass over an overfit corpus."""
        model, base, fallback = self.gen
        first: dict[int, list[int]] = {}
        for d in out.decodes:
            rec = self.records[d.record]
            if d.record in first:
                self.ledger.check("decode repeatable", [] if first[d.record] == d.ids else
                                  [f"{rec.id}: decodes differ"])
                continue
            first[d.record] = d.ids
            self.ledger.check("teacher-forced replay", replay_problems(
                model, base, fallback, rec, d.ids, self.w.decode_length, self.w.checkpoint))
        scores = []
        n = self.w.decode_records
        for start in range(0, len(out.decodes) - n + 1, n) if self.w.overfit else ():
            texts = [" ".join(model.vocab.decode(d.ids)) for d in out.decodes[start : start + n]]
            self.ledger.check("outputs equal reports", report_problems(self.records, texts))
            scores.append(dmdk.bleu([t.split() for t in texts], [r.report.split() for r in self.records])[3])
            self.ledger.check("bleu4 is 1.0", [] if scores[-1] == 1.0 else [f"bleu4 {scores[-1]!r}"])
        return scores

    # -- passes -----------------------------------------------------------

    def round(self, out: Pass, clock: EpochClock) -> None:
        """One training cycle, then decodes_per_round decodes."""
        self.train_cycle(out, clock)
        self.load_generator()
        for k in range(self.w.decodes_per_round if self.gen is not None else 0):
            self.decode(out, k % self.w.decode_records)

    def measure(self, seconds: float) -> Pass:
        """The untraced run: set-up repetitions, then rounds for ``seconds``."""
        out = Pass()
        self.load()
        for _ in range(self.w.setup_reps):
            out.setup_s.append(self.setup_once())
            gc.collect()
        start = time.perf_counter()
        with epoch_clock() as clock:
            while True:
                began = time.perf_counter()
                self.round(out, clock)
                now = time.perf_counter()
                if now + (now - began) / 2 > start + seconds:  # not even half a round fits
                    break
        out.wall_s = time.perf_counter() - start
        return out

    def unit(self, tracer: Tracer | None) -> Pass:
        """One of everything: load, set up, one round."""
        self.tracer = tracer
        out = Pass()
        start = time.perf_counter()
        self.load()
        out.setup_s.append(self.setup_once())
        with epoch_clock() as clock:
            self.round(out, clock)
        out.wall_s = time.perf_counter() - start
        self.tracer = None
        return out


# -- metrics --------------------------------------------------------------


def end_to_end(w: Workload, out: Pass) -> tuple[dict, dict]:
    """End-to-end metrics, and figures that not every workload has.

    Timings take each operation's best repeat: the work repeats exactly, and
    contention from the rest of the machine only ever adds time, so the
    minimum is the steadiest estimate of the program's own cost. Medians
    over all repeats are in the details.
    """
    steps = [s for c in out.cycles for s in c.steps()]
    best_full: dict[int, float] = {}
    best_first: dict[int, float] = {}
    tokens: dict[int, int] = {}
    for d in out.decodes:
        best_full[d.record] = min(d.full_s, best_full.get(d.record, math.inf))
        best_first[d.record] = min(d.first_s, best_first.get(d.record, math.inf))
        tokens[d.record] = len(d.ids)
    # decode steps: the tokens, plus the step that chose EOS below the cap
    n_steps = {r: n + (n < w.decode_length) for r, n in tokens.items()}
    metrics = {
        "setup_s": median(out.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_records_per_s": w.records / min(steps) if steps else None,
        "final_loss": out.cycles[-1].losses[-1] if out.cycles else None,
        "generate_tokens_per_s": (
            sum(tokens.values()) / sum(best_full.values()) if tokens else None
        ),
        "generate_record_p50_s": median(list(best_full.values())),
        "first_token_s": median(list(best_first.values())),
        "token_gap_ms": median([
            (best_full[r] - best_first[r]) / (n - 1) * 1000.0 for r, n in n_steps.items() if n > 1
        ]),
    }
    details = {
        "train_steps": len(steps),
        "train_step_p50_s": median(steps),
        "decodes": len(out.decodes),
        "decode_p50_s": median([d.full_s for d in out.decodes]),
        "training_cycles": len(out.cycles),
    }
    targets = [t for c in out.cycles if (t := c.time_to_target()) is not None]
    if targets:
        details["time_to_target_s"] = median(targets)
    # a tail percentile is reported only with at least ten samples beyond it
    if len(steps) >= 100:
        p90 = statistics.quantiles(steps, n=10)[-1]
        details["train_step_p90_s"] = p90
        details["train_step_p90_beyond"] = sum(s > p90 for s in steps)
    return {k: v for k, v in metrics.items() if v is not None}, details


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass) -> dict:
    metrics: dict[str, float] = {}
    for name in tracer.traced:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    metrics.update((k, v) for k, v in tracer.counts.items() if k != TENSORS)
    builds = tracer.calls["graph.build_specific_graph"]
    if "graph.build_specific_graph" in tracer.traced and builds:
        metrics["graph.nodes_per_record"] = tracer.counts["graph.build_specific_graph.nodes"] / builds
    steps = sum(len(c.losses) for c in traced.cycles)
    tokens = sum(len(d.ids) for d in traced.decodes)
    if TENSORS not in tracer.missing:
        if steps:
            metrics["autograd.tensors_per_step"] = traced.train_tensors / steps
        if tokens:
            metrics["autograd.tensors_per_token"] = traced.decode_tensors / tokens
    if "model.decoder_forward" in tracer.traced and tokens:
        metrics["model.decoder_rows_per_token"] = traced.decode_rows / tokens
    metrics["trace_overhead"] = traced.wall_s / untraced.wall_s
    return metrics


def outputs_digest(losses: list[float], ids: list[list[int]]) -> str:
    return hashlib.sha256(repr((losses, ids)).encode()).hexdigest()


def run(w: Workload, inputs: Path, seconds: float, trace: bool) -> tuple[Ledger, dict, dict]:
    """Run the workload; returns the ledger, the metrics and a details record."""
    ledger = Ledger()
    if not trace:
        wr = WorkloadRun(w, inputs, ledger)
        out = wr.measure(seconds)
        scores = wr.check_decodes(out) if wr.gen is not None else []
        metrics, details = end_to_end(w, out)
        if scores:
            details["bleu4"] = min(scores)
        details["outputs_sha256"] = outputs_digest(*out.outputs(w.decodes_per_round))
        return ledger, metrics, details
    passes = []
    for tracer in (None, Tracer()):
        wr = WorkloadRun(w, inputs, ledger)
        if tracer is None:
            out = wr.unit(None)
        else:
            with tracer:
                out = wr.unit(tracer)
        if wr.gen is not None:
            wr.check_decodes(out)
        passes.append(out)
        del wr
        gc.collect()
    untraced, traced = passes
    same = untraced.outputs(w.decodes_per_round) == traced.outputs(w.decodes_per_round)
    ledger.check("traced run matches untraced bit for bit", [] if same else ["outputs differ"])
    details = {
        "outputs_sha256": outputs_digest(*traced.outputs(w.decodes_per_round)),
        "missing": tracer.missing,
    }
    return ledger, per_layer(tracer, traced, untraced), details
