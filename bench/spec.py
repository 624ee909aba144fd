"""The benchmark workloads: their shapes, run configurations and time split.

Every workload runs the whole pipeline a user runs (set up, train, greedy
decode, check), so every run reports every end-to-end metric. The workloads
differ in shape, which moves the cost to different layers:

* ``desk``: the 8-record overfit corpus at d=32. Python overhead in the
  autograd engine dominates and BLAS does almost no work; decodes are short
  and end at EOS.
* ``full``: d=512 with two 49x1024 views per record. Training is arithmetic
  (matmuls, backward, Adam over ~22M parameters, the GCN); generation is
  64-token greedy decodes from a seeded random model read back from a
  checkpoint, each step recomputing the whole prefix.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    # model and optimiser
    d: int
    heads: int
    decoder_layers: int
    gcn_layers: int
    ffn_multiplier: int
    lr: float
    weight_decay: float
    # generated inputs
    records: int
    views: int  # feature files per record
    view_rows: int
    view_cols: int
    report_tokens: tuple[int, int] | None  # inclusive length range; None: the overfit corpus
    # The run repeats rounds until its seconds are spent: one train(epochs) call
    # on every record (one step per epoch), then decodes_per_round greedy
    # decodes, each at cap 1 and at decode_length, cycling through the first
    # decode_records records. Rounds spread every metric's samples over the run.
    epochs: int
    decodes_per_round: int
    decode_records: int
    decode_length: int
    # decode a seeded random model loaded with load_model, whose PAD/BOS/EOS
    # logits sit far below the rest, so every decode runs to the cap; set-up
    # then also times the load. Otherwise decode the model just trained.
    checkpoint: bool
    setup_reps: int  # setup_s is the median of this many set-ups
    overfit: bool  # loss must fall below 0.1 and decodes must reproduce the reports


DESK = Workload(
    name="desk",
    d=32,
    heads=2,
    decoder_layers=1,
    gcn_layers=2,
    ffn_multiplier=2,
    lr=3e-3,
    weight_decay=0.0,
    records=8,
    views=1,
    view_rows=4,
    view_cols=4,
    report_tokens=None,
    epochs=100,  # loss falls below 0.1 near epoch 50; all reports reproduce by 100
    decodes_per_round=48,
    decode_records=8,
    decode_length=16,
    checkpoint=False,
    setup_reps=21,
    overfit=True,
)

FULL = Workload(
    name="full",
    d=512,
    heads=8,
    decoder_layers=3,
    gcn_layers=2,
    ffn_multiplier=4,
    lr=1e-4,
    weight_decay=1e-3,
    records=4,
    views=2,
    view_rows=49,
    view_cols=1024,
    report_tokens=(35, 45),
    epochs=5,
    decodes_per_round=2,
    decode_records=1,  # at d=512 every record decodes 64 tokens; repeats beat variety
    decode_length=64,
    checkpoint=True,
    setup_reps=3,
    overfit=False,
)

WORKLOADS = {w.name: w for w in (DESK, FULL)}


def config_dict(w: Workload, epochs: int, seed: int = 0) -> dict:
    """The run configuration, as the JSON object ``dmdk.parse_config`` takes.

    One step per epoch: the batch holds every record.
    """
    return {
        "model": {
            "d": w.d,
            "heads": w.heads,
            "decoder_layers": w.decoder_layers,
            "gcn_layers": w.gcn_layers,
            "ffn_multiplier": w.ffn_multiplier,
        },
        "train": {
            "lr": w.lr,
            "batch": w.records,
            "weight_decay": w.weight_decay,
            "epochs": epochs,
            "seed": seed,
            "min_freq": 1,
        },
        "decode": {"max_length": w.decode_length},
    }
