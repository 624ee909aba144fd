"""Knowledge-fused transformer decoder: fusion, decoding, loss, and training.

Per record the pipeline is: project the visual features to X, enhance with
topic-tag attention (W') and graph attention (M'), fuse into X' by attending
X over the weighted mixture of the three, then decode autoregressively with
stacked cross-attention over X', W', and M'. Ablation modes substitute X for
the disabled knowledge branches and build none of their parameters: ``dke``
has no ``graph_attn`` or ``gcn``, ``ske`` no ``label_attn``, ``base`` none of
the three. So every parameter gets a gradient in every training step.

Every attention block (label, graph and fusion attention, and four per decoder
layer) is one packed ``MhaParams``: d x d tensors ``<block>.wq``, ``.wk``,
``.wv`` and ``.wo``. An encoder block is one autograd node from its queries
through ``wo``, over keys and values projected outside it.

Each decoder layer is five post-norm residual sublayers, each one autograd
node: ``attention.residual_attention`` four times (self, then X', W', M') and
``attention.feed_forward``. The token and positional rows are one node, the
fusion mix is one ``weighted_sum``, and the head is one ``affine``, like the
visual projection. So the graph keeps no ``wo`` product, biased product,
residual sum or scaled copy that no backward rule reads.

Training and greedy decoding share ``encode_batch`` and ``decoder_forward``.
Training runs one forward per batch: the records' visual rows, tags, graph
nodes and tokens are each stacked in record order, and every attention block
attends within each record's rows. The two functions that know the row
counts pack them once per call (``attention.pack``): ``encode_batch`` packs
the visual rows against the tags, the graph nodes and the visual rows, and
``decoder_forward`` the tokens against the tokens and the memory rows. X',
W' and M' all take X's rows as queries, so they share their rows and one
cross packing serves all three. Every block over the same rows reads the
same packing. Each record's graph operator is derived from its edges on
first use and kept for the run; a batch's operators form one block-diagonal
``SparseRows``. Decoding encodes a batch of one record, runs under
``no_grad`` and feeds one token per step through a ``DecoderCache``, which
serves that record's memories only: the packed cross-attention keys and
values over X', W' and M' are projected once per record and layer, and each
layer's self-attention keys and values grow in place by one row per token.
A lone record is a packing of one, so a decode step runs the attention code
that training runs.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .autograd import (
    Adam,
    NonFiniteError,
    SparseRows,
    Tensor,
    affine,
    backward,
    cross_entropy_logits,
    finite_diff_grad,
    leaf_gradients,
    no_grad,
    relative_error,
    weighted_sum,
)
from .attention import (
    FfnParams,
    LayerNormParams,
    MhaParams,
    Packing,
    embed_tokens,
    feed_forward,
    multi_head_attention,
    pack,
    project_kv,
    residual_attention,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .features import ProjectionParams, keep_views, load_features, project_features
from .graph import (
    GcnParams,
    GraphNode,
    KnowledgeGraph,
    NodeKind,
    build_specific_graph,
    entity_names,
    extract_relations,
    gcn_forward,
    graph_from_dict,
    graph_to_dict,
    normalized_adjacency,
)
from .text import CorpusRecord, Entity, EntityType, Vocabulary, tokenize
from .topics import extract_topic_labels, pool_tag_embeddings

logger = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite value; surfaced as exit code 3 by the CLI."""


class AblationMode(Enum):
    BASE = "base"
    DKE = "dke"
    SKE = "ske"
    FULL = "full"


@dataclass(frozen=True)
class FusionWeights:
    """Normalized mixture weights for X, W', M'; always positive, sum to 1."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        total = self.l1 + self.l2 + self.l3
        if not all(math.isfinite(v) and v > 0 for v in (self.l1, self.l2, self.l3)):
            raise ValueError(f"fusion weights must be positive and finite: {self}")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fusion weights must be normalized, got sum {total}")

    @classmethod
    def from_raw(cls, raw1: float, raw2: float, raw3: float) -> "FusionWeights":
        for v in (raw1, raw2, raw3):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"raw fusion weights must be positive and finite, got {v}")
        s = raw1 + raw2 + raw3
        return cls(raw1 / s, raw2 / s, raw3 / s)


@dataclass
class ModelSpec:
    """Structural hyperparameters; everything needed to rebuild parameter shapes."""

    d: int
    heads: int
    decoder_layers: int
    gcn_layers: int
    ffn_multiplier: int
    feature_dim: int
    fusion: FusionWeights
    ablation: AblationMode = AblationMode.FULL
    max_length: int = 64

    def __post_init__(self):
        for name in (
            "d", "heads", "decoder_layers", "gcn_layers", "ffn_multiplier", "feature_dim", "max_length"
        ):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"model spec field {name!r} out of range")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} is not divisible by heads={self.heads}")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["fusion"] = [self.fusion.l1, self.fusion.l2, self.fusion.l3]
        out["ablation"] = self.ablation.value
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelSpec":
        args = {f.name: obj[f.name] for f in fields(cls)}
        args["fusion"] = FusionWeights(*obj["fusion"])
        args["ablation"] = AblationMode(obj["ablation"])
        return cls(**args)


@dataclass
class DecoderLayerParams:
    self_attn: MhaParams
    cross_fused: MhaParams
    cross_labels: MhaParams
    cross_graph: MhaParams
    ffn: FfnParams
    norms: list[LayerNormParams]  # one per sublayer: self, fused, labels, graph, ffn


@dataclass
class DecoderParams:
    layers: list[DecoderLayerParams]
    head_w: Tensor  # d x vocab
    head_b: Tensor  # 1 x vocab


class ReportModel:
    """The trainable tensors of the streams ``spec.ablation`` runs, plus the
    structural spec and vocabulary. The one place that sets parameter shapes,
    from the validated ``spec``, and checks each checkpoint tensor against its
    shape on load; containers check none. Every tensor is drawn in one fixed
    order from one stream, skipping the streams the ablation does not run.
    ``node_names`` name the GCN's embedding rows; only full and ske read them."""

    def __init__(
        self,
        vocab: Vocabulary,
        node_names: Sequence[str],
        spec: ModelSpec,
        rng: np.random.Generator | None = None,
        state: dict[str, np.ndarray] | None = None,
    ):
        if rng is None and state is None:
            raise ValueError("need either an rng (fresh init) or a state dict (load)")
        self.vocab = vocab
        self.spec = spec
        self._rng = rng
        self._state = dict(state) if state is not None else None
        self._params: list[tuple[str, Tensor]] = []

        d = spec.d
        self.proj = ProjectionParams(
            self._param("proj.weight", spec.feature_dim, d, "weight"),
            self._param("proj.bias", 1, d, "zeros"),
        )
        self.embed = self._param("embed.tokens", len(vocab), d, "embed")
        # each stream's tensors exist only under the ablations that run it
        labels = spec.ablation in (AblationMode.FULL, AblationMode.DKE)
        graphs = spec.ablation in (AblationMode.FULL, AblationMode.SKE)
        self.label_attn = self._mha("label_attn", d, spec.heads) if labels else None
        self.graph_attn = self._mha("graph_attn", d, spec.heads) if graphs else None
        self.fusion_attn = self._mha("fusion_attn", d, spec.heads)
        self.gcn = None
        if graphs:
            table = self._param("gcn.embeddings", len(node_names) + 1, d, "embed")
            if state is None:  # no training graph has an UNK node, so a zero row stays zero
                table.value[-1] = 0.0
            layers = [self._param(f"gcn.layer{i}.weight", d, d, "weight") for i in range(spec.gcn_layers)]
            self.gcn = GcnParams(list(node_names), table, layers)
        layers = []
        for i in range(spec.decoder_layers):
            layers.append(
                DecoderLayerParams(
                    self._mha(f"dec.{i}.self", d, spec.heads),
                    self._mha(f"dec.{i}.fused", d, spec.heads),
                    self._mha(f"dec.{i}.labels", d, spec.heads),
                    self._mha(f"dec.{i}.graph", d, spec.heads),
                    self._ffn(f"dec.{i}.ffn", d, spec.ffn_multiplier),
                    [
                        LayerNormParams(
                            self._param(f"dec.{i}.norm{j}.gain", 1, d, "ones"),
                            self._param(f"dec.{i}.norm{j}.bias", 1, d, "zeros"),
                        )
                        for j in range(5)
                    ],
                )
            )
        self.decoder = DecoderParams(
            layers,
            self._param("head.weight", d, len(vocab), "weight"),
            self._param("head.bias", 1, len(vocab), "zeros"),
        )
        if self._state:  # such as a stream's that older versions built under every ablation
            unbuilt = f"{sorted(self._state)}; a {spec.ablation.value} model does not build them"
            raise ValueError(f"checkpoint has unexpected tensors: {unbuilt}, so retrain it")
        self._state = None
        self._rng = None

    def _param(self, name: str, rows: int, cols: int, kind: str) -> Tensor:
        if self._state is not None:
            arr = self._state.pop(name, None)
            if arr is None:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            if arr.shape != (rows, cols):
                raise ValueError(
                    f"checkpoint tensor {name!r} has shape {arr.shape}, expected {(rows, cols)}"
                )
        elif kind in ("weight", "embed"):
            # bitwise rng.normal(0, scale, shape), and the same generator state after
            arr = self._rng.standard_normal((rows, cols))
            arr *= 1.0 / math.sqrt(rows if kind == "weight" else cols)
        elif kind == "zeros":
            arr = np.zeros((rows, cols))
        elif kind == "ones":
            arr = np.ones((rows, cols))
        t = Tensor(arr)
        self._params.append((name, t))
        return t

    def _mha(self, prefix: str, d: int, n_heads: int) -> MhaParams:
        return MhaParams(
            self._param(f"{prefix}.wq", d, d, "weight"),
            self._param(f"{prefix}.wk", d, d, "weight"),
            self._param(f"{prefix}.wv", d, d, "weight"),
            self._param(f"{prefix}.wo", d, d, "weight"),
            n_heads,
        )

    def _ffn(self, prefix: str, d: int, multiplier: int) -> FfnParams:
        inner = multiplier * d
        return FfnParams(
            self._param(f"{prefix}.w1", d, inner, "weight"),
            self._param(f"{prefix}.b1", 1, inner, "zeros"),
            self._param(f"{prefix}.w2", inner, d, "weight"),
            self._param(f"{prefix}.b2", 1, d, "zeros"),
        )

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params)


# ---------------------------------------------------------------------------
# forward passes


def fuse_knowledge(
    x: Tensor, w_enh: Tensor, m_enh: Tensor, weights: FusionWeights, params: MhaParams, packing: Packing
) -> Tensor:
    """X' = MHA(X, l1*X + l2*W' + l3*M'); all inputs must be N x d, and
    ``packing`` (visual rows by visual rows) splits N into records stacked in
    order, each attending its own rows."""
    mix = weighted_sum((x, w_enh, m_enh), (weights.l1, weights.l2, weights.l3))
    return multi_head_attention(x, mix, params, packing)


KV = tuple[Tensor, Tensor]  # packed (keys, values) of one attention block

# Query and key row counts of each record of a packed batch, records in order.
Spans = tuple[Sequence[int], Sequence[int]]


@dataclass
class DecoderCache:
    """What one record's incremental decode reuses from step to step.

    ``cross[i]`` holds layer i's keys and values over X', W' and M', projected
    on the first step; ``self_kv[i]`` holds layer i's self-attention keys and
    values: two float64 buffers whose first ``length`` rows are the tokens fed
    so far, written in place and grown like ``attention.sinusoidal_rows``.
    """

    cross: list[tuple[KV, KV, KV]] = field(default_factory=list)
    self_kv: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    length: int = 0


def _cross_kv(layer: DecoderLayerParams, x_fused: Tensor, w_enh: Tensor, m_enh: Tensor):
    return (
        project_kv(x_fused, layer.cross_fused),
        project_kv(w_enh, layer.cross_labels),
        project_kv(m_enh, layer.cross_graph),
    )


def _self_kv(h: Tensor, layer_index: int, params: MhaParams, cache: DecoderCache | None) -> KV:
    if cache is None:
        return project_kv(h, params)
    start, stop = cache.length, cache.length + h.rows
    bufs = cache.self_kv[layer_index]
    if bufs[0].shape[0] < stop:
        grown = tuple(np.empty((max(stop, 2 * bufs[0].shape[0], 64), h.cols)) for _ in bufs)
        for new, old in zip(grown, bufs):
            new[:start] = old[:start]
        bufs = cache.self_kv[layer_index] = grown
    for buf, w in zip(bufs, (params.wk, params.wv)):
        rows = np.matmul(h.value, w.value, out=buf[start:stop])
        if not np.isfinite(rows).all():
            raise NonFiniteError("self-attention keys or values contain non-finite values")
    # every row was checked as it was written: no copy, no second scan
    return Tensor.checked(bufs[0][:stop]), Tensor.checked(bufs[1][:stop])


def decoder_forward(
    ids: Sequence[int],
    x_fused: Tensor,
    w_enh: Tensor,
    m_enh: Tensor,
    dec: DecoderParams,
    table: Tensor,
    cache: DecoderCache | None = None,
    spans: Spans | None = None,
) -> Tensor:
    """Logits for every position of the nonempty ``ids``: masked self-attention,
    then stacked cross-attention over X', W', M', then feed-forward, then the
    affine head. X', W' and M' have the same rows, as ``encode_batch`` builds
    them, so one packing serves all three.

    Without a cache ``ids`` is the whole BOS-prefixed sequence. With one, ``ids``
    are the next tokens after the ``cache.length`` already fed: the cross-attention
    keys and values come from the cache, projected on its first call, and each
    layer's self-attention keys and values grow by len(ids) rows. A cache keeps
    no graph and serves one record's memories: every call with it runs inside
    ``no_grad()`` and passes the same X', W' and M', as ``generate_greedy`` does.

    ``spans`` packs a batch without a cache: (token rows, memory rows) of each
    record, stacked in order. Each record's tokens take positions from 0 and
    attend only their own tokens and memory rows. Without ``spans`` the ids
    are one record's, attending every memory row: a packing of one.
    """
    start = 0
    if cache is not None:
        start = cache.length
        if not cache.cross:
            cache.cross = [_cross_kv(layer, x_fused, w_enh, m_enh) for layer in dec.layers]
            cache.self_kv = [(np.empty((0, table.cols)),) * 2 for _ in dec.layers]
    tokens, memory_rows = ([len(ids)], [x_fused.rows]) if spans is None else spans
    self_packing, cross = pack(tokens, [start + n for n in tokens]), pack(tokens, memory_rows)
    h = embed_tokens(ids, table, start, None if spans is None else tokens)
    for i, layer in enumerate(dec.layers):
        fused, labels, graph = (
            cache.cross[i] if cache is not None else _cross_kv(layer, x_fused, w_enh, m_enh)
        )
        norms = layer.norms
        self_kv = _self_kv(h, i, layer.self_attn, cache)
        h = residual_attention(h, *self_kv, layer.self_attn, norms[0], start, self_packing)
        h = residual_attention(h, *fused, layer.cross_fused, norms[1], None, cross)
        h = residual_attention(h, *labels, layer.cross_labels, norms[2], None, cross)
        h = residual_attention(h, *graph, layer.cross_graph, norms[3], None, cross)
        h = feed_forward(h, layer.ffn, norms[4])
    if cache is not None:
        cache.length += len(ids)
    return affine(h, dec.head_w, dec.head_b)


def generate_greedy(
    x_fused: Tensor,
    w_enh: Tensor,
    m_enh: Tensor,
    dec: DecoderParams,
    table: Tensor,
    max_length: int,
) -> list[int]:
    """Argmax decoding (ties break toward the lowest index) until EOS or the cap.

    Feeds one token per step through a ``DecoderCache``, under ``no_grad``.
    The returned ids exclude BOS and EOS.
    """
    cache = DecoderCache()
    token = Vocabulary.BOS
    out: list[int] = []
    with no_grad():
        while len(out) < max_length:
            logits = decoder_forward([token], x_fused, w_enh, m_enh, dec, table, cache)
            token = int(np.argmax(logits.value[-1]))
            if token == Vocabulary.EOS:
                break
            out.append(token)
    return out


# ---------------------------------------------------------------------------
# record preparation and loss


@dataclass
class PreparedRecord:
    """A corpus record with everything static precomputed (features read,
    tokens encoded, tags mined, specific graph built). The graph's GCN
    operator is derived on first use and kept for the run."""

    id: str
    raw_views: list[np.ndarray]
    tag_token_ids: list[list[int]]
    graph: KnowledgeGraph | None
    input_ids: list[int] | None = None
    target_ids: list[int] | None = None

    @cached_property
    def node_names(self) -> list[str]:
        return self.graph.names if self.graph is not None else []

    @cached_property
    def a_hat(self) -> SparseRows:
        """The graph's ``normalized_adjacency``: a batch's block-diagonal
        operator is composed from these."""
        return normalized_adjacency(self.graph)


def fallback_labels(base: KnowledgeGraph, which: str = "all") -> list[str]:
    if which == "all":
        return entity_names(base)
    if which == "findings":
        return entity_names(base, [NodeKind.FINDING])
    raise ValueError(f"unknown fallback label set {which!r}; expected 'all' or 'findings'")


def prepare_record(
    rec: CorpusRecord,
    vocab: Vocabulary,
    base_graph: KnowledgeGraph,
    base_labels: Sequence[str],
    spec: ModelSpec,
    with_report: bool = True,
    raw_views: list[np.ndarray] | None = None,
) -> PreparedRecord:
    """Read the record's feature files (unless its ``raw_views`` are given),
    mine its tags, build its graph and encode its report."""
    if raw_views is None:
        raw_views = [load_features(p) for p in rec.features]
    for v in raw_views:
        if v.shape[1] != spec.feature_dim:
            raise ValueError(
                f"record {rec.id!r}: feature width {v.shape[1]} does not match "
                f"configured feature_dim {spec.feature_dim}"
            )
    mode = spec.ablation
    tag_token_ids: list[list[int]] = []
    graph = None
    if mode is not AblationMode.BASE:
        if rec.entities is None:
            raise ValueError(
                f"record {rec.id!r} has no entity annotations; run the tag command first"
            )
        if mode in (AblationMode.FULL, AblationMode.DKE):
            labels = extract_topic_labels(rec.entities, base_labels)
            tag_token_ids = [vocab.encode(tag.split()) for tag in labels.tags]
        if mode in (AblationMode.FULL, AblationMode.SKE):
            graph = build_specific_graph(base_graph, extract_relations(rec.entities))
    input_ids = target_ids = None
    if with_report:  # ``train`` has checked that every record has report text
        ids = vocab.encode(tokenize(rec.report))
        input_ids = [Vocabulary.BOS] + ids
        target_ids = ids + [Vocabulary.EOS]
    return PreparedRecord(rec.id, raw_views, tag_token_ids, graph, input_ids, target_ids)


def encode_batch(
    model: ReportModel, batch: Sequence[PreparedRecord]
) -> tuple[Tensor, Tensor, Tensor, list[int]]:
    """(X', W', M') of every record under the model's ablation mode, stacked in
    record order, and each record's row count in them. One projection covers
    every view; tags and graph nodes (under one block-diagonal operator) are
    stacked the same way, and each record attends its own rows only."""
    spec = model.spec
    x = project_features(np.concatenate([v for rec in batch for v in rec.raw_views]), model.proj)
    rows = [sum(map(len, rec.raw_views)) for rec in batch]
    w_enh = m_enh = x
    if spec.ablation in (AblationMode.FULL, AblationMode.DKE):
        w = pool_tag_embeddings([ids for rec in batch for ids in rec.tag_token_ids], model.embed)
        tags = [len(rec.tag_token_ids) for rec in batch]
        w_enh = multi_head_attention(x, w, model.label_attn, pack(rows, tags))
    if spec.ablation in (AblationMode.FULL, AblationMode.SKE):
        a_hat = SparseRows.block_diagonal([rec.a_hat for rec in batch])
        m = gcn_forward([name for rec in batch for name in rec.node_names], a_hat, model.gcn)
        nodes = [len(rec.node_names) for rec in batch]
        m_enh = multi_head_attention(x, m, model.graph_attn, pack(rows, nodes))
    x_fused = fuse_knowledge(x, w_enh, m_enh, spec.fusion, model.fusion_attn, pack(rows, rows))
    return x_fused, w_enh, m_enh, rows


def encode_record(model: ReportModel, rec: PreparedRecord) -> tuple[Tensor, Tensor, Tensor]:
    """Produce (X', W', M') for one record under the model's ablation mode."""
    return encode_batch(model, [rec])[:3]


def teacher_forcing_loss(batch: Sequence[PreparedRecord], model: ReportModel) -> Tensor:
    """Mean over records of the per-record mean token NLL (BOS-fed, EOS-terminated),
    from one forward over the whole batch: row i of record r weighs 1 / (B n_r).
    Every record was prepared with its report."""
    x_fused, w_enh, m_enh, rows = encode_batch(model, batch)
    ids = [i for rec in batch for i in rec.input_ids]
    lengths = np.array([len(rec.input_ids) for rec in batch])
    logits = decoder_forward(ids, x_fused, w_enh, m_enh, model.decoder, model.embed, spans=(lengths, rows))
    weights = np.repeat(1.0 / (len(batch) * lengths), lengths)
    return cross_entropy_logits(logits, [t for rec in batch for t in rec.target_ids], weights)


# ---------------------------------------------------------------------------
# training


def _model_and_records(
    run, records: Sequence[CorpusRecord], views: Sequence[list[np.ndarray]], vocab: Vocabulary,
    base_graph: KnowledgeGraph, base_labels: Sequence[str],
) -> tuple[ReportModel, list[PreparedRecord]]:
    """The model ``run`` asks for, seeded from stream [seed, 0], and ``records``
    prepared for it with their feature maps ``views``. Its nodes are the base
    graph's names, then the records' entity texts the base graph lacks, sorted."""
    novel = sorted(
        {
            e.text
            for r in records
            if r.entities
            for e in r.entities
            if base_graph.node_index(e.text) is None
        }
    )
    m = run.model
    spec = ModelSpec(
        d=m.d,
        heads=m.heads,
        decoder_layers=m.decoder_layers,
        gcn_layers=m.gcn_layers,
        ffn_multiplier=m.ffn_multiplier,
        feature_dim=views[0][0].shape[1],
        fusion=FusionWeights.from_raw(run.fusion.lambda1, run.fusion.lambda2, run.fusion.lambda3),
        ablation=AblationMode(run.ablation),
        max_length=run.decode.max_length,
    )
    model = ReportModel(vocab, base_graph.names + novel, spec, rng=np.random.default_rng([run.train.seed, 0]))
    prepared = [
        prepare_record(r, vocab, base_graph, base_labels, spec, raw_views=v)
        for r, v in zip(records, views)
    ]
    return model, prepared


def train(records: Sequence[CorpusRecord], run, base_graph: KnowledgeGraph):
    """Train a fresh model on the given records; returns (model, per-epoch losses).

    Deterministic for a fixed config seed: initialization and batch shuffling
    draw from independent seeded streams and nothing else consumes randomness.
    """
    if not records:
        raise ValueError("training corpus is empty")
    for rec in records:
        if not (rec.report and rec.report.strip()):
            raise ValueError(f"record {rec.id!r} has no report text")
    vocab = Vocabulary.build((tokenize(r.report) for r in records), run.train.min_freq)
    views = keep_views(r.features for r in records)
    base_labels = fallback_labels(base_graph, run.labels.fallback)
    model, prepared = _model_and_records(run, records, views, vocab, base_graph, base_labels)
    opt = Adam(
        model.parameters(),
        lr=run.train.lr,
        weight_decay=run.train.weight_decay,
    )
    shuffle_rng = np.random.default_rng([run.train.seed, 1])
    trace: list[float] = []
    for epoch in range(run.train.epochs):
        order = shuffle_rng.permutation(len(prepared))
        epoch_total = 0.0
        try:
            for start in range(0, len(prepared), run.train.batch):
                batch = [prepared[i] for i in order[start : start + run.train.batch]]
                loss = teacher_forcing_loss(batch, model)
                opt.step(leaf_gradients(loss))
                epoch_total += float(loss.value[0, 0]) * len(batch)
        except NonFiniteError as e:
            raise TrainingDiverged(f"training diverged at epoch {epoch + 1}: {e}") from e
        trace.append(epoch_total / len(prepared))
        logger.info("epoch %d/%d loss %.6f", epoch + 1, run.train.epochs, trace[-1])
    return model, trace


def generate_for_records(
    model: ReportModel,
    records: Sequence[CorpusRecord],
    base_graph: KnowledgeGraph,
    fallback: str = "all",
) -> list[tuple[str, str]]:
    """Greedy reports for each record, as (id, text) pairs in corpus order."""
    base_labels = fallback_labels(base_graph, fallback)
    out = []
    with no_grad():
        for rec in records:
            prep = prepare_record(rec, model.vocab, base_graph, base_labels, model.spec, with_report=False)
            x_fused, w_enh, m_enh = encode_record(model, prep)
            ids = generate_greedy(x_fused, w_enh, m_enh, model.decoder, model.embed, model.spec.max_length)
            out.append((rec.id, " ".join(model.vocab.decode(ids))))
    return out


# ---------------------------------------------------------------------------
# checkpoint glue


def model_meta(model: ReportModel, base_graph: KnowledgeGraph, fallback: str) -> dict:
    """Everything generate-time needs travels with the weights: the structural
    spec, the vocabulary, the GCN's node list (full and ske only), the base
    graph, and the fallback rule."""
    meta = {
        "spec": model.spec.to_dict(),
        "vocab": {"tokens": model.vocab.tokens, "min_freq": model.vocab.min_freq},
        "base_graph": graph_to_dict(base_graph),
        "labels_fallback": fallback,
    }
    if model.gcn is not None:  # the GCN's embedding rows are the only reader
        meta["node_names"] = model.gcn.names
    return meta


def save_model(path, model: ReportModel, base_graph: KnowledgeGraph, fallback: str = "all") -> None:
    save_checkpoint(
        path,
        [(n, p.value) for n, p in model.parameters()],
        model_meta(model, base_graph, fallback),
    )


def load_model(path) -> tuple[ReportModel, KnowledgeGraph, str]:
    """Rebuild a saved model; malformed metadata raises ValueError naming ``path``."""
    state, meta = load_checkpoint(path)

    def bad(problem: str) -> ValueError:
        return ValueError(f"{path}: checkpoint metadata {problem}")

    for key in ("spec", "vocab", "base_graph", "labels_fallback"):
        if key not in meta:
            raise bad(f"is missing {key!r}")
    vocab, spec = meta["vocab"], meta["spec"]
    if not (
        isinstance(vocab, dict)
        and isinstance(vocab.get("tokens"), list)
        and all(isinstance(t, str) for t in vocab["tokens"])
        and type(vocab.get("min_freq")) is int
    ):
        raise bad("'vocab' needs a 'tokens' list of strings and an integer 'min_freq'")
    if not isinstance(spec, dict):
        raise bad("'spec' must be an object")
    names = [f.name for f in fields(ModelSpec)]
    missing = [n for n in names if n not in spec]
    if missing:
        raise bad(f"'spec' is missing {', '.join(map(repr, missing))}")
    unknown = [k for k in spec if k not in names]
    if unknown:  # such as options an older version had
        raise bad(f"'spec' has unknown fields {', '.join(map(repr, unknown))}; retrain the model")
    if meta["labels_fallback"] not in ("all", "findings"):
        raise bad(f"'labels_fallback' must be 'all' or 'findings', got {meta['labels_fallback']!r}")
    try:
        spec = ModelSpec.from_dict(spec)
    except (TypeError, ValueError) as e:
        raise bad(f"'spec' is invalid: {e}") from None
    node_names = []
    if spec.ablation in (AblationMode.FULL, AblationMode.SKE):  # only a GCN reads them
        if "node_names" not in meta:
            raise bad("is missing 'node_names'")
        node_names = meta["node_names"]
        if not (isinstance(node_names, list) and all(isinstance(n, str) for n in node_names)):
            raise bad("'node_names' must be a list of strings")
    try:
        vocab = Vocabulary(vocab["tokens"], vocab["min_freq"])
        model = ReportModel(vocab, node_names, spec, state=state)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    base_graph = graph_from_dict(meta["base_graph"], where=f"{path}: checkpoint base graph")
    return model, base_graph, meta["labels_fallback"]


# ---------------------------------------------------------------------------
# self-contained gradient audit


def run_gradient_check(run) -> list[tuple[str, float]]:
    """Audit every trainable tensor against central differences.

    Builds a deterministic micro-fixture from the config's dimensions and seed
    (two records, a two-node base graph, a 16-token vocabulary) so the audit
    needs no external files. Returns (tensor name, max relative error) pairs.
    """
    records = [
        CorpusRecord("fixture-0", [], "heart border is enlarged now .",
                     [Entity("heart", EntityType.ANATOMY), Entity("enlarged", EntityType.OBSERVATION)]),
        CorpusRecord("fixture-1", [], "left lung field looks hazy",
                     [Entity("lung", EntityType.ANATOMY), Entity("hazy", EntityType.OBSERVATION)]),
    ]
    base_graph = KnowledgeGraph(
        [GraphNode("root", NodeKind.ROOT), GraphNode("lung", NodeKind.ORGAN)],
        {(0, 1): None},
    )
    feat_rng = np.random.default_rng([run.train.seed, 2])
    views = [[feat_rng.normal(0.0, 1.0, (2, 4))] for _ in records]
    # vocab is forced to min_freq=1 so every fixture token survives
    vocab = Vocabulary.build((tokenize(r.report) for r in records), min_freq=1)
    model, prepared = _model_and_records(
        replace(run, ablation="full"), records, views, vocab, base_graph, fallback_labels(base_graph)
    )

    analytic = backward(teacher_forcing_loss(prepared, model))

    def objective() -> float:
        return float(teacher_forcing_loss(prepared, model).value[0, 0])

    results = []
    for name, p in model.parameters():
        numeric = finite_diff_grad(objective, [p])[0]
        err = float(relative_error(numeric, analytic[p]).max())
        results.append((name, err))
    return results
