"""Knowledge-fused transformer decoder: fusion, decoding, loss, and training.

Per record the pipeline is: project the visual features to X, enhance with
topic-tag attention (W') and graph attention (M'), fuse into X' by attending
X over the weighted mixture of the three, then decode autoregressively with
stacked cross-attention over X', W', and M'. Ablation modes substitute X for
the disabled knowledge branches, leaving parameter shapes untouched.

Every attention block (label, graph and fusion attention, and four per decoder
layer) is one packed ``MhaParams``: d x d tensors ``<block>.wq``, ``.wk``,
``.wv`` and ``.wo``, with all heads attended in one autograd node.

Training and greedy decoding share ``decoder_forward``. Training feeds the
whole sequence at once. Decoding runs under ``no_grad`` and feeds one token
per step through a ``DecoderCache``: the packed cross-attention keys and values
over X', W' and M' are projected once per record and layer, and each layer's
self-attention keys and values grow by one row per token.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .autograd import (
    Adam,
    NonFiniteError,
    Tensor,
    add,
    cross_entropy_logits,
    concat_rows,
    finite_diff_grad,
    matmul,
    layer_norm,
    no_grad,
    parameter_gradients,
    relative_error,
    scale,
)
from .attention import (
    EmbeddingTable,
    FfnParams,
    MhaParams,
    attend,
    embed_tokens,
    feed_forward,
    multi_head_attention,
    project_kv,
)
from .features import ProjectionParams, fuse_views, load_features, project_features
from .graph import (
    GcnParams,
    GraphNode,
    KnowledgeGraph,
    NodeKind,
    build_specific_graph,
    entity_names,
    extract_relations,
    gcn_forward,
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
    pre_norm: bool = False
    learned_positions: int | None = None
    fuse_mode: str = "concat"

    def __post_init__(self):
        for name in (
            "d", "heads", "decoder_layers", "gcn_layers", "ffn_multiplier", "feature_dim", "max_length"
        ):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"model spec field {name!r} out of range")
        if self.learned_positions is not None and (
            type(self.learned_positions) is not int or self.learned_positions < 1
        ):
            raise ValueError("model spec field 'learned_positions' out of range")
        if type(self.pre_norm) is not bool:
            raise ValueError("model spec field 'pre_norm' must be a boolean")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} is not divisible by heads={self.heads}")
        if self.fuse_mode not in ("concat", "mean"):
            raise ValueError(f"unknown fuse_mode {self.fuse_mode!r}")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "heads": self.heads,
            "decoder_layers": self.decoder_layers,
            "gcn_layers": self.gcn_layers,
            "ffn_multiplier": self.ffn_multiplier,
            "feature_dim": self.feature_dim,
            "fusion": [self.fusion.l1, self.fusion.l2, self.fusion.l3],
            "ablation": self.ablation.value,
            "max_length": self.max_length,
            "pre_norm": self.pre_norm,
            "learned_positions": self.learned_positions,
            "fuse_mode": self.fuse_mode,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelSpec":
        l1, l2, l3 = obj["fusion"]
        return cls(
            d=obj["d"],
            heads=obj["heads"],
            decoder_layers=obj["decoder_layers"],
            gcn_layers=obj["gcn_layers"],
            ffn_multiplier=obj["ffn_multiplier"],
            feature_dim=obj["feature_dim"],
            fusion=FusionWeights(l1, l2, l3),
            ablation=AblationMode(obj["ablation"]),
            max_length=obj["max_length"],
            pre_norm=obj["pre_norm"],
            learned_positions=obj["learned_positions"],
            fuse_mode=obj["fuse_mode"],
        )


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


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
    pre_norm: bool = False


class ReportModel:
    """All trainable tensors plus the structural spec and vocabulary."""

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
        self.node_names = list(node_names)
        self.spec = spec
        self._rng = rng
        self._state = dict(state) if state is not None else None
        self._params: list[tuple[str, Tensor]] = []

        d = spec.d
        self.proj = ProjectionParams(
            self._param("proj.weight", spec.feature_dim, d, "weight"),
            self._param("proj.bias", 1, d, "zeros"),
        )
        positions = None
        if spec.learned_positions is not None:
            positions = self._param("embed.positions", spec.learned_positions, d, "embed")
        self.embed = EmbeddingTable(self._param("embed.tokens", len(vocab), d, "embed"), positions)
        self.label_attn = self._mha("label_attn", d, spec.heads)
        self.graph_attn = self._mha("graph_attn", d, spec.heads)
        self.fusion_attn = self._mha("fusion_attn", d, spec.heads)
        self.gcn = GcnParams(
            self.node_names,
            self._param("gcn.embeddings", len(self.node_names) + 1, d, "embed"),
            [
                self._param(f"gcn.layer{i}.weight", d, d, "weight")
                for i in range(spec.gcn_layers)
            ],
        )
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
            pre_norm=spec.pre_norm,
        )
        if self._state:
            raise ValueError(f"checkpoint has unexpected tensors: {sorted(self._state)}")
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
        elif kind == "weight":
            arr = self._rng.normal(0.0, 1.0 / math.sqrt(rows), (rows, cols))
        elif kind == "embed":
            arr = self._rng.normal(0.0, 1.0 / math.sqrt(cols), (rows, cols))
        elif kind == "zeros":
            arr = np.zeros((rows, cols))
        elif kind == "ones":
            arr = np.ones((rows, cols))
        else:
            raise ValueError(f"unknown init kind {kind!r}")
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


def fuse_knowledge(x: Tensor, w_enh: Tensor, m_enh: Tensor, weights: FusionWeights, params: MhaParams) -> Tensor:
    """X' = MHA(X, l1*X + l2*W' + l3*M'); all inputs must be N x d."""
    if not (x.shape == w_enh.shape == m_enh.shape):
        raise ValueError(
            f"fusion inputs must share a shape: {x.shape}, {w_enh.shape}, {m_enh.shape}"
        )
    mix = add(add(scale(x, weights.l1), scale(w_enh, weights.l2)), scale(m_enh, weights.l3))
    return multi_head_attention(x, mix, params)


def _sublayer(h: Tensor, f, norm: LayerNormParams, pre_norm: bool) -> Tensor:
    if pre_norm:
        return add(h, f(layer_norm(h, norm.gain, norm.bias)))
    return layer_norm(add(h, f(h)), norm.gain, norm.bias)


KV = tuple[Tensor, Tensor]  # packed (keys, values) of one attention block


@dataclass
class DecoderCache:
    """What one record's incremental decode reuses from step to step.

    ``cross[i]`` holds layer i's keys and values over X', W' and M', projected
    on the first step; ``self_kv[i]`` holds layer i's self-attention keys and
    values, one row per token fed so far (``length`` of them).
    """

    memories: tuple[Tensor, Tensor, Tensor] | None = None
    cross: list[tuple[KV, KV, KV]] = field(default_factory=list)
    self_kv: list[KV] = field(default_factory=list)
    length: int = 0


def _cross_kv(layer: DecoderLayerParams, x_fused: Tensor, w_enh: Tensor, m_enh: Tensor):
    return (
        project_kv(x_fused, layer.cross_fused),
        project_kv(w_enh, layer.cross_labels),
        project_kv(m_enh, layer.cross_graph),
    )


def _self_kv(h: Tensor, layer_index: int, params: MhaParams, cache: DecoderCache | None) -> KV:
    k, v = project_kv(h, params)
    if cache is None:
        return k, v
    if layer_index < len(cache.self_kv):
        k0, v0 = cache.self_kv[layer_index]
        k, v = concat_rows([k0, k]), concat_rows([v0, v])
        cache.self_kv[layer_index] = (k, v)
    else:
        cache.self_kv.append((k, v))
    return k, v


def decoder_forward(
    ids: Sequence[int],
    x_fused: Tensor,
    w_enh: Tensor,
    m_enh: Tensor,
    dec: DecoderParams,
    table: EmbeddingTable,
    cache: DecoderCache | None = None,
) -> Tensor:
    """Logits for every position of ``ids``: masked self-attention, then stacked
    cross-attention over X', W', M', then feed-forward, then the affine head.

    Without a cache ``ids`` is the whole BOS-prefixed sequence. With one, ``ids``
    are the next tokens after the ``cache.length`` already fed: the cross-attention
    keys and values come from the cache (projected on its first call, so every
    call with one cache must pass the same memories), and each layer's
    self-attention keys and values grow by len(ids) rows.
    """
    ids = list(ids)
    if not ids:
        raise ValueError("decoder prefix must be nonempty")
    start = 0
    if cache is not None:
        start = cache.length
        memories = (x_fused, w_enh, m_enh)
        if cache.memories is None:
            cache.memories = memories
            cache.cross = [_cross_kv(layer, *memories) for layer in dec.layers]
        elif any(a is not b for a, b in zip(cache.memories, memories)):
            raise ValueError("a decoder cache serves the memories of one record only")
    h = embed_tokens(ids, table, start)
    for i, layer in enumerate(dec.layers):
        fused, labels, graph = (
            cache.cross[i] if cache is not None else _cross_kv(layer, x_fused, w_enh, m_enh)
        )
        norms, pre = layer.norms, dec.pre_norm
        h = _sublayer(
            h, lambda t: attend(t, *_self_kv(t, i, layer.self_attn, cache), layer.self_attn, start),
            norms[0], pre,
        )
        h = _sublayer(h, lambda t: attend(t, *fused, layer.cross_fused), norms[1], pre)
        h = _sublayer(h, lambda t: attend(t, *labels, layer.cross_labels), norms[2], pre)
        h = _sublayer(h, lambda t: attend(t, *graph, layer.cross_graph), norms[3], pre)
        h = _sublayer(h, lambda t: feed_forward(t, layer.ffn), norms[4], pre)
    if cache is not None:
        cache.length += len(ids)
    return add(matmul(h, dec.head_w), dec.head_b)


def generate_greedy(
    x_fused: Tensor,
    w_enh: Tensor,
    m_enh: Tensor,
    dec: DecoderParams,
    table: EmbeddingTable,
    max_length: int,
) -> list[int]:
    """Argmax decoding (ties break toward the lowest index) until EOS or the cap.

    Feeds one token per step through a ``DecoderCache``. The returned ids
    exclude BOS and EOS.
    """
    cache = DecoderCache()
    token = Vocabulary.BOS
    out: list[int] = []
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
    tokens encoded, tags mined, specific graph built and normalized)."""

    id: str
    raw_views: list[np.ndarray]
    tag_token_ids: list[list[int]]
    node_names: list[str]
    a_hat: np.ndarray | None
    input_ids: list[int] | None = None
    target_ids: list[int] | None = None


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
) -> PreparedRecord:
    raw_views = [load_features(p) for p in rec.features]
    for v in raw_views:
        if v.shape[1] != spec.feature_dim:
            raise ValueError(
                f"record {rec.id!r}: feature width {v.shape[1]} does not match "
                f"configured feature_dim {spec.feature_dim}"
            )
    mode = spec.ablation
    tag_token_ids: list[list[int]] = []
    node_names: list[str] = []
    a_hat = None
    if mode is not AblationMode.BASE:
        if rec.entities is None:
            raise ValueError(
                f"record {rec.id!r} has no entity annotations; run the tag command first"
            )
        labels = extract_topic_labels(rec.entities, base_labels)
        if mode in (AblationMode.FULL, AblationMode.DKE):
            tag_token_ids = [vocab.encode(tag.split()) for tag in labels.tags]
        if mode in (AblationMode.FULL, AblationMode.SKE):
            triples = extract_relations(rec.entities)
            g = build_specific_graph(base_graph, labels, triples)
            node_names = g.names
            a_hat = normalized_adjacency(g.adjacency())
    input_ids = target_ids = None
    if with_report:
        if not (rec.report and rec.report.strip()):
            raise ValueError(f"record {rec.id!r} has no report text")
        ids = vocab.encode(tokenize(rec.report))
        input_ids = [Vocabulary.BOS] + ids
        target_ids = ids + [Vocabulary.EOS]
    return PreparedRecord(rec.id, raw_views, tag_token_ids, node_names, a_hat, input_ids, target_ids)


def encode_record(model: ReportModel, rec: PreparedRecord) -> tuple[Tensor, Tensor, Tensor]:
    """Produce (X', W', M') for one record under the model's ablation mode."""
    views = [project_features(v, model.proj) for v in rec.raw_views]
    x = fuse_views(views[0], views[1] if len(views) > 1 else None, model.spec.fuse_mode)
    mode = model.spec.ablation
    if mode in (AblationMode.FULL, AblationMode.DKE):
        w = pool_tag_embeddings(rec.tag_token_ids, model.embed)
        w_enh = multi_head_attention(x, w, model.label_attn)
    else:
        w_enh = x
    if mode in (AblationMode.FULL, AblationMode.SKE):
        m = gcn_forward(rec.node_names, rec.a_hat, model.gcn)
        m_enh = multi_head_attention(x, m, model.graph_attn)
    else:
        m_enh = x
    x_fused = fuse_knowledge(x, w_enh, m_enh, model.spec.fusion, model.fusion_attn)
    return x_fused, w_enh, m_enh


def teacher_forcing_loss(batch: Sequence[PreparedRecord], model: ReportModel) -> Tensor:
    """Mean over records of the per-record mean token NLL (BOS-fed, EOS-terminated)."""
    if not batch:
        raise ValueError("teacher forcing needs a nonempty batch")
    total = None
    for rec in batch:
        if rec.input_ids is None or rec.target_ids is None:
            raise ValueError(f"record {rec.id!r} was prepared without a report")
        x_fused, w_enh, m_enh = encode_record(model, rec)
        logits = decoder_forward(rec.input_ids, x_fused, w_enh, m_enh, model.decoder, model.embed)
        loss = cross_entropy_logits(logits, rec.target_ids)
        total = loss if total is None else add(total, loss)
    return scale(total, 1.0 / len(batch))


# ---------------------------------------------------------------------------
# training


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
    base_labels = fallback_labels(base_graph, run.labels.fallback)
    novel = sorted(
        {
            e.text
            for r in records
            if r.entities
            for e in r.entities
            if base_graph.node_index(e.text) is None
        }
    )
    node_names = base_graph.names + novel
    feature_dim = load_features(records[0].features[0]).shape[1]

    learned_positions = None
    if run.model.positional == "learned":
        longest = max(len(tokenize(r.report)) for r in records) + 1
        learned_positions = max(longest, run.decode.max_length + 1)
    spec = ModelSpec(
        d=run.model.d,
        heads=run.model.heads,
        decoder_layers=run.model.decoder_layers,
        gcn_layers=run.model.gcn_layers,
        ffn_multiplier=run.model.ffn_multiplier,
        feature_dim=feature_dim,
        fusion=FusionWeights.from_raw(run.fusion.lambda1, run.fusion.lambda2, run.fusion.lambda3),
        ablation=AblationMode(run.ablation),
        max_length=run.decode.max_length,
        pre_norm=run.model.pre_norm,
        learned_positions=learned_positions,
        fuse_mode=run.features.fuse,
    )
    model = ReportModel(vocab, node_names, spec, rng=np.random.default_rng([run.train.seed, 0]))
    prepared = [
        prepare_record(r, vocab, base_graph, base_labels, spec, with_report=True)
        for r in records
    ]
    tensors = [p for _, p in model.parameters()]
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
                grads = parameter_gradients(loss, tensors)
                opt.step(grads)
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
    spec, the vocabulary, the node list, the base graph, and the fallback rule."""
    from .graph import graph_to_dict

    return {
        "spec": model.spec.to_dict(),
        "vocab": {"tokens": model.vocab.tokens, "min_freq": model.vocab.min_freq},
        "node_names": model.node_names,
        "base_graph": graph_to_dict(base_graph),
        "labels_fallback": fallback,
    }


def save_model(path, model: ReportModel, base_graph: KnowledgeGraph, fallback: str = "all") -> None:
    from .checkpoint import save_checkpoint

    save_checkpoint(
        path,
        [(n, p.value) for n, p in model.parameters()],
        model_meta(model, base_graph, fallback),
    )


def load_model(path) -> tuple[ReportModel, KnowledgeGraph, str]:
    """Rebuild a saved model; malformed metadata raises ValueError naming ``path``."""
    from .checkpoint import load_checkpoint
    from .graph import graph_from_dict

    state, meta = load_checkpoint(path)

    def bad(problem: str) -> ValueError:
        return ValueError(f"{path}: checkpoint metadata {problem}")

    for key in ("spec", "vocab", "node_names", "base_graph", "labels_fallback"):
        if key not in meta:
            raise bad(f"is missing {key!r}")
    vocab, spec, node_names = meta["vocab"], meta["spec"], meta["node_names"]
    if not (
        isinstance(vocab, dict)
        and isinstance(vocab.get("tokens"), list)
        and all(isinstance(t, str) for t in vocab["tokens"])
        and type(vocab.get("min_freq")) is int
    ):
        raise bad("'vocab' needs a 'tokens' list of strings and an integer 'min_freq'")
    if not isinstance(spec, dict):
        raise bad("'spec' must be an object")
    missing = [f.name for f in fields(ModelSpec) if f.name not in spec]
    if missing:
        raise bad(f"'spec' is missing {', '.join(map(repr, missing))}")
    if not (isinstance(node_names, list) and all(isinstance(n, str) for n in node_names)):
        raise bad("'node_names' must be a list of strings")
    if not isinstance(meta["labels_fallback"], str):
        raise bad("'labels_fallback' must be a string")
    try:
        spec = ModelSpec.from_dict(spec)
    except (TypeError, ValueError) as e:
        raise bad(f"'spec' is invalid: {e}") from None
    try:
        vocab = Vocabulary(vocab["tokens"], vocab["min_freq"])
        model = ReportModel(vocab, node_names, spec, state=state)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    try:
        base_graph = graph_from_dict(meta["base_graph"], where=f"{path}: checkpoint base graph")
    except TypeError as e:
        raise bad(f"'base_graph' is malformed: {e}") from None
    return model, base_graph, meta["labels_fallback"]


# ---------------------------------------------------------------------------
# self-contained gradient audit


def run_gradient_check(run, h: float = 1e-5) -> list[tuple[str, float]]:
    """Audit every trainable tensor against central differences.

    Builds a deterministic micro-fixture from the config's dimensions and seed
    (two records, a two-node base graph, a 16-token vocabulary) so the audit
    needs no external files. Returns (tensor name, max relative error) pairs.
    """
    reports = [
        "heart border is enlarged now .",
        "left lung field looks hazy",
    ]
    entity_sets = [
        [Entity("heart", EntityType.ANATOMY), Entity("enlarged", EntityType.OBSERVATION)],
        [Entity("lung", EntityType.ANATOMY), Entity("hazy", EntityType.OBSERVATION)],
    ]
    base_graph = KnowledgeGraph(
        [GraphNode("root", NodeKind.ROOT), GraphNode("lung", NodeKind.ORGAN)],
        {(0, 1): None},
    )
    base_labels = fallback_labels(base_graph)

    # vocab is forced to min_freq=1 so every fixture token survives
    vocab = Vocabulary.build((tokenize(r) for r in reports), min_freq=1)
    feature_dim = 4
    fusion = FusionWeights.from_raw(run.fusion.lambda1, run.fusion.lambda2, run.fusion.lambda3)
    spec = ModelSpec(
        d=run.model.d,
        heads=run.model.heads,
        decoder_layers=run.model.decoder_layers,
        gcn_layers=run.model.gcn_layers,
        ffn_multiplier=run.model.ffn_multiplier,
        feature_dim=feature_dim,
        fusion=fusion,
        ablation=AblationMode.FULL,
        max_length=run.decode.max_length,
        pre_norm=run.model.pre_norm,
    )
    novel = sorted({e.text for ents in entity_sets for e in ents} - set(base_graph.names))
    node_names = base_graph.names + novel
    model = ReportModel(vocab, node_names, spec, rng=np.random.default_rng([run.train.seed, 0]))

    feat_rng = np.random.default_rng([run.train.seed, 2])
    prepared = []
    for i, (report, entities) in enumerate(zip(reports, entity_sets)):
        labels = extract_topic_labels(entities, base_labels)
        g = build_specific_graph(base_graph, labels, extract_relations(entities))
        ids = vocab.encode(tokenize(report))
        prepared.append(
            PreparedRecord(
                id=f"fixture-{i}",
                raw_views=[feat_rng.normal(0.0, 1.0, (2, feature_dim))],
                tag_token_ids=[vocab.encode(tag.split()) for tag in labels.tags],
                node_names=g.names,
                a_hat=normalized_adjacency(g.adjacency()),
                input_ids=[Vocabulary.BOS] + ids,
                target_ids=ids + [Vocabulary.EOS],
            )
        )

    loss = teacher_forcing_loss(prepared, model)
    tensors = [p for _, p in model.parameters()]
    analytic = parameter_gradients(loss, tensors)

    def objective() -> float:
        return float(teacher_forcing_loss(prepared, model).value[0, 0])

    results = []
    for name, p in model.parameters():
        numeric = finite_diff_grad(objective, [p], h=h)[0]
        err = float(relative_error(numeric, analytic[p]).max())
        results.append((name, err))
    return results
