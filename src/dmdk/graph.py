"""Static base graph, per-record specific graphs, and the GCN encoder.

The base graph is a fixed organ/finding hierarchy loaded from JSON config.
Each tagged record extends a copy of it: relation triples from the entity
scan add edges (labeled with the target's entity type) and may introduce new
finding nodes for dynamic tags that participate in at least one triple.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .autograd import Tensor, canonical_matmul, embedding, matmul, relu
from .text import Entity, EntityType
from .topics import DiseaseTopicLabels, anatomy_pairs

logger = logging.getLogger(__name__)


class NodeKind(Enum):
    ROOT = "root"
    ORGAN = "organ"
    FINDING = "finding"


@dataclass(frozen=True)
class GraphNode:
    name: str
    kind: NodeKind


class KnowledgeGraph:
    """Undirected graph over named nodes; edges may carry an entity-type relation."""

    def __init__(
        self,
        nodes: Sequence[GraphNode],
        edges: dict[tuple[int, int], EntityType | None] | None = None,
    ):
        self.nodes = list(nodes)
        self._index = {n.name: i for i, n in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise ValueError("graph node names must be unique")
        roots = [n for n in self.nodes if n.kind is NodeKind.ROOT]
        if len(roots) != 1:
            raise ValueError(f"graph must have exactly one root node, found {len(roots)}")
        self.edges: dict[tuple[int, int], EntityType | None] = {}
        for (a, b), rel in (edges or {}).items():
            self._check_endpoint(a)
            self._check_endpoint(b)
            if a == b:
                raise ValueError(f"self-edge on node {self.nodes[a].name!r} not allowed")
            self.edges[(min(a, b), max(a, b))] = rel

    def _check_endpoint(self, i: int) -> None:
        if not 0 <= i < len(self.nodes):
            raise ValueError(f"edge endpoint {i} out of range [0, {len(self.nodes)})")

    @property
    def names(self) -> list[str]:
        return [n.name for n in self.nodes]

    def node_index(self, name: str) -> int | None:
        return self._index.get(name)

    def node_count(self) -> int:
        return len(self.nodes)

    def add_node(self, name: str, kind: NodeKind) -> int:
        if name in self._index:
            raise ValueError(f"node {name!r} already present")
        self.nodes.append(GraphNode(name, kind))
        self._index[name] = len(self.nodes) - 1
        return self._index[name]

    def ensure_edge(self, a_name: str, b_name: str, relation: EntityType | None) -> None:
        """Add or relabel the undirected edge; the latest relation label wins."""
        a = self._index[a_name]
        b = self._index[b_name]
        if a == b:
            logger.debug("skipping self-pair on %r", a_name)
            return
        self.edges[(min(a, b), max(a, b))] = relation

    def has_edge(self, a_name: str, b_name: str) -> bool:
        a, b = self._index[a_name], self._index[b_name]
        return (min(a, b), max(a, b)) in self.edges

    def relation(self, a_name: str, b_name: str) -> EntityType | None:
        a, b = self._index[a_name], self._index[b_name]
        return self.edges[(min(a, b), max(a, b))]

    def neighbors(self, name: str) -> list[str]:
        i = self._index[name]
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(self.nodes[b].name)
            elif b == i:
                out.append(self.nodes[a].name)
        return sorted(out)

    def adjacency(self) -> np.ndarray:
        """Symmetric 0/1 matrix with zero diagonal."""
        n = len(self.nodes)
        a = np.zeros((n, n))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a

    def copy(self) -> "KnowledgeGraph":
        return KnowledgeGraph(list(self.nodes), dict(self.edges))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges


def entity_names(g: KnowledgeGraph, kinds: Sequence[NodeKind] | None = None) -> list[str]:
    """Non-root node names in index order, optionally restricted by kind."""
    wanted = set(kinds) if kinds is not None else {NodeKind.ORGAN, NodeKind.FINDING}
    return [n.name for n in g.nodes if n.kind in wanted and n.kind is not NodeKind.ROOT]


# ---------------------------------------------------------------------------
# config I/O


def graph_from_dict(obj: dict, where: str = "graph config") -> KnowledgeGraph:
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise ValueError(f"{where}: expected an object with 'nodes' and 'edges'")
    nodes: list[GraphNode] = []
    for k, item in enumerate(obj["nodes"]):
        if not isinstance(item, dict) or "name" not in item or "kind" not in item:
            raise ValueError(f"{where}: nodes[{k}] needs 'name' and 'kind'")
        try:
            kind = NodeKind(item["kind"])
        except ValueError:
            valid = ", ".join(v.value for v in NodeKind)
            raise ValueError(
                f"{where}: nodes[{k}].kind {item['kind']!r} is not one of: {valid}"
            ) from None
        nodes.append(GraphNode(str(item["name"]), kind))
    index = {n.name: i for i, n in enumerate(nodes)}
    edges: dict[tuple[int, int], EntityType | None] = {}
    for k, item in enumerate(obj["edges"]):
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise ValueError(f"{where}: edges[{k}] must be [source, target] or [source, target, relation]")
        src, tgt = item[0], item[1]
        for name in (src, tgt):
            if name not in index:
                raise ValueError(f"{where}: edges[{k}] references unknown node {name!r}")
        rel = None
        if len(item) == 3 and item[2] is not None:
            try:
                rel = EntityType(item[2])
            except ValueError:
                raise ValueError(
                    f"{where}: edges[{k}] has unknown relation {item[2]!r}"
                ) from None
        a, b = index[src], index[tgt]
        edges[(min(a, b), max(a, b))] = rel
    return KnowledgeGraph(nodes, edges)


def load_base_graph(path: str | Path) -> KnowledgeGraph:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        raise ValueError(f"{path}: empty graph config")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed JSON: {e}") from None
    return graph_from_dict(obj, where=str(path))


def default_base_graph_path() -> Path:
    return Path(__file__).parent / "data" / "base_graph.json"


def graph_to_dict(g: KnowledgeGraph) -> dict:
    return {
        "nodes": [{"name": n.name, "kind": n.kind.value} for n in g.nodes],
        "edges": [
            [g.nodes[a].name, g.nodes[b].name, rel.value if rel else None]
            for (a, b), rel in sorted(g.edges.items())
        ],
    }


def graph_to_json(g: KnowledgeGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n"


def graph_to_dot(g: KnowledgeGraph) -> str:
    lines = ["graph G {"]
    for n in g.nodes:
        lines.append(f'  "{n.name}" [kind="{n.kind.value}"];')
    for (a, b), rel in sorted(g.edges.items()):
        label = f' [label="{rel.value}"]' if rel else ""
        lines.append(f'  "{g.nodes[a].name}" -- "{g.nodes[b].name}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(g: KnowledgeGraph, fmt: str) -> str:
    if fmt == "dot":
        return graph_to_dot(g)
    if fmt == "json":
        return graph_to_json(g)
    raise ValueError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")


# ---------------------------------------------------------------------------
# relation extraction and the specific graph


@dataclass
class RelationTriples:
    """Parallel (source, target, relation) lists; relation is the target's type."""

    sources: list[str]
    targets: list[str]
    relations: list[EntityType]

    def __post_init__(self):
        if not (len(self.sources) == len(self.targets) == len(self.relations)):
            raise ValueError("relation triple lists must have equal lengths")

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        return iter(zip(self.sources, self.targets, self.relations))


def extract_relations(entities: Sequence[Entity]) -> RelationTriples:
    """Same scan as the topic-label miner: one triple per (anatomy, next) pair."""
    pairs = anatomy_pairs(entities)
    return RelationTriples(
        [a.text for a, _ in pairs],
        [b.text for _, b in pairs],
        [b.type for _, b in pairs],
    )


def build_specific_graph(
    base: KnowledgeGraph, labels: DiseaseTopicLabels, triples: RelationTriples
) -> KnowledgeGraph:
    """Copy of the base graph extended with this record's tags and relations.

    A tag becomes a new finding node only when it is absent from the base
    graph AND appears in at least one triple; edges are added for every triple
    whose endpoints resolved to nodes, labeled with the target's entity type.
    """
    g = base.copy()
    associated = set(triples.sources) | set(triples.targets)
    for tag in labels.tags:
        if g.node_index(tag) is None and tag in associated:
            g.add_node(tag, NodeKind.FINDING)
    for src, tgt, rel in triples:
        if src == tgt:
            logger.debug("skipping degenerate self-pair %r", src)
            continue
        if g.node_index(src) is None or g.node_index(tgt) is None:
            logger.debug("skipping triple with unresolved endpoint: %r -- %r", src, tgt)
            continue
        g.ensure_edge(src, tgt, rel)
    return g


# ---------------------------------------------------------------------------
# GCN encoder


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric renormalization with self-loops: D^-1/2 (A + I) D^-1/2."""
    n = adjacency.shape[0]
    a = adjacency + np.eye(n)
    deg = a.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    return dinv[:, None] * a * dinv[None, :]


@dataclass
class GcnParams:
    """Node-embedding table (one row per known name plus UNK) and layer weights."""

    names: list[str]
    embeddings: Tensor  # (len(names) + 1) x d; last row is UNK
    layers: list[Tensor]  # each d x d

    def __post_init__(self):
        self._row = {name: i for i, name in enumerate(self.names)}
        if len(self._row) != len(self.names):
            raise ValueError("node embedding names must be unique")
        if self.embeddings.rows != len(self.names) + 1:
            raise ValueError(
                f"embedding table needs {len(self.names) + 1} rows "
                f"(names + UNK), got {self.embeddings.rows}"
            )
        d = self.embeddings.cols
        for w in self.layers:
            if w.shape != (d, d):
                raise ValueError(f"GCN layer weights must be {d}x{d}, got {w.shape}")

    @property
    def unk_row(self) -> int:
        return len(self.names)

    def row_ids(self, names: Sequence[str]) -> list[int]:
        return [self._row.get(n, self.unk_row) for n in names]


def gcn_forward(node_names: Sequence[str], a_hat: np.ndarray, params: GcnParams) -> Tensor:
    """L rounds of ReLU(A_hat H W), bitwise equivariant under node relabeling.

    ``A_hat @ H`` sums over the node axis, so it takes ``canonical_matmul``,
    whose sum does not depend on the node order. ``H @ W`` sums over the
    feature axis: each output row comes from its own input row only, so a
    plain matmul permutes along with the rows (tests pin this bit for bit at
    d = 512 for up to 60 nodes).
    """
    h = embedding(params.embeddings, params.row_ids(node_names))
    a = Tensor(a_hat)
    for w in params.layers:
        h = relu(matmul(canonical_matmul(a, h), w))
    return h
