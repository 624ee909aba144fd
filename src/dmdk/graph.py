"""Static base graph, per-record specific graphs, and the GCN encoder.

The base graph is a fixed organ/finding hierarchy loaded from JSON config.
Each tagged record extends a copy of it: the entity scan's (source, target,
relation) triples add edges (labeled with the target's entity type), and every
triple endpoint outside the base graph becomes a new finding node. The GCN
reads a graph as one sparse operator, ``normalized_adjacency``, built from its
edge list; no dense matrix is formed.

A graph is checked where it is built from outside input (``graph_from_dict``,
for a base-graph config file or a checkpoint's base graph). Copies and their
extensions are not checked again: a copy keeps the base graph's guarantees,
and an extension adds only names it has looked up first.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .autograd import SparseRows, Tensor, canonical_matmul, embedding, matmul, relu
from .text import Entity, EntityType, decode_utf8, parse_json
from .topics import anatomy_pairs

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
    """Undirected graph over named nodes; edges may carry an entity-type relation.
    Its names are unique, one node is the root, and each edge key is (low,
    high) with low < high < len(nodes); ``graph_from_dict`` checks these."""

    def __init__(
        self,
        nodes: Sequence[GraphNode],
        edges: dict[tuple[int, int], EntityType | None] | None = None,
    ):
        self.nodes = list(nodes)
        self._index = {n.name: i for i, n in enumerate(self.nodes)}
        self.edges: dict[tuple[int, int], EntityType | None] = dict(edges or {})

    @property
    def names(self) -> list[str]:
        return [n.name for n in self.nodes]

    def node_index(self, name: str) -> int | None:
        return self._index.get(name)

    def node_count(self) -> int:
        return len(self.nodes)

    def add_node(self, name: str, kind: NodeKind) -> int:
        """Append a node; the caller has checked that ``name`` is new."""
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

    def copy(self) -> "KnowledgeGraph":
        return KnowledgeGraph(self.nodes, self.edges)


def entity_names(g: KnowledgeGraph, kinds: Sequence[NodeKind] | None = None) -> list[str]:
    """Non-root node names in index order, optionally restricted by kind."""
    wanted = set(kinds) if kinds is not None else {NodeKind.ORGAN, NodeKind.FINDING}
    return [n.name for n in g.nodes if n.kind in wanted and n.kind is not NodeKind.ROOT]


# ---------------------------------------------------------------------------
# config I/O


def graph_from_dict(obj: dict, where: str = "graph config") -> KnowledgeGraph:
    if not (isinstance(obj, dict) and all(isinstance(obj.get(k), list) for k in ("nodes", "edges"))):
        raise ValueError(f"{where}: expected an object with 'nodes' and 'edges' lists")
    nodes: list[GraphNode] = []
    for k, item in enumerate(obj["nodes"]):
        if not isinstance(item, dict) or "name" not in item or "kind" not in item:
            raise ValueError(f"{where}: nodes[{k}] needs 'name' and 'kind'")
        name = item["name"]
        if not isinstance(name, str) or not name.strip():
            raise ValueError(f"{where}: nodes[{k}].name must be a nonempty string")
        try:
            kind = NodeKind(item["kind"])
        except ValueError:
            valid = ", ".join(v.value for v in NodeKind)
            raise ValueError(
                f"{where}: nodes[{k}].kind {item['kind']!r} is not one of: {valid}"
            ) from None
        nodes.append(GraphNode(name, kind))
    index = {n.name: i for i, n in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError(f"{where}: graph node names must be unique")
    roots = sum(n.kind is NodeKind.ROOT for n in nodes)
    if roots != 1:
        raise ValueError(f"{where}: graph must have exactly one root node, found {roots}")
    edges: dict[tuple[int, int], EntityType | None] = {}
    for k, item in enumerate(obj["edges"]):
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise ValueError(f"{where}: edges[{k}] must be [source, target] or [source, target, relation]")
        src, tgt = item[0], item[1]
        for name in (src, tgt):
            if not isinstance(name, str) or name not in index:
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
        if a == b:
            raise ValueError(f"{where}: self-edge on node {src!r} not allowed")
        edges[(min(a, b), max(a, b))] = rel
    return KnowledgeGraph(nodes, edges)


def load_base_graph(path: str | Path) -> KnowledgeGraph:
    path = Path(path)
    text = decode_utf8(path.read_bytes(), str(path))
    if not text.strip():
        raise ValueError(f"{path}: empty graph config")
    return graph_from_dict(parse_json(text, str(path)), where=str(path))


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
        return json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")


# ---------------------------------------------------------------------------
# relation extraction and the specific graph


Triple = tuple[str, str, EntityType]  # (source, target, relation); relation is the target's type


def extract_relations(entities: Sequence[Entity]) -> list[Triple]:
    """Same scan as the topic-label miner: one triple per (anatomy, next) pair, in order."""
    return [(a.text, b.text, b.type) for a, b in anatomy_pairs(entities)]


def build_specific_graph(base: KnowledgeGraph, triples: Sequence[Triple]) -> KnowledgeGraph:
    """Copy of the base graph extended with this record's relations.

    Each triple endpoint absent from the base graph becomes a new finding
    node, in first-seen order; each triple then adds or relabels its edge with
    the target's entity type (a self-pair adds nothing).
    """
    g = base.copy()
    for src, tgt, rel in triples:
        for name in (src, tgt):
            if g.node_index(name) is None:
                g.add_node(name, NodeKind.FINDING)
        g.ensure_edge(src, tgt, rel)
    return g


# ---------------------------------------------------------------------------
# GCN encoder


def normalized_adjacency(g: KnowledgeGraph) -> SparseRows:
    """Symmetric renormalization with self-loops, D^-1/2 (A + I) D^-1/2, over
    the graph's entries: each edge in both directions, then the diagonal. A
    row's degree is its entry count, and each entry is ``dinv[row] * dinv[col]``."""
    n = g.node_count()
    i, j = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T
    loops = np.arange(n)
    row, col = np.concatenate([i, j, loops]), np.concatenate([j, i, loops])
    dinv = 1.0 / np.sqrt(np.bincount(row, minlength=n).astype(np.float64))
    return SparseRows(row, col, dinv[row] * dinv[col], (n, n))


@dataclass
class GcnParams:
    """Node-embedding table (one row per known name plus UNK) and layer weights,
    shaped by ``model.ReportModel``; ``names`` may come from a checkpoint."""

    names: list[str]
    embeddings: Tensor  # (len(names) + 1) x d; last row is UNK
    layers: list[Tensor]  # each d x d

    def __post_init__(self):
        self._row = {name: i for i, name in enumerate(self.names)}
        if len(self._row) != len(self.names):
            raise ValueError("node embedding names must be unique")

    @property
    def unk_row(self) -> int:
        return len(self.names)

    def row_ids(self, names: Sequence[str]) -> list[int]:
        return [self._row.get(n, self.unk_row) for n in names]


def gcn_forward(node_names: Sequence[str], a_hat: SparseRows, params: GcnParams) -> Tensor:
    """L rounds of ReLU(A_hat H W), bitwise equivariant under node relabeling.

    ``a_hat`` is one graph's ``normalized_adjacency``, or a batch's graphs as
    one block-diagonal ``SparseRows`` over their nodes stacked in order; no
    node mixes with another graph's. ``A_hat @ H`` sums over the node axis, so
    it takes ``canonical_matmul``, whose sum does not depend on the node order.
    ``H @ W`` sums over the feature axis: each output row comes from its own
    input row only, so a plain matmul permutes along with the rows (tests pin
    this bit for bit at d = 512 for up to 60 nodes).
    """
    h = embedding(params.embeddings, params.row_ids(node_names))
    for w in params.layers:
        h = relu(matmul(canonical_matmul(a_hat, h), w))
    return h
