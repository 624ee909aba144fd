import json
import math

import numpy as np
import pytest

from dmdk.attention import multi_head_attention
from dmdk.autograd import (
    Tensor,
    finite_diff_grad,
    parameter_gradients,
    relative_error,
    sum_all,
)
from dmdk.graph import (
    GcnParams,
    GraphNode,
    KnowledgeGraph,
    NodeKind,
    build_specific_graph,
    default_base_graph_path,
    entity_names,
    export_graph,
    extract_relations,
    gcn_forward,
    graph_from_dict,
    graph_to_dict,
    load_base_graph,
    normalized_adjacency,
)
from dmdk.text import Entity, EntityType
from dmdk.topics import DiseaseTopicLabels, LabelSource, anatomy_pairs, extract_topic_labels

from conftest import random_gcn, random_mha
from oracles import oracle_gcn_layer, oracle_triples

RNG = np.random.default_rng(23)

A = EntityType.ANATOMY
O = EntityType.OBSERVATION


def ents(*pairs):
    return [Entity(t, ty) for t, ty in pairs]


def tiny_graph():
    return KnowledgeGraph(
        [
            GraphNode("root", NodeKind.ROOT),
            GraphNode("lung", NodeKind.ORGAN),
            GraphNode("opacity", NodeKind.FINDING),
        ],
        {(0, 1): None, (1, 2): None},
    )


# ---------------------------------------------------------------------------
# base graph


def test_shipped_base_graph_shape():
    g = load_base_graph(default_base_graph_path())
    assert g.node_count() == 28
    assert sum(1 for n in g.nodes if n.kind is NodeKind.ROOT) == 1
    assert sum(1 for n in g.nodes if n.kind is NodeKind.ORGAN) == 7
    assert sum(1 for n in g.nodes if n.kind is NodeKind.FINDING) == 20


def test_normal_other_foreign_object_attach_to_root_only():
    g = load_base_graph(default_base_graph_path())
    for name in ("normal", "other", "foreign object"):
        assert g.neighbors(name) == ["root"]


def test_every_organ_connects_to_root():
    g = load_base_graph(default_base_graph_path())
    for node in g.nodes:
        if node.kind is NodeKind.ORGAN:
            assert "root" in g.neighbors(node.name)


def test_trachea_absent_from_base_graph():
    g = load_base_graph(default_base_graph_path())
    assert g.node_index("trachea") is None


def test_empty_graph_file_rejected(tmp_path):
    p = tmp_path / "g.json"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_base_graph(p)


def test_graph_requires_exactly_one_root():
    with pytest.raises(ValueError, match="root"):
        KnowledgeGraph([GraphNode("a", NodeKind.ORGAN)])
    with pytest.raises(ValueError, match="root"):
        KnowledgeGraph(
            [GraphNode("a", NodeKind.ROOT), GraphNode("b", NodeKind.ROOT)]
        )


def test_adjacency_symmetric_zero_diagonal():
    g = tiny_graph()
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.array_equal(np.diag(a), np.zeros(3))
    assert a[0, 1] == 1.0 and a[1, 2] == 1.0 and a[0, 2] == 0.0


def test_entity_names_skip_root():
    g = tiny_graph()
    assert entity_names(g) == ["lung", "opacity"]
    assert entity_names(g, [NodeKind.FINDING]) == ["opacity"]


# ---------------------------------------------------------------------------
# relation extraction


def test_heart_cardiomegaly_triple():
    triples = extract_relations(ents(("heart", A), ("cardiomegaly", O)))
    assert list(triples) == [("heart", "cardiomegaly", O)]


def test_all_anatomy_gives_empty_triples():
    triples = extract_relations(ents(("a", A), ("b", A)))
    assert len(triples) == 0


def test_modifier_target_keeps_its_type_as_relation():
    triples = extract_relations(
        ents(("lung", A), ("mildly", EntityType.OBSERVATION_MODIFIER))
    )
    assert triples.relations == [EntityType.OBSERVATION_MODIFIER]


def test_triples_agree_with_scan_and_oracle():
    seq = ents(
        ("lung", A), ("opacity", O), ("heart", A), ("heart", A), ("enlarged", O)
    )
    triples = extract_relations(seq)
    assert [(s, t) for s, t, _ in triples] == [
        (a.text, b.text) for a, b in anatomy_pairs(seq)
    ]
    assert list(triples) == oracle_triples(seq)


# ---------------------------------------------------------------------------
# specific graph construction


def test_trachea_gets_added_with_its_edge():
    base = load_base_graph(default_base_graph_path())
    seq = ents(("trachea", A), ("normal", O))
    labels = extract_topic_labels(seq, entity_names(base))
    g = build_specific_graph(base, labels, extract_relations(seq))
    assert g.node_index("trachea") is not None
    assert g.has_edge("trachea", "normal")
    assert g.relation("trachea", "normal") is O
    # the base graph itself is untouched
    assert base.node_index("trachea") is None


def test_empty_triples_reproduce_base_graph_exactly():
    base = load_base_graph(default_base_graph_path())
    labels = DiseaseTopicLabels(entity_names(base), LabelSource.BASE_FALLBACK)
    g = build_specific_graph(base, labels, extract_relations([]))
    assert g == base


def test_tag_without_triple_is_not_added():
    base = tiny_graph()
    labels = DiseaseTopicLabels(["orphan"], LabelSource.DYNAMIC)
    g = build_specific_graph(base, labels, extract_relations([]))
    assert g.node_index("orphan") is None


def test_existing_edge_relation_last_write_wins():
    base = tiny_graph()
    seq = ents(("lung", A), ("opacity", O))
    labels = extract_topic_labels(seq, entity_names(base))
    g = build_specific_graph(base, labels, extract_relations(seq))
    assert g.relation("lung", "opacity") is O
    adj_before = base.adjacency()
    assert np.array_equal(g.adjacency(), adj_before)  # adjacency unchanged


def test_superset_property_on_randomized_records():
    base = tiny_graph()
    base_labels = entity_names(base)
    rng = np.random.default_rng(5)
    names = ["lung", "opacity", "nodule", "trachea", "mass"]
    types = [A, O, EntityType.OBSERVATION_MODIFIER]
    for _ in range(50):
        seq = ents(
            *(
                (names[rng.integers(len(names))], types[rng.integers(len(types))])
                for _ in range(rng.integers(0, 7))
            )
        )
        labels = extract_topic_labels(seq, base_labels)
        triples = extract_relations(seq)
        g = build_specific_graph(base, labels, triples)
        assert set(base.names) <= set(g.names)
        mentioned = {s for s, _, _ in triples} | {t for _, t, _ in triples}
        for extra in set(g.names) - set(base.names):
            assert extra in mentioned


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_identity():
    g = tiny_graph()
    g.ensure_edge("lung", "opacity", O)
    again = graph_from_dict(json.loads(export_graph(g, "json")))
    assert again == g


def test_dot_export_contains_node_statements_and_labels():
    g = tiny_graph()
    g.ensure_edge("lung", "opacity", O)
    dot = export_graph(g, "dot")
    assert dot.count('[kind=') == 3
    assert '"lung" -- "opacity" [label="OBSERVATION"];' in dot
    base_dot = export_graph(load_base_graph(default_base_graph_path()), "dot")
    assert base_dot.count("[kind=") == 28


def test_unknown_export_format_rejected():
    with pytest.raises(ValueError, match="format"):
        export_graph(tiny_graph(), "yaml")


def test_graph_dict_round_trip():
    g = tiny_graph()
    assert graph_from_dict(graph_to_dict(g)) == g


# ---------------------------------------------------------------------------
# GCN


def test_normalized_adjacency_three_node_path_closed_form():
    # path a-b-c: degrees with self-loops are 2,3,2
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    ahat = normalized_adjacency(a)
    s2, s3 = 1 / math.sqrt(2), 1 / math.sqrt(3)
    expected = np.array(
        [
            [s2 * s2, s2 * s3, 0.0],
            [s3 * s2, s3 * s3, s3 * s2],
            [0.0, s2 * s3, s2 * s2],
        ]
    )
    assert np.allclose(ahat, expected, atol=1e-12)
    assert np.array_equal(ahat, ahat.T)
    assert (ahat >= 0).all()


def test_single_node_gcn_collapses_to_relu_linear():
    params = random_gcn(["only"], 4, RNG, n_layers=1)
    g = KnowledgeGraph([GraphNode("only", NodeKind.ROOT)])
    out = gcn_forward(g.names, normalized_adjacency(g.adjacency()), params).value
    h = params.embeddings.value[0]
    expected = np.maximum(h @ params.layers[0].value, 0.0)
    assert np.allclose(out, [expected], atol=1e-12)


def test_disconnected_nodes_do_not_mix():
    params = random_gcn(["r", "x"], 3, RNG, n_layers=1)
    a_hat = normalized_adjacency(np.zeros((2, 2)))  # identity
    out1 = gcn_forward(["r", "x"], a_hat, params).value
    swapped = GcnParams(
        ["r", "x"],
        Tensor(np.vstack([params.embeddings.value[0], RNG.normal(size=3), params.embeddings.value[2]])),
        params.layers,
    )
    out2 = gcn_forward(["r", "x"], a_hat, swapped).value
    assert np.allclose(out1[0], out2[0], atol=1e-12)  # row 0 ignores row 1's change


def test_gcn_matches_plain_matmul_oracle():
    g = tiny_graph()
    params = random_gcn(g.names, 4, RNG, n_layers=2)
    a_hat = normalized_adjacency(g.adjacency())
    h = params.embeddings.value[:3]
    for w in params.layers:
        h = oracle_gcn_layer(a_hat, h, w.value)
    assert np.allclose(gcn_forward(g.names, a_hat, params).value, h, atol=1e-10)


def test_gcn_unknown_node_uses_unk_row():
    params = random_gcn(["root", "lung"], 4, RNG, n_layers=1)
    assert params.row_ids(["root", "mystery"]) == [0, params.unk_row]


def test_gcn_permutation_equivariance_is_bitwise():
    g = load_base_graph(default_base_graph_path())
    params = random_gcn(g.names, 8, RNG, n_layers=2)
    a_hat = normalized_adjacency(g.adjacency())
    out = gcn_forward(g.names, a_hat, params).value

    perm = np.random.default_rng(99).permutation(g.node_count())
    names_p = [g.names[i] for i in perm]
    a_p = g.adjacency()[np.ix_(perm, perm)]
    out_p = gcn_forward(names_p, normalized_adjacency(a_p), params).value
    assert np.array_equal(out_p, out[perm])


def test_gcn_permutation_equivariance_is_bitwise_at_full_width():
    # d = 512 exercises the BLAS kernels a d = 8 graph never reaches
    rng = np.random.default_rng(512)
    names = [f"n{i}" for i in range(60)]
    params = random_gcn(names, 512, rng, n_layers=2)
    for n in range(2, 61):
        upper = np.triu(rng.random((n, n)) < 0.15, k=1)
        adjacency = (upper | upper.T).astype(float)
        out = gcn_forward(names[:n], normalized_adjacency(adjacency), params).value
        perm = rng.permutation(n)
        a_p = normalized_adjacency(adjacency[np.ix_(perm, perm)])
        out_p = gcn_forward([names[i] for i in perm], a_p, params).value
        assert np.array_equal(out_p, out[perm]), f"{n} nodes"


def test_gcn_gradients_match_finite_differences():
    g = tiny_graph()
    params = random_gcn(g.names, 3, RNG, n_layers=2)
    leaves = [params.embeddings] + list(params.layers)
    a_hat = normalized_adjacency(g.adjacency())

    def build():
        return sum_all(gcn_forward(g.names, a_hat, params))

    grads = parameter_gradients(build(), leaves)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), leaves)
    for leaf, num in zip(leaves, numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-4


def test_graph_attend_single_node_constant_rows():
    params = random_mha(4, 2, RNG)
    x = Tensor(RNG.normal(size=(5, 4)))
    m = Tensor(RNG.normal(size=(1, 4)))
    out = multi_head_attention(x, m, params).value
    assert np.allclose(out, np.tile(out[0], (5, 1)), atol=1e-12)
