import json
import math
import re

import numpy as np
import pytest

from dmdk.attention import multi_head_attention
from dmdk.autograd import (
    SparseRows,
    Tensor,
    canonical_matmul,
    finite_diff_grad,
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
from dmdk.model import fallback_labels
from dmdk.topics import anatomy_pairs, extract_topic_labels

from conftest import lone, random_gcn, random_mha, same_graph
from oracles import (
    from_dense,
    mul,
    oracle_adjacency,
    oracle_block_diagonal,
    oracle_canonical_matmul,
    oracle_gcn_layer,
    oracle_normalized_adjacency,
    oracle_specific_graph,
    oracle_triples,
    parameter_gradients,
)

RNG = np.random.default_rng(23)

A = EntityType.ANATOMY
O = EntityType.OBSERVATION


def ents(*pairs):
    return [Entity(t, ty) for t, ty in pairs]


def edge(g, a_name, b_name):
    """The ``g.edges`` key of the undirected edge between two named nodes."""
    a, b = g.node_index(a_name), g.node_index(b_name)
    return min(a, b), max(a, b)


def neighbors(g, name):
    i = g.node_index(name)
    return sorted(g.nodes[b if a == i else a].name for a, b in g.edges if i in (a, b))


def tiny_graph():
    return KnowledgeGraph(
        [
            GraphNode("root", NodeKind.ROOT),
            GraphNode("lung", NodeKind.ORGAN),
            GraphNode("opacity", NodeKind.FINDING),
        ],
        {(0, 1): None, (1, 2): None},
    )


def graph_of(adjacency):
    """The graph whose 0/1 adjacency matrix is ``adjacency``; node 0 is the root."""
    nodes = [GraphNode(f"n{i}", NodeKind.FINDING if i else NodeKind.ROOT) for i in range(len(adjacency))]
    return KnowledgeGraph(nodes, {(int(i), int(j)): None for i, j in zip(*np.nonzero(np.triu(adjacency)))})


def dense(a: SparseRows) -> np.ndarray:
    """The matrix whose nonzero entries ``a`` holds."""
    out = np.zeros((a.n_rows, a.n_cols))
    row, col, vals, _ = a.entries
    out[row, col] = vals
    return out


SCAN_NAMES = ["lung", "heart", "opacity", "trachea", "airway", "mass", "lesion", "normal"]


def random_entity_lists(rng, count):
    """``count`` random records' entities: up to 8 of a few names, any type."""
    types = list(EntityType)
    for _ in range(count):
        yield ents(
            *(
                (SCAN_NAMES[rng.integers(len(SCAN_NAMES))], types[rng.integers(len(types))])
                for _ in range(rng.integers(0, 9))
            )
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
        assert neighbors(g, name) == ["root"]


def test_every_organ_connects_to_root():
    g = load_base_graph(default_base_graph_path())
    for node in g.nodes:
        if node.kind is NodeKind.ORGAN:
            assert "root" in neighbors(g, node.name)


def test_trachea_absent_from_base_graph():
    g = load_base_graph(default_base_graph_path())
    assert g.node_index("trachea") is None


def test_empty_graph_file_rejected(tmp_path):
    p = tmp_path / "g.json"
    p.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_base_graph(p)


ROOT = {"name": "a", "kind": "root"}


@pytest.mark.parametrize(
    "obj, problem",
    [
        ({"nodes": [ROOT, {"name": "b", "kind": "root"}], "edges": []}, "exactly one root"),
        ({"nodes": [ROOT, {"name": "a", "kind": "organ"}], "edges": []}, "unique"),
        ({"nodes": [ROOT], "edges": [["a", "a"]]}, "self-edge"),
        ({"nodes": 5, "edges": []}, "'nodes' and 'edges' lists"),
        ({"nodes": [ROOT], "edges": [[["a"], "a"]]}, "unknown node"),
        ({"nodes": [ROOT], "edges": [["a"]]}, r"edges\[0\] must be \[source, target\]"),
        ({"nodes": [ROOT, {"name": "b"}], "edges": []}, r"nodes\[1\] needs 'name' and 'kind'"),
    ],
)
def test_base_graph_errors_name_the_file(tmp_path, obj, problem):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(p))}: .*{problem}"):
        load_base_graph(p)


def test_graph_requires_exactly_one_root():
    with pytest.raises(ValueError, match="exactly one root node, found 0"):
        graph_from_dict({"nodes": [{"name": "a", "kind": "organ"}], "edges": []})
    with pytest.raises(ValueError, match="exactly one root node, found 2"):
        graph_from_dict({"nodes": [ROOT, {"name": "b", "kind": "root"}], "edges": []})


def test_operator_entries_are_the_edges_both_ways_and_the_diagonal():
    g = tiny_graph()
    a = dense(normalized_adjacency(g))
    assert np.array_equal(a, a.T)
    assert (np.diag(a) > 0).all()
    assert a[0, 1] > 0 and a[1, 2] > 0 and a[0, 2] == 0.0


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
    assert [rel for _, _, rel in triples] == [EntityType.OBSERVATION_MODIFIER]


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
    g = build_specific_graph(base, extract_relations(seq))
    assert g.node_index("trachea") is not None
    assert edge(g, "trachea", "normal") in g.edges
    assert g.edges[edge(g, "trachea", "normal")] is O
    # the base graph itself is untouched
    assert base.node_index("trachea") is None


def test_changing_a_specific_graph_leaves_its_base_unchanged():
    base = tiny_graph()
    g = build_specific_graph(base, extract_relations(ents(("lung", A), ("nodule", O))))
    g.add_node("trachea", NodeKind.FINDING)
    g.ensure_edge("root", "trachea", A)
    g.nodes[0] = GraphNode("other", NodeKind.ROOT)
    g.edges[(0, 1)] = O
    del g.edges[(1, 2)]
    assert same_graph(base, tiny_graph())
    names = ("root", "lung", "opacity", "nodule", "trachea", "other")
    assert [base.node_index(n) for n in names] == [0, 1, 2, None, None, None]


def test_empty_triples_reproduce_base_graph_exactly():
    base = load_base_graph(default_base_graph_path())
    g = build_specific_graph(base, extract_relations([]))
    assert same_graph(g, base)


def test_existing_edge_relation_last_write_wins():
    base = tiny_graph()
    seq = ents(("lung", A), ("opacity", O))
    g = build_specific_graph(base, extract_relations(seq))
    assert g.edges[edge(g, "lung", "opacity")] is O
    assert g.nodes == base.nodes and list(g.edges) == list(base.edges)  # adjacency unchanged


def test_superset_property_on_randomized_records():
    base = tiny_graph()
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
        triples = extract_relations(seq)
        g = build_specific_graph(base, triples)
        assert set(base.names) <= set(g.names)
        mentioned = {s for s, _, _ in triples} | {t for _, t, _ in triples}
        for extra in set(g.names) - set(base.names):
            assert extra in mentioned


@pytest.mark.parametrize("fallback", ["all", "findings"])
def test_graph_from_triples_equals_the_tag_based_rule(fallback):
    """New nodes come from the triples alone, and that is the graph the DKE
    tags used to select: same nodes, node order, edges, edge order and
    relations over random records, under either fallback label set."""
    base = load_base_graph(default_base_graph_path())
    base_labels = fallback_labels(base, fallback)
    grown = 0
    for seq in random_entity_lists(np.random.default_rng(17), 1000):
        triples = extract_relations(seq)
        g = build_specific_graph(base, triples)
        want = oracle_specific_graph(base, extract_topic_labels(seq, base_labels), triples)
        assert g.nodes == want.nodes
        assert list(g.edges.items()) == list(want.edges.items())
        assert [g.node_index(name) for name in g.names] == list(range(g.node_count()))
        grown += g.node_count() > base.node_count()
    assert grown > 100  # the random records do add nodes


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_identity():
    g = tiny_graph()
    g.ensure_edge("lung", "opacity", O)
    again = graph_from_dict(json.loads(export_graph(g, "json")))
    assert same_graph(again, g)


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
    assert same_graph(graph_from_dict(graph_to_dict(g)), g)


# ---------------------------------------------------------------------------
# GCN


def test_normalized_adjacency_three_node_path_closed_form():
    # path a-b-c: degrees with self-loops are 2,3,2
    g = graph_of(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    ahat = dense(normalized_adjacency(g))
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


def test_sparse_operator_equals_the_dense_reference():
    """The operator built from the edge list holds the dense formula's nonzero
    entries, grouped alike, bit for bit: on the base graph, on random specific
    graphs and on trees."""
    base = load_base_graph(default_base_graph_path())
    rng = np.random.default_rng(17)
    graphs = [base] + [build_specific_graph(base, extract_relations(seq)) for seq in random_entity_lists(rng, 1000)]
    graphs += [graph_of(random_tree(n, rng)) for n in (1, 17, 240)]
    for g in graphs:
        got = normalized_adjacency(g)
        want = from_dense(oracle_normalized_adjacency(oracle_adjacency(g)))
        assert (got.n_rows, got.n_cols) == (want.n_rows, want.n_cols)
        for got_part, want_part in zip(got.entries, want.entries):
            assert got_part.dtype == want_part.dtype and np.array_equal(got_part, want_part)
        assert len(got.t_groups) == len(want.t_groups)
        for got_group, want_group in zip(got.t_groups, want.t_groups):
            for got_part, want_part in zip(got_group, want_group):
                assert got_part.dtype == want_part.dtype and np.array_equal(got_part, want_part)


def test_single_node_gcn_collapses_to_relu_linear():
    params = random_gcn(["only"], 4, RNG, n_layers=1)
    g = KnowledgeGraph([GraphNode("only", NodeKind.ROOT)])
    out = gcn_forward(g.names, normalized_adjacency(g), params).value
    h = params.embeddings.value[0]
    expected = np.maximum(h @ params.layers[0].value, 0.0)
    assert np.allclose(out, [expected], atol=1e-12)


def test_disconnected_nodes_do_not_mix():
    params = random_gcn(["r", "x"], 3, RNG, n_layers=1)
    a_hat = normalized_adjacency(graph_of(np.zeros((2, 2))))  # identity
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
    h = params.embeddings.value[:3]
    for w in params.layers:
        h = oracle_gcn_layer(oracle_normalized_adjacency(oracle_adjacency(g)), h, w.value)
    assert np.allclose(gcn_forward(g.names, normalized_adjacency(g), params).value, h, atol=1e-10)


def test_gcn_unknown_node_uses_unk_row():
    params = random_gcn(["root", "lung"], 4, RNG, n_layers=1)
    assert params.row_ids(["root", "mystery"]) == [0, params.unk_row]


def test_gcn_permutation_equivariance_is_bitwise():
    g = load_base_graph(default_base_graph_path())
    params = random_gcn(g.names, 8, RNG, n_layers=2)
    out = gcn_forward(g.names, normalized_adjacency(g), params).value

    perm = np.random.default_rng(99).permutation(g.node_count())
    names_p = [g.names[i] for i in perm]
    a_p = oracle_adjacency(g)[np.ix_(perm, perm)]
    out_p = gcn_forward(names_p, from_dense(oracle_normalized_adjacency(a_p)), params).value
    assert np.array_equal(out_p, out[perm])


def test_gcn_permutation_equivariance_is_bitwise_at_full_width():
    # d = 512 exercises the BLAS kernels a d = 8 graph never reaches
    rng = np.random.default_rng(512)
    names = [f"n{i}" for i in range(60)]
    params = random_gcn(names, 512, rng, n_layers=2)
    for n in range(2, 61):
        upper = np.triu(rng.random((n, n)) < 0.15, k=1)
        adjacency = (upper | upper.T).astype(float)
        out = gcn_forward(names[:n], from_dense(oracle_normalized_adjacency(adjacency)), params).value
        perm = rng.permutation(n)
        a_p = from_dense(oracle_normalized_adjacency(adjacency[np.ix_(perm, perm)]))
        out_p = gcn_forward([names[i] for i in perm], a_p, params).value
        assert np.array_equal(out_p, out[perm]), f"{n} nodes"


def test_gcn_gradients_match_finite_differences():
    g = tiny_graph()
    params = random_gcn(g.names, 3, RNG, n_layers=2)
    leaves = [params.embeddings] + list(params.layers)
    a_hat = normalized_adjacency(g)

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
    out = multi_head_attention(x, m, params, lone(x, m)).value
    assert np.allclose(out, np.tile(out[0], (5, 1)), atol=1e-12)


# ---------------------------------------------------------------------------
# sparse sorted propagation against the dense sorted oracle


def random_tree(n, rng):
    adjacency = np.zeros((n, n))
    for i in range(1, n):
        j = rng.integers(0, i)
        adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency


def random_graph(n, rng, p=0.15):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return (upper | upper.T).astype(float)


def stacked(blocks):
    """The block-diagonal ``SparseRows`` of dense ``blocks``, as a batch composes it."""
    return SparseRows.block_diagonal([from_dense(b) for b in blocks])


def dense_block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out, at = np.zeros((n, n)), 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


def oracle_by_chunks(a, h, chunk=16):
    """The dense oracle a few rows at a time: its n x n x d array stays small."""
    return np.concatenate([oracle_canonical_matmul(a[i : i + chunk], h) for i in range(0, len(a), chunk)])


def propagation_cases(rng):
    """(name, block list) pairs: trees, a block-diagonal batch, dense graphs."""
    base = oracle_normalized_adjacency(oracle_adjacency(load_base_graph(default_base_graph_path())))
    return [
        ("tree-1", [oracle_normalized_adjacency(random_tree(1, rng))]),
        ("tree-17", [oracle_normalized_adjacency(random_tree(17, rng))]),
        ("tree-240", [oracle_normalized_adjacency(random_tree(240, rng))]),
        ("batch", [base] + [oracle_normalized_adjacency(random_graph(n, rng)) for n in (1, 5, 29, 60, 117)]),
        ("dense-40", [oracle_normalized_adjacency(np.ones((40, 40)) - np.eye(40))]),
        ("dense-random", [rng.normal(size=(33, 33))]),
    ]


@pytest.mark.parametrize("d", [8, 32, 512])
def test_sparse_propagation_equals_the_dense_sorted_oracle_bitwise(d):
    rng = np.random.default_rng(d)
    for name, blocks in propagation_cases(rng):
        a = stacked(blocks)
        dense = dense_block_diagonal(blocks)
        n = len(dense)
        relu_h = np.maximum(rng.normal(size=(n, d)), 0.0)  # about half ReLU zeros
        signed_h = np.where(rng.random((n, d)) < 0.3, 0.0, rng.normal(size=(n, d)))
        for h in (relu_h, signed_h):
            out = canonical_matmul(a, Tensor(h)).value
            expected = oracle_by_chunks(dense, h)
            assert np.array_equal(out, expected), name
            assert np.array_equal(np.signbit(out), np.signbit(expected)), name  # zeros too


def test_composed_block_diagonal_equals_grouping_the_whole_matrix():
    rng = np.random.default_rng(11)
    blocks = [b for _, bs in propagation_cases(rng) for b in bs] + [np.zeros((3, 3)), rng.normal(size=(4, 7))]
    parts = [from_dense(b) for b in blocks]
    for _ in range(6):
        order = rng.permutation(len(blocks))[: rng.integers(1, len(blocks) + 1)]
        got = SparseRows.block_diagonal([parts[i] for i in order])
        values, groups, t_groups = oracle_block_diagonal([blocks[i] for i in order])
        assert (got.n_rows, got.n_cols) == tuple(np.sum([blocks[i].shape for i in order], axis=0))
        assert np.array_equal(got.value[:, 0], values)
        for got_groups, want_groups in ((got.groups, groups), (got.t_groups, t_groups)):
            assert len(got_groups) == len(want_groups)
            for got_group, want_group in zip(got_groups, want_groups):
                for a, b in zip(got_group, want_group):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


def test_sparse_propagation_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    blocks = [oracle_normalized_adjacency(random_tree(5, rng)), oracle_normalized_adjacency(random_graph(6, rng, 0.5))]
    a = stacked(blocks)
    h = Tensor(rng.normal(size=(11, 3)))
    probe = Tensor(rng.normal(size=(11, 3)))

    def build():
        return sum_all(mul(canonical_matmul(a, h), probe))

    grads = parameter_gradients(build(), [h])
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), [h])[0]
    assert relative_error(numeric, grads[h]).max() < 1e-6
    assert np.allclose(grads[h], dense_block_diagonal(blocks).T @ probe.value, atol=1e-12)


def test_batched_gcn_keeps_each_graph_to_itself():
    g = load_base_graph(default_base_graph_path())
    params = random_gcn(g.names + ["x"], 8, RNG, n_layers=2)
    small = from_dense(oracle_normalized_adjacency(random_graph(4, RNG, 0.6)))
    names = g.names + ["x", "lung", "heart", "mystery"]
    a = SparseRows.block_diagonal([normalized_adjacency(g), small])
    out = gcn_forward(names, a, params).value
    alone = [
        gcn_forward(g.names, normalized_adjacency(g), params).value,
        gcn_forward(names[g.node_count() :], small, params).value,
    ]
    assert np.allclose(out, np.concatenate(alone), rtol=1e-12, atol=1e-12)
