import json

import numpy as np
import pytest

from geokd.errors import GraphParseError, ValidationError
from geokd import tensor as T
from geokd.graphs import (
    Graph,
    Measure,
    edge_endpoints,
    graph_to_dict,
    laplacian_sym,
    load_graph,
    normalize_adjacency,
    save_graph,
    sbm_generate,
    split_edges,
    split_nodes,
    write_json,
)


def tiny_graph(num_nodes=2, edges=((0, 1),)):
    feats = np.arange(num_nodes * 2, dtype=float).reshape(num_nodes, 2)
    labels = np.zeros(num_nodes, dtype=int)
    return Graph(num_nodes, list(edges), feats, labels, [0], [], [])


# --------------------------------------------------------------------------
# construction


def test_rejects_out_of_range_edges():
    with pytest.raises(ValidationError):
        tiny_graph(2, [(0, 2)])


def test_rejects_self_loops_and_duplicates():
    with pytest.raises(ValidationError):
        tiny_graph(2, [(1, 1)])
    with pytest.raises(ValidationError):
        tiny_graph(2, [(0, 1), (1, 0)])


def test_rejects_overlapping_masks():
    with pytest.raises(ValidationError):
        Graph(2, [], np.zeros((2, 1)), [0, 0], [0], [0], [])


def test_rejects_unlabeled_train_node():
    with pytest.raises(ValidationError):
        Graph(2, [], np.zeros((2, 1)), [-1, 0], [0], [], [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_features(bad):
    feats = np.zeros((3, 2))
    feats[2, 1] = bad
    with pytest.raises(ValidationError, match=r"features\[2\]\[1\]"):
        Graph(3, [], feats, [0, 0, 0], [0], [], [])


# --------------------------------------------------------------------------
# operators


def test_normalize_single_node():
    g = Graph(1, [], [[1.0]], [0], [0], [], [])
    np.testing.assert_array_equal(normalize_adjacency(g).densify(), [[1.0]])


def test_normalize_two_nodes_one_edge():
    np.testing.assert_allclose(
        normalize_adjacency(tiny_graph()).densify(),
        [[0.5, 0.5], [0.5, 0.5]], atol=1e-15,
    )


def test_normalized_adjacency_support_and_symmetry():
    g = sbm_generate([6, 6], 0.5, 0.2, 3, 0.3, 1)
    a_hat = normalize_adjacency(g)
    assert a_hat.transpose() is a_hat  # backward reuses the forward plan
    a = a_hat.densify()
    np.testing.assert_array_equal(a, a.T)
    support = g.adjacency_dense() + np.eye(g.num_nodes)
    assert np.all((a > 0) == (support > 0))


def test_operators_match_loop_references():
    g = sbm_generate([7, 9, 5], 0.5, 0.1, 3, 0.3, 4)
    deg = np.ones(g.num_nodes)
    for u, v in g.edges:
        deg[u] += 1.0
        deg[v] += 1.0
    np.testing.assert_array_equal(g.degrees_with_self_loop(), deg)
    a = normalize_adjacency(g).densify()
    lap = -a
    for r in range(g.num_nodes):
        lap[r, r] = 1.0 - a[r, r]
    np.testing.assert_array_equal(laplacian_sym(g).densify(), lap)


def test_laplacian_single_node():
    g = Graph(1, [], [[1.0]], [0], [0], [], [])
    np.testing.assert_array_equal(laplacian_sym(g).densify(), [[0.0]])


def test_laplacian_two_nodes():
    np.testing.assert_allclose(
        laplacian_sym(tiny_graph()).densify(),
        [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15,
    )


def test_laplacian_psd_and_spectrum():
    g = sbm_generate([10, 10], 0.4, 0.1, 4, 0.5, 2)
    lam = np.linalg.eigvalsh(laplacian_sym(g).densify())
    assert lam.min() >= -1e-10
    assert lam.max() <= 2.0 + 1e-10


def test_adjacency_plus_laplacian_is_identity():
    g = sbm_generate([8, 8], 0.5, 0.15, 3, 0.5, 3)
    total = normalize_adjacency(g).densify() + laplacian_sym(g).densify()
    assert np.max(np.abs(total - np.eye(g.num_nodes))) < 1e-12


def test_edge_endpoints_gather_and_scatter_like_add_at():
    g = sbm_generate([30, 30], 0.3, 0.05, 4, 0.5, 5)
    sel_u, sel_v = edge_endpoints(g)
    assert edge_endpoints(g)[0] is sel_u  # cached on the graph
    rng = np.random.default_rng(6)
    h = T.parameter(rng.normal(size=(g.num_nodes, 7)))
    upstream = rng.normal(size=(g.num_edges, 7))
    for side, sel in enumerate((sel_u, sel_v)):
        out = T.spmm(sel, h)
        assert out.values.tobytes() == h.values[g.edges[:, side]].tobytes()
        h.zero_grad()
        T.sum_all(T.mul_elem(out, T.constant(upstream))).backward()
        want = np.zeros_like(h.values)
        np.add.at(want, g.edges[:, side], upstream)
        assert h.grad.tobytes() == want.tobytes()


def test_measure_modes():
    g = tiny_graph()
    assert np.all(Measure.uniform(2).values == 1.0)
    np.testing.assert_allclose(Measure.inverse_degree(g).values, [0.5, 0.5])
    with pytest.raises(ValidationError):
        Measure("uniform", [0.0, 1.0])


# --------------------------------------------------------------------------
# privileged-information splits


@pytest.fixture
def complete():
    return sbm_generate([10, 10], 0.6, 0.2, 4, 0.5, 4)


def test_split_edges_extremes(complete):
    assert split_edges(complete, 0.0, 0).num_edges == complete.num_edges
    assert split_edges(complete, 1.0, 0).num_edges == 0


def test_split_edges_count_and_subset():
    g_c = sbm_generate([4, 4], 1.0, 0.0, 2, 0.0, 5)
    # two cliques of 4: 12 edges total
    assert g_c.num_edges == 12
    g = split_edges(g_c, 0.5, 7)
    assert g.num_edges == 6
    complete_set = {tuple(e) for e in g_c.edges}
    assert all(tuple(e) in complete_set for e in g.edges)


def test_split_edges_deterministic(complete):
    a = split_edges(complete, 0.3, 9)
    b = split_edges(complete, 0.3, 9)
    np.testing.assert_array_equal(a.edges, b.edges)


def test_split_edges_rejects_bad_pir(complete):
    with pytest.raises(ValidationError):
        split_edges(complete, 1.5, 0)


def test_split_nodes_identity_at_zero(complete):
    g, remap = split_nodes(complete, 0.0, 0)
    assert g.num_nodes == complete.num_nodes
    np.testing.assert_array_equal(remap, np.arange(complete.num_nodes))
    np.testing.assert_array_equal(g.edges, complete.edges)


def test_split_nodes_removes_half_train(complete):
    n_train = len(complete.train_mask)
    g, remap = split_nodes(complete, 0.5, 11)
    assert len(g.train_mask) == n_train - round(0.5 * n_train)
    assert g.num_nodes == complete.num_nodes - round(0.5 * n_train)
    # every surviving edge maps back onto kept nodes only
    old_edges = {tuple(sorted((remap[u], remap[v]))) for u, v in g.edges}
    assert all(u in set(remap.tolist()) and v in set(remap.tolist()) for u, v in old_edges)
    assert len(g.val_mask) == len(complete.val_mask)
    assert len(g.test_mask) == len(complete.test_mask)


def test_split_nodes_edges_are_induced_subgraph(complete):
    g, remap = split_nodes(complete, 0.4, 12)
    sub_edges = {
        tuple(sorted((int(np.where(remap == u)[0][0]), int(np.where(remap == v)[0][0]))))
        for u, v in complete.edges
        if u in set(remap.tolist()) and v in set(remap.tolist())
    }
    assert {tuple(e) for e in g.edges} == sub_edges


def test_split_nodes_features_follow_remap(complete):
    g, remap = split_nodes(complete, 0.5, 13)
    np.testing.assert_array_equal(g.features.values, complete.features.values[remap])
    np.testing.assert_array_equal(g.labels, complete.labels[remap])


# --------------------------------------------------------------------------
# SBM generation


def test_sbm_no_edges_when_p_zero():
    assert sbm_generate([5, 5], 0.0, 0.0, 2, 0.1, 0).num_edges == 0


def test_sbm_two_pairs():
    g = sbm_generate([2, 2], 1.0, 0.0, 2, 0.0, 0)
    assert g.num_edges == 2
    assert {tuple(e) for e in g.edges} == {(0, 1), (2, 3)}


def test_sbm_deterministic():
    a = sbm_generate([6, 6], 0.4, 0.1, 4, 1.0, 42)
    b = sbm_generate([6, 6], 0.4, 0.1, 4, 1.0, 42)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.features.values, b.features.values)
    np.testing.assert_array_equal(a.train_mask, b.train_mask)


def test_sbm_masks_follow_two_one_one():
    g = sbm_generate([100, 100], 0.1, 0.01, 8, 1.0, 0)
    assert len(g.train_mask) == 100
    assert len(g.val_mask) == 50
    assert len(g.test_mask) == 50


def test_sbm_validates_inputs():
    with pytest.raises(ValidationError):
        sbm_generate([4], 1.5, 0.0, 2, 0.1, 0)
    with pytest.raises(ValidationError):
        sbm_generate([4, 4], 0.5, 0.1, 1, 0.1, 0)  # feature_dim < blocks


# --------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip(tmp_path, complete):
    path = tmp_path / "g.json"
    save_graph(complete, path)
    g = load_graph(path)
    assert g.num_nodes == complete.num_nodes
    np.testing.assert_array_equal(g.edges, complete.edges)
    np.testing.assert_array_equal(g.features.values, complete.features.values)
    np.testing.assert_array_equal(g.labels, complete.labels)
    np.testing.assert_array_equal(g.test_mask, complete.test_mask)


def test_save_graph_bytes(tmp_path, complete):
    path = tmp_path / "g.json"
    save_graph(complete, path)
    assert path.read_text() == json.dumps(graph_to_dict(complete)) + "\n"


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "summary.json"
    write_json(path, {"best_epoch": 3}, indent=2)
    before = path.read_bytes()
    # json.dump streams: the first key is written before the second fails
    with pytest.raises(TypeError):
        write_json(path, {"best_epoch": 4, "model": object()}, indent=2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def test_load_rejects_out_of_range_edge(tmp_path, complete):
    doc = graph_to_dict(complete)
    doc["edges"] = [[0, complete.num_nodes]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_graph(path)


def test_load_missing_features_names_field(tmp_path, complete):
    doc = graph_to_dict(complete)
    del doc["features"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphParseError) as exc:
        load_graph(path)
    assert "features" in str(exc.value)
