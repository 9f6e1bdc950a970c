import json
import tracemalloc

import numpy as np
import pytest

from geokd import config
from geokd.errors import GraphParseError, ValidationError
from geokd.graphs import (
    Graph,
    _rng,
    adjacency,
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
from geokd.models import GnnModel, build_model


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


@pytest.mark.parametrize("args, message", [
    ({"edges": [(0, 1), (2, 5)]}, "edges: pair 1 [2, 5] has an endpoint outside [0, 4)"),
    ({"edges": [(0, 1), (3, 3)]}, "edges: pair 1 [3, 3] is a self-loop"),
    ({"edges": [(2, 1), (0, 1), (1, 2)]}, "edges: duplicate edge [1, 2]"),
    ({"num_nodes": 0}, "num_nodes: expected an integer >= 1, got 0"),
    ({"features": np.zeros((3, 2))}, "features: 3 rows, expected one per node (4)"),
    ({"labels": [0, 1, 0]}, "labels: 3 entries, expected one per node (4)"),
    ({"labels": [0, -1, 0, 1]}, "labels[1]: training node without a label (-1)"),
    ({"val": [2, 5]}, "masks.val: id 5 outside [0, 4)"),
    ({"val": [2, 1]}, "masks.val: id 1 is also in masks.train"),
    ({"test": [3, 2]}, "masks.test: id 2 is also in masks.val"),
    ({"train": [1, 0, 1, 0]}, "masks.train: id 0 is repeated"),
])
def test_structural_errors_name_their_field(args, message):
    kw = {"num_nodes": 4, "edges": [(0, 1)], "features": np.zeros((4, 2)),
          "labels": [0, 1, 0, 1], "train": [0, 1], "val": [2], "test": [3], **args}
    with pytest.raises(GraphParseError) as exc:
        Graph(kw["num_nodes"], kw["edges"], kw["features"], kw["labels"], kw["train"],
              kw["val"], kw["test"])
    assert str(exc.value).startswith(message)


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
    support = adjacency(g).densify() + np.eye(g.num_nodes)
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


# --------------------------------------------------------------------------
# bucketed spmm on graph operators, property-checked over seeded graphs


def seeded_graph(seed):
    """A random graph of 1 to 40 nodes; edge density 0 to 0.5, so some draws
    have no edges and many have isolated nodes."""
    rng = np.random.default_rng([seed, 61])
    n = int(rng.integers(1, 41))
    upper = np.triu(rng.random((n, n)) < rng.choice([0.0, 0.03, 0.1, 0.5]), 1)
    return Graph(n, np.argwhere(upper), np.zeros((n, 1)), [0] * n, [0], [], [])


def graph_operators(g, rng):
    """Every operator spmm runs on g: the normalized adjacency, the Laplacian,
    the binary adjacency and its restriction to a batch with repeated ids."""
    ids = rng.integers(0, g.num_nodes, size=int(rng.integers(1, 2 * g.num_nodes + 2)))
    return [normalize_adjacency(g), laplacian_sym(g), adjacency(g), adjacency(g, ids)]


@pytest.mark.parametrize("seed", range(40))
def test_matmul_dense_matches_densify_on_seeded_graphs(seed):
    g = seeded_graph(seed)
    rng = np.random.default_rng([seed, 62])
    for m in graph_operators(g, rng):
        for d in (1, 3):
            x = rng.uniform(-1, 1, size=(m.cols, d))
            want = m.densify() @ x
            assert np.max(np.abs(m.matmul_dense(x) - want), initial=0.0) < 1e-12
            # values given per entry, in the stored order, then the stored ones again
            data = rng.uniform(-1, 1, size=m.nnz)
            other = np.zeros(m.shape)
            other[m.row_ids, m.indices] = data
            assert np.max(np.abs(m.matmul_dense(x, data) - other @ x), initial=0.0) < 1e-12
            assert np.max(np.abs(m.matmul_dense(x) - want), initial=0.0) < 1e-12


def test_seeded_graphs_cover_the_edge_cases():
    # the seeds above reach every case the degree buckets special-case
    graphs = [seeded_graph(seed) for seed in range(40)]
    assert any(g.num_nodes == 1 for g in graphs)
    assert any(g.num_edges == 0 and g.num_nodes > 1 for g in graphs)
    assert any(0 < len(np.unique(g.edges)) < g.num_nodes for g in graphs)  # isolated nodes


@pytest.mark.parametrize("ids", [[0, 0], [2, 2, 2, 0], [1, 3, 1, 3, 4, 4]])
def test_matmul_dense_on_a_batch_with_repeated_ids(ids):
    # copies of one node share its edges, and stay unlinked to each other
    g = Graph(5, [(0, 2), (1, 3), (2, 3), (3, 4)], np.zeros((5, 1)), [0] * 5, [0], [], [])
    a = adjacency(g, ids)
    full = adjacency(g).densify()
    np.testing.assert_array_equal(a.densify(), full[np.ix_(ids, ids)])
    x = np.random.default_rng(63).uniform(-1, 1, size=(len(ids), 2))
    assert np.max(np.abs(a.matmul_dense(x) - full[np.ix_(ids, ids)] @ x)) < 1e-12
    data = np.arange(1.0, a.nnz + 1)
    dense = np.zeros(a.shape)
    dense[a.row_ids, a.indices] = data
    assert np.max(np.abs(a.matmul_dense(x, data) - dense @ x), initial=0.0) < 1e-12


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


def looped_split_nodes(g_complete, pir, seed):
    """split_nodes as a loop over every node and edge with set lookups: the
    reference the vectorized version must match byte for byte."""
    train = g_complete.train_mask
    drawn = _rng(seed, 102).choice(len(train), size=int(round(pir * len(train))), replace=False)
    removed = set(train[drawn].tolist())
    kept = np.array([i for i in range(g_complete.num_nodes) if i not in removed], dtype=np.int64)
    new_id = -np.ones(g_complete.num_nodes, dtype=np.int64)
    new_id[kept] = np.arange(len(kept))
    edges = [(new_id[u], new_id[v]) for u, v in g_complete.edges
             if u not in removed and v not in removed]

    def remap(m):
        return new_id[np.array([i for i in m if i not in removed], dtype=np.int64)]

    g = Graph(len(kept), np.array(edges, dtype=np.int64).reshape(-1, 2),
              g_complete.features.values[kept], g_complete.labels[kept], remap(train),
              remap(g_complete.val_mask), remap(g_complete.test_mask))
    return g, kept


@pytest.mark.parametrize("pir", [0.0, 0.3, 0.5, 1.0])
def test_split_nodes_matches_the_looped_reference(complete, pir):
    (g, ids), (ref, ref_ids) = split_nodes(complete, pir, 14), looped_split_nodes(complete, pir, 14)
    assert g.num_nodes == ref.num_nodes
    pairs = [(ids, ref_ids), (g.features.values, ref.features.values)] + [
        (getattr(g, k), getattr(ref, k))
        for k in ("edges", "labels", "train_mask", "val_mask", "test_mask")]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


def triu_sbm_reference(blocks, p_in, p_out, feature_dim, noise_sigma, seed):
    """sbm_generate's edges and features, every pair drawn in one call over
    np.triu_indices(n, 1)."""
    n = sum(blocks)
    labels = np.repeat(np.arange(len(blocks)), blocks)
    rng = np.random.default_rng([seed, 103])
    iu, ju = np.triu_indices(n, k=1)
    hit = rng.random(len(iu)) < np.where(labels[iu] == labels[ju], p_in, p_out)
    feats = np.zeros((n, feature_dim))
    feats[np.arange(n), labels] = 1.0
    feats += noise_sigma * rng.standard_normal((n, feature_dim))
    return np.stack([iu[hit], ju[hit]], axis=1), feats


# n = 1025 and 1400 draw the triangle in two row chunks, the last of 2 rows
# for n = 1025
@pytest.mark.parametrize("blocks", [[1], [3, 4], [100, 120, 80], [1000, 24, 1], [900, 500]])
def test_sbm_chunked_draws_match_one_triu_draw(blocks):
    g = sbm_generate(blocks, 0.3, 0.02, 5, 0.5, 7)
    edges, feats = triu_sbm_reference(blocks, 0.3, 0.02, 5, 0.5, 7)
    assert g.edges.dtype == edges.dtype and g.edges.shape == edges.shape
    np.testing.assert_array_equal(g.edges, edges)
    np.testing.assert_array_equal(g.features.values, feats)


def test_sbm_memory_is_below_one_pair_array():
    # np.triu_indices at n = 6000 alone holds two 18M-entry index arrays (288 MB)
    n = 6000
    tracemalloc.start()
    try:
        g = sbm_generate([n // 4] * 4, 0.01, 0.001, 8, 0.5, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_nodes == n
    assert peak < n * n * 8 / 4


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


def test_load_scans_for_booleans_only_when_the_text_holds_one(tmp_path, complete,
                                                             monkeypatch):
    path, ckpt = tmp_path / "g.json", tmp_path / "model.json"
    save_graph(complete, path)
    build_model("gcn", complete.features.shape[1], 8, 2, 3).save(ckpt)
    monkeypatch.setattr(config, "_holds_bool", lambda value: pytest.fail("scanned"))
    assert load_graph(path).num_nodes == complete.num_nodes
    assert GnnModel.load(ckpt).dims == [complete.features.shape[1], 8, 3]


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
