import gc
import importlib.util
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from geokd import config
from geokd.errors import GeokdError, GraphParseError, ValidationError
from geokd.graphs import (
    Graph,
    _rng,
    adjacency,
    graph_to_dict,
    laplacian_sym,
    load_graph,
    normalize_adjacency,
    propagated_features,
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
    # int32 ids: 2^31 nodes are refused before anything is allocated, and one
    # fewer passes on to the features check
    ({"num_nodes": 2 ** 31}, "num_nodes: expected an integer below 2^31 (int32 node ids), "
                             "got 2147483648"),
    ({"num_nodes": 2 ** 31 - 1}, "features: 4 rows, expected one per node (2147483647)"),
    ({"features": np.zeros((3, 2))}, "features: 3 rows, expected one per node (4)"),
    ({"labels": [0, 1, 0]}, "labels: 3 entries, expected one per node (4)"),
    ({"labels": [0, -1, 0, 1]}, "labels[1]: training node without a label (-1)"),
    ({"labels": [0, -2, 0, 1]}, "labels[1]: expected a class id >= 0 or -1 (unlabeled), got -2"),
    ({"labels": [0, 1, -3, 1]}, "labels[2]: expected a class id >= 0 or -1 (unlabeled), got -3"),
    ({"labels": [0, 1, 0, -7]}, "labels[3]: expected"),  # a test node's
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


def dense_with(m, data):
    """m's dense matrix with data in place of its stored values, entry for
    entry in the stored order, placed through the bucket views."""
    out = np.zeros(m.shape)
    for rows, lo, idx, _ in m._buckets:
        out[rows, idx] = data[lo:lo + idx.size].reshape(idx.shape)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_matmul_dense_matches_densify_on_seeded_graphs(seed):
    g = seeded_graph(seed)
    rng = np.random.default_rng([seed, 62])
    for m in graph_operators(g, rng):
        for d in (1, 3):
            x = rng.uniform(-1, 1, size=(m.shape[0], d))
            want = m.densify() @ x
            assert np.max(np.abs(m.matmul_dense(x) - want), initial=0.0) < 1e-12
            # values given per entry, in the stored order, then the stored ones again
            data = rng.uniform(-1, 1, size=m.nnz)
            other = dense_with(m, data)
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
    dense = dense_with(a, data)
    assert np.max(np.abs(a.matmul_dense(x, data) - dense @ x), initial=0.0) < 1e-12


def test_operators_hold_12_bytes_an_entry_and_4_a_row():
    # an n = 800 SBM of mean degree about 16, as the benchmark's gkd-gauss input
    g = sbm_generate([200] * 4, 0.064, 0.0053, 16, 0.5, 3)
    assert g.edges.dtype == np.int32 and 6_000 < g.num_edges < 6_600
    for m in (normalize_adjacency(g), adjacency(g)):
        assert not hasattr(m, "row_ids")
        assert m.indices.dtype == np.int32
        arrays = [m.indices, m.data]
        for rows, _, idx, vals in m._buckets:
            assert rows.dtype == idx.dtype == np.int32
            arrays += [rows, idx, vals]
        held = {id(b): b.nbytes for b in (a if a.base is None else a.base for a in arrays)}
        assert sum(held.values()) == 12 * m.nnz + 4 * g.num_nodes


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


def test_split_edges_shares_the_complete_graphs_features(complete):
    assert split_edges(complete, 0.5, 0).features is complete.features


def test_dropped_operators_are_freed_and_rebuilt_equal():
    g = sbm_generate([6, 6], 0.5, 0.1, 3, 0.5, 4)
    built = [normalize_adjacency(g), laplacian_sym(g), adjacency(g), propagated_features(g, 2)[2]]
    want = [m.densify() for m in built[:3]] + [built[3].values.copy()]
    refs = [weakref.ref(m) for m in built[:3]] + [weakref.ref(built[3].values)]
    del built
    gc.disable()  # freed by reference counts alone
    try:
        g.drop_operators()
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
    assert g._hops == [g.features]
    again = [normalize_adjacency(g), laplacian_sym(g), adjacency(g), propagated_features(g, 2)[2]]
    for a, b in zip([m.densify() for m in again[:3]] + [again[3].values], want):
        np.testing.assert_array_equal(a, b)


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
    assert g.edges.dtype == np.int32 and g.edges.shape == edges.shape
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


# --------------------------------------------------------------------------
# sliced reading: load_graph reads features and edges a slice of rows at a
# time, and every graph or refusal must equal the whole-document parse


SBM_PATH = Path(__file__).resolve().parents[1] / "bench" / "sbm.py"
ARRAYS = ("features", "edges")


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("bench_sbm", SBM_PATH)
    sbm = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sbm)
    docs = {f"sbm{n}": sbm.make_sbm(n, 3, degree)  # the bench's toy and workload graphs
            for n, degree in ((48, 4.0), (800, 16.0), (3200, 16.0))}
    texts = {name: json.dumps(doc) + "\n" for name, doc in docs.items()}  # as write_sbm writes
    texts["compact"] = json.dumps(docs["sbm3200"], separators=(",", ":"))  # "edges":[[
    saved = tmp_path_factory.mktemp("saved") / "g.json"
    save_graph(sbm_generate([15, 15], 0.4, 0.05, 6, 0.5, 0), saved)
    texts["saved"] = saved.read_text()
    return texts


def outcome(path):
    try:
        g = load_graph(path)
    except GeokdError as e:
        return type(e).__name__, str(e)
    arrays = (g.features.values, g.edges, g.labels, g.train_mask, g.val_mask, g.test_mask)
    return g.num_nodes, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def assert_reads_as_the_whole_document(tmp_path, monkeypatch, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    sliced = outcome(path)
    with monkeypatch.context() as m:
        m.setattr(config, "_sliced", lambda text, keys: None)  # one json.loads of the whole
        assert sliced == outcome(path)
    return sliced


@pytest.mark.parametrize("name", ["sbm48", "sbm3200", "saved", "compact"])
def test_sliced_read_is_bit_equal_to_the_whole_document(tmp_path, monkeypatch, texts, name):
    assert config._sliced(texts[name], ARRAYS) is not None  # the slices were read
    num_nodes, _ = assert_reads_as_the_whole_document(tmp_path, monkeypatch, texts[name])
    assert num_nodes == json.loads(texts[name])["num_nodes"]


def first_slice_rows(text, key):
    start = text.index(f'"{key}": [[') + len(key) + 5
    return text.count("], [", start, text.index("],", start + config.SLICE_CHARS)) + 1


def edit(mutate):
    """A text edit that applies mutate(doc) to the parsed document."""
    def apply(text):
        doc = json.loads(text)
        mutate(doc)
        return json.dumps(doc)
    return apply


def put(field, value):
    """An edit that sets field (``masks.<key>`` for a mask) to value(doc)."""
    def mutate(doc):
        owner, key = (doc["masks"], field[6:]) if field.startswith("masks.") else (doc, field)
        owner[key] = value(doc)
    return edit(mutate)


def set_entry(key, row, col, value):
    return edit(lambda doc: doc[key][row].__setitem__(col, value))


EDITS = {
    # the refusals tests/test_cli.py and the tests above check
    "float ids": put("edges", lambda doc: [[0.7, 1], [2, 3.9]]),
    "string id": put("edges", lambda doc: [[0, 1], [2, "3"]]),
    "float train id": put("masks.train", lambda doc: [0, 1.5]),
    "float test id": put("masks.test", lambda doc: [2.0]),
    "float label": put("labels", lambda doc: [0, 1.6] + [0] * (doc["num_nodes"] - 2)),
    "float num_nodes": put("num_nodes", lambda doc: doc["num_nodes"] - 0.1),
    "boolean num_nodes": put("num_nodes", lambda doc: True),
    "scalar mask": put("masks.train", lambda doc: 3),
    "ragged features": put("features", lambda doc: doc["features"][:-1] + [[0.5]]),
    "string feature": set_entry("features", -1, 0, "x"),
    "numeric string feature": set_entry("features", -1, 0, "0.5"),
    "triples": put("edges", lambda doc: [[0, 1, 2], [3, 4, 5]]),
    "flat ids": put("edges", lambda doc: [0, 1, 2, 3]),
    "ragged edges": put("edges", lambda doc: [[0, 1], [2]]),
    "third level": put("edges", lambda doc: [[[0, 1]]]),
    **{f"boolean in {field}": put(field, lambda doc, field=field: [True] + (
        doc["masks"][field[6:]] if field.startswith("masks.") else doc[field])[1:])
       for field in ("labels", "masks.train", "masks.val", "masks.test")},
    "boolean edge": set_entry("edges", 0, 0, True),
    "boolean feature": set_entry("features", 0, 0, True),
    "edge out of range": put("edges", lambda doc: [[0, doc["num_nodes"]]]),
    "self-loop": put("edges", lambda doc: [[4, 4]]),
    "a label too few": put("labels", lambda doc: doc["labels"][:-1]),
    "masks overlap": put("masks.val", lambda doc: doc["masks"]["val"] + doc["masks"]["train"][:1]),
    "test id out of range": put("masks.test", lambda doc: [doc["num_nodes"] + 3]),
    "repeated train id": put("masks.train", lambda doc: doc["masks"]["train"] * 2),
    "a feature row too few": put("features", lambda doc: doc["features"][:-1]),
    "features missing": edit(lambda doc: doc.pop("features")),
    "NaN feature": set_entry("features", 3, 0, float("nan")),
    # what only the slice path could get wrong
    "true in a late slice": set_entry("features", -1, 2, True),
    "null in a late slice": set_entry("features", -2, 1, None),
    "null edge in the last slice": set_entry("edges", -1, 0, None),
    "ragged row in the last slice": put("features", lambda doc: doc["features"][:-1] + [
        doc["features"][-1][:-1]]),
    "widths differ between slices": lambda text: put("features", lambda doc: [
        row if i < first_slice_rows(text, "features") else row[:-1]
        for i, row in enumerate(doc["features"])])(text),
    "1.0 in the last edge": edit(lambda doc: doc["edges"][-1].__setitem__(
        1, float(doc["edges"][-1][1]))),
    "int beyond int64 in the last edge": set_entry("edges", -1, 1, 2 ** 64),
    "2**63 in the last edge": set_entry("edges", -1, 1, 2 ** 63),
    "int beyond int64 in the last feature row": set_entry("features", -1, 0, 2 ** 64),
    "NaN and Infinity in the last slices": edit(lambda doc: (
        doc["features"][-1].__setitem__(0, float("inf")),
        doc["edges"][-1].__setitem__(0, float("nan")))),
    "features repeated at top level": lambda text: text.rstrip()[:-1] + ', "features": [[0.5]]}',
    "ragged features, then repeated": lambda text: text.replace(
        '"features": [[', '"features": [[1], [2, 3]], "features": [[', 1),
    "features nested under masks": edit(lambda doc: doc["masks"].__setitem__(
        "features", doc.pop("features"))),
    "features only as a string": edit(lambda doc: doc.update(note=str(doc.pop("features")))),
    "features only inside a string": edit(lambda doc: doc.update(
        note='"features": ' + json.dumps(doc.pop("features")))),
    "features key spelled with an escape": lambda text: text.replace(
        '"features"', '"\\u0066eatures"'),
    # a top-level value equal to the placeholder, after the span that was sliced
    "nested features, then the placeholder": lambda text: text.replace(
        '"features": [[', '"masks": {"features": [[', 1).replace(
        '], "labels": ', ']}, "features": "<rows>", "labels": ', 1),
    "the placeholder under an escaped key": lambda text: text.rstrip()[:-1] + (
        ', "\\u0066eatures": "<rows>"}'),
    "invalid JSON after the arrays": lambda text: text.rstrip()[:-1] + ",}",
    # documents that load
    '"edges":[[ without spaces': lambda text: text.replace('"edges": [[', '"edges":[['),
    "indented": lambda text: json.dumps(json.loads(text), indent=1),
    "integer features": edit(lambda doc: doc.update(features=[
        [round(x) for x in row] for row in doc["features"]])),
    "no edges": put("edges", lambda doc: []),
    "keys in reverse order": lambda text: json.dumps(dict(reversed(json.loads(text).items()))),
}


@pytest.mark.parametrize("base,slice_chars", [("saved", 1), ("sbm800", config.SLICE_CHARS)])
@pytest.mark.parametrize("case", EDITS)
def test_sliced_read_matches_the_whole_document_after_each_edit(tmp_path, monkeypatch, texts,
                                                                base, slice_chars, case):
    # a slice of one character is one row: every row boundary is a slice boundary
    monkeypatch.setattr(config, "SLICE_CHARS", slice_chars)
    text = texts[base]
    assert first_slice_rows(text, "edges") < len(json.loads(text)["edges"])  # >= 2 slices
    assert_reads_as_the_whole_document(tmp_path, monkeypatch, EDITS[case](text))


def test_no_json_loads_call_reads_more_than_one_slice(tmp_path, monkeypatch, texts):
    path = tmp_path / "g.json"
    path.write_text(texts["sbm3200"])
    sizes, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: sizes.append(len(s)) or loads(s, **kw))
    g = load_graph(path)
    row = max(map(len, texts["sbm3200"].split("], [")[:100]))
    assert len(sizes) > len(texts["sbm3200"]) // config.SLICE_CHARS
    assert max(sizes) < config.SLICE_CHARS + 2 * row
    assert g.features.shape == (3200, 16)
