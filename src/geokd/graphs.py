"""Graph container, normalized operators, privileged-information splits, SBM.

Edges are undirected, stored once as (u, v) with u < v, no self-loops. The
normalized adjacency and Laplacian add the implicit self-loop (A + I) and are
cached on the graph, which is immutable after construction; so are the
parameter-free propagations A_hat^k X of the features and the edge endpoint
selectors.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import GraphParseError, ValidationError
from .tensor import SparseMatrix, Tensor, spmm

UNLABELED = -1


def _rng(seed, *tags):
    """Deterministic generator for a named stream of a run seed."""
    return np.random.default_rng([int(seed)] + [int(t) for t in tags])


def _canonical_edges(edges, num_nodes: int) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(arr):
        if arr.min() < 0 or arr.max() >= num_nodes:
            raise ValidationError("edge endpoint out of range")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ValidationError("self-loops are not stored")
        arr = np.sort(arr, axis=1)
        arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        if len(arr) > 1 and np.any((np.diff(arr[:, 0]) == 0) & (np.diff(arr[:, 1]) == 0)):
            raise ValidationError("duplicate edge")
    return arr


class Graph:
    """Vertices, undirected edges, node features, labels and split masks."""

    def __init__(self, num_nodes, edges, features, labels, train_mask, val_mask, test_mask):
        self.num_nodes = int(num_nodes)
        if self.num_nodes < 1:
            raise ValidationError("num_nodes must be >= 1")
        self.edges = _canonical_edges(edges, self.num_nodes)
        self.features = features if isinstance(features, Tensor) else Tensor(features)
        if self.features.shape[0] != self.num_nodes:
            raise ValidationError(
                f"features rows {self.features.shape[0]} != num_nodes {self.num_nodes}"
            )
        bad = np.argwhere(~np.isfinite(self.features.values))
        if len(bad):
            raise ValidationError(f"features[{bad[0][0]}][{bad[0][1]}] is not finite")
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (self.num_nodes,):
            raise ValidationError("labels must have one entry per node")
        self.train_mask = self._check_mask(train_mask, "train")
        self.val_mask = self._check_mask(val_mask, "val")
        self.test_mask = self._check_mask(test_mask, "test")
        combined = np.concatenate([self.train_mask, self.val_mask, self.test_mask])
        if len(np.unique(combined)) != len(combined):
            raise ValidationError("train/val/test masks overlap")
        if len(self.train_mask) and np.any(self.labels[self.train_mask] == UNLABELED):
            raise ValidationError("train node without label")
        self._norm_adj = None
        self._laplacian = None
        self._hops = [self.features]  # [X, A_hat X, ...], see propagated_features
        self._endpoints = None  # see edge_endpoints

    def _check_mask(self, mask, name):
        m = np.unique(np.asarray(mask, dtype=np.int64))
        if len(m) and (m.min() < 0 or m.max() >= self.num_nodes):
            raise ValidationError(f"{name} mask id out of range")
        return m

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels != UNLABELED]
        return int(labeled.max()) + 1 if len(labeled) else 0

    def degrees_with_self_loop(self) -> np.ndarray:
        return 1.0 + np.bincount(self.edges.ravel(), minlength=self.num_nodes)

    def adjacency_dense(self) -> np.ndarray:
        a = np.zeros((self.num_nodes, self.num_nodes))
        if len(self.edges):
            a[self.edges[:, 0], self.edges[:, 1]] = 1.0
            a[self.edges[:, 1], self.edges[:, 0]] = 1.0
        return a


class Measure:
    """Per-node weights for kernel aggregation; uniform or inverse degree."""

    def __init__(self, mode: str, values: np.ndarray):
        if mode not in ("uniform", "inverse-degree"):
            raise ValidationError(f"unknown measure mode {mode!r}")
        self.mode = mode
        self.values = np.asarray(values, dtype=np.float64)
        if np.any(self.values <= 0):
            raise ValidationError("measure values must be positive")

    @classmethod
    def uniform(cls, n: int) -> "Measure":
        return cls("uniform", np.ones(n))

    @classmethod
    def inverse_degree(cls, g: Graph) -> "Measure":
        # degree includes the implicit self-loop, so never zero
        return cls("inverse-degree", 1.0 / g.degrees_with_self_loop())


def normalize_adjacency(g: Graph) -> SparseMatrix:
    """D^{-1/2} (A + I) D^{-1/2} with D the self-loop-augmented degrees."""
    if g._norm_adj is not None:
        return g._norm_adj
    inv_sqrt = 1.0 / np.sqrt(g.degrees_with_self_loop())
    n = g.num_nodes
    rr = [np.arange(n)]
    cc = [np.arange(n)]
    vv = [inv_sqrt * inv_sqrt]
    if len(g.edges):
        u, v = g.edges[:, 0], g.edges[:, 1]
        w = inv_sqrt[u] * inv_sqrt[v]
        rr += [u, v]
        cc += [v, u]
        vv += [w, w]
    g._norm_adj = SparseMatrix.from_coo(
        n, n, np.concatenate(rr), np.concatenate(cc), np.concatenate(vv)
    )
    # entries (u, v) and (v, u) hold the same product, so the matrix is exactly
    # symmetric and backward passes reuse its matmul_dense plan
    g._norm_adj._transpose = g._norm_adj
    return g._norm_adj


def propagated_features(g: Graph, hops: int) -> list:
    """[X, A_hat X, .., A_hat^hops X] as constant tensors, each computed once.

    These products hold no parameters, so they are cached on the graph next
    to its normalized adjacency and shared by every forward pass.
    """
    while len(g._hops) <= hops:
        g._hops.append(spmm(normalize_adjacency(g), g._hops[-1]))
    return g._hops[:hops + 1]


def edge_endpoints(g: Graph) -> tuple[SparseMatrix, SparseMatrix]:
    """Selectors (S_u, S_v), each |E| x n, with S_u @ H = H[edges[:, 0]].

    Gathering rows through ``spmm`` makes the backward pass a CSR scatter-add
    over the transpose's bucket plan: each node sums its edges' gradients in
    edge order, exactly as ``np.add.at`` would, without its per-element loop.
    """
    if g._endpoints is None:
        m = g.num_edges
        indptr = np.arange(m + 1, dtype=np.int64)
        g._endpoints = tuple(
            SparseMatrix(m, g.num_nodes, indptr, g.edges[:, side], np.ones(m))
            for side in (0, 1)
        )
    return g._endpoints


def laplacian_sym(g: Graph) -> SparseMatrix:
    """Symmetric normalized Laplacian I - normalize_adjacency(g)."""
    if g._laplacian is not None:
        return g._laplacian
    a = normalize_adjacency(g)
    data = -a.data.copy()
    # each row's diagonal entry is present by construction
    diag = np.flatnonzero(a.indices == a.row_ids())
    data[diag] = 1.0 - a.data[diag]
    g._laplacian = SparseMatrix(a.rows, a.cols, a.indptr.copy(), a.indices.copy(), data)
    return g._laplacian


def split_edges(g_complete: Graph, pir: float, seed: int) -> Graph:
    """Partial graph keeping round((1-pir)*|E|) edges, removed uniformly."""
    if not 0.0 <= pir <= 1.0:
        raise ValidationError(f"pir {pir} out of [0, 1]")
    m = g_complete.num_edges
    keep = int(round((1.0 - pir) * m))
    chosen = _rng(seed, 101).choice(m, size=keep, replace=False) if m else np.array([], int)
    return Graph(
        g_complete.num_nodes,
        g_complete.edges[np.sort(chosen)],
        g_complete.features.detach(),
        g_complete.labels,
        g_complete.train_mask,
        g_complete.val_mask,
        g_complete.test_mask,
    )


def split_nodes(g_complete: Graph, pir: float, seed: int):
    """Drop round(pir*|train|) train nodes and their edges; val/test retained.

    Returns the compacted partial graph and ``kept_old_ids``: the array whose
    new-id index holds the original node id (the remap table).
    """
    if not 0.0 <= pir <= 1.0:
        raise ValidationError(f"pir {pir} out of [0, 1]")
    train = g_complete.train_mask
    n_remove = int(round(pir * len(train)))
    removed = _rng(seed, 102).choice(len(train), size=n_remove, replace=False)
    removed_ids = set(train[removed].tolist())
    kept_old_ids = np.array(
        [i for i in range(g_complete.num_nodes) if i not in removed_ids], dtype=np.int64
    )
    new_id = -np.ones(g_complete.num_nodes, dtype=np.int64)
    new_id[kept_old_ids] = np.arange(len(kept_old_ids))
    edges = [
        (new_id[u], new_id[v])
        for u, v in g_complete.edges
        if u not in removed_ids and v not in removed_ids
    ]
    def remap_mask(m):
        return new_id[np.array([i for i in m if i not in removed_ids], dtype=np.int64)]

    g = Graph(
        len(kept_old_ids),
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        g_complete.features.values[kept_old_ids],
        g_complete.labels[kept_old_ids],
        remap_mask(g_complete.train_mask),
        remap_mask(g_complete.val_mask),
        remap_mask(g_complete.test_mask),
    )
    return g, kept_old_ids


def sbm_generate(blocks, p_in: float, p_out: float, feature_dim: int,
                 noise_sigma: float, seed: int) -> Graph:
    """Stochastic block model with one-hot-plus-noise features and 2:1:1 masks."""
    blocks = [int(b) for b in blocks]
    if any(b < 1 for b in blocks):
        raise ValidationError("block sizes must be >= 1")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    if feature_dim < len(blocks):
        raise ValidationError("feature_dim must cover one-hot block indicators")
    n = sum(blocks)
    labels = np.repeat(np.arange(len(blocks)), blocks)

    rng = _rng(seed, 103)
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    hit = rng.random(len(iu)) < p
    edges = np.stack([iu[hit], ju[hit]], axis=1)

    feats = np.zeros((n, feature_dim))
    feats[np.arange(n), labels] = 1.0
    feats += noise_sigma * rng.standard_normal((n, feature_dim))

    train, val, test = [], [], []
    start = 0
    for b in blocks:
        ids = start + rng.permutation(b)
        n_train = int(round(b * 0.5))
        n_val = int(round(b * 0.25))
        train.extend(ids[:n_train])
        val.extend(ids[n_train:n_train + n_val])
        test.extend(ids[n_train + n_val:])
        start += b
    return Graph(n, edges, feats, labels, train, val, test)


# ---------------------------------------------------------------------------
# JSON persistence


def graph_to_dict(g: Graph) -> dict:
    return {
        "num_nodes": g.num_nodes,
        "features": g.features.values.tolist(),
        "labels": g.labels.tolist(),
        "edges": g.edges.tolist(),
        "masks": {
            "train": g.train_mask.tolist(),
            "val": g.val_mask.tolist(),
            "test": g.test_mask.tolist(),
        },
    }


def write_atomic(path, write) -> None:
    """Call write(f) on a temp file beside path, then move it over path.

    A reader never sees a partly written file: if write raises, the previous
    file at path is left as it was and the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc, indent: int | None = None) -> None:
    """doc as JSON and a newline, written atomically."""
    def write(f):
        json.dump(doc, f, indent=indent)
        f.write("\n")

    write_atomic(path, write)


def save_graph(g: Graph, path):
    write_json(path, graph_to_dict(g))


def _require(doc: dict, field: str):
    if field not in doc:
        raise GraphParseError(field, "missing required field")
    return doc[field]


def load_graph(path) -> Graph:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise GraphParseError("<document>", f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise GraphParseError("<document>", "expected a JSON object")
    num_nodes = _require(doc, "num_nodes")
    features = _require(doc, "features")
    labels = _require(doc, "labels")
    edges = _require(doc, "edges")
    masks = _require(doc, "masks")
    for key in ("train", "val", "test"):
        if key not in masks:
            raise GraphParseError(f"masks.{key}", "missing required field")
    try:
        return Graph(num_nodes, edges, features, labels,
                     masks["train"], masks["val"], masks["test"])
    except ValidationError:
        raise
    except (TypeError, ValueError) as e:
        raise GraphParseError("<document>", f"malformed value: {e}") from e
