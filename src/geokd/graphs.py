"""Graph container, normalized operators, privileged-information splits, SBM.

Edges are undirected, stored once as int32 (u, v) with u < v, no
self-loops. The normalized adjacency and Laplacian add the implicit
self-loop (A + I). The graph is immutable after construction and caches the
normalized adjacency, the binary adjacency and the parameter-free
propagations A_hat^k X of the features; the exact oracles alone read the
Laplacian, which is built on each call.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

from .config import array, read_document, read_field, required
from .errors import GraphParseError, ValidationError
from .tensor import SparseMatrix, Tensor, spmm

UNLABELED = -1


def _rng(seed, *tags):
    """Deterministic generator for a named stream of a run seed."""
    return np.random.default_rng([int(seed)] + [int(t) for t in tags])


def _canonical_edges(edges, num_nodes: int) -> np.ndarray:
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if len(arr):
        outside = ((arr < 0) | (arr >= num_nodes)).any(axis=1)
        for bad, what in ((outside, f"has an endpoint outside [0, {num_nodes})"),
                          (arr[:, 0] == arr[:, 1], "is a self-loop, which is not stored")):
            if bad.any():
                i = int(np.argmax(bad))
                raise GraphParseError("edges", f"pair {i} {arr[i].tolist()} {what}")
        du, dv = np.diff(arr[:, 0]), np.diff(arr[:, 1])  # canonical: u < v, rows increasing
        if (arr[:, 0] >= arr[:, 1]).any() or ((du < 0) | (du == 0) & (dv <= 0)).any():
            arr = np.sort(arr, axis=1)
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            dup = np.flatnonzero((np.diff(arr[:, 0]) == 0) & (np.diff(arr[:, 1]) == 0))
            if len(dup):
                raise GraphParseError("edges", f"duplicate edge {arr[dup[0]].tolist()}")
    return arr.astype(np.int32)  # Graph refuses num_nodes >= 2^31


class Graph:
    """Vertices, undirected edges, node features, labels and split masks."""

    def __init__(self, num_nodes, edges, features, labels, train_mask, val_mask, test_mask):
        self.num_nodes = int(num_nodes)
        if not 1 <= self.num_nodes < 2 ** 31:  # node ids are stored as int32
            want = ">= 1" if self.num_nodes < 1 else "below 2^31 (int32 node ids)"
            raise GraphParseError("num_nodes", f"expected an integer {want}, got {num_nodes}")
        self.edges = _canonical_edges(edges, self.num_nodes)
        checked = isinstance(features, Tensor)  # finite: another graph's, or load_graph's
        self.features = features if checked else Tensor(features)
        if self.features.shape[0] != self.num_nodes:
            raise GraphParseError("features", f"{self.features.shape[0]} rows, expected one "
                                  f"per node ({self.num_nodes})")
        bad = () if checked else np.argwhere(~np.isfinite(self.features.values))
        if len(bad):
            raise GraphParseError(f"features[{bad[0][0]}][{bad[0][1]}]", "expected a finite number")
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (self.num_nodes,):
            raise GraphParseError("labels", f"{self.labels.size} entries, expected one per node "
                                  f"({self.num_nodes})")
        below = np.flatnonzero(self.labels < UNLABELED)
        if len(below):
            raise GraphParseError(f"labels[{below[0]}]", f"expected a class id >= 0 or "
                                  f"{UNLABELED} (unlabeled), got {self.labels[below[0]]}")
        masks = {key: self._check_mask(mask, key)
                 for key, mask in (("train", train_mask), ("val", val_mask), ("test", test_mask))}
        for (first, m1), (key, m2) in itertools.combinations(masks.items(), 2):
            both = np.intersect1d(m1, m2, assume_unique=True)
            if len(both):
                raise GraphParseError(f"masks.{key}", f"id {both[0]} is also in masks.{first}")
        self.train_mask, self.val_mask, self.test_mask = masks.values()
        unlabeled = self.train_mask[self.labels[self.train_mask] == UNLABELED]
        if len(unlabeled):
            raise GraphParseError(f"labels[{unlabeled[0]}]", f"training node without a label "
                                  f"({UNLABELED})")
        self.drop_operators()

    def drop_operators(self):
        """Forget the cached operators and propagations (normalize_adjacency,
        adjacency, propagated_features); a later use rebuilds the same values."""
        self._norm_adj = self._adjacency = None
        self._hops = [self.features]  # [X, A_hat X, ...], see propagated_features

    def _check_mask(self, mask, key):
        m, seen = np.unique(np.asarray(mask, dtype=np.int64), return_counts=True)
        bad = m[(m < 0) | (m >= self.num_nodes)]
        if len(bad):
            raise GraphParseError(f"masks.{key}", f"id {bad[0]} outside [0, {self.num_nodes})")
        if np.any(seen > 1):
            raise GraphParseError(f"masks.{key}", f"id {m[np.argmax(seen > 1)]} is repeated")
        return m

    def empty_split(self) -> str | None:
        """The first of training, validation and test without nodes, else None."""
        for name, mask in (("training", self.train_mask), ("validation", self.val_mask),
                           ("test", self.test_mask)):
            if len(mask) == 0:
                return name
        return None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_classes(self) -> int:
        labeled = self.labels[self.labels != UNLABELED]
        return int(labeled.max()) + 1 if len(labeled) else 0

    def degrees_with_self_loop(self) -> np.ndarray:
        return 1.0 + np.bincount(self.edges.ravel(), minlength=self.num_nodes)


def _normalized_values(g: Graph):
    """The diagonal and per-edge values of D^{-1/2} (A + I) D^{-1/2}."""
    inv_sqrt = 1.0 / np.sqrt(g.degrees_with_self_loop())
    return inv_sqrt * inv_sqrt, inv_sqrt[g.edges[:, 0]] * inv_sqrt[g.edges[:, 1]]


def normalize_adjacency(g: Graph) -> SparseMatrix:
    """D^{-1/2} (A + I) D^{-1/2} with D the self-loop-augmented degrees."""
    if g._norm_adj is None:
        diag, w = _normalized_values(g)
        g._norm_adj = SparseMatrix.from_edges(g.num_nodes, *g.edges.T, w, diag)
    return g._norm_adj


def propagated_features(g: Graph, hops: int) -> list:
    """[X, A_hat X, .., A_hat^hops X] as constant tensors, each computed once.

    These products hold no parameters, so they are cached on the graph next
    to its normalized adjacency and shared by every forward pass.
    """
    while len(g._hops) <= hops:
        g._hops.append(spmm(normalize_adjacency(g), g._hops[-1]))
    return g._hops[:hops + 1]


def adjacency(g: Graph, ids=None) -> SparseMatrix:
    """Binary adjacency among the nodes ``ids``, cached when ids is None.

    Entry (p, q) is 1 when (ids[p], ids[q]) is an edge, so a repeated id
    repeats its node's row and column, and copies of one node stay unlinked.
    """
    if ids is None:
        if g._adjacency is None:
            g._adjacency = SparseMatrix.from_edges(g.num_nodes, *g.edges.T, np.ones(g.num_edges))
        return g._adjacency
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) and (ids.min() < 0 or ids.max() >= g.num_nodes):
        raise ValidationError("node subset id out of range")
    # node k's positions in ids are order[start[k]:start[k] + count[k]]; each
    # edge (u, v) links every position of u to every position of v, and
    # from_edges adds the other orientation
    order = np.argsort(ids, kind="stable")
    count = np.bincount(ids, minlength=g.num_nodes)
    start = np.cumsum(count) - count
    u, v = g.edges.T
    pairs = count[u] * count[v]
    e = np.repeat(np.arange(len(u)), pairs)
    k = np.arange(len(e)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    rows = order[start[u[e]] + k // count[v[e]]]
    cols = order[start[v[e]] + k % count[v[e]]]
    return SparseMatrix.from_edges(len(ids), rows, cols, np.ones(len(rows)))


def laplacian_sym(g: Graph) -> SparseMatrix:
    """Symmetric normalized Laplacian I - normalize_adjacency(g), uncached."""
    diag, w = _normalized_values(g)
    return SparseMatrix.from_edges(g.num_nodes, *g.edges.T, -w, 1.0 - diag)


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
        g_complete.features,  # shared: features are never written in place
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
    keep = np.ones(g_complete.num_nodes, dtype=bool)
    keep[train[removed]] = False
    kept_old_ids = np.flatnonzero(keep)
    new_id = np.cumsum(keep) - 1
    edges = g_complete.edges[keep[g_complete.edges].all(axis=1)]
    g = Graph(len(kept_old_ids), new_id[edges], g_complete.features.values[kept_old_ids],
              g_complete.labels[kept_old_ids],
              *(new_id[m[keep[m]]] for m in
                (train, g_complete.val_mask, g_complete.test_mask)))
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
    # the upper triangle in row-major order, as np.triu_indices(n, 1) lists
    # it, drawn in chunks of about 2^20 pairs from the same stream
    edges, cols, step = [], np.arange(n), max(1, (1 << 20) // n)
    for r0 in range(0, n, step):
        iu, ju = np.nonzero(cols > np.arange(r0, min(n, r0 + step))[:, None])
        iu += r0
        hit = rng.random(len(iu)) < np.where(labels[iu] == labels[ju], p_in, p_out)
        edges.append(np.stack([iu[hit], ju[hit]], axis=1))
    edges = np.concatenate(edges)

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


def load_graph(path) -> Graph:
    doc, bools = read_document(path, "<document>", ("features", "edges"))
    num_nodes = read_field(doc, "num_nodes", "int")
    edges = array(required(doc, "edges"), "int", "edges", bools)
    if edges.shape != (0,) and (edges.ndim != 2 or edges.shape[1] != 2):
        raise GraphParseError("edges", "expected an empty list or [u, v] pairs, got an array "
                              f"of shape {edges.shape}")
    masks = read_field(doc, "masks", "object")
    return Graph(num_nodes, edges,  # a Tensor: array refused non-finite features
                 Tensor(array(required(doc, "features"), "float", "features", bools, ndim=2)),
                 array(required(doc, "labels"), "int", "labels", bools, ndim=1),
                 *(array(required(masks, key, f"masks.{key}"), "int", f"masks.{key}", bools,
                         ndim=1) for key in ("train", "val", "test")))
