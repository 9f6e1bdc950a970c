"""Seeded stochastic-block-model graph writer owned by the benchmark.

The benchmark builds its inputs here rather than with ``graphs.sbm_generate``
so that a change to the program cannot change the graphs it is measured on.
Every block pair gets an exact edge count (a G(n, m) graph per pair), so |E|
is the same for every seed and only the wiring varies. Node ids are shuffled
so that blocks are not contiguous in memory.

The file follows the program's graph format: ``num_nodes``, ``features``,
``labels``, ``edges`` (u < v, stored once) and ``masks`` with a 2:1:1
train/val/test split inside each block.
"""

from __future__ import annotations

import json

import numpy as np

BLOCKS = 4
INTRA_SHARE = 0.8     # share of edges inside blocks
FEATURE_DIM = 16
NOISE_SIGMA = 0.5     # feature noise around the one-hot block indicator


def _distinct_pairs(rng, left, right, count, same_block):
    """``count`` distinct unordered pairs (u in left, v in right), u != v."""
    if same_block:
        capacity = len(left) * (len(left) - 1) // 2
    else:
        capacity = len(left) * len(right)
    if count > capacity:
        raise ValueError(f"cannot place {count} edges among {capacity} pairs")
    keys = np.empty(0, dtype=np.int64)
    width = int(max(left.max(), right.max())) + 1
    while len(keys) < count:
        draw = 2 * (count - len(keys)) + 16
        u = left[rng.integers(0, len(left), draw)]
        v = right[rng.integers(0, len(right), draw)]
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        cand = np.concatenate([keys, lo * width + hi])
        # unique keys in order of first appearance, so the choice stays random
        _, first = np.unique(cand, return_index=True)
        keys = cand[np.sort(first)][:count]
    return np.stack([keys // width, keys % width], axis=1)


def make_sbm(num_nodes: int, seed: int, mean_degree: float) -> dict:
    """Graph document with ``BLOCKS`` near-equal blocks and exact edge counts.

    ``INTRA_SHARE`` of the round(n * mean_degree / 2) edges fall inside
    blocks; the rest are spread evenly over the block pairs. Features are the
    one-hot block indicator plus Gaussian noise of scale ``NOISE_SIGMA``.
    """
    rng = np.random.default_rng([int(seed), 7001])
    sizes = [num_nodes // BLOCKS + (1 if b < num_nodes % BLOCKS else 0) for b in range(BLOCKS)]
    perm = rng.permutation(num_nodes)
    members, start = [], 0
    for size in sizes:
        members.append(np.sort(perm[start:start + size]))
        start += size
    labels = np.empty(num_nodes, dtype=np.int64)
    for b, ids in enumerate(members):
        labels[ids] = b

    total = int(round(num_nodes * mean_degree / 2.0))
    per_block = int(round(total * INTRA_SHARE / BLOCKS))
    per_pair = int(round(total * (1.0 - INTRA_SHARE) / (BLOCKS * (BLOCKS - 1) / 2)))
    edges = []
    for a in range(BLOCKS):
        for b in range(a, BLOCKS):
            count = per_block if a == b else per_pair
            edges.append(_distinct_pairs(rng, members[a], members[b], count, a == b))
    edges = np.concatenate(edges)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]

    features = np.zeros((num_nodes, FEATURE_DIM))
    features[np.arange(num_nodes), labels] = 1.0
    features += NOISE_SIGMA * rng.standard_normal((num_nodes, FEATURE_DIM))

    train, val, test = [], [], []
    for ids in members:
        ids = rng.permutation(ids)
        n_train = int(round(len(ids) * 0.5))
        n_val = int(round(len(ids) * 0.25))
        train += ids[:n_train].tolist()
        val += ids[n_train:n_train + n_val].tolist()
        test += ids[n_train + n_val:].tolist()
    return {
        "num_nodes": int(num_nodes),
        "features": features.tolist(),
        "labels": labels.tolist(),
        "edges": edges.tolist(),
        "masks": {"train": sorted(train), "val": sorted(val), "test": sorted(test)},
    }


def write_sbm(path, num_nodes: int, seed: int, mean_degree: float) -> dict:
    """Write the graph to ``path``; return its shape (n, |E|, feature dim, classes)."""
    doc = make_sbm(num_nodes, seed, mean_degree)
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")
    return {
        "num_nodes": doc["num_nodes"],
        "num_edges": len(doc["edges"]),
        "feature_dim": len(doc["features"][0]),
        "num_classes": max(doc["labels"]) + 1,
    }
