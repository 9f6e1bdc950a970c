"""GCN and SGC backbones with per-layer feature capture.

A gcn layer is relu(A_hat @ H @ Theta) with a linear final layer; sgc applies
A_hat L times and one linear map at the end. ``forward`` returns logits plus
the trace [H^0 .. H^L] used by the distillation losses.

A_hat @ H @ Theta is associative and propagation costs O(|E| * width), so a
gcn layer after the first propagates its narrower side: A_hat @ (H @ Theta)
when Theta narrows (d_out < d_in), else (A_hat @ H) @ Theta. A_hat is
symmetric, so the backward spmm runs at that width too. The two orders agree
up to rounding (Kipf & Welling, 2017).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import array, read_document, read_field, required
from .errors import DimensionError, GraphParseError, ValidationError
from .graphs import (
    Graph,
    laplacian_sym,
    normalize_adjacency,
    propagated_features,
    write_json,
)


class GnnModel:
    """kind 'gcn' (one weight per layer) or 'sgc' (single weight after L hops)."""

    def __init__(self, kind: str, dims, weights=None):
        if kind not in ("gcn", "sgc"):
            raise GraphParseError("kind", f"unknown model kind {kind!r}")
        self.kind = kind
        self.dims = [int(d) for d in dims]
        if len(self.dims) < 2:
            raise GraphParseError("dims", "expected at least input and output sizes")
        if kind == "sgc" and len(set(self.dims[:-1])) != 1:
            raise GraphParseError("dims", "sgc propagates in the input space: dims[:-1] "
                                  "must be equal")
        if weights is None:
            weights = [T.Tensor(np.zeros(s)) for s in self.weight_shapes()]
        self.weights = list(weights)
        for w, s in zip(self.weights, self.weight_shapes()):
            if w.shape != s:
                raise DimensionError(f"weight shape {w.shape} != expected {s}")

    @property
    def num_layers(self) -> int:
        return len(self.dims) - 1

    def weight_shapes(self):
        if self.kind == "sgc":
            return [(self.dims[0], self.dims[-1])]
        return [(self.dims[i], self.dims[i + 1]) for i in range(self.num_layers)]

    def parameters(self):
        return list(self.weights)

    def set_trainable(self, flag: bool):
        for w in self.weights:
            w.requires_grad = flag

    def copy_weights(self):
        return [w.values.copy() for w in self.weights]

    def load_weights(self, arrays):
        for w, a in zip(self.weights, arrays):
            w.values = np.array(a, dtype=np.float64).reshape(w.shape)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dims": self.dims,
            "weights": [w.values.reshape(-1).tolist() for w in self.weights],
        }

    @classmethod
    def from_dict(cls, doc: dict, bools: bool = True) -> "GnnModel":
        """Model from a checkpoint document; a malformed one names its field.
        ``bools`` is False when the document's text holds no true or false."""
        dims = array(required(doc, "dims"), "int", "dims", bools, ndim=1)
        if (dims < 1).any():
            raise GraphParseError("dims", f"expected integers >= 1, got {dims.tolist()}")
        model = cls(read_field(doc, "kind", "str"), dims.tolist())
        weights, shapes = read_field(doc, "weights", "list"), model.weight_shapes()
        if len(weights) != len(shapes):
            raise GraphParseError("weights", f"{len(weights)} arrays, expected {len(shapes)}")
        arrays = []
        for i, (w, (rows, cols)) in enumerate(zip(weights, shapes)):
            arr = array(w, "float", f"weights[{i}]", bools, ndim=1)
            if arr.size != rows * cols:
                raise GraphParseError(f"weights[{i}]", f"{arr.size} values, expected "
                                      f"{rows}x{cols} = {rows * cols}")
            arrays.append(arr)
        model.load_weights(arrays)
        return model

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "GnnModel":
        return cls.from_dict(*read_document(path, "checkpoint"))


def build_model(kind: str, in_dim: int, hidden: int, depth: int, num_classes: int) -> GnnModel:
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if kind == "sgc":
        dims = [in_dim] * depth + [num_classes]
    else:
        dims = [in_dim] + [hidden] * (depth - 1) + [num_classes]
    return GnnModel(kind, dims)


def init_xavier(model: GnnModel, seed: int, stream: int = 201):
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)), per weight."""
    rng = np.random.default_rng([int(seed), int(stream)])
    for w in model.weights:
        fan_in, fan_out = w.shape
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w.values = rng.uniform(-a, a, size=w.shape)


def forward(model: GnnModel, g: Graph):
    """Run the model on a graph; returns (logits, trace [H^0 .. H^L]).

    Hops that hold no parameter come from ``propagated_features``, computed
    once per graph: the whole sgc trace [X, A_hat X, .., A_hat^L X], and
    A_hat X for the first gcn layer. The values are the same as propagating
    on every call. Each later gcn layer propagates its narrower side, so a
    32 -> 4 output layer runs both its spmms at 4 columns; an equal-width
    layer keeps the (A_hat H) Theta order.
    """
    x = g.features
    if x.shape[1] != model.dims[0]:
        raise DimensionError(
            f"feature dim {x.shape[1]} != model input dim {model.dims[0]}"
        )
    if model.kind == "sgc":
        trace = propagated_features(g, model.num_layers)
        return T.matmul(trace[-1], model.weights[0]), trace
    a_hat = normalize_adjacency(g)
    trace = [x]
    h = propagated_features(g, 1)[1]
    for l, w in enumerate(model.weights):
        if l == 0:
            h = T.matmul(h, w)
        elif w.shape[1] < w.shape[0]:
            h = T.spmm(a_hat, T.matmul(h, w))
        else:
            h = T.matmul(T.spmm(a_hat, h), w)
        if l < model.num_layers - 1:
            h = T.relu(h, inplace=True)  # over the fresh product, which no node reads
        trace.append(h)
    return h, trace


def accuracy(logits_values: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    if len(mask) == 0:
        raise ValidationError("accuracy: empty mask")
    pred = logits_values[mask].argmax(axis=1)
    return float(np.mean(pred == labels[mask]))


def accuracies(logits_values: np.ndarray, g: Graph) -> tuple[float, float, float]:
    """(train, val, test) accuracy of the logits on the graph's masks."""
    return tuple(accuracy(logits_values, g.labels, mask)
                 for mask in (g.train_mask, g.val_mask, g.test_mask))


def sgc_euler_equivalence(g: Graph, x0, steps: int) -> float:
    """Max |Euler(t) - A_hat^t X| where Euler is X <- X - L X.

    The two paths use independently constructed operators (Laplacian vs
    normalized adjacency); the identity L = I - A_hat makes them agree to
    rounding.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    x0 = np.asarray(x0, dtype=np.float64)
    lap = laplacian_sym(g)
    a_hat = normalize_adjacency(g)
    x_euler = x0.copy()
    x_prop = x0.copy()
    for _ in range(steps):
        x_euler = x_euler - lap.matmul_dense(x_euler)
        x_prop = a_hat.matmul_dense(x_prop)
    return float(np.max(np.abs(x_euler - x_prop)))
