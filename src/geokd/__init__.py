"""Graph-learning toolkit: GNN training plus heat-kernel based distillation.

A teacher trained on a complete graph transfers its latent geometry, captured
as per-layer kernel matrices over node features, to a student that only sees
a partial graph. Includes exact heat-kernel oracles for validating the
kernel identities the method relies on.
"""

from .errors import (
    DimensionError,
    GeokdError,
    GraphParseError,
    NumericError,
    ValidationError,
)
from .graphs import Graph, load_graph, save_graph, sbm_generate
from .models import GnnModel, build_model, forward, init_xavier
from .nhk import KernelSpec
from .distill import DistillConfig
from .tensor import SparseMatrix, Tensor
from .training import Adam, TrainPlan

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "DimensionError",
    "DistillConfig",
    "GeokdError",
    "GnnModel",
    "Graph",
    "GraphParseError",
    "KernelSpec",
    "NumericError",
    "SparseMatrix",
    "Tensor",
    "TrainPlan",
    "ValidationError",
    "build_model",
    "forward",
    "init_xavier",
    "load_graph",
    "sbm_generate",
    "save_graph",
]
