"""Spans around calls into geokd's public functions, installed from outside.

Nothing under ``src/`` is changed: the tracer replaces module attributes with
timing wrappers. ``training``, ``cli`` and ``distill`` import functions by
name, so every ``geokd`` module attribute that is the original function is
replaced, which patches each name where it is used. Tensor ops are looked up
on the ``tensor`` module at call time and are covered the same way.

A span is (name, start, end, parent); spans stay in memory until the run
ends. Every tensor primitive also wraps the ``_backward`` closure of the
tensor it returns, so reverse-pass time is charged to the op that recorded
it. ``pairwise_bytes`` counts the bytes of op outputs shaped k x k, where k is
the node count of a kernel, weight matrix or inverse-kernel Gram seen so far.

The train probe alone (``install_train_probe``) costs two clock reads per
run and is what untraced runs use for ``setup_s`` and ``epochs_per_s``; in
set-up-only mode it stops the command where training would start.
"""

from __future__ import annotations

import inspect
import sys
import time

TENSOR_OPS = ("spmm", "matmul", "pairwise_sqdist", "exp", "mul_elem", "sub", "add",
              "scale", "sum_all", "tanh", "relu", "take_rows", "transpose",
              "log_softmax")

# Public functions timed as layer spans, by module. Those not reported as
# metrics are still spans, so that direct children of the train span cover it.
LAYER_FUNCTIONS = {
    "graphs": ("load_graph", "split_edges", "split_nodes", "normalize_adjacency"),
    "models": ("forward", "accuracy"),
    "nhk": ("kernel_matrix",),
    "distill": ("weight_matrix", "layer_avg_distill", "teacher_layer_kernels",
                "distill_loss", "inverse_nhk_gram", "reconstruction_loss",
                "kd_soft_label_loss"),
    "tensor": ("cross_entropy",),
    "training": ("sample_distill_batch",),
}
LAYER_METHODS = (("tensor", "Tensor", "backward"), ("training", "Adam", "step"),
                 ("training", "Adam", "zero_grad"))

# (module, function, argument): calls that fix a kernel's node count k.
KERNEL_SIZE_ARGS = (("nhk", "kernel_matrix", "h"), ("distill", "inverse_nhk_gram", "h_last"),
                    ("distill", "weight_matrix", "node_subset"))

TRAIN_SPAN = "training.train"


class SetupDone(BaseException):
    """Raised on entering the training call when only set-up is measured."""


def _stop(*args, **kwargs):
    raise SetupDone


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []   # [name id, start, end, parent index]
        self._stack: list[int] = []
        self.kernel_sizes: set[int] = set()
        self.pairwise_bytes = 0

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _op(self, op: str, fn):
        fwd = self.timed(f"tensor.{op}.fwd", fn)
        bwd_name = f"tensor.{op}.bwd"

        def wrapper(*args, **kwargs):
            out = fwd(*args, **kwargs)
            rows, cols = out.values.shape
            if rows == cols and rows in self.kernel_sizes:
                self.pairwise_bytes += out.values.nbytes
            if out._backward is not None:
                out._backward = self.timed(bwd_name, out._backward)
            return out

        return wrapper

    def _sizing(self, fn, arg: str, traced):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            value = sig.bind(*args, **kwargs).arguments[arg]
            self.kernel_sizes.add(len(value) if not hasattr(value, "shape") else value.shape[0])
            return traced(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install_train_probe(self, cli, setup_only: bool = False) -> None:
        """Span every function of ``geokd.training`` that the CLI calls.

        With ``setup_only`` the span raises ``SetupDone`` instead of training.
        """
        for attr, value in list(vars(cli).items()):
            if inspect.isfunction(value) and value.__module__ == "geokd.training":
                setattr(cli, attr, self.timed(TRAIN_SPAN, _stop if setup_only else value))

    def install_layers(self) -> None:
        """Span the layer functions and tensor ops in every geokd module."""
        mods = {name: sys.modules[f"geokd.{name}"]
                for name in set(LAYER_FUNCTIONS) | {"tensor", "training"}}
        for op in TENSOR_OPS:
            fn = getattr(mods["tensor"], op)
            _replace_everywhere(fn, self._op(op, fn))
        sizing = {(m, f): a for m, f, a in KERNEL_SIZE_ARGS}
        for mod_name, funcs in LAYER_FUNCTIONS.items():
            for func in funcs:
                fn = getattr(mods[mod_name], func)
                wrapped = self.timed(f"{mod_name}.{func}", fn)
                if (mod_name, func) in sizing:
                    wrapped = self._sizing(fn, sizing[(mod_name, func)], wrapped)
                _replace_everywhere(fn, wrapped)
        for mod_name, cls_name, meth in LAYER_METHODS:
            cls = getattr(mods[mod_name], cls_name)
            setattr(cls, meth, self.timed(f"{mod_name}.{cls_name}.{meth}",
                                          getattr(cls, meth)))

    # -- results ----------------------------------------------------------

    def train_window(self):
        """(first start, total seconds) of the outermost training calls."""
        tid = self._name_ids.get(TRAIN_SPAN)
        outer = [s for s in self.spans if s[0] == tid and s[3] == -1]
        if not outer:
            return None, 0.0
        return outer[0][1], sum(s[2] - s[1] for s in outer)

    def totals(self) -> dict:
        """{span name: [inclusive seconds, calls]}. No traced function recurses."""
        out = {name: [0.0, 0] for name in self.names}
        for nid, start, end, _ in self.spans:
            rec = out[self.names[nid]]
            rec[0] += end - start
            rec[1] += 1
        return out

    def train_coverage(self) -> float:
        """Share of train-span time covered by its direct child spans."""
        tid = self._name_ids.get(TRAIN_SPAN)
        train = {i for i, s in enumerate(self.spans) if s[0] == tid and s[3] == -1}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in train)
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in train)
        return covered / total if total > 0 else 0.0


def _replace_everywhere(orig, new) -> None:
    """Rebind every geokd module attribute that is ``orig`` to ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "geokd" or mod_name.startswith("geokd.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
