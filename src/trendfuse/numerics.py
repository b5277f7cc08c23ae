"""Dense float64 tensors with reverse-mode differentiation and Adam.

A Tensor wraps a numpy array and remembers the primitive operation that
produced it (parents plus a backward closure), so the computation graph
doubles as the tape: replaying it backward in topological order yields
gradients for every leaf. All arithmetic stays in float64 and reduction
orders are fixed by graph construction order, so identical inputs give
bit-identical outputs and gradients.

The program's tape is short. A predictor training step is one node for
the whole forward, with no parents: its backward runs the primitives'
numpy backwards in reverse and adds straight into the parameters'
gradients. Then come the loss and, over lockstep replicas' losses, `sum_`.
Besides the tape, this module keeps only what some program path calls:
the array helpers the numpy backwards share (`mT`, `row_sum`,
`affine_back`, `logistic`, `softmax_probs`/`softmax_back`), the parameter
store, whose parameters are views of its flat vectors from birth, and its
checkpoint format, read back against a layout, and Adam, whose state adds
moments to a store's vectors.
Single-op tape ops, multi-output nodes and the adapter that puts a numpy
forward/backward pair on the tape live in `tests/oracles.py`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, ContractError, DataError, read_json

Array = np.ndarray

CHECKPOINT_VERSION = 1


class Tensor:
    """A float64 array plus the graph edge that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple["Tensor", ...] = (),
                 backward: Callable[[Array], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def _accumulate(self, g: Array) -> None:
        if self.grad is not None:
            self.grad += g
        elif np.shape(g) == self.data.shape:
            self.grad = np.array(g, dtype=np.float64)  # a copy: g may be shared
        else:
            self.grad = np.zeros_like(self.data)
            self.grad += g


def mT(a: Array) -> Array:
    """Transpose of the last two axes, so a matmul gradient takes any leading axes."""
    return a.swapaxes(-1, -2)


def row_sum(g: Array) -> Array:
    """Sum over the row axis (-2), keeping it: the gradient of a broadcast bias row."""
    return g.sum(axis=-2, keepdims=True)


def affine_back(x: Array, w: Tensor, b: Tensor, d: Array) -> Array:
    """Backward of x @ w + b from d, its output's gradient: add the weight and
    bias gradients into w.grad and b.grad, and return x's gradient."""
    w.grad += mT(x) @ d
    b.grad += row_sum(d)
    return d @ mT(w.data)


def logistic(z: Array) -> Array:
    """The logistic function on an array, through tanh, which cannot overflow."""
    return 0.5 * np.tanh(0.5 * z) + 0.5


def softmax_probs(x: Array) -> Array:
    """Max-shifted softmax along the last axis; rows sum to 1, shift-invariant."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_back(g: Array, y: Array) -> Array:
    """Gradient at the input of a softmax with output y, from g at its output."""
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def sum_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    y = x.data.sum(axis=axis, keepdims=keepdims)

    def back(g: Array) -> None:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    return Tensor(y, parents=(x,), backward=back)


def accumulate(t: Tensor, g: Array) -> None:
    """Add g to t's gradient if t takes part in differentiation."""
    if t.requires_grad:
        t._accumulate(g)


def fused(parents: tuple[Tensor, ...], output: Array,
          backward: Callable[[Array], None]) -> Tensor:
    """One tape node with a hand-written backward.

    Only the parents that need gradients are recorded; `backward(grad)`
    accumulates into them itself (see `accumulate`).
    """
    return Tensor(output, parents=tuple(p for p in parents if p.requires_grad),
                  backward=backward)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) to every reachable node's .grad."""
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


@dataclass(frozen=True)
class Uniform:
    """A start drawn by `uniform_init`: one (..., width / len(order)) block
    per gate, in turn, the k-th placed in column slot order[k], so the draw
    order is independent of the column order. One gate is the plain draw."""

    fan_in: int
    order: tuple[int, ...] = (0,)


# A layout row: a parameter's name, shape and start, which is a constant
# fill, a uniform draw or an array to copy.
Row = tuple[str, tuple[int, ...], "float | Uniform | Array"]


class ParameterStore:
    """Named trainable tensors, allocated once from a layout of rows in
    store order: each parameter and its gradient are the next slices of the
    zeroed flat vectors `flat` and `grad` from birth, filled from the row's
    start (a `Uniform` draws from `rng`, in row order), and filed under
    every dotted prefix of the name, for `view`. A size numpy cannot
    allocate is a ConfigError naming the parameter count."""

    def __init__(self, layout: Iterable[Row], rng: np.random.Generator | None = None):
        rows = list(layout)
        count = sum(math.prod(shape) for _, shape, _ in rows)
        try:
            self.flat, self.grad = np.zeros(count), np.zeros(count)
        except (ValueError, OverflowError, MemoryError) as err:
            raise ConfigError(f"cannot allocate a model of {count} parameters ({err})") from None
        self._params: dict[str, Tensor] = {}
        self._views: dict[str, dict[str, Tensor]] = {}
        stop = 0
        for name, shape, start in rows:
            if name in self._params:
                raise ContractError(f"duplicate parameter name {name!r}")
            span = slice(stop, stop + math.prod(shape))
            stop = span.stop
            t = self._params[name] = Tensor(self.flat[span].reshape(shape), requires_grad=True)
            t.grad = self.grad[span].reshape(shape)
            if isinstance(start, Uniform):
                gates = len(start.order)
                blocks = uniform_init(rng, start.fan_in,
                                      (gates, *shape[:-1], shape[-1] // gates))
                t.data.reshape(*shape[:-1], gates, -1)[..., list(start.order), :] = \
                    np.moveaxis(blocks, 0, -2)
            else:
                t.data[...] = start
            parts = name.split(".")
            for k in range(1, len(parts)):
                self._views.setdefault(".".join(parts[:k]), {})[".".join(parts[k:])] = t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def view(self, prefix: str) -> dict[str, Tensor]:
        """Parameters under `prefix.`, keys stripped; shared, so callers
        must not change it."""
        return self._views.get(prefix, {})

    def state_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_VERSION,
            "params": {
                name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
                for name, t in self._params.items()
            },
        }

    def save(self, path) -> None:
        # layout order is the canonical parameter order; do not sort
        Path(path).write_text(json.dumps(self.state_dict()), encoding="utf-8")

    @classmethod
    def from_state(cls, state: dict, layout: Iterable[Row], source) -> "ParameterStore":
        """The store of `layout`'s rows, in their order, holding a
        `state_dict`'s parameters; anything else is a DataError that
        `source` (the checkpoint path) starts.

        Every entry is parsed first: each must be a finite float64 array of
        its shape. Then the rows are read one at a time, nothing drawn, and
        the first parameter that the document lacks, or holds in another
        shape, stops the check; so does one the layout lacks. Nothing of
        the layout's size is allocated until the names and shapes match.
        """
        if not isinstance(state, dict):
            raise DataError(f"{source}: checkpoint is not a JSON object")
        version = state.get("format_version")
        if type(version) is not int or version != CHECKPOINT_VERSION:  # True == 1.0 == 1
            raise DataError(f"{source}: unsupported checkpoint format_version {version!r}; "
                            f"this program reads {CHECKPOINT_VERSION}")
        params = state.get("params")
        if not isinstance(params, dict):
            raise DataError(f"{source}: checkpoint has no 'params' object")
        arrays = {}
        for name, entry in params.items():
            try:
                arr = np.asarray(entry["data"])
                if arr.dtype.kind not in "iuf":
                    raise TypeError("data must be a list of numbers")
                arr = arr.astype(np.float64, copy=False).reshape(entry["shape"])
            except KeyError as err:
                raise DataError(f"{source}: checkpoint parameter {name!r} has no {err}") from None
            except (TypeError, ValueError) as err:
                raise DataError(f"{source}: checkpoint parameter {name!r} is malformed: "
                                f"{err}") from None
            if not np.isfinite(arr).all():
                raise DataError(f"{source}: checkpoint parameter {name!r} has a non-finite value")
            arrays[name] = arr
        rows = []
        for name, shape, _ in layout:
            if name not in arrays:
                raise DataError(f"{source}: checkpoint lacks parameter {name!r} "
                                "of the configured model")
            if (found := arrays.pop(name)).shape != shape:
                raise DataError(f"{source}: parameter {name!r} has shape {found.shape}, "
                                f"the configured model needs {shape}")
            rows.append((name, shape, found))
        if arrays:
            raise DataError(f"{source}: parameter {next(iter(arrays))!r} is not part of the "
                            "configured model")
        return cls(rows)

    @classmethod
    def load(cls, path, layout: Iterable[Row]) -> "ParameterStore":
        """Read a checkpoint file into a store of `layout` (`from_state`);
        one that is not valid JSON is a DataError naming `path`."""
        return cls.from_state(read_json(path, "checkpoint"), layout, path)


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> Array:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weight draw."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """A store's flat parameter and gradient vectors, the step size, the
    moment estimates over them and the step counter."""

    flat: Array
    grad: Array
    lr: float
    m: Array
    v: Array
    t: int = 0


def adam_state(store: ParameterStore, lr: float = 1e-3) -> AdamState:
    """Adam over `store`: the state points at the store's `flat` and `grad`
    and allocates only the zeroed moments, so `adam_step` updates every
    parameter in place and a backward adds into `grad` once it is zeroed."""
    if lr <= 0:
        raise ContractError(f"learning rate must be positive, got {lr}")
    return AdamState(store.flat, store.grad, lr, np.zeros_like(store.flat),
                     np.zeros_like(store.flat))


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update of the flat parameter vector from the
    flat gradient, in place; element by element the arithmetic is that of a
    per-parameter update."""
    state.t += 1
    state.m *= BETA1
    state.m += (1.0 - BETA1) * state.grad
    state.v *= BETA2
    state.v += (1.0 - BETA2) * state.grad * state.grad
    m_hat = state.m / (1.0 - BETA1 ** state.t)
    v_hat = state.v / (1.0 - BETA2 ** state.t)
    state.flat -= state.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
