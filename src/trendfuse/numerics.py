"""Dense float64 tensors with reverse-mode differentiation and Adam.

A Tensor wraps a numpy array and remembers the primitive operation that
produced it (parents plus a backward closure), so the computation graph
doubles as the tape: replaying it backward in topological order yields
gradients for every leaf. All arithmetic stays in float64 and reduction
orders are fixed by graph construction order, so identical inputs give
bit-identical outputs and gradients.

The program's tape is short. A predictor training step is one `fused`
node for the whole forward (whose backward runs the primitives' numpy
backwards in reverse), then the loss, then `sum_` over lockstep replicas'
losses; parameters are its leaves. Besides the tape, this module keeps
only what some program path calls: the array helpers the numpy backwards
share (`mT`, `row_sum`, `affine_back`, `logistic`,
`softmax_probs`/`softmax_back`), the parameter store and its checkpoint
format, and Adam. Single-op tape ops, multi-output nodes and the adapter
that puts a numpy forward/backward pair on the tape live in
`tests/oracles.py`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ContractError, DataError, ShapeError

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


def softmax_probs(x: Array, axis: int = -1) -> Array:
    """Max-shifted softmax of an array along `axis`; rows sum to 1, shift-invariant."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_back(g: Array, y: Array, axis: int = -1) -> Array:
    """Gradient at the input of a softmax with output y, from g at its output."""
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


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


class ParameterStore:
    """Ordered, named collection of trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._views: dict[str, dict[str, Tensor]] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        self._views.clear()
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def view(self, prefix: str) -> dict[str, Tensor]:
        """Sub-dictionary of parameters under `prefix.`, keys stripped.

        Built once per prefix and shared until the next `add`; callers must
        not change it.
        """
        cached = self._views.get(prefix)
        if cached is None:
            dot = prefix + "."
            cached = {name[len(dot):]: t for name, t in self._params.items()
                      if name.startswith(dot)}
            self._views[prefix] = cached
        return cached

    def flatten(self) -> tuple[Array, Array]:
        """Move every parameter into one flat vector, in store order, and bind
        each tensor's gradient to its slice of one zeroed flat gradient.

        Each tensor's `data` and `grad` become views of the two vectors,
        which are returned as (flat, grad): an in-place update of `flat`
        updates every parameter, and a backward adds into `grad` once it
        is zeroed.
        """
        flat = np.zeros(sum(t.size for t in self._params.values()))
        grad = np.zeros_like(flat)
        start = 0
        for t in self._params.values():
            stop = start + t.size
            flat[start:stop] = t.data.reshape(-1)
            t.data = flat[start:stop].reshape(t.shape)
            t.grad = grad[start:stop].reshape(t.shape)
            start = stop
        return flat, grad

    def state_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_VERSION,
            "params": {
                name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
                for name, t in self._params.items()
            },
        }

    def save(self, path) -> None:
        # insertion order is the canonical parameter order; do not sort
        Path(path).write_text(json.dumps(self.state_dict()), encoding="utf-8")

    def check_layout(self, expected: "ParameterStore", source) -> None:
        """Raise DataError unless this store has exactly the names and shapes
        of `expected`, naming the first missing, mis-shaped or extra parameter.

        `source` (the checkpoint path) starts the message.
        """
        have = {name: t.shape for name, t in self.items()}
        want = {name: t.shape for name, t in expected.items()}
        for name, shape in want.items():
            if name not in have:
                raise DataError(f"{source}: checkpoint lacks parameter {name!r} "
                                "of the configured model")
            if have[name] != shape:
                raise DataError(f"{source}: parameter {name!r} has shape {have[name]}, "
                                f"the configured model needs {shape}")
        extra = [name for name in have if name not in want]
        if extra:
            raise DataError(f"{source}: parameter {extra[0]!r} is not part of the "
                            "configured model")

    @classmethod
    def from_state_dict(cls, state: dict) -> "ParameterStore":
        if not isinstance(state, dict):
            raise DataError("checkpoint is not a JSON object")
        version = state.get("format_version")
        if type(version) is not int or version != CHECKPOINT_VERSION:  # True == 1.0 == 1
            raise DataError(f"unsupported checkpoint format_version {version!r}; "
                            f"this program reads {CHECKPOINT_VERSION}")
        params = state.get("params")
        if not isinstance(params, dict):
            raise DataError("checkpoint has no 'params' object")
        store = cls()
        for name, entry in params.items():
            try:
                arr = np.asarray(entry["data"])
                if arr.dtype.kind not in "iuf":
                    raise TypeError("data must be a list of numbers")
                arr = arr.astype(np.float64, copy=False).reshape(entry["shape"])
            except KeyError as err:
                raise DataError(f"checkpoint parameter {name!r} has no {err}") from None
            except (TypeError, ValueError) as err:
                raise DataError(f"checkpoint parameter {name!r} is malformed: {err}") from None
            if not np.isfinite(arr).all():
                raise DataError(f"checkpoint parameter {name!r} has a non-finite value")
            store.add(name, arr)
        return store

    @classmethod
    def load(cls, path) -> "ParameterStore":
        """Read a checkpoint file; a malformed one is a DataError naming `path`."""
        try:
            state = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as err:  # invalid JSON or text encoding
            raise DataError(f"{path}: checkpoint is not valid JSON ({err})") from None
        try:
            return cls.from_state_dict(state)
        except DataError as err:
            raise DataError(f"{path}: {err}") from None


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> Array:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weight draw."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class AdamState:
    """Adam's settings, step counter and moment estimates.

    `m` and `v` are flat vectors over every parameter of the store, in its
    insertion order: the layout of the vectors `ParameterStore.flatten`
    returns, which `adam_step` updates.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: Array = field(default_factory=lambda: np.zeros(0))
    v: Array = field(default_factory=lambda: np.zeros(0))


def adam_state(store: ParameterStore, lr: float = 1e-3) -> AdamState:
    if lr <= 0:
        raise ContractError(f"learning rate must be positive, got {lr}")
    size = sum(t.size for _, t in store.items())
    return AdamState(lr=lr, m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, flat: Array, grad: Array) -> None:
    """One bias-corrected Adam update of a flat parameter vector, in place.

    `grad` is the flat gradient in the same order (see
    `ParameterStore.flatten`); element by element the arithmetic is that
    of a per-parameter update.
    """
    if not flat.shape == grad.shape == state.m.shape:
        raise ShapeError(f"Adam over {state.m.shape} moments got parameters of shape "
                         f"{flat.shape} and a gradient of shape {grad.shape}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * grad * grad
    m_hat = state.m / (1.0 - b1 ** state.t)
    v_hat = state.v / (1.0 - b2 ** state.t)
    flat -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
