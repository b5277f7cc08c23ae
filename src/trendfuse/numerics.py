"""Dense float64 tensors with reverse-mode differentiation and Adam.

A Tensor wraps a numpy array and remembers the primitive operation that
produced it (parents plus a backward closure), so the computation graph
doubles as the tape: replaying it backward in topological order yields
gradients for every leaf. All arithmetic stays in float64 and reduction
orders are fixed by graph construction order, so identical inputs give
bit-identical outputs and gradients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ContractError, DataError, GraphError, ShapeError

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
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: Array) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __getitem__(self, key):
        return take(self, key)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient g down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, da, db) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = fwd(a.data, b.data)

    def back(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(da(g, a.data, b.data), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(db(g, a.data, b.data), b.shape))

    return Tensor(out_data, parents=(a, b), backward=back)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    """Hadamard (elementwise) product with numpy broadcasting."""
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def neg(x: Tensor) -> Tensor:
    x = _lift(x)

    def back(g: Array) -> None:
        x._accumulate(-g)

    return Tensor(-x.data, parents=(x,), backward=back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def back(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(out_data, parents=(a, b), backward=back)


def logistic(z: Array) -> Array:
    """The logistic function on an array, through tanh, which cannot overflow."""
    return 0.5 * np.tanh(0.5 * z) + 0.5


def sigmoid(x: Tensor) -> Tensor:
    x = _lift(x)
    y = logistic(x.data)

    def back(g: Array) -> None:
        x._accumulate(g * y * (1.0 - y))

    return Tensor(y, parents=(x,), backward=back)


def relu(x: Tensor) -> Tensor:
    x = _lift(x)
    y = np.maximum(0.0, x.data)

    def back(g: Array) -> None:
        x._accumulate(g * (x.data > 0))

    return Tensor(y, parents=(x,), backward=back)


def log(x: Tensor) -> Tensor:
    x = _lift(x)
    if np.any(x.data <= 0):
        raise ContractError("log requires strictly positive entries")

    def back(g: Array) -> None:
        x._accumulate(g / x.data)

    return Tensor(np.log(x.data), parents=(x,), backward=back)


def pow_scalar(x: Tensor, p: float) -> Tensor:
    x = _lift(x)
    y = x.data ** p

    def back(g: Array) -> None:
        x._accumulate(g * p * x.data ** (p - 1.0))

    return Tensor(y, parents=(x,), backward=back)


def clip_min(x: Tensor, lo: float) -> Tensor:
    """Clamp below at lo; gradient passes only where x > lo."""
    x = _lift(x)
    y = np.maximum(x.data, lo)

    def back(g: Array) -> None:
        x._accumulate(g * (x.data > lo))

    return Tensor(y, parents=(x,), backward=back)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; rows sum to 1, shift-invariant."""
    x = _lift(x)
    if x.size == 0:
        raise ShapeError("softmax of an empty tensor")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g: Array) -> None:
        inner = (g * y).sum(axis=axis, keepdims=True)
        x._accumulate((g - inner) * y)

    return Tensor(y, parents=(x,), backward=back)


def sum_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _lift(x)
    y = x.data.sum(axis=axis, keepdims=keepdims)

    def back(g: Array) -> None:
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.shape).copy())

    return Tensor(y, parents=(x,), backward=back)


def mean_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _lift(x)
    count = x.size if axis is None else x.shape[axis]
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / count)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p._accumulate(g[tuple(idx)])

    return Tensor(out_data, parents=tuple(parts), backward=back)


def take(x: Tensor, key) -> Tensor:
    """Basic (slice/integer) indexing with scatter-back gradient."""
    x = _lift(x)
    out_data = x.data[key]

    def back(g: Array) -> None:
        full = np.zeros_like(x.data)
        full[key] = g
        x._accumulate(full)

    return Tensor(out_data, parents=(x,), backward=back)


def transpose(x: Tensor) -> Tensor:
    x = _lift(x)

    def back(g: Array) -> None:
        x._accumulate(g.T)

    return Tensor(x.data.T, parents=(x,), backward=back)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a 2-D table by integer ids (embedding lookup)."""
    table = _lift(table)
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {table.shape}")

    def back(g: Array) -> None:
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table._accumulate(full)

    return Tensor(table.data[ids], parents=(table,), backward=back)


def conv1d_rows(x: Tensor, kernel: Tensor) -> Tensor:
    """Valid 1-D cross-correlation of each row of x with a shared kernel.

    x is (B, L), kernel is (k,); output is (B, L - k + 1), stride 1,
    no padding: out[:, i] = sum_j kernel[j] * x[:, i + j].
    """
    x, kernel = _lift(x), _lift(kernel)
    if x.ndim != 2 or kernel.ndim != 1:
        raise ShapeError(f"conv1d_rows expects (B, L) and (k,), got {x.shape} and {kernel.shape}")
    k = kernel.shape[0]
    length = x.shape[1]
    if k > length:
        raise ShapeError(f"kernel length {k} exceeds input length {length}")
    out_len = length - k + 1
    out_data = np.zeros((x.shape[0], out_len))
    for j in range(k):
        out_data += kernel.data[j] * x.data[:, j:j + out_len]

    def back(g: Array) -> None:
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for j in range(k):
                gx[:, j:j + out_len] += kernel.data[j] * g
            x._accumulate(gx)
        if kernel.requires_grad:
            gk = np.array([(g * x.data[:, j:j + out_len]).sum() for j in range(k)])
            kernel._accumulate(gk)

    return Tensor(out_data, parents=(x, kernel), backward=back)


def accumulate(t: Tensor, g: Array) -> None:
    """Add g to t's gradient if t takes part in differentiation.

    For hand-written backward closures of fused primitives, which skip the
    inputs that need no gradient.
    """
    if t.requires_grad:
        t._accumulate(g)


def fused(parents: tuple[Tensor, ...], outputs: tuple[Array, ...],
          backward: Callable[..., None]) -> tuple[Tensor, ...]:
    """One tape primitive with a hand-written backward, returning its outputs.

    Only the parents that need gradients are recorded; `backward` accumulates
    into them itself (see `accumulate`). A single output is one node whose
    backward is `backward(grad)`. Several outputs hang off one joint node:
    every consumer of every output runs before it, and it then calls
    `backward(*grads)` once, with each output's gradient (None for an output
    that got none).
    """
    parents = tuple(p for p in parents if p.requires_grad)
    if len(outputs) == 1:
        return (Tensor(outputs[0], parents=parents, backward=backward),)
    # Output gradients travel through this list rather than through references
    # to the outputs, so the graph holds no reference cycle and is freed as
    # soon as the last output is dropped.
    grads: list[Array | None] = [None] * len(outputs)
    joint = Tensor(np.empty(0), parents=parents, backward=lambda _: backward(*grads))

    def output(k: int, data: Array) -> Tensor:
        def mark(g: Array) -> None:
            grads[k] = g
            joint.grad = joint.data  # any gradient schedules the joint node

        return Tensor(data, parents=(joint,), backward=mark)

    return tuple(output(k, data) for k, data in enumerate(outputs))


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


def gradients(loss: Tensor, params: Mapping[str, Tensor]) -> dict[str, Array]:
    """Gradients of a scalar loss for each named leaf parameter.

    Raises GraphError if a parameter does not participate in the graph
    under `loss`.
    """
    if loss.size != 1:
        raise ContractError(f"gradients needs a scalar loss, got shape {loss.shape}")
    reachable = {id(node) for node in _topo_order(loss)}
    for name, p in params.items():
        if id(p) not in reachable:
            raise GraphError(f"parameter {name!r} is not on the tape of this loss")
        p.grad = None
    backward(loss)
    return {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for name, p in params.items()}


class ParameterStore:
    """Ordered, named collection of trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def view(self, prefix: str) -> dict[str, Tensor]:
        """Sub-dictionary of parameters under `prefix.`, keys stripped."""
        dot = prefix + "."
        return {name[len(dot):]: t for name, t in self._params.items()
                if name.startswith(dot)}

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def grads(self) -> dict[str, Array]:
        return {name: t.grad for name, t in self._params.items() if t.grad is not None}

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
        if state.get("format_version") != CHECKPOINT_VERSION:
            raise ContractError(
                f"unsupported checkpoint version {state.get('format_version')!r}")
        params = state.get("params")
        if not isinstance(params, dict):
            raise DataError("checkpoint has no 'params' object")
        store = cls()
        for name, entry in params.items():
            try:
                arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            except KeyError as err:
                raise DataError(f"checkpoint parameter {name!r} has no {err}") from None
            except (TypeError, ValueError) as err:
                raise DataError(f"checkpoint parameter {name!r} is malformed: {err}") from None
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
    """First/second moment estimates and step counter for Adam."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def adam_state(store: ParameterStore, lr: float = 1e-3) -> AdamState:
    if lr <= 0:
        raise ContractError(f"learning rate must be positive, got {lr}")
    state = AdamState(lr=lr)
    for name, t in store.items():
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


def adam_step(store: ParameterStore, grads: Mapping[str, Array],
              state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place, over every parameter."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, p in store.items():
        if name not in grads:
            raise KeyError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bias1
        v_hat = state.v[name] / bias2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return state
