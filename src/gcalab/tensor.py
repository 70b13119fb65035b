"""Reverse-mode autodiff over float64 numpy arrays.

Small engine in the micrograd tradition: every op builds a node holding its
parents and a closure that maps the output gradient to parent gradients.
``backward`` walks the graph once in reverse topological order, accumulating
per-node gradients in a call-local table and only then adding them into each
leaf's ``grad``. Repeating ``backward`` therefore adds the same gradient again
(two calls double it) without any double counting inside a single call.
Inside ``no_grad`` ops record no parents or closures, so a forward pass that
is only read (evaluation) builds no graph.

All arrays are float64 and C-contiguous. There is no implicit dtype or device
story; every op is checked against finite differences.

Fused ops (``attention``) replace a chain of small ops by one node with one
hand-written backward. They follow two rules. First, a fused op reproduces
the composed chain's NumPy expressions one for one, in the same order and on
arrays of the same layout, so its output and gradients are bitwise those of
the chain. Second, it keeps only the arrays its backward reads and cannot
cheaply rebuild, and recomputes the cheap ones (masks, elementwise products)
in the backward instead of storing them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateSliceError, DimensionError, IndexRangeError
from .rng import derive_rng

Array = np.ndarray


def _as_array(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to shape (1,); keep them 0-d.
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff.

    ``requires_grad`` is only ever set on leaves (parameters, probed inputs);
    interior nodes carry a ``_backward`` closure instead. ``grad`` stays None
    until the first backward pass reaches the leaf.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def _needs_grad(self) -> bool:
        return self.requires_grad or self._backward is not None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self) -> "Tensor":
        return sum_all(self)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def backward(self) -> None:
        backward(self)


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block: ops return plain values.

    For forward passes whose result is only read, such as evaluation. The
    previous mode comes back on exit, also after an exception, so blocks nest.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _node(data: Array, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p._needs_grad() for p in parents):
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad.reshape(shape)


# -- graph traversal ---------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent._needs_grad():
                stack.append((parent, False))
    order.reverse()
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's ``grad``.

    ``root`` must be a scalar (size one). Gradients for one call are staged in
    a local table keyed by node identity and added to ``grad`` exactly once,
    so calling backward twice on the same graph doubles every leaf gradient.
    """
    if root.data.size != 1:
        raise ContractError(f"backward needs a scalar root, got shape {root.data.shape}")
    grads: dict[int, Array] = {id(root): np.ones_like(root.data)}

    def push(parent: Tensor, contribution: Array) -> None:
        if not parent._needs_grad():
            return
        if contribution.shape != parent.data.shape:
            raise ContractError(
                f"gradient shape {contribution.shape} does not match parent {parent.data.shape}"
            )
        key = id(parent)
        if key in grads:
            grads[key] = grads[key] + contribution
        else:
            grads[key] = contribution

    for node in _toposort(root):
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        if node.requires_grad:
            node.grad = grad.copy() if node.grad is None else node.grad + grad
        if node._backward is not None:
            node._backward(grad, push)


# -- elementwise ops ---------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def bw(g: Array, push) -> None:
        push(a, _unbroadcast(g, a.data.shape))
        push(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bw)


def sub(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data - b.data

    def bw(g: Array, push) -> None:
        push(a, _unbroadcast(g, a.data.shape))
        push(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def bw(g: Array, push) -> None:
        push(a, _unbroadcast(g * b.data, a.data.shape))
        push(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bw)


def _logistic(d: Array, e: Array) -> Array:
    """sigmoid(d) from ``e = exp(-|d|)``: stable in both tails, since exp
    only ever sees a non-positive argument."""
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    x = _coerce(x)
    out = _logistic(x.data, np.exp(-np.abs(x.data)))

    def bw(g: Array, push) -> None:
        push(x, g * out * (1.0 - out))

    return _node(out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    x = _coerce(x)
    out = np.tanh(x.data)

    def bw(g: Array, push) -> None:
        push(x, g * (1.0 - out * out))

    return _node(out, (x,), bw)


def relu(x: Tensor) -> Tensor:
    x = _coerce(x)
    keep = x.data > 0
    out = np.where(keep, x.data, 0.0)

    def bw(g: Array, push) -> None:
        push(x, g * keep)

    return _node(out, (x,), bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow for large |x|."""
    x = _coerce(x)
    d = x.data
    e = np.exp(-np.abs(d))
    out = np.maximum(d, 0.0) + np.log1p(e)

    def bw(g: Array, push) -> None:
        push(x, g * _logistic(d, e))

    return _node(out, (x,), bw)


# -- shape ops ---------------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    data = x.data.reshape(shape)

    def bw(g: Array, push) -> None:
        push(x, np.ascontiguousarray(g.reshape(x.data.shape)))

    return _node(data, (x,), bw)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    data = np.ascontiguousarray(x.data.transpose(axes))
    inverse = np.argsort(axes)

    def bw(g: Array, push) -> None:
        push(x, np.ascontiguousarray(g.transpose(inverse)))

    return _node(data, (x,), bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries starting at ``start`` along ``axis``."""
    x = _coerce(x)
    size = x.data.shape[axis]
    if start < 0 or length < 0 or start + length > size:
        raise DimensionError(f"narrow [{start}:{start + length}] out of range for axis size {size}")
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    data = np.ascontiguousarray(x.data[index])

    def bw(g: Array, push) -> None:
        full = np.zeros_like(x.data)
        full[index] = g
        push(x, full)

    return _node(data, (x,), bw)


def pad_axis(x: Tensor, axis: int, new_length: int) -> Tensor:
    """Zero-pad ``axis`` at the end up to ``new_length``."""
    x = _coerce(x)
    size = x.data.shape[axis]
    if new_length < size:
        raise DimensionError(f"pad target {new_length} is smaller than axis size {size}")
    if new_length == size:
        return x
    widths = [(0, 0)] * x.data.ndim
    widths[axis] = (0, new_length - size)
    data = np.pad(x.data, widths)
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(0, size)
    index = tuple(index)

    def bw(g: Array, push) -> None:
        push(x, np.ascontiguousarray(g[index]))

    return _node(data, (x,), bw)


def concat_lastdim(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise DimensionError(
            f"concat_lastdim needs equal leading shapes, got {a.data.shape} and {b.data.shape}"
        )
    data = np.concatenate([a.data, b.data], axis=-1)
    split = a.data.shape[-1]

    def bw(g: Array, push) -> None:
        push(a, np.ascontiguousarray(g[..., :split]))
        push(b, np.ascontiguousarray(g[..., split:]))

    return _node(data, (a, b), bw)


def sum_all(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.asarray(x.data.sum())

    def bw(g: Array, push) -> None:
        push(x, np.broadcast_to(g, x.data.shape).copy())

    return _node(data, (x,), bw)


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy-style broadcasting of leading dims."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bw(g: Array, push) -> None:
        push(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        push(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _node(data, (a, b), bw)


def _softmax(x: Array, mask: Array | None) -> Array:
    restricted = x if mask is None else np.where(mask, x, -np.inf)
    peak = restricted.max(axis=-1, keepdims=True)
    if np.isneginf(peak).any():
        raise DegenerateSliceError("softmax: at least one slice is fully masked")
    weights = np.exp(restricted - peak)
    return weights / weights.sum(axis=-1, keepdims=True)


def _softmax_backward(g: Array, out: Array) -> Array:
    inner = (g * out).sum(axis=-1, keepdims=True)
    return (g - inner) * out


def softmax_lastdim(x: Tensor, mask: Array | None = None) -> Tensor:
    """Softmax over the last axis, restricted to positions where ``mask`` is true.

    Masked positions get exactly zero probability and receive zero gradient.
    A row with no valid position, or only ``-inf`` at its valid ones, has no
    well-defined distribution, so it raises ``DegenerateSliceError`` rather
    than silently producing NaN.
    """
    x = _coerce(x)
    out = _softmax(x.data, mask)

    def bw(g: Array, push) -> None:
        push(x, _softmax_backward(g, out))

    return _node(out, (x,), bw)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layernorm gain/bias must have shape ({d},), got {gain.data.shape} and {bias.data.shape}"
        )
    if d < 2:
        raise DimensionError("layernorm needs a feature axis of size >= 2")
    centred = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    data = xhat * gain.data + bias.data

    def bw(g: Array, push) -> None:
        gx = g * gain.data
        term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        push(x, term * inv)
        lead = tuple(range(g.ndim - 1))
        push(gain, (g * xhat).sum(axis=lead))
        push(bias, g.sum(axis=lead))

    return _node(data, (x, gain, bias), bw)


def embedding_gather(table: Tensor, ids: Array) -> Tensor:
    """Row lookup ``table[ids]`` with range checking; gradient scatters rows back."""
    table = _coerce(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"embedding ids must be integers, got dtype {ids.dtype}")
    if table.data.ndim != 2:
        raise DimensionError(f"embedding table must be 2-d, got {table.data.shape}")
    rows = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= rows):
        raise IndexRangeError(f"ids outside [0, {rows}): min={ids.min()}, max={ids.max()}")
    data = table.data[ids]

    def bw(g: Array, push) -> None:
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        push(table, dt)

    return _node(data, (table,), bw)


def select_positions(x: Tensor, positions: Array) -> Tensor:
    """Pick one sequence position per batch row: out[b] = x[b, positions[b]]."""
    x = _coerce(x)
    if x.data.ndim != 3:
        raise DimensionError(f"select_positions expects [batch, length, dim], got {x.data.shape}")
    positions = np.asarray(positions)
    batch, length, _ = x.data.shape
    if positions.shape != (batch,):
        raise DimensionError(f"positions must have shape ({batch},), got {positions.shape}")
    if positions.size and (positions.min() < 0 or positions.max() >= length):
        raise IndexRangeError(f"positions outside [0, {length})")
    rows = np.arange(batch)
    data = x.data[rows, positions]

    def bw(g: Array, push) -> None:
        dx = np.zeros_like(x.data)
        dx[rows, positions] = g
        push(x, dx)

    return _node(data, (x,), bw)


def dropout_draw(shape: tuple[int, ...], p: float, rng: np.random.Generator | None) -> Array | None:
    """The bool keep mask of inverted dropout, drawn from ``rng``; None, and
    nothing drawn, when ``rng`` is None (eval mode) or p == 0."""
    if rng is None or p <= 0.0:
        return None
    if not 0.0 < p < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {p}")
    return rng.random(shape) >= p


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when ``rng`` is None (eval mode) or p == 0."""
    kept = dropout_draw(x.data.shape, p, rng)
    if kept is None:
        return x
    return mul(x, Tensor(kept / (1.0 - p)))


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    visible: Array,
    scale: float,
    kept: Array | None = None,
    p: float = 0.0,
) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` is ``[batch, len_q, d]``, ``k`` and ``v`` are ``[batch, len_k, d]``,
    split into ``heads`` contiguous column groups. ``visible`` is the bool
    ``[batch, 1, len_q, len_k]`` mask of keys each query row may see; every
    row must see at least one. ``kept`` is an optional bool dropout draw of
    shape ``[batch, heads, len_q, len_k]`` for rate ``p``, applied to the
    attention weights. Returns the merged ``[batch, len_q, d]`` context.

    Bitwise the chain split, ``q @ kᵀ``, ``* scale``, ``softmax_lastdim``,
    ``dropout`` (with this draw), ``@ v``, merge. The node keeps the split
    ``q``, ``kᵀ`` and ``v``, the softmax output and the bool draw; its backward
    rebuilds the float keep mask and the dropped weights.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    batch, len_q, d = q.data.shape
    len_k = k.data.shape[1]
    if k.data.shape != (batch, len_k, d) or v.data.shape != k.data.shape:
        raise DimensionError(
            f"attention needs q [b, lq, d] and k, v [b, lk, d]; got {q.shape}, {k.shape}, {v.shape}"
        )
    if d % heads != 0:
        raise DimensionError(f"feature dim {d} not divisible by heads={heads}")
    if visible.shape != (batch, 1, len_q, len_k):
        raise DimensionError(f"visibility must have shape {(batch, 1, len_q, len_k)}, got {visible.shape}")
    head_dim = d // heads

    def split(x: Array, length: int) -> Array:
        return np.ascontiguousarray(x.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3))

    def merge(x: Array, length: int) -> Array:
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(batch, length, d)

    qh = split(q.data, len_q)
    kt = np.ascontiguousarray(split(k.data, len_k).transpose(0, 1, 3, 2))
    vh = split(v.data, len_k)
    probs = _softmax((qh @ kt) * scale, visible)
    dropped = probs if kept is None else probs * (kept / (1.0 - p))
    data = merge(dropped @ vh, len_q)

    def bw(g: Array, push) -> None:
        g_context = np.ascontiguousarray(g.reshape(batch, len_q, heads, head_dim).transpose(0, 2, 1, 3))
        if kept is None:
            dropped, g_probs = probs, g_context @ vh.swapaxes(-1, -2)
        else:
            keep = kept / (1.0 - p)
            dropped = probs * keep
            g_probs = (g_context @ vh.swapaxes(-1, -2)) * keep
        push(v, merge(dropped.swapaxes(-1, -2) @ g_context, len_k))
        g_scores = _softmax_backward(g_probs, probs) * scale
        push(k, merge((qh.swapaxes(-1, -2) @ g_scores).transpose(0, 1, 3, 2), len_k))
        push(q, merge(g_scores @ kt.swapaxes(-1, -2), len_q))

    return _node(data, (q, k, v), bw)


# -- parameters --------------------------------------------------------------


@dataclass
class Parameter:
    """A named leaf tensor, optionally excluded from optimization."""

    name: str
    tensor: Tensor
    trainable: bool = True


class ParameterStore:
    """Registry of named parameters with per-name deterministic init streams.

    Each parameter's initial values come from an RNG derived from
    (store seed, parameter name), never from a shared cursor. Two stores with
    the same seed therefore agree bitwise on every parameter they share, even
    when one of them registers extra parameters in between.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._params: dict[str, Parameter] = {}

    def _register(self, name: str, data: Array, trainable: bool) -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        tensor = Tensor(data, requires_grad=trainable)
        param = Parameter(name=name, tensor=tensor, trainable=trainable)
        self._params[name] = param
        return param

    def normal(self, name: str, shape: tuple[int, ...], std: float = 0.02, trainable: bool = True) -> Parameter:
        rng = derive_rng(self.seed, "param", name)
        return self._register(name, rng.normal(0.0, std, size=shape), trainable)

    def zeros(self, name: str, shape: tuple[int, ...], trainable: bool = True) -> Parameter:
        return self._register(name, np.zeros(shape), trainable)

    def ones(self, name: str, shape: tuple[int, ...], trainable: bool = True) -> Parameter:
        return self._register(name, np.ones(shape), trainable)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self._params.values() if p.trainable]

    def total_size(self) -> int:
        return sum(p.tensor.data.size for p in self._params.values())

    def state(self) -> dict[str, Array]:
        return {name: p.tensor.data.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, Array]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ContractError(f"state mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, values in state.items():
            target = self._params[name].tensor
            if values.shape != target.data.shape:
                raise ContractError(
                    f"shape mismatch for {name}: {values.shape} vs {target.data.shape}"
                )
            target.data = _as_array(values)
