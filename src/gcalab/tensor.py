"""Reverse-mode autodiff over float64 numpy arrays.

Small engine in the micrograd tradition: every op records a node holding its
parents' nodes and a closure that maps the output gradient to parent
gradients. ``backward`` walks the nodes once in reverse topological order,
accumulating per-node gradients in a call-local table and only then adding
them into each leaf's ``grad``: a node reached by several paths runs its
closure once, on the sum of their gradients. Inside ``no_grad`` ops record
no node, so a forward pass that is only read (evaluation) builds no graph.

A graph node is not its tensor. A ``Tensor`` holds its array, its ``grad``
and its node; a node holds its parents' nodes, its closure and its output
shape, never an output array. Each op's closure keeps only the arrays and
shapes its backward reads, and only for parents that need a gradient: ``add``
keeps shapes, ``relu`` its bool mask, ``mul`` by a constant the constant. So
once the forward drops an intermediate tensor, its array is freed unless some
backward reads it, and a graph holds only what its backward needs.

``backward`` consumes the graph it walks: once a node's closure has run, the
node drops it, and with it the arrays it saved. Memory falls as the walk moves
from the root towards the leaves, and a loss held after its backward keeps
only a chain of empty nodes. A second backward through a consumed node, from
the same root or from another root sharing the subgraph, raises
``ContractError`` before any gradient moves.

All arrays are float64 and C-contiguous. There is no implicit dtype or device
story; every op is checked against finite differences.

Fused ops (``attention``) replace a chain of small ops by one node with one
hand-written backward. A fused op reproduces the composed chain's NumPy
expressions one for one, in the same order and on arrays of the same layout,
so its output and gradients are bitwise those of the chain. Like every op, it
keeps only the arrays its backward reads and cannot cheaply rebuild, and
recomputes the cheap ones (masks, elementwise products) in the backward
instead of storing them. A fused op may narrow its work to the rows a caller
reads (``attention(..., rows=)``) by one rule: no matmul operand changes
shape, since a row of a smaller product (a gemv, or ``[B, d] @ [d, n]``) need
not have the bits of that row of the full one. Only row-wise work such as the
softmax is narrowed, and the picked rows sit in a zero block of the full
shape for the products.

Importing this module pins glibc's malloc thresholds once, through
``mallopt``: blocks of up to 32 MiB come from the heap rather than from their
own mmap, and the heap is trimmed only when 256 MiB at its top are free.
glibc's defaults start low and rise as the process frees large blocks, so
without the pin the float64 arrays of a training or evaluation pass are
unmapped or trimmed on free, and the next pass faults the same pages back
in, a number that varies between processes with what each freed before.
Pinned, freed arrays wait in the heap for the next pass. It changes where
freed memory waits, never a number the lab computes, so it has no knob; where
the C library has no ``mallopt`` it does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateSliceError, DimensionError, IndexRangeError
from .rng import derive_rng

Array = np.ndarray

# mallopt parameters from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> tuple[int, int] | None:
    """Pin the mmap threshold at 32 MiB and the trim threshold at 256 MiB;
    both ``mallopt`` results (1 on success), or None without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_MALLOPT_RESULTS = _keep_freed_pages()


def _as_array(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to shape (1,); keep them 0-d.
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


class _Node:
    """One vertex of the autodiff graph.

    ``parents`` are the parent tensors' nodes, None where a parent needs no
    gradient. ``backward(g, push)`` maps the output gradient ``g`` to the
    gradients of the parents that need one, handing each to
    ``push(slot, gradient)`` with the parent's index in ``parents``. A leaf's node has no parents and no closure; it
    holds its tensor in ``leaf`` so that ``backward`` can add into its grad.
    Once ``backward`` has walked an op's node, its closure is ``_CONSUMED``.
    """

    __slots__ = ("parents", "backward", "shape", "leaf")

    def __init__(self, parents: tuple, backward, shape: tuple[int, ...], leaf: Tensor | None = None):
        self.parents = parents
        self.backward = backward
        self.shape = shape
        self.leaf = leaf


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff.

    A tensor built with ``requires_grad=True`` is a leaf (a parameter, a
    probed input) with a node of its own; an op's output has the op's node;
    any other tensor has none and receives no gradient. ``grad`` stays None
    until the first backward pass reaches the leaf.
    """

    __slots__ = ("data", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = _as_array(data)
        self.grad: Array | None = None
        self._node: _Node | None = _Node((), None, self.data.shape, self) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        """Whether this is a leaf that ``backward`` adds a gradient into.
        Fixed at construction: an op's output already records its parents."""
        return self._node is not None and self._node.leaf is self

    @property
    def _backward(self):
        """The node's backward closure; None on a leaf or an untracked tensor,
        ``_CONSUMED`` once a backward has walked the node."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, closure) -> None:
        self._node.backward = closure

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self) -> "Tensor":
        return sum_all(self)

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


def _tracked(*tensors: Tensor) -> tuple[bool, ...]:
    """Per tensor, whether a gradient must reach it: an op's closure reads
    and keeps only what the gradients of these parents need."""
    return tuple(t._node is not None for t in tensors)


def _node(data: Array, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p._node is not None for p in parents):
        out._node = _Node(tuple(p._node for p in parents), backward_fn, data.shape)
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


_CONSUMED = object()
"""What a walked node holds in place of its closure, which ``backward`` frees."""


def _toposort(root: _Node) -> list[_Node]:
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.backward is _CONSUMED:
            raise ContractError("graph already consumed by an earlier backward")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and id(parent) not in seen:
                stack.append((parent, False))
    order.reverse()
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every reachable leaf's ``grad``, and
    consume the graph.

    ``root`` must be a scalar (size one). Gradients for one call are staged in
    a local table keyed by node identity and added to ``grad`` exactly once.
    Each op node the walk visits drops its closure, and the arrays it saved,
    as soon as the walk has passed it. A later backward through any of these
    nodes raises ``ContractError`` and changes no ``grad``; a leaf root keeps
    no closure, so it accepts repeated calls.
    """
    if root.data.size != 1:
        raise ContractError(f"backward needs a scalar root, got shape {root.data.shape}")
    if root._node is None:
        return
    grads: dict[int, Array] = {id(root._node): np.ones_like(root.data)}

    def pusher(parents: tuple[_Node | None, ...]):
        def push(slot: int, contribution: Array) -> None:
            parent = parents[slot]
            if contribution.shape != parent.shape:
                raise ContractError(
                    f"gradient shape {contribution.shape} does not match parent {parent.shape}"
                )
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution

        return push

    for node in _toposort(root._node):
        grad = grads.pop(id(node), None)
        if node.leaf is not None:
            if grad is not None:
                node.leaf.grad = grad.copy() if node.leaf.grad is None else node.leaf.grad + grad
            continue
        if grad is not None:
            node.backward(grad, pusher(node.parents))
        node.backward = _CONSUMED


# -- elementwise ops ---------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data
    need_a, need_b = _tracked(a, b)
    shape_a, shape_b = a.data.shape, b.data.shape

    def bw(g: Array, push) -> None:
        if need_a:
            push(0, _unbroadcast(g, shape_a))
        if need_b:
            push(1, _unbroadcast(g, shape_b))

    return _node(data, (a, b), bw)


def sub(a: Tensor, b) -> Tensor:
    # a + (-b) equals a - b bit for bit.
    return add(a, mul(b, -1.0))


def mul(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data
    need_a, need_b = _tracked(a, b)
    shape_a, shape_b = a.data.shape, b.data.shape
    # Each factor is kept only for the other's gradient.
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None

    def bw(g: Array, push) -> None:
        if need_a:
            push(0, _unbroadcast(g * b_data, shape_a))
        if need_b:
            push(1, _unbroadcast(g * a_data, shape_b))

    return _node(data, (a, b), bw)


def _logistic(d: Array, e: Array) -> Array:
    """sigmoid(d) from ``e = exp(-|d|)``: stable in both tails, since exp
    only ever sees a non-positive argument."""
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    x = _coerce(x)
    out = _logistic(x.data, np.exp(-np.abs(x.data)))

    def bw(g: Array, push) -> None:
        push(0, g * out * (1.0 - out))

    return _node(out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    x = _coerce(x)
    out = np.tanh(x.data)

    def bw(g: Array, push) -> None:
        push(0, g * (1.0 - out * out))

    return _node(out, (x,), bw)


def relu(x: Tensor) -> Tensor:
    x = _coerce(x)
    keep = x.data > 0
    out = np.where(keep, x.data, 0.0)

    def bw(g: Array, push) -> None:
        push(0, g * keep)

    return _node(out, (x,), bw)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), computed without overflow for large |x|."""
    x = _coerce(x)
    d = x.data
    e = np.exp(-np.abs(d))
    out = np.maximum(d, 0.0) + np.log1p(e)

    def bw(g: Array, push) -> None:
        push(0, g * _logistic(d, e))

    return _node(out, (x,), bw)


# -- shape ops ---------------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    data = x.data.reshape(shape)
    shape_x = x.data.shape

    def bw(g: Array, push) -> None:
        push(0, np.ascontiguousarray(g.reshape(shape_x)))

    return _node(data, (x,), bw)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    x = _coerce(x)
    data = np.ascontiguousarray(x.data.transpose(axes))
    inverse = np.argsort(axes)

    def bw(g: Array, push) -> None:
        push(0, np.ascontiguousarray(g.transpose(inverse)))

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
    shape_x = x.data.shape

    def bw(g: Array, push) -> None:
        full = np.zeros(shape_x)
        full[index] = g
        push(0, full)

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
        push(0, np.ascontiguousarray(g[index]))

    return _node(data, (x,), bw)


def concat_lastdim(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise DimensionError(
            f"concat_lastdim needs equal leading shapes, got {a.data.shape} and {b.data.shape}"
        )
    data = np.concatenate([a.data, b.data], axis=-1)
    split = a.data.shape[-1]
    need_a, need_b = _tracked(a, b)

    def bw(g: Array, push) -> None:
        if need_a:
            push(0, np.ascontiguousarray(g[..., :split]))
        if need_b:
            push(1, np.ascontiguousarray(g[..., split:]))

    return _node(data, (a, b), bw)


def sum_all(x: Tensor) -> Tensor:
    x = _coerce(x)
    data = np.asarray(x.data.sum())
    shape_x = x.data.shape

    def bw(g: Array, push) -> None:
        push(0, np.broadcast_to(g, shape_x).copy())

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
    need_a, need_b = _tracked(a, b)
    shape_a, shape_b = a.data.shape, b.data.shape
    # Each operand is kept only for the other's gradient.
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None

    def bw(g: Array, push) -> None:
        if need_a:
            push(0, _unbroadcast(g @ b_data.swapaxes(-1, -2), shape_a))
        if need_b:
            push(1, _unbroadcast(a_data.swapaxes(-1, -2) @ g, shape_b))

    return _node(data, (a, b), bw)


def _row_peak(x: Array) -> Array:
    """``x.max(axis=-1, keepdims=True)``, bitwise. A max is exact in any
    order, and over a transposed copy it runs along the leading axis, which
    NumPy does several times faster than across thousands of short rows."""
    width = x.shape[-1]
    columns = np.ascontiguousarray(x.reshape(-1, width).T)
    return columns.max(axis=0).reshape(x.shape[:-1] + (1,))


def _softmax(x: Array, mask: Array | None) -> Array:
    restricted = x if mask is None else np.where(mask, x, -np.inf)
    peak = _row_peak(restricted)
    if np.isneginf(peak).any():
        raise DegenerateSliceError("softmax: at least one slice is fully masked")
    # exp(-inf) is exactly 0, so skipping the masked lanes (slow in np.exp)
    # leaves every output bit unchanged. The sum stays NumPy's row sum: its
    # pairwise order sets the output bits.
    if mask is None:
        weights = x - peak
        np.exp(weights, out=weights)
    else:
        shifted = np.subtract(restricted, peak, out=restricted)
        weights = np.exp(shifted, out=np.zeros(shifted.shape), where=mask)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def _softmax_backward(g: Array, out: Array) -> Array:
    inner = (g * out).sum(axis=-1, keepdims=True)
    grad = g - inner
    grad *= out
    return grad


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
        push(0, _softmax_backward(g, out))

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
    # A mean is np.mean's own sum-then-divide, so the bits are np.mean's;
    # the temporaries are reused in place.
    centred = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (centred * centred).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(centred, inv, out=centred)
    data = xhat * gain.data
    data += bias.data
    need_x, need_gain, need_bias = _tracked(x, gain, bias)
    # Kept only for the parents whose gradients read them.
    gain_data = gain.data if need_x else None
    inv = inv if need_x else None
    xhat = xhat if need_x or need_gain else None

    def bw(g: Array, push) -> None:
        if need_x:
            gx = g * gain_data
            along = gx * xhat
            coupling = along.sum(axis=-1, keepdims=True) / d
            gx -= gx.sum(axis=-1, keepdims=True) / d
            gx -= np.multiply(xhat, coupling, out=along)
            gx *= inv
            push(0, gx)
        lead = tuple(range(g.ndim - 1))
        if need_gain:
            push(1, (g * xhat).sum(axis=lead))
        if need_bias:
            push(2, g.sum(axis=lead))

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
    shape_table = table.data.shape

    def bw(g: Array, push) -> None:
        dt = np.zeros(shape_table)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, shape_table[1]))
        push(0, dt)

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
    shape_x = x.data.shape

    def bw(g: Array, push) -> None:
        dx = np.zeros(shape_x)
        dx[rows, positions] = g
        push(0, dx)

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
    """Inverted dropout; identity when ``rng`` is None (eval mode) or p == 0.

    Bitwise ``mul(x, Tensor(kept / (1 - p)))``; the node keeps the bool draw
    and rebuilds the float keep mask in its backward."""
    kept = dropout_draw(x.data.shape, p, rng)
    if kept is None:
        return x
    data = x.data * (kept / (1.0 - p))

    def bw(g: Array, push) -> None:
        push(0, g * (kept / (1.0 - p)))

    return _node(data, (x,), bw)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    heads: int,
    visible: Array,
    scale: float,
    kept: Array | None = None,
    p: float = 0.0,
    rows: Array | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` is ``[batch, len_q, d]``, ``k`` and ``v`` are ``[batch, len_k, d]``,
    split into ``heads`` contiguous column groups. ``visible`` is the bool
    ``[batch, 1, len_q, len_k]`` mask of keys each query row may see; every
    row must see at least one. ``kept`` is an optional bool dropout draw of
    shape ``[batch, heads, len_q, len_k]`` for rate ``p``, applied to the
    attention weights. Returns the merged ``[batch, len_q, d]`` context.

    Bitwise the chain split, ``q @ kᵀ``, ``* scale``, ``softmax_lastdim``,
    ``dropout`` (with this draw), ``@ v``, merge. The node keeps the softmax
    output and the bool draw, the split ``v`` when ``q`` or ``k`` needs a
    gradient, the split ``q`` when ``k`` does and ``kᵀ`` when ``q`` does; its
    backward rebuilds the float keep mask and the dropped weights.

    ``rows``, one query position per batch row, narrows the row-wise work to
    those rows: only their scores take the softmax (and its backward), and
    every other query row gets zero weights, so a zero context row. The
    products keep their full shapes, the picked rows' weights sitting in a
    zero ``[batch, heads, len_q, len_k]`` block, so the picked context rows,
    and the gradients that a loss on them alone sends back, are the bits of
    the full op. The node then keeps the ``[batch, heads, len_k]`` picked
    rows of the softmax output and of the draw, and rebuilds the zero block in
    its backward.
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
    pick = None
    if rows is not None:
        rows = np.asarray(rows)
        if rows.shape != (batch,):
            raise DimensionError(f"rows must have shape ({batch},), got {rows.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= len_q):
            raise IndexRangeError(f"rows outside [0, {len_q})")
        pick = (np.arange(batch), slice(None), rows)
    head_dim = d // heads

    def split(x: Array, length: int) -> Array:
        return np.ascontiguousarray(x.reshape(batch, length, heads, head_dim).transpose(0, 2, 1, 3))

    def merge(x: Array, length: int) -> Array:
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(batch, length, d)

    def take(x: Array) -> Array:
        """The picked query rows of a ``[batch, *, len_q, len_k]`` array."""
        return x if pick is None else x[pick]

    def spread(x: Array) -> Array:
        """The picked rows back in a zero ``[batch, heads, len_q, len_k]`` block."""
        if pick is None:
            return x
        block = np.zeros((batch, heads, len_q, len_k))
        block[pick] = x
        return block

    qh = split(q.data, len_q)
    kt = np.ascontiguousarray(k.data.reshape(batch, len_k, heads, head_dim).transpose(0, 2, 3, 1))
    vh = split(v.data, len_k)
    scores = qh @ kt
    scores *= scale
    probs = _softmax(take(scores), take(visible))
    kept = None if kept is None else take(kept)
    dropped = probs if kept is None else probs * (kept / (1.0 - p))
    data = merge(spread(dropped) @ vh, len_q)
    need_q, need_k, need_v = _tracked(q, k, v)
    need_scores = need_q or need_k
    # Kept only for the parents whose gradients read them.
    qh = qh if need_k else None
    kt = kt if need_q else None
    vh = vh if need_scores else None

    def bw(g: Array, push) -> None:
        g_context = np.ascontiguousarray(g.reshape(batch, len_q, heads, head_dim).transpose(0, 2, 1, 3))
        keep = None if kept is None else kept / (1.0 - p)
        if need_v:
            dropped = probs if keep is None else probs * keep
            push(2, merge(spread(dropped).swapaxes(-1, -2) @ g_context, len_k))
        if not need_scores:
            return
        g_probs = take(g_context @ vh.swapaxes(-1, -2))
        if keep is not None:
            g_probs *= keep
        g_scores = _softmax_backward(g_probs, probs)
        g_scores *= scale
        g_scores = spread(g_scores)
        if need_k:
            push(1, merge((qh.swapaxes(-1, -2) @ g_scores).transpose(0, 1, 3, 2), len_k))
        if need_q:
            push(0, merge(g_scores @ kt.swapaxes(-1, -2), len_q))

    return _node(data, (q, k, v), bw)


# -- parameters --------------------------------------------------------------

INIT_STD = 0.02


@dataclass
class Parameter:
    """A named leaf tensor. It is trainable exactly when its tensor requires
    a gradient; the tensor is the only owner of that flag."""

    name: str
    tensor: Tensor

    @property
    def trainable(self) -> bool:
        return self.tensor.requires_grad


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

    def _register(self, name: str, data: Array, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        param = Parameter(name=name, tensor=Tensor(data, requires_grad=trainable))
        self._params[name] = param
        return param

    def normal(self, name: str, shape: tuple[int, ...], trainable: bool = True) -> Parameter:
        rng = derive_rng(self.seed, "param", name)
        return self._register(name, rng.normal(0.0, INIT_STD, size=shape), trainable)

    def zeros(self, name: str, shape: tuple[int, ...]) -> Parameter:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape: tuple[int, ...]) -> Parameter:
        return self._register(name, np.ones(shape))

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
        """Copy ``state``, which must hold each parameter's name and shape and
        nothing else, into the store; atomic: a mismatch moves no parameter."""
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ContractError(f"state mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        targets = {name: self._params[name].tensor for name in state}
        for name, values in state.items():
            if values.shape != targets[name].data.shape:
                raise ContractError(f"shape mismatch for {name}: {values.shape} vs {targets[name].data.shape}")
        for name, values in state.items():
            # A copy: the caller's array must not alias the parameter.
            targets[name].data = np.array(values, dtype=np.float64, order="C")
