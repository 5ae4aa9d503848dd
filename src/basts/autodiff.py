"""Dense float64 tensors with tape-based reverse-mode differentiation.

Forward values live in numpy arrays; every operation run while a Tape is
active records a node whose backward closure turns an output gradient
into input gradients. A tape supports one backward pass. There is no
broadcasting beyond scalars and the few row-wise composites defined here;
shapes are checked eagerly and mismatches raise ShapeError.

The graph holds no reference cycles, so reference counting frees a
step's arrays as soon as its tape and loss are dropped. Strong references
run one way only: tape -> node -> input tensors -> their nodes; a node
refers to its output tensor and to its tape weakly.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    pass


class GraphError(RuntimeError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.node: "_OpNode | None" = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scalar_mul(self, other)

    def __rmul__(self, other):
        return scalar_mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


class _OpNode:
    """One recorded op; `out` and `tape` are weak references."""

    __slots__ = ("inputs", "backward_fn", "out", "tape")

    def __init__(self, inputs, backward_fn, out, tape):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.out = weakref.ref(out)
        self.tape = weakref.ref(tape)


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Records operations in forward order; one backward pass per tape."""

    __slots__ = ("nodes", "used", "__weakref__")

    def __init__(self):
        self.nodes: list[_OpNode] = []
        self.used = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


@contextmanager
def no_grad():
    """Suspend recording; forwards run but nothing lands on a tape."""
    saved = list(_TAPE_STACK)
    _TAPE_STACK.clear()
    try:
        yield
    finally:
        _TAPE_STACK.extend(saved)


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _emit(out_data, inputs, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _TAPE_STACK and any(_tracked(t) for t in inputs):
        tape = _TAPE_STACK[-1]
        node = _OpNode(inputs, backward_fn, out, tape)
        out.node = node
        tape.nodes.append(node)
    return out


def backward(tape: Tape, loss: Tensor):
    """Populate .grad on every tracked leaf with d(loss)/d(leaf)."""
    if tape.used:
        raise GraphError("tape already used for a backward pass")
    if loss.node is None or loss.node.tape() is not tape:
        raise GraphError("loss was not produced on this tape")
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.used = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    for node in reversed(tape.nodes):
        out = node.out()
        # an output that is gone fed no later op, so no gradient reaches it
        g = None if out is None else grads.pop(id(out), None)
        if g is None:
            continue
        for t, gt in zip(node.inputs, node.backward_fn(g)):
            if gt is None or not _tracked(t):
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gt
            else:
                grads[key] = gt
            if t.node is None or t.node.tape() is not tape:
                leaves[key] = t
    for key, t in leaves.items():
        if t.requires_grad:
            g = grads[key]
            t.grad = g if t.grad is None else t.grad + g


def _require(cond: bool, message: str):
    if not cond:
        raise ShapeError(message)


# --- primitive operations ---------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product for 2D@2D, 2D@1D, 1D@2D, and 1D@1D."""
    ad, bd = a.data, b.data
    _require(
        ad.shape[-1] == bd.shape[0],
        f"matmul inner dimensions differ: {ad.shape} @ {bd.shape}",
    )
    if a.ndim == 2 and b.ndim == 2:
        def back(g):
            return g @ bd.T, ad.T @ g
    elif a.ndim == 2 and b.ndim == 1:
        def back(g):
            return np.outer(g, bd), ad.T @ g
    elif a.ndim == 1 and b.ndim == 2:
        def back(g):
            return bd @ g, np.outer(ad, g)
    elif a.ndim == 1 and b.ndim == 1:
        def back(g):
            return g * bd, g * ad
    else:
        raise ShapeError(f"matmul supports 1D/2D operands, got {ad.shape} @ {bd.shape}")
    return _emit(ad @ bd, (a, b), back)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum of same-shape tensors, or tensor plus scalar."""
    if not isinstance(b, Tensor):
        s = float(b)
        return _emit(a.data + s, (a,), lambda g: (g,))
    _require(a.data.shape == b.data.shape, f"add shapes differ: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require(a.data.shape == b.data.shape, f"mul shapes differ: {a.shape} vs {b.shape}")
    return _emit(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _emit(a.data * s, (a,), lambda g: (g * s,))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-L vector to every row of an [n, L] matrix."""
    _require(
        m.ndim == 2 and v.ndim == 1 and m.shape[1] == v.shape[0],
        f"add_rowvec shapes differ: {m.shape} vs {v.shape}",
    )
    return _emit(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def repeat_row(v: Tensor, n: int) -> Tensor:
    """Stack n copies of a vector into an [n, L] matrix."""
    _require(v.ndim == 1, f"repeat_row expects a vector, got {v.shape}")
    return _emit(
        np.tile(v.data, (n, 1)), (v,), lambda g: (g.sum(axis=0),)
    )


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))
    return _emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _emit(y, (x,), lambda g: (g * (1.0 - y * y),))


def relu(x: Tensor) -> Tensor:
    keep = x.data > 0
    return _emit(np.where(keep, x.data, 0.0), (x,), lambda g: (g * keep,))


def log(x: Tensor, floor: float = 0.0) -> Tensor:
    """Natural log; values below `floor` are clamped with zero gradient."""
    xd = np.maximum(x.data, floor) if floor > 0.0 else x.data
    inside = x.data >= floor
    return _emit(np.log(xd), (x,), lambda g: (g * inside / xd,))


def row_softmax(x: Tensor, additive_mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of a vector or matrix.

    `additive_mask` is a constant of the same shape holding 0 where a
    position participates and -inf where it is excluded; excluded
    positions get probability exactly 0 and zero gradient.
    """
    z = x.data if additive_mask is None else x.data + additive_mask
    z2 = z if z.ndim == 2 else z[None, :]
    m = z2.max(axis=1, keepdims=True)
    e = np.exp(z2 - m)
    y2 = e / e.sum(axis=1, keepdims=True)
    y = y2 if z.ndim == 2 else y2[0]

    def back(g):
        g2 = g if g.ndim == 2 else g[None, :]
        dz = y2 * (g2 - (g2 * y2).sum(axis=1, keepdims=True))
        return (dz if g.ndim == 2 else dz[0],)

    return _emit(y, (x,), back)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit(out, tuple(tensors), back)


def col_slice(x: Tensor, lo: int, hi: int) -> Tensor:
    """Columns [lo, hi) of a matrix."""
    _require(x.ndim == 2, f"col_slice expects a matrix, got {x.shape}")

    def back(g):
        full = np.zeros_like(x.data)
        full[:, lo:hi] = g
        return (full,)

    return _emit(x.data[:, lo:hi].copy(), (x,), back)


def transpose(x: Tensor) -> Tensor:
    _require(x.ndim == 2, f"transpose expects a matrix, got {x.shape}")
    return _emit(x.data.T.copy(), (x,), lambda g: (g.T,))


def sum_(x: Tensor) -> Tensor:
    return _emit(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),))


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Rows of an embedding table: one index gives a vector, a list a matrix."""
    _require(table.ndim == 2, f"embedding table must be 2D, got {table.shape}")
    if isinstance(indices, (int, np.integer)):
        idx = int(indices)

        def back1(g):
            full = np.zeros_like(table.data)
            full[idx] = g
            return (full,)

        return _emit(table.data[idx].copy(), (table,), back1)

    idx_array = np.asarray(indices, dtype=np.intp)

    def back(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx_array, g)
        return (full,)

    return _emit(table.data[idx_array], (table,), back)


def segment_sum(x: Tensor, segments, n: int) -> Tensor:
    """Row i of the [n, ...] result is the sum of the rows of x labelled i.

    `segments` holds one id in [0, n) per row of x; ids may repeat or go
    unused (an unused id gives a zero row). Rows add in their order in x.
    """
    seg = np.asarray(segments, dtype=np.intp)
    _require(
        x.ndim >= 1 and seg.shape == (x.shape[0],),
        f"segment_sum needs one segment id per row: {seg.shape} ids for {x.shape}",
    )
    _require(
        seg.size == 0 or (int(seg.min()) >= 0 and int(seg.max()) < n),
        f"segment_sum ids must lie in [0, {n})",
    )
    out = np.zeros((n,) + x.shape[1:])
    np.add.at(out, seg, x.data)
    return _emit(out, (x,), lambda g: (g[seg],))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Row-wise normalization of a matrix, then affine scale and shift."""
    _require(
        x.ndim == 2 and gain.shape == (x.shape[1],) and bias.shape == (x.shape[1],),
        f"layer_norm shapes differ: {x.shape}, {gain.shape}, {bias.shape}",
    )
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def back(g):
        dgain = (g * xhat).sum(axis=0)
        dbias = g.sum(axis=0)
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        return dx, dgain, dbias

    return _emit(xhat * gain.data + bias.data, (x, gain, bias), back)


def cross_entropy_logits(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Token-level cross entropy of [n, V] logits against n target ids."""
    tgt = np.asarray(targets, dtype=np.intp)
    _require(
        logits.ndim == 2 and tgt.shape == (logits.shape[0],),
        f"cross entropy shapes differ: {logits.shape} vs {tgt.shape}",
    )
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    nll = lse - z[np.arange(len(tgt)), tgt]
    scale = 1.0 / len(tgt) if reduction == "mean" else 1.0

    def back(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(tgt)), tgt] -= 1.0
        return (float(g) * scale * p,)

    return _emit(nll.sum() * scale, (logits,), back)


# --- gradient checking and optimization -------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    checked: int


def grad_check(f, x: Tensor, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare backward gradients of scalar f(x) to central differences.

    The per-component error is |analytic - numeric| relative to
    max(|analytic|, |numeric|, 1e-4), so near-zero gradients are judged
    on an absolute scale.
    """
    x.zero_grad()
    with Tape() as tape:
        loss = f(x)
        backward(tape, loss)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.zero_grad()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(f(x).data)
            flat[i] = orig - h
            lo = float(f(x).data)
            flat[i] = orig
            num_flat[i] = (hi - lo) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
    return GradCheckReport(max_rel, max_rel < tol, flat.size)


class Adam:
    """Adam optimizer over a fixed parameter list; deterministic updates."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def uniform_init(rng: np.random.Generator, shape, scale: float) -> Tensor:
    """Learnable tensor drawn uniformly from [-scale, scale]."""
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def glorot_init(rng: np.random.Generator, fan_in: int, fan_out: int,
                shape=None) -> Tensor:
    scale = math.sqrt(6.0 / (fan_in + fan_out))
    shape = (fan_out, fan_in) if shape is None else shape
    return uniform_init(rng, shape, scale)


def zeros_init(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
