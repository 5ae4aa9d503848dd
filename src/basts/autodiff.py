"""Dense float64 tensors with tape-based reverse-mode differentiation.

Forward values live in numpy arrays. Recording happens only inside a
Tape: an operation run while a tape is active, on at least one tracked
input, records a node whose backward closure turns an output gradient
into input gradients. A tracked input is a tensor that requires grad or
an output of a recorded op; any other tensor is a constant. An op on
constants alone records nothing, and a constant gets no .grad, so a
parameter with `requires_grad = False` is frozen: `Adam.step` leaves it
as it is. Outside a tape nothing records at all. A tape supports one
backward pass. There is no broadcasting beyond scalars and the few
row-wise composites defined here; shapes are checked eagerly and
mismatches raise ShapeError.

Python bookkeeping per recorded op, not arithmetic, bounds the speed of
a step, so larger composites are single ops with hand-written
backwards: `attention` runs every head of a multi-head attention, for
every sequence packed into its rows, as one op of batched products,
softmaxes and weighted sums. Each sequence is a (query rows, key rows)
pair, and one flag makes every sequence causal; the causal triangle is
the op's own cached constant, the only mask there is, so a call that is
not causal masks nothing. `syntax_encoder.encode_trees` records a whole
Tree-LSTM fold the same way, through `_emit`.

The tape holds what backward reads and no more. A node keeps, for each
input, the node that produced it on the same tape, the tensor itself if
it is a tracked leaf (a parameter, or an output of another tape), or
None if it is untracked. It keeps no output of its own tape, and refers
to its tape weakly. Strong references run one way only: from an output
tensor, or from the tape, to a node, and from a node to its backward
closure's saved arrays, its producer nodes and its leaves. So the graph
holds no reference cycles, an op output that no backward saves is freed
as soon as the forward drops it, and the rest goes when the tape and
the loss are dropped.

`backward` is the one non-finite gate of training: it raises NaNError
when the loss is not finite, or when a gradient it would write to a leaf
is not, before it writes any .grad. Every training step runs backward
before its optimizer step, so a step that raises changes no parameter,
optimizer moment or gradient.

Model parameters live in dataclasses that subclass Params, whose one
walk names every Tensor by field declaration order; that walk is the
optimizer's parameter list and the checkpoint's blob layout. Each class
states its tensors' shapes once, in its shape statement (see Params).
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import fields, replace
from functools import cache
from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    pass


class GraphError(RuntimeError):
    pass


class NaNError(RuntimeError):
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


def check_width(size: int, heads: int = 1, name: str = "size"):
    """The geometry rule of every parameter class and of `attention`: a
    width `size` of at least 1, split evenly across `heads` >= 1 heads.
    The error calls the width `name`, as the caller's user wrote it."""
    if size < 1:
        raise ShapeError(f"{name} must be at least 1, got {size}")
    if heads < 1 or size % heads:
        raise ShapeError(f"heads must be at least 1 and divide {name} {size}, got {heads}")


class Slot(NamedTuple):
    """One tensor of a shape statement: its shape, and how `init` fills it.

    A positive `scale` draws uniformly from [-scale, scale]; a zero scale
    fills every entry with `fill`.
    """

    shape: tuple[int, ...]
    scale: float = 0.0
    fill: float = 0.0

    def draw(self, rng: np.random.Generator) -> Tensor:
        data = (rng.uniform(-self.scale, self.scale, size=self.shape) if self.scale
                else np.full(self.shape, self.fill))
        return Tensor(data, requires_grad=True)


def glorot(shape, fans: int | None = None) -> Slot:
    """A Glorot-uniform slot; `fans` (fan-in plus fan-out) defaults to the sum
    of the matrix's two dimensions."""
    return Slot(shape, math.sqrt(6.0 / (fans or sum(shape))))


class Params:
    """Base of the parameter dataclasses; one walk names every tensor.

    Names follow field declaration order: a Tensor field is named by its
    field, a Params field adds "field." to its own names, item i of a
    list field adds "field<i>.", and other fields (sizes, vocabularies,
    the tree encoder's subtree index) hold no parameters. Adam and the
    checkpoint layout both read this.

    Each class states its tensors once, in its shape statement, the
    classmethod `statement`: from integer geometry (vocabulary lengths,
    width, heads, layer counts) it returns an instance of the class whose
    tensor fields hold `Slot`s in place of tensors, so the same walk names
    their shapes, and no array is allocated. The statements of the model
    classes apply `check_width`, the only place the geometry rule lives.
    `init` draws a statement's slots; the checkpoint loader checks its
    blobs against a statement and `build`s the parameters from them.
    """

    def named_params(self, prefix: str = "") -> list[tuple[str, Tensor | Slot]]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (Tensor, Slot)):
                out.append((prefix + f.name, value))
            elif isinstance(value, Params):
                out.extend(value.named_params(f"{prefix}{f.name}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out.extend(item.named_params(f"{prefix}{f.name}{i}."))
        return out

    def all_params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def build(self, make, prefix: str = "") -> "Params":
        """This statement with each slot replaced by `make(name, slot)`;
        a part that holds no slot is kept as it is."""
        made = {}
        for f in fields(self):
            value, name = getattr(self, f.name), prefix + f.name
            if isinstance(value, Slot):
                made[f.name] = make(name, value)
            elif isinstance(value, Params):
                made[f.name] = value.build(make, name + ".")
            elif isinstance(value, list):
                made[f.name] = [item.build(make, f"{name}{i}.")
                                for i, item in enumerate(value)]
        return replace(self, **made) if made else self

    def draw(self, rng: np.random.Generator) -> "Params":
        """This statement's slots drawn from `rng` in `named_params` order."""
        return self.build(lambda _, slot: slot.draw(rng))


class _OpNode:
    """One recorded op. Each of `inputs` is the input's producer node on
    this op's tape, the input itself if it is a tracked leaf, or None if
    it is untracked; `tape` is a weak reference."""

    __slots__ = ("inputs", "backward_fn", "tape")

    def __init__(self, inputs, backward_fn, tape):
        self.inputs = inputs
        self.backward_fn = backward_fn
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


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _recording(inputs) -> bool:
    """Whether an op on these inputs lands on a tape, so its backward can run."""
    return bool(_TAPE_STACK) and any(_tracked(t) for t in inputs)


def _source(t: Tensor, tape: Tape):
    """What a node on `tape` keeps of its input `t` (see `_OpNode`)."""
    if t.node is not None and t.node.tape() is tape:
        return t.node
    return t if _tracked(t) else None


def _emit(out_data, inputs, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _recording(inputs):
        tape = _TAPE_STACK[-1]
        node = _OpNode(tuple(_source(t, tape) for t in inputs), backward_fn, tape)
        out.node = node
        tape.nodes.append(node)
    return out


def backward(tape: Tape, loss: Tensor):
    """Add d(loss)/d(leaf) to .grad on every leaf that requires grad.

    The module's one non-finite gate: a loss that is not finite, or a
    leaf gradient that would not be, raises NaNError before any .grad is
    written, so the caller's optimizer step never runs.
    """
    if tape.used:
        raise GraphError("tape already used for a backward pass")
    if loss.node is None or loss.node.tape() is not tape:
        raise GraphError("loss was not produced on this tape")
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise NaNError(f"non-finite loss {loss.data}")
    tape.used = True

    # keyed by the source itself: a producer node, or a leaf tensor
    grads = {loss.node: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node, None)
        if g is None:  # its output fed no later op
            continue
        for source, gt in zip(node.inputs, node.backward_fn(g)):
            if gt is None or source is None:
                continue
            grads[source] = grads[source] + gt if source in grads else gt
    # only leaves are left; every new .grad is checked before any is written
    new = [(t, g if t.grad is None else t.grad + g)
           for t, g in grads.items() if t.requires_grad]
    for t, g in new:
        if not np.isfinite(g).all():
            raise NaNError(f"non-finite gradient of a leaf of shape {t.shape}")
    for t, g in new:
        t.grad = g


def _require_ids(ids: np.ndarray, n: int, what: str):
    # read as unsigned, a negative id is huge, so one max checks both ends
    if not (ids.size == 0 or int(ids.view(np.uintp).max()) < n):
        raise ShapeError(f"{what} must lie in [0, {n})")


# --- primitive operations ---------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product for 2D@2D, 2D@1D and 1D@2D."""
    ad, bd = a.data, b.data
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {ad.shape} @ {bd.shape}")
    if a.ndim == 2 and b.ndim == 2:
        def back(g):
            return g @ bd.T, ad.T @ g
    elif a.ndim == 2 and b.ndim == 1:
        def back(g):
            return np.outer(g, bd), ad.T @ g
    elif a.ndim == 1 and b.ndim == 2:
        def back(g):
            return bd @ g, np.outer(ad, g)
    else:
        raise ShapeError(f"matmul needs 2D@2D, 2D@1D or 1D@2D, got {ad.shape} @ {bd.shape}")
    return _emit(ad @ bd, (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors; a 0-d operand is broadcast."""
    if a.ndim == 0 or b.ndim == 0:
        a_nd, b_nd = a.ndim, b.ndim

        def back(g):
            return (g if a_nd else g.sum()), (g if b_nd else g.sum())
        return _emit(a.data + b.data, (a, b), back)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _emit(a.data * s, (a,), lambda g: (g * s,))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-L vector to every row of an [n, L] matrix."""
    if not (m.ndim == 2 and v.ndim == 1 and m.shape[1] == v.shape[0]):
        raise ShapeError(f"add_rowvec shapes differ: {m.shape} vs {v.shape}")
    return _emit(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))
    return _emit(y, (x,), lambda g: (g * y * (1.0 - y),))


def relu(x: Tensor) -> Tensor:
    keep = x.data > 0
    return _emit(np.where(keep, x.data, 0.0), (x,), lambda g: (g * keep,))


def log(x: Tensor, floor: float = 0.0) -> Tensor:
    """Natural log; values below `floor` are clamped with zero gradient."""
    xd = np.maximum(x.data, floor) if floor > 0.0 else x.data
    inside = x.data >= floor
    return _emit(np.log(xd), (x,), lambda g: (g * inside / xd,))


@cache
def _causal(s: int) -> np.ndarray:
    """The additive [s, s] causal block: -inf above the diagonal, so query
    i sees keys 0..i. Read-only and cached per s, so a decode step does
    not rebuild it."""
    block = np.triu(np.full((s, s), -np.inf), k=1)
    block.setflags(write=False)
    return block


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, lengths,
              causal: bool = False) -> Tensor:
    """Scaled dot-product attention of every head at once, as one op.

    q is [n, L], k and v are [m, L]; head h owns columns [h*d, (h+1)*d)
    of each, d = L / heads. The [n, L] result holds head h's contexts in
    its columns, as the heads' outputs side by side.

    Rows may pack several independent sequences. `lengths` holds each
    one's (query rows, key rows): sequence b covers the next n_b rows of
    q and the next m_b rows of k and v, so the counts must add up to
    exactly n and m, and a query sees only its own sequence's keys. A
    sequence with queries needs keys; one without queries may have keys,
    which no query sees. With `causal`, every sequence is square and its
    query i sees its keys 0..i; a key hidden from a query gets weight
    exactly 0 and no gradient from it. Without `causal`, nothing is
    added to the scores. Each sequence's scores, softmax and weighted sum
    are taken on their own, so no [n, m] array is built.
    """
    if not (q.ndim == 2 and k.ndim == 2 and v.ndim == 2):
        raise ShapeError(f"attention expects matrices, got {q.shape}, {k.shape}, {v.shape}")
    n, size = q.shape
    m = k.shape[0]
    if not (k.shape == (m, size) and v.shape == (m, size)):
        raise ShapeError(f"attention needs k and v of shape [m, {size}], "
                         f"got {k.shape} and {v.shape}")
    check_width(size, heads)
    spans, q_end, k_end = [], 0, 0
    for b, pair in enumerate(lengths):
        try:
            rows, keys = map(operator.index, pair)
        except (TypeError, ValueError):
            raise ShapeError(f"attention sequence {b} must be a pair of row counts, "
                             f"got {pair!r}") from None
        if min(rows, keys) < 0 or (rows and not keys) or (causal and rows != keys):
            raise ShapeError(f"attention sequence {b} cannot have {rows} query and "
                             f"{keys} key rows{' when causal' if causal else ''}")
        qs, ks = slice(q_end, q_end + rows), slice(k_end, k_end + keys)
        q_end, k_end = qs.stop, ks.stop
        if rows:  # a sequence without queries has no output or gradient
            spans.append((qs, ks))
    if (q_end, k_end) != (n, m):
        raise ShapeError(f"attention sequences cover {q_end} query and {k_end} key "
                         f"rows, not {n} and {m}")
    d = size // heads
    scale = 1.0 / math.sqrt(d)

    def split(x):  # [rows, L] -> [heads, rows, d]
        return x.reshape(x.shape[0], heads, d).transpose(1, 0, 2)

    def join(x):  # [heads, rows, d] -> [rows, L]
        return x.transpose(1, 0, 2).reshape(x.shape[1], size)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    out = np.empty((heads, n, d))
    probs = []
    for qs, ks in spans:
        # the softmax, in place: scale, causal mask, shift by the row max, exp, normalize
        p = qh[:, qs] @ kh[:, ks].transpose(0, 2, 1)
        p *= scale
        if causal:
            p += _causal(qs.stop - qs.start)
        p -= np.maximum.reduce(p, axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=2, keepdims=True)
        out[:, qs] = p @ vh[:, ks]
        probs.append(p)

    def back(g):
        gh = split(g)
        dq = np.empty((heads, n, d))
        dk, dv = np.zeros((heads, m, d)), np.zeros((heads, m, d))
        for (qs, ks), p in zip(spans, probs):
            gs = gh[:, qs]
            dv[:, ks] = p.transpose(0, 2, 1) @ gs
            # dz = p * (dp - rowsum(dp * p)) * scale for dp = g @ v^T, in dp's buffer
            dz = gs @ vh[:, ks].transpose(0, 2, 1)
            dz -= np.add.reduce(dz * p, axis=2, keepdims=True)
            dz *= p
            dz *= scale
            dq[:, qs] = dz @ kh[:, ks]
            dk[:, ks] = dz.transpose(0, 2, 1) @ qh[:, qs]
        return join(dq), join(dk), join(dv)

    return _emit(join(out), (q, k, v), back)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit(out, tuple(tensors), back)


def sum_(x: Tensor) -> Tensor:
    shape = x.shape
    return _emit(x.data.sum(), (x,), lambda g: (np.full(shape, float(g)),))


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """[n, ...] sums of the rows of `rows` by id; rows add in their order.

    It is the table gradient of `embedding_lookup`, whose ids may repeat
    or go unused. Equal to `np.add.at(zeros, idx, rows)`, bit for bit: one
    `np.bincount` over the flat ids `idx * width + column`, which
    accumulates its weights in input order. Ids must lie in [0, n).
    """
    tail = rows.shape[1:]
    width = math.prod(tail)
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=rows.ravel(), minlength=n * width)
    # bincount gives integer zeros when there is nothing to add
    return out.astype(np.float64, copy=False).reshape((n,) + tail)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Rows of an embedding table as a matrix, one row per index in [0, rows)."""
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2D, got {table.shape}")
    idx_array = np.asarray(indices, dtype=np.intp)
    if idx_array.ndim != 1:
        raise ShapeError(f"embedding indices must be 1D, got shape {idx_array.shape}")
    n = table.shape[0]
    _require_ids(idx_array, n, "embedding indices")
    return _emit(table.data[idx_array], (table,),
                 lambda g: (_scatter_rows(idx_array, g, n),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Row-wise normalization of a matrix, then affine scale and shift.

    The row means and variances are the `np.add.reduce` sums, divided by
    the width, that `np.mean` and `np.var` take behind their wrappers, so
    the values are theirs bit for bit.
    """
    if not (x.ndim == 2 and gain.shape == (x.shape[1],) and bias.shape == (x.shape[1],)):
        raise ShapeError(f"layer_norm shapes differ: {x.shape}, {gain.shape}, {bias.shape}")
    width = x.shape[1]
    centered = x.data - np.add.reduce(x.data, axis=1, keepdims=True) / width
    var = np.add.reduce(centered * centered, axis=1, keepdims=True) / width
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    scale = gain.data

    def back(g):
        dxhat = g * scale
        dx = dxhat - np.add.reduce(dxhat, axis=1, keepdims=True) / width
        dxhat *= xhat
        dx -= xhat * (np.add.reduce(dxhat, axis=1, keepdims=True) / width)
        dx *= inv
        return dx, np.add.reduce(g * xhat, axis=0), np.add.reduce(g, axis=0)

    return _emit(xhat * scale + bias.data, (x, gain, bias), back)


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Mean token-level cross entropy of [n, V] logits against n target ids."""
    tgt = np.asarray(targets, dtype=np.intp)
    if not (logits.ndim == 2 and tgt.shape == (logits.shape[0],)):
        raise ShapeError(f"cross entropy shapes differ: {logits.shape} vs {tgt.shape}")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    nll = lse - z[np.arange(len(tgt)), tgt]
    scale = 1.0 / len(tgt)

    def back(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(tgt)), tgt] -= 1.0
        return (float(g) * scale * p,)

    return _emit(nll.sum() * scale, (logits,), back)


# --- optimization -----------------------------------------------------------


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam optimizer over a fixed parameter list; deterministic updates.

    Only the learning rate is set per run; the moment decays and epsilon
    are the module's ADAM_* constants (Kingma & Ba's defaults).
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        if not (lr > 0 and math.isfinite(lr)):
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
