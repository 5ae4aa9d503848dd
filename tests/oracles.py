"""Slow reference forms of vectorised package code, kept as test oracles.

`fuse` is the per-token form of the fusion layer inside
`summarizer.encode_batch`; `positional_encoding` is the scalar form of
`summarizer.positional_matrix`. `syntax_encoder.encode_trees` folds a batch
of trees as one tape op with a hand-written backward; `tree_lstm_cell` and
`encode_tree_per_node` are its one-cell-per-node form, and
`encode_trees_per_level` its one-height-at-a-time form, about 20 primitive
ops per height with their own backwards, over the same hash-consed rows;
`_levels` is the plan oracle: it hash-conses a batch's trees afresh, node
by node, into the `_Plan` that `syntax_encoder.SubtreeIndex.plan` builds
from its cached arrays; `distinct_subtrees` is the recursive canonical
form of that hash-consing; `sep_loss_per_pair` is the per-pair score
and cross-entropy loop that `syntax_encoder.sep_loss` computes as one
vector expression;
`reachable_tensors` finds by brute force what `autodiff.Params.named_params`
walks by dataclass field.

`attention_reference` and `layer_norm_reference` are `autodiff.attention`
and `autodiff.layer_norm` written with a fresh array at every step and the
`mean`, `var`, `max` and `sum` methods; the package ops, which run in
place and reduce through `np.add.reduce`, must match them bit for bit.
`autodiff.attention` takes each packed sequence as its (query rows, key
rows) and one causal flag; the attention oracles take explicit masks
instead, one additive or boolean block per sequence, with the block's
rows counted from its shape, and `allowed_block` builds the boolean block
of an (n, m) sequence. `row_softmax` and `attention_per_head` are the
one-op-per-head form of `autodiff.attention`, and
`multi_head_attention_per_head` the matching form of
`summarizer.multi_head_attention`, one block of packed rows at a time.
`avg_pool`, `encode_per_example`, `encoder_layer_per_example`,
`decoder_layer_per_example`, `decoder_logits_per_example` and
`train_loss_per_example` are the one-example-at-a-time form of
`summarizer.train_step`'s loss: each example gets its own tree fold, its
own encoder and decoder passes with per-head attention, and its own cross
entropy, where the step packs the whole batch into one pass.

`split_asts_by_reparse` is the token form of `splitter.build_split_asts`:
it parses each split's code, with its body braced, instead of building
the tree from the method's parsed statements. `partition_blocks_reference`
is `splitter.partition_blocks` over dicts, joining the blocks of the kept
dominator-tree edges by union-find where the package follows each node's
parent.

`tokenize_per_char` is the one-branch-chain-per-character form of
`frontend.tokenize` and `frontend.token_offsets`, which take the matches
of one compiled regular expression.

`repeat_row`, `tanh`, `col_slice` and `segment_sum` are tape ops that
only these oracles use; the package has no caller for them.

`grad_check` is the reference for every hand-written backward: it
compares a tape's gradient of a scalar function with central
differences, and the tests of every op and model call it.
"""

import math
import string
from dataclasses import dataclass

import numpy as np

import basts.autodiff as ad
from basts.autodiff import Tensor
from basts.cfg import Cfg
from basts.dominators import DomTree
from basts.frontend import (
    KEYWORDS,
    LexError,
    Method,
    build_ast,
    parse_method,
)
from basts.splitter import CodeSplit, SplitAst, SplitGraph, make_split_code
from basts.summarizer import (
    AttentionParams,
    DecoderLayerParams,
    EmptyInputError,
    EncoderLayerParams,
    SummarizationExample,
    SummarizerModel,
    TransformerParams,
    _feed_forward,
    positional_matrix,
)
from basts.syntax_encoder import (
    SCORE_FLOOR,
    PairExample,
    SepModel,
    TreeLstmParams,
    _Plan,
    encode_trees,
)


def repeat_row(v: Tensor, n: int) -> Tensor:
    """Stack n copies of a vector into an [n, L] matrix."""
    if v.ndim != 1:
        raise ad.ShapeError(f"repeat_row expects a vector, got {v.shape}")
    return ad._emit(
        np.tile(v.data, (n, 1)), (v,), lambda g: (g.sum(axis=0),)
    )


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return ad._emit(y, (x,), lambda g: (g * (1.0 - y * y),))


def col_slice(x: Tensor, lo: int, hi: int) -> Tensor:
    """Columns [lo, hi) of a matrix."""
    if x.ndim != 2:
        raise ad.ShapeError(f"col_slice expects a matrix, got {x.shape}")

    def back(g):
        full = np.zeros_like(x.data)
        full[:, lo:hi] = g
        return (full,)

    return ad._emit(x.data[:, lo:hi].copy(), (x,), back)


def segment_sum(x: Tensor, ids, n: int) -> Tensor:
    """Row i of the [n, ...] result is the sum of the rows of x labelled i.

    `ids` holds one label in [0, n) per row of x; labels may repeat or go
    unused (an unused label gives a zero row). Rows add in their order in x.
    """
    seg = np.asarray(ids, dtype=np.intp)
    if not (x.ndim >= 1 and seg.shape == (x.shape[0],)):
        raise ad.ShapeError(
            f"segment_sum needs one segment id per row: {seg.shape} ids for {x.shape}")
    ad._require_ids(seg, n, "segment_sum ids")
    return ad._emit(ad._scatter_rows(seg, x.data, n), (x,), lambda g: (g[seg],))


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
    with ad.Tape() as tape:
        loss = f(x)
        ad.backward(tape, loss)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.zero_grad()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
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


def allowed_block(n: int, m: int, causal: bool = False) -> np.ndarray:
    """The boolean [n, m] block of a sequence of n queries and m keys: every
    key, or with `causal` (n == m) keys 0..i for query i."""
    allowed = np.ones((n, m), dtype=bool)
    return np.tril(allowed) if causal else allowed


def fuse(pooled: Tensor, token_embedding: Tensor, params: TransformerParams) -> Tensor:
    """ReLU projection of one token embedding joined with the pooled syntax."""
    joint = ad.concat([pooled, token_embedding], axis=0)
    return ad.relu(ad.add(ad.matmul(params.fuse_w, joint), params.fuse_b))


def row_softmax(x: Tensor, additive_mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of a vector or matrix, as one tape op.

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

    return ad._emit(y, (x,), back)


def attention_reference(q: Tensor, k: Tensor, v: Tensor, heads: int, blocks) -> Tensor:
    """`autodiff.attention` with a fresh array at every step of its softmax and backward.

    The row reductions go through the `max` and `sum` methods; the package
    op, which works in place, must equal this bit for bit.
    """
    n, size = q.shape
    m = k.shape[0]
    spans, q_end, k_end = [], 0, 0
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        qs = slice(q_end, q_end + block.shape[0])
        ks = slice(k_end, k_end + block.shape[1])
        q_end, k_end = qs.stop, ks.stop
        if qs.stop > qs.start:
            spans.append((qs, ks, block))
    d = size // heads
    scale = 1.0 / math.sqrt(d)

    def split(x):  # [rows, L] -> [heads, rows, d]
        return x.reshape(x.shape[0], heads, d).transpose(1, 0, 2)

    def join(x):  # [heads, rows, d] -> [rows, L]
        return x.transpose(1, 0, 2).reshape(x.shape[1], size)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    out = np.empty((heads, n, d))
    probs = []
    for qs, ks, block in spans:
        z = (qh[:, qs] @ kh[:, ks].transpose(0, 2, 1)) * scale + block
        e = np.exp(z - z.max(axis=2, keepdims=True))
        p = e / e.sum(axis=2, keepdims=True)
        out[:, qs] = p @ vh[:, ks]
        probs.append(p)

    def back(g):
        gh = split(g)
        dq = np.empty((heads, n, d))
        dk, dv = np.zeros((heads, m, d)), np.zeros((heads, m, d))
        for (qs, ks, _), p in zip(spans, probs):
            gs = gh[:, qs]
            dp = gs @ vh[:, ks].transpose(0, 2, 1)
            dv[:, ks] = p.transpose(0, 2, 1) @ gs
            dz = p * (dp - (dp * p).sum(axis=2, keepdims=True)) * scale
            dq[:, qs] = dz @ kh[:, ks]
            dk[:, ks] = dz.transpose(0, 2, 1) @ qh[:, qs]
        return join(dq), join(dk), join(dv)

    return ad._emit(join(out), (q, k, v), back)


def layer_norm_reference(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """`autodiff.layer_norm` with its row statistics taken by `mean` and `var`."""
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

    return ad._emit(xhat * gain.data + bias.data, (x, gain, bias), back)


def attention_per_head(q: Tensor, k: Tensor, v: Tensor, heads: int,
                       additive_mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention, one column slice of q, k, v per head."""
    width = q.shape[1] // heads
    scale = 1.0 / math.sqrt(width)
    contexts = []
    for h in range(heads):
        lo, hi = h * width, (h + 1) * width
        scores = ad.scalar_mul(
            ad.matmul(col_slice(q, lo, hi), ad.transpose(col_slice(k, lo, hi))),
            scale,
        )
        attn = row_softmax(scores, additive_mask)
        contexts.append(ad.matmul(attn, col_slice(v, lo, hi)))
    return contexts[0] if heads == 1 else ad.concat(contexts, axis=1)


def multi_head_attention_per_head(x: Tensor, params: AttentionParams, heads: int,
                                  allowed, kv: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """`summarizer.multi_head_attention` with `attention_per_head` inside.

    As there, keys and values are projected from x unless `kv` gives them.
    `allowed` holds one boolean block per example, where the package takes
    each example's (query rows, key rows) and a causal flag. Packed rows are attended one block at a time:
    block b's query and key rows, which its shape counts, are gathered,
    attended on their own and stacked again.
    """
    q = ad.matmul(x, params.wq)
    k, v = (ad.matmul(x, params.wk), ad.matmul(x, params.wv)) if kv is None else kv
    q_off = np.cumsum([0] + [block.shape[0] for block in allowed])
    k_off = np.cumsum([0] + [block.shape[1] for block in allowed])
    contexts = []
    for b, block in enumerate(allowed):
        q_rows = np.arange(q_off[b], q_off[b + 1])
        k_rows = np.arange(k_off[b], k_off[b + 1])
        contexts.append(attention_per_head(
            ad.embedding_lookup(q, q_rows), ad.embedding_lookup(k, k_rows),
            ad.embedding_lookup(v, k_rows), heads, np.where(block, 0.0, -np.inf)))
    return ad.matmul(ad.concat(contexts, axis=0), params.wo)


def encoder_layer_per_example(x: Tensor, layer: EncoderLayerParams, heads: int,
                              allowed: list[np.ndarray]) -> Tensor:
    """One encoder layer over one example's rows, attention per head."""
    attended = multi_head_attention_per_head(x, layer.attn, heads, allowed)
    x = ad.layer_norm(ad.add(x, attended), layer.ln1.gain, layer.ln1.bias)
    x = ad.layer_norm(ad.add(x, _feed_forward(x, layer.ffn)),
                      layer.ln2.gain, layer.ln2.bias)
    return x


def decoder_layer_per_example(y: Tensor, memory: Tensor, layer: DecoderLayerParams,
                              heads: int, self_allowed: list[np.ndarray],
                              cross_allowed: list[np.ndarray]) -> Tensor:
    """One decoder layer over one example's rows, attention per head.

    The layer projects its cross-attention keys and values of `memory`
    itself, where the package projects every layer's once, up front.
    """
    attended = multi_head_attention_per_head(y, layer.self_attn, heads, self_allowed)
    y = ad.layer_norm(ad.add(y, attended), layer.ln1.gain, layer.ln1.bias)
    kv = ad.matmul(memory, layer.cross_attn.wk), ad.matmul(memory, layer.cross_attn.wv)
    crossed = multi_head_attention_per_head(y, layer.cross_attn, heads, cross_allowed, kv)
    y = ad.layer_norm(ad.add(y, crossed), layer.ln2.gain, layer.ln2.bias)
    y = ad.layer_norm(ad.add(y, _feed_forward(y, layer.ffn)),
                      layer.ln3.gain, layer.ln3.bias)
    return y


def decoder_logits_per_example(target_ids: list[int], memory: Tensor,
                               model: SummarizerModel) -> Tensor:
    """Word logits of one example at every target position under the causal mask."""
    t = model.transformer
    s = len(target_ids)
    y = ad.add(
        ad.embedding_lookup(t.word_embedding, target_ids),
        Tensor(positional_matrix(s, t.size)),
    )
    self_allowed = allowed_block(s, s, causal=True)
    cross_allowed = allowed_block(s, memory.shape[0])
    for layer in t.dec:
        y = decoder_layer_per_example(y, memory, layer, t.heads, [self_allowed],
                                      [cross_allowed])
    return ad.add_rowvec(ad.matmul(y, t.out_w), t.out_b)


def avg_pool(roots: Tensor) -> Tensor:
    """Coordinate-wise mean of the rows of a [T, L] split-embedding matrix."""
    n = roots.shape[0]
    if n == 0:
        raise EmptyInputError("cannot pool an empty embedding matrix")
    return ad.matmul(Tensor(np.full(n, 1.0 / n)), roots)


def encode_per_example(example: SummarizationExample, model: SummarizerModel) -> Tensor:
    """Source encoding of one example, with a tree fold of its own."""
    t = model.transformer
    roots = encode_trees(example.split_asts, model.tree)
    pooled = avg_pool(roots)
    n = len(example.code_ids)
    tokens = ad.embedding_lookup(t.code_embedding, example.code_ids)
    joint = ad.concat([repeat_row(pooled, n), tokens], axis=1)
    fused = ad.relu(ad.add_rowvec(ad.matmul(joint, ad.transpose(t.fuse_w)), t.fuse_b))
    x = ad.add(fused, Tensor(positional_matrix(n, t.size)))
    allowed = allowed_block(n, n)
    for layer in t.enc:
        x = encoder_layer_per_example(x, layer, t.heads, [allowed])
    return x


def train_loss_per_example(batch: list[SummarizationExample], model: SummarizerModel) -> Tensor:
    """The mean token cross entropy `summarizer.train_step` minimizes.

    Each example is encoded, decoded and scored on its own; each mean
    cross entropy is weighted by its example's share of the batch's
    target tokens.
    """
    count = sum(len(example.comment_ids) - 1 for example in batch)
    total = None
    for example in batch:
        memory = encode_per_example(example, model)
        targets = example.comment_ids[1:]
        logits = decoder_logits_per_example(example.comment_ids[:-1], memory, model)
        ce = ad.scalar_mul(ad.cross_entropy_logits(logits, targets), len(targets) / count)
        total = ce if total is None else ad.add(total, ce)
    return total


def positional_encoding(d: int, l: int, size: int) -> float:
    """Sinusoidal position value for token index d and coordinate l."""
    angle = d / (10000.0 ** (l / size))
    return math.sin(angle) if l % 2 == 0 else math.cos(angle)


def embed(params: TreeLstmParams, type_value: str) -> Tensor:
    """Embedding vector of one type_value label; unknown labels use UNK.

    `embedding_lookup` returns a matrix, and `tree_lstm_cell` takes a vector;
    a one-hot row times the table selects the same row exactly (every other
    term is 0.0) as a vector with the lookup's gradient.
    """
    one_hot = np.zeros(len(params.vocab))
    one_hot[params.vocab.get(type_value, 0)] = 1.0
    return ad.matmul(Tensor(one_hot), params.embedding)


def tree_lstm_cell(x_v: Tensor, children: list[tuple[Tensor, Tensor]],
                   params: TreeLstmParams) -> tuple[Tensor, Tensor]:
    """One cell application: children (h, m) pairs fold into the parent's.

    Children must be non-empty; leaves pass the virtual child state.
    """
    if not children:
        raise ValueError("tree_lstm_cell needs at least one child state")
    h_tilde = children[0][0]
    for h_c, _ in children[1:]:
        h_tilde = ad.add(h_tilde, h_c)

    def gate(w, u, b, h):
        return ad.add(ad.add(ad.matmul(w, x_v), ad.matmul(u, h)), b)

    i = ad.sigmoid(gate(params.w_i, params.u_i, params.b_i, h_tilde))
    o = ad.sigmoid(gate(params.w_o, params.u_o, params.b_o, h_tilde))
    u = tanh(gate(params.w_u, params.u_u, params.b_u, h_tilde))

    wfx = ad.add(ad.matmul(params.w_f, x_v), params.b_f)
    m = ad.mul(i, u)
    for h_c, m_c in children:
        f_c = ad.sigmoid(ad.add(wfx, ad.matmul(params.u_f, h_c)))
        m = ad.add(m, ad.mul(f_c, m_c))
    h = ad.mul(o, tanh(m))
    return h, m


def encode_tree_per_node(t: SplitAst, params: TreeLstmParams) -> Tensor:
    """Root hidden state of a split AST, one `tree_lstm_cell` per node.

    Iterative post-order, so tree depth is not bounded by the Python
    recursion limit. Each node is processed exactly once.
    """
    states: dict[int, tuple[Tensor, Tensor]] = {}  # keyed by id(node)
    virtual = [(params.virtual_h, params.virtual_m)]
    stack = [(t.root, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
            continue
        x_v = embed(params, node.type_value())
        if node.children:
            children = [states.pop(id(c)) for c in node.children]
        else:
            children = virtual
        states[id(node)] = tree_lstm_cell(x_v, children, params)
    h_root, _ = states[id(t.root)]
    return h_root


def _levels(trees: list[SplitAst], vocab: dict[str, int]) -> _Plan:
    """The batch's `_Plan`: one row per distinct subtree, grouped by height.

    `syntax_encoder.SubtreeIndex.plan` must return exactly this plan, array
    for array, for any batch and any trees the index saw before.

    Subtrees are hash-consed (Filliâtre & Conchon, ML Workshop 2006): a
    node is keyed by its embedding row and the (height, row) of each child
    in order, and a node's state depends on nothing else. The first node
    with a key takes a row at height 1 + its tallest child (0 for a leaf,
    whose one child is the virtual state); every later node with that key,
    in any tree, reuses that row. So the heights follow the tallest tree and
    the rows follow the distinct subtrees, not the node count.

    Loops only, so tree depth is not bounded by the Python recursion
    limit. Each tree is walked in reverse breadth-first order, which puts
    a node's children before it.
    """
    levels: list[list[tuple]] = []  # the keys of each height, in row order
    found: dict[tuple, tuple[int, int]] = {}  # key -> (height, row in height)
    roots: list[tuple[int, int]] = []
    for t in trees:
        nodes, first = [t.root], []
        for node in nodes:  # the list grows breadth-first; siblings are adjacent
            first.append(len(nodes))
            nodes.extend(node.children)
        ids = [None] * len(nodes)  # (height, row) of each node's subtree
        for j in range(len(nodes) - 1, -1, -1):
            node = nodes[j]
            kids = tuple(ids[first[j]:first[j] + len(node.children)])
            key = (vocab.get(node.type_value(), 0), kids)
            hit = found.get(key)
            if hit is None:
                height = 1 + max(kids)[0] if kids else 0  # kids are (height, row)
                if height == len(levels):
                    levels.append([])
                hit = found[key] = (height, len(levels[height]))
                levels[height].append(key)
            ids[j] = hit
        roots.append(ids[0])
    # (height, row) -> buffer row: base[height + 1] + row, the virtual
    # child being (-1, 0)
    offset = np.cumsum([0, 1] + [len(level) for level in levels])
    base = offset.tolist()
    keys = [key for level in levels for key in level]
    counts = [len(kids) or 1 for _, kids in keys]
    children = np.array([base[h + 1] + r for _, kids in keys for h, r in kids or ((-1, 0),)],
                        dtype=np.intp)
    parents = np.repeat(np.arange(1, len(keys) + 1), counts)
    # a row's edges go lower heights first, stably: its child sums then add
    # in the order of a fold that gathers one lower height at a time
    order = np.lexsort((np.searchsorted(offset, children, side="right"), parents))
    ends = np.cumsum([0] + counts).tolist()  # ends[r - 1] is row r's first edge
    return _Plan(
        labels=np.array([0] + [label for label, _ in keys], dtype=np.intp),
        children=children[order],
        parents=parents,
        roots=np.array([base[h + 1] + r for h, r in roots], dtype=np.intp),
        heights=[(lo, hi, ends[lo - 1], ends[hi - 1]) for lo, hi in zip(base[1:], base[2:])],
    )


def encode_trees_per_level(trees: list[SplitAst], params: TreeLstmParams) -> Tensor:
    """Root h of each tree as the rows of a [T, L] matrix, one height at a time.

    Folds the rows of `_levels`, each height as one matrix
    through primitive ops: it gathers the (h, m) rows of its children from
    every lower height that holds them, sums child h into the parents with
    `segment_sum`, applies the forget gate once per child edge and sums the
    gated child m the same way. Leaves take the virtual child state.
    """
    if not trees:
        return Tensor(np.zeros((0, params.size)))
    plan = _levels(trees, params.vocab)
    size = params.size
    # [x, h_tilde] @ iou_w gives every row's input, output and update
    # pre-activations at once
    iou_w = ad.transpose(ad.concat([
        ad.concat([params.w_i, params.w_o, params.w_u], axis=0),
        ad.concat([params.u_i, params.u_o, params.u_u], axis=0),
    ], axis=1))
    iou_b = ad.concat([params.b_i, params.b_o, params.b_u], axis=0)
    f_w, f_u = ad.transpose(params.w_f), ad.transpose(params.u_f)
    # states[0] is the virtual child, states[k + 1] the rows of height k
    firsts = np.array([0] + [lo for lo, _, _, _ in plan.heights])
    states = [(repeat_row(params.virtual_h, 1), repeat_row(params.virtual_m, 1))]

    def locate(rows):  # plan rows -> (index into states, row within it)
        k = np.searchsorted(firsts, rows, side="right") - 1
        return k, rows - firsts[k]

    for lo, hi, e0, e1 in plan.heights:
        n = hi - lo
        lower, low_rows = locate(plan.children[e0:e1])
        up = plan.parents[e0:e1] - lo
        parents, h_parts, m_parts = [], [], []
        for k in np.unique(lower):  # one gather per lower height
            picked = lower == k
            parents += up[picked].tolist()
            h_low, m_low = states[k]
            h_parts.append(ad.embedding_lookup(h_low, low_rows[picked]))
            m_parts.append(ad.embedding_lookup(m_low, low_rows[picked]))
        h_kids = h_parts[0] if len(h_parts) == 1 else ad.concat(h_parts)
        m_kids = m_parts[0] if len(m_parts) == 1 else ad.concat(m_parts)

        x = ad.embedding_lookup(params.embedding, plan.labels[lo:hi])
        h_tilde = segment_sum(h_kids, parents, n)
        iou = ad.add_rowvec(ad.matmul(ad.concat([x, h_tilde], axis=1), iou_w), iou_b)
        gates = ad.sigmoid(iou)
        i = col_slice(gates, 0, size)
        o = col_slice(gates, size, 2 * size)
        u = tanh(col_slice(iou, 2 * size, 3 * size))

        wfx = ad.add_rowvec(ad.matmul(x, f_w), params.b_f)
        f = ad.sigmoid(ad.add(ad.embedding_lookup(wfx, parents),
                              ad.matmul(h_kids, f_u)))
        m = ad.add(ad.mul(i, u), segment_sum(ad.mul(f, m_kids), parents, n))
        states.append((ad.mul(o, tanh(m)), m))
    # one gather of the root rows from the heights that hold roots, stacked
    held, root_rows = locate(plan.roots)
    present = sorted(set(held.tolist()))
    tops = [states[k][0] for k in present]
    first = dict(zip(present, np.cumsum([0] + [top.shape[0] for top in tops])))
    stacked = tops[0] if len(tops) == 1 else ad.concat(tops)
    return ad.embedding_lookup(stacked, [first[k] + r for k, r in zip(held, root_rows)])


def distinct_subtrees(trees: list[SplitAst], vocab: dict[str, int]) -> set:
    """Every distinct subtree of the trees, as (embedding row, child forms).

    Two subtrees are equal when their labels map to the same row and their
    children are equal, in order. Recursive, so for shallow trees only.
    """
    forms = set()

    def canon(node):
        form = (vocab.get(node.type_value(), 0), tuple(canon(c) for c in node.children))
        forms.add(form)
        return form

    for t in trees:
        canon(t.root)
    return forms


def sep_loss_per_pair(pairs: list[PairExample], model: SepModel) -> Tensor:
    """Mean binary cross entropy, one score and one loss term per pair."""
    roots = {id(t): encode_tree_per_node(t, model.tree)
             for p in pairs for t in (p.t, p.t_prime)}
    total = None
    for pair in pairs:
        joint = ad.concat([roots[id(pair.t)], roots[id(pair.t_prime)]], axis=0)
        score = ad.sigmoid(ad.add(ad.sum_(ad.mul(model.score_w, joint)), model.score_b))
        if pair.label == 1:
            term = ad.log(score, floor=SCORE_FLOOR)
        else:
            term = ad.log(ad.add(ad.scalar_mul(score, -1.0), Tensor(1.0)), floor=SCORE_FLOOR)
        total = term if total is None else ad.add(total, term)
    return ad.scalar_mul(total, -1.0 / len(pairs))


def reachable_tensors(root) -> list[Tensor]:
    """Every distinct Tensor reachable from root through attributes and containers.

    Follows `vars()` of any object with a `__dict__` and the items of lists,
    tuples and dicts, whatever the field types say.
    """
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


def split_asts_by_reparse(graph: SplitGraph, method: Method) -> list[SplitAst]:
    """One AST per split, each parsed from the split's code with its body braced."""
    n = len(method.declaration_tokens)
    out = []
    for split in graph.splits:
        code = make_split_code(split, method)
        tokens = code[:n] + ["{"] + code[n:] + ["}"]
        out.append(SplitAst(split.split_id, build_ast(parse_method(tokens))))
    return out


def partition_blocks_reference(domtree: DomTree, cfg: Cfg) -> SplitGraph:
    """Code splits of a method's dominator tree, its blocks joined by union-find."""
    stmt_of = {
        n.node_id: n.stmt_id for n in cfg.nodes if n.stmt_id is not None
    }
    real = sorted(stmt_of)
    if not real:
        return SplitGraph([CodeSplit(0, [])], [])

    real_set = set(real)
    parent = {
        v: domtree.idom[v] for v in real if domtree.idom.get(v) in real_set
    }
    out_degree = {v: 0 for v in real}
    for par in parent.values():
        out_degree[par] += 1

    kept: list[tuple[int, int]] = []
    removed: list[tuple[int, int]] = []
    for child in real:
        par = parent.get(child)
        if par is None:
            continue
        if out_degree[par] > 1:
            removed.append((par, child))
        else:
            kept.append((par, child))

    comp = {v: v for v in real}

    def find(v: int) -> int:
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for a, b in kept:
        comp[find(a)] = find(b)

    members: dict[int, list[int]] = {}
    for v in real:
        members.setdefault(find(v), []).append(v)

    ordered = sorted(members.values(), key=lambda ms: min(stmt_of[v] for v in ms))
    split_of_node: dict[int, int] = {}
    splits = []
    for sid, ms in enumerate(ordered):
        stmt_ids = sorted(stmt_of[v] for v in ms)
        splits.append(CodeSplit(sid, stmt_ids))
        for v in ms:
            split_of_node[v] = sid

    edges = sorted({(split_of_node[a], split_of_node[b]) for a, b in removed})
    return SplitGraph(splits, edges)


_TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||")
_ONE_CHAR_OPS = "=<>+-*/%!"
_PUNCT = "(){};,."
# ASCII only, as docs/grammar.md gives them; str.isdigit/isalpha also
# accept characters such as "²", "٣" and "é"
_DIGITS = frozenset(string.digits)
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_CHARS = _IDENT_START | _DIGITS


def tokenize_per_char(source: str) -> tuple[list[tuple[str, str]], list[int]]:
    """Lex source text into (text, kind) pairs, skipping whitespace and comments.

    Returns the pairs and the character offset of each.
    """
    out: list[tuple[str, str]] = []
    offsets: list[int] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c == "/" and source[i + 1 : i + 2] == "/":
            j = source.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if c == "/" and source[i + 1 : i + 2] == "*":
            j = source.find("*/", i + 2)
            if j < 0:
                raise LexError("unterminated block comment", i)
            i = j + 2
            continue
        if c in _DIGITS:
            j = i + 1
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n - 1 and source[j] == "." and source[j + 1] in _DIGITS:
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            out.append((source[i:j], "number"))
            offsets.append(i)
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise LexError("unterminated string literal", i)
            out.append((source[i : j + 1], "string"))
            offsets.append(i)
            i = j + 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < n and source[j] in _IDENT_CHARS:
                j += 1
            text = source[i:j]
            if text in ("true", "false"):
                kind = "bool"
            elif text in KEYWORDS:
                kind = "keyword"
            else:
                kind = "identifier"
            out.append((text, kind))
            offsets.append(i)
            i = j
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            out.append((two, "operator"))
            offsets.append(i)
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            out.append((c, "operator"))
            offsets.append(i)
            i += 1
            continue
        if c in _PUNCT:
            out.append((c, "punct"))
            offsets.append(i)
            i += 1
            continue
        raise LexError(f"unrecognized character {c!r}", i)
    return out, offsets


LITERAL_PLACEHOLDERS = {"number": "<NUM>", "string": "<STR>", "bool": "<BOOL>"}


def abstract_literals_per_token(tokens: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Each literal's text replaced by its kind's placeholder, one (text,
    kind) pair at a time; kinds are kept."""
    return [(LITERAL_PLACEHOLDERS.get(kind, text), kind) for text, kind in tokens]
