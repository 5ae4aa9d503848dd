"""Slow reference forms of vectorised package code, kept as test oracles.

`fuse` is the per-token form of the fusion layer inside
`summarizer.encode_batch`; `positional_encoding` is the scalar form of
`summarizer.positional_matrix`; `tree_lstm_cell` and `encode_tree_per_node`
are the one-cell-per-node form of `syntax_encoder.encode_trees`;
`sep_loss_per_pair` is the per-pair score and cross-entropy loop that
`syntax_encoder.sep_loss` computes as one vector expression;
`reachable_tensors` finds by brute force what `autodiff.Params.named_params`
walks by dataclass field.

`row_softmax` and `attention_per_head` are the one-op-per-head form of
`autodiff.attention`, and `multi_head_attention_per_head` the matching
form of `summarizer.multi_head_attention`. `avg_pool`, `encode_per_example`
and `train_loss_per_example` are the one-fold-per-example form of
`summarizer.train_step`'s loss.

`split_asts_by_reparse` is the token form of `splitter.build_split_asts`:
it parses each split's code, with its body braced, instead of building
the tree from the method's parsed statements.
"""

import math

import numpy as np

import basts.autodiff as ad
from basts.autodiff import Tensor
from basts.frontend import Method, Token, TokenKind, build_ast, parse_method
from basts.splitter import SplitAst, SplitGraph, make_split_code
from basts.summarizer import (
    AttentionParams,
    EmptyInputError,
    MaskError,
    SummarizationExample,
    SummarizerModel,
    TransformerParams,
    _encoder_layer,
    decoder_logits,
    positional_matrix,
    source_mask,
)
from basts.syntax_encoder import (
    SCORE_FLOOR,
    PairExample,
    SepModel,
    TreeLstmParams,
    encode_trees,
)


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


def attention_per_head(q: Tensor, k: Tensor, v: Tensor, heads: int,
                       additive_mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention, one column slice of q, k, v per head."""
    width = q.shape[1] // heads
    scale = 1.0 / math.sqrt(width)
    contexts = []
    for h in range(heads):
        lo, hi = h * width, (h + 1) * width
        scores = ad.scalar_mul(
            ad.matmul(ad.col_slice(q, lo, hi), ad.transpose(ad.col_slice(k, lo, hi))),
            scale,
        )
        attn = row_softmax(scores, additive_mask)
        contexts.append(ad.matmul(attn, ad.col_slice(v, lo, hi)))
    return contexts[0] if heads == 1 else ad.concat(contexts, axis=1)


def multi_head_attention_per_head(x_q: Tensor, x_kv: Tensor, params: AttentionParams,
                                  heads: int, allowed: np.ndarray) -> Tensor:
    """`summarizer.multi_head_attention` with `attention_per_head` inside."""
    rows_ok = allowed.any(axis=1)
    if not rows_ok.all():
        bad = int(np.flatnonzero(~rows_ok)[0])
        raise MaskError(f"query position {bad} has every key masked")
    q = ad.matmul(x_q, params.wq)
    k = ad.matmul(x_kv, params.wk)
    v = ad.matmul(x_kv, params.wv)
    contexts = attention_per_head(q, k, v, heads, np.where(allowed, 0.0, -np.inf))
    return ad.matmul(contexts, params.wo)


def avg_pool(roots: Tensor) -> Tensor:
    """Coordinate-wise mean of the rows of a [T, L] split-embedding matrix."""
    n = roots.shape[0]
    if n == 0:
        raise EmptyInputError("cannot pool an empty embedding matrix")
    return ad.matmul(Tensor(np.full(n, 1.0 / n)), roots)


def encode_per_example(example: SummarizationExample, model: SummarizerModel,
                       freeze_tree: bool = False) -> Tensor:
    """Source encoding of one example, with a tree fold of its own."""
    t = model.transformer
    if freeze_tree:
        with ad.no_grad():
            roots = encode_trees(example.split_asts, model.tree)
    else:
        roots = encode_trees(example.split_asts, model.tree)
    pooled = avg_pool(roots)
    n = len(example.code_ids)
    tokens = ad.embedding_lookup(t.code_embedding, example.code_ids)
    joint = ad.concat([ad.repeat_row(pooled, n), tokens], axis=1)
    fused = ad.relu(ad.add_rowvec(ad.matmul(joint, ad.transpose(t.fuse_w)), t.fuse_b))
    x = ad.add(fused, Tensor(positional_matrix(n, t.size)))
    allowed = np.broadcast_to(source_mask(example), (n, n))
    for layer in t.enc:
        x = _encoder_layer(x, layer, t.heads, allowed)
    return x


def train_loss_per_example(batch: list[SummarizationExample], model: SummarizerModel,
                           freeze_tree: bool = False) -> Tensor:
    """The mean token cross entropy `summarizer.train_step` minimizes.

    Each example is encoded, decoded and scored on its own; the summed
    cross entropies are divided by the batch's target count.
    """
    total = None
    count = 0
    for example in batch:
        memory = encode_per_example(example, model, freeze_tree)
        targets = example.comment_ids[1:]
        logits = decoder_logits(example.comment_ids[:-1], memory, source_mask(example),
                                model)
        ce = ad.cross_entropy_logits(logits, targets, reduction="sum")
        total = ce if total is None else ad.add(total, ce)
        count += len(targets)
    return ad.scalar_mul(total, 1.0 / count)


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
    u = ad.tanh(gate(params.w_u, params.u_u, params.b_u, h_tilde))

    wfx = ad.add(ad.matmul(params.w_f, x_v), params.b_f)
    m = ad.mul(i, u)
    for h_c, m_c in children:
        f_c = ad.sigmoid(ad.add(wfx, ad.matmul(params.u_f, h_c)))
        m = ad.add(m, ad.mul(f_c, m_c))
    h = ad.mul(o, ad.tanh(m))
    return h, m


def encode_tree_per_node(t: SplitAst, params: TreeLstmParams) -> Tensor:
    """Root hidden state of a split AST, one `tree_lstm_cell` per node.

    Iterative post-order, so tree depth is not bounded by the Python
    recursion limit. Each node is processed exactly once.
    """
    states: dict[int, tuple[Tensor, Tensor]] = {}
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
            children = [states.pop(c.node_id) for c in node.children]
        else:
            children = virtual
        states[node.node_id] = tree_lstm_cell(x_v, children, params)
    h_root, _ = states[t.root.node_id]
    return h_root


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
        tokens = (code[:n] + [Token("{", TokenKind.PUNCT)] + code[n:]
                  + [Token("}", TokenKind.PUNCT)])
        out.append(SplitAst(split.split_id, build_ast(parse_method(tokens))))
    return out
