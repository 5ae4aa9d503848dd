"""Slow reference forms of vectorised package code, kept as test oracles.

`fuse` is the per-token form of the fusion layer inside
`summarizer.encode`; `positional_encoding` is the scalar form of
`summarizer.positional_matrix`; `tree_lstm_cell` and `encode_tree_per_node`
are the one-cell-per-node form of `syntax_encoder.encode_trees`;
`sep_loss_per_pair` is the per-pair score and cross-entropy loop that
`syntax_encoder.sep_loss` computes as one vector expression;
`reachable_tensors` finds by brute force what `autodiff.Params.named_params`
walks by dataclass field.
"""

import math

import numpy as np

import basts.autodiff as ad
from basts.autodiff import Tensor
from basts.splitter import SplitAst
from basts.summarizer import TransformerParams
from basts.syntax_encoder import SCORE_FLOOR, PairExample, SepModel, TreeLstmParams


def fuse(pooled: Tensor, token_embedding: Tensor, params: TransformerParams) -> Tensor:
    """ReLU projection of one token embedding joined with the pooled syntax."""
    joint = ad.concat([pooled, token_embedding], axis=0)
    return ad.relu(ad.add(ad.matmul(params.fuse_w, joint), params.fuse_b))


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
