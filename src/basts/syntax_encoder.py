"""Child-Sum Tree-LSTM over split ASTs and next-split pre-training.

Every AST node is embedded by its type_value label and folded bottom-up:
children's hidden states are summed for the input/output/update gates
while each child's memory passes through its own forget gate. Leaves
borrow a single learnable virtual child state so the same cell serves
the whole tree. The root hidden state is the split's syntax embedding,
and a batch of T trees gives one [T, L] matrix of them.

The fold of a whole batch is one tape op with a hand-written backward,
fused as RNN cells are by Appleyard, Kočiský & Blunsom (arXiv
1604.01946). Inside it the fold is batched by node height (leaf = 0), as
in dynamic batching (Looks et al., ICLR 2017): one cell application per
height covers every node of that height in every tree of the batch.
Equal subtrees (the same label over the same children, in order) are
hash-consed into one row, so the batch is folded as a DAG: rows follow
the distinct subtrees, and every row lives in one [R, 2L] h|m buffer.
Each height gathers its child rows from that buffer once, sums child h
into the parents, gives each child edge its own forget gate row, and
writes its own rows. The tape holds one op per fold, whatever the trees.

Pre-training scores ordered pairs of split embeddings with a logistic
head and minimizes binary cross entropy against the block successor
relation; the trained tree parameters are what the summarizer later
fine-tunes. Pairs are scored as rows of two gathered embedding matrices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from basts import autodiff as ad
from basts.autodiff import Adam, Params, Slot, Tape, Tensor, backward, glorot
from basts.frontend import iter_nodes
from basts.splitter import MethodSplits, SplitAst

UNK_TYPE_VALUE = "<UNK>"


class ConfigError(ValueError):
    pass


def build_type_value_vocab(roots, min_freq: int = 2) -> dict[str, int]:
    """Map type_value labels to embedding rows; rare labels fall to UNK.

    Labels seen fewer than `min_freq` times share the UNK row at index 0.
    """
    counts = Counter()
    for root in roots:
        counts.update(n.type_value() for n in iter_nodes(root))
    vocab = {UNK_TYPE_VALUE: 0}
    for label, freq in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        if freq >= min_freq:
            vocab[label] = len(vocab)
    return vocab


@dataclass
class TreeLstmParams(Params):
    vocab: dict[str, int]
    size: int
    embedding: Tensor  # |vocab| x L rows of type_value embeddings
    w_i: Tensor
    u_i: Tensor
    b_i: Tensor
    w_f: Tensor
    u_f: Tensor
    b_f: Tensor
    w_o: Tensor
    u_o: Tensor
    b_o: Tensor
    w_u: Tensor
    u_u: Tensor
    b_u: Tensor
    virtual_h: Tensor  # shared learnable state standing in for leaf children
    virtual_m: Tensor

    @classmethod
    def statement(cls, vocab: dict[str, int], size: int) -> "TreeLstmParams":
        ad.check_width(size)
        w, b, virtual = glorot((size, size)), Slot((size,)), Slot((size,), 0.1)
        # the embedding; w, u and b of the i, f, o and u gates; virtual_h and _m
        return cls(vocab, size, Slot((len(vocab), size), 0.1), *[w, w, b] * 4,
                   virtual, virtual)

    @classmethod
    def init(cls, vocab: dict[str, int], size: int,
             rng: np.random.Generator) -> "TreeLstmParams":
        # the gates draw first: the order the golden checkpoints were made in
        return cls.statement(dict(vocab), size).draw(
            rng, last=("embedding", "virtual_h", "virtual_m"))


class _Plan(NamedTuple):
    """A batch's fold as the rows of one state buffer, lowest height first.

    Row 0 is the virtual child; each height's rows, and their edges, are
    contiguous. Each edge joins a row to one of its children; a leaf's one
    edge goes to row 0. Edges are sorted by parent row, and a row's edges
    follow its children's order within one height, lower heights first.
    """

    labels: np.ndarray  # [R] embedding row of each row (0 for row 0)
    children: np.ndarray  # [E] child row of each edge
    parents: np.ndarray  # [E] parent row of each edge, ascending
    roots: np.ndarray  # [T] row of each tree's root
    # per height, lowest first: its rows [lo, hi) and its edges [e0, e1)
    heights: list[tuple[int, int, int, int]]


def _levels(trees: list[SplitAst], vocab: dict[str, int]) -> _Plan:
    """The batch's `_Plan`: one row per distinct subtree, grouped by height.

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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def encode_trees(trees: list[SplitAst], params: TreeLstmParams) -> Tensor:
    """Child-Sum Tree-LSTM fold: row i of the [T, L] result is trees[i]'s root h.

    The whole fold is one tape op with a hand-written backward. `_levels`
    gives every distinct subtree of the batch one row of an [R, 2L] h|m
    buffer, height by height, with the virtual child state in row 0. Each
    height's rows go through the cell as one matrix: one gather of their
    child rows, child h summed into each parent for the input, output and
    update gates, a forget gate per child edge, and the gated child m
    summed likewise; then the height writes its own rows. A subtree that
    occurs more than once in the batch is one row, read by every parent
    that holds it, so its gradient is the sum over its occurrences.

    The backward walks the heights top-down. Each height turns its rows'
    h and m gradients into gate pre-activation gradients and sends the
    gradients of its edges to their child rows, summed per child, so its
    cost follows its own edges. Every weight gradient is then one product
    over all rows or all edges. The op takes the 15 `TreeLstmParams`
    tensors as they are; its tape cost is one op, whatever the trees.
    """
    size = params.size
    if not trees:
        return Tensor(np.zeros((0, size)))
    labels, children, parents, roots, heights = _levels(trees, params.vocab)
    rows = len(labels)
    p = params
    # x @ w_x + b gives every row's i, o, u and f pre-activations from its
    # label, h_sum @ u_iou adds the children's part of i, o and u
    w_x = np.concatenate([p.w_i.data, p.w_o.data, p.w_u.data, p.w_f.data]).T
    b = np.concatenate([p.b_i.data, p.b_o.data, p.b_u.data, p.b_f.data])
    u_iou = np.concatenate([p.u_i.data, p.u_o.data, p.u_u.data]).T
    u_f = p.u_f.data
    state = np.empty((rows, 2 * size))  # h | m
    state[0, :size], state[0, size:] = p.virtual_h.data, p.virtual_m.data
    h_sum = np.empty((rows, size))
    gates = np.empty((rows, 4 * size))  # i | o | u | tanh(m)
    forget = np.empty((len(children), size))
    for lo, hi, e0, e1 in heights:
        up = parents[e0:e1] - lo  # each edge's parent, counted within the height
        pre = p.embedding.data[labels[lo:hi]] @ w_x + b
        kids = state[children[e0:e1]]  # child h | m, then child h | f * m
        f = forget[e0:e1] = _sigmoid(pre[up, 3 * size:] + kids[:, :size] @ u_f.T)
        kids[:, size:] *= f
        sums = ad._scatter_rows(up, kids, hi - lo)
        h_sum[lo:hi] = sums[:, :size]
        gate = gates[lo:hi]  # i | o | u | tanh(m) of the height's rows
        iou = pre[:, :3 * size] + sums[:, :size] @ u_iou
        i = gate[:, :size] = _sigmoid(iou[:, :size])
        o = gate[:, size:2 * size] = _sigmoid(iou[:, size:2 * size])
        u = gate[:, 2 * size:3 * size] = np.tanh(iou[:, 2 * size:])
        m = state[lo:hi, size:] = i * u + sums[:, size:]
        tanh_m = gate[:, 3 * size:] = np.tanh(m)
        state[lo:hi, :size] = o * tanh_m

    def back(g):
        grad = np.zeros((rows, 2 * size))  # d h | d m, then d h_sum | d m
        np.add.at(grad[:, :size], roots, g)
        d_pre = np.zeros((rows, 4 * size))
        d_fpre = np.empty((len(children), size))
        for lo, hi, e0, e1 in reversed(heights):
            gate = gates[lo:hi]
            i, o = gate[:, :size], gate[:, size:2 * size]
            u, tanh_m = gate[:, 2 * size:3 * size], gate[:, 3 * size:]
            d_h, d_m = grad[lo:hi, :size], grad[lo:hi, size:]
            d_m += d_h * o * (1.0 - tanh_m * tanh_m)
            d_iou = d_pre[lo:hi, :3 * size]
            d_iou[:, :size] = d_m * u * i * (1.0 - i)
            d_iou[:, size:2 * size] = d_h * tanh_m * o * (1.0 - o)
            d_iou[:, 2 * size:] = d_m * i * (1.0 - u * u)
            d_h[...] = d_iou @ u_iou.T
            # each edge takes its parent's d h_sum and d m
            kids, f = children[e0:e1], forget[e0:e1]
            d_edge = grad[parents[e0:e1]]
            d_fpre[e0:e1] = d_edge[:, size:] * state[kids, size:] * f * (1.0 - f)
            d_edge[:, :size] += d_fpre[e0:e1] @ u_f
            d_edge[:, size:] *= f
            # summed per child row, for the distinct child rows only
            kids, inverse = np.unique(kids, return_inverse=True)
            grad[kids] += ad._scatter_rows(inverse, d_edge, len(kids))
        d_pre[1:, 3 * size:] = ad._scatter_rows(parents - 1, d_fpre, rows - 1)
        x = p.embedding.data[labels[1:]]
        d_w_x = (x.T @ d_pre[1:]).T  # rows: w_i, w_o, w_u, w_f
        d_b = d_pre.sum(axis=0)
        d_embedding = ad._scatter_rows(labels[1:], d_pre[1:] @ w_x.T, len(p.embedding.data))
        d_u_iou = (h_sum[1:].T @ d_pre[1:, :3 * size]).T  # rows: u_i, u_o, u_u
        d_u_f = d_fpre.T @ state[children, :size]
        return (d_embedding, d_w_x[:size], d_u_iou[:size], d_b[:size],
                d_w_x[3 * size:], d_u_f, d_b[3 * size:],
                d_w_x[size:2 * size], d_u_iou[size:2 * size], d_b[size:2 * size],
                d_w_x[2 * size:3 * size], d_u_iou[2 * size:], d_b[2 * size:3 * size],
                grad[0, :size].copy(), grad[0, size:].copy())

    inputs = (p.embedding, p.w_i, p.u_i, p.b_i, p.w_f, p.u_f, p.b_f,
              p.w_o, p.u_o, p.b_o, p.w_u, p.u_u, p.b_u, p.virtual_h, p.virtual_m)
    return ad._emit(state[roots, :size], inputs, back)


def encode_tree(t: SplitAst, params: TreeLstmParams) -> Tensor:
    """The syntax embedding of one split AST, as a one-row [1, L] matrix."""
    return encode_trees([t], params)


@dataclass
class SepModel(Params):
    tree: TreeLstmParams
    score_w: Tensor  # length 2L projection
    score_b: Tensor  # scalar bias

    @classmethod
    def statement(cls, tree: TreeLstmParams) -> "SepModel":
        two_l = 2 * tree.size
        return cls(tree, glorot((two_l,), fans=two_l + 1), Slot(()))

    @classmethod
    def init(cls, tree: TreeLstmParams, rng: np.random.Generator) -> "SepModel":
        return cls.statement(tree).draw(rng)


@dataclass
class PairExample:
    t: SplitAst
    t_prime: SplitAst
    label: int  # 1 when t's block directly precedes t_prime's


def sep_score(left: Tensor, right: Tensor, model: SepModel) -> Tensor:
    """[P] probabilities that right[i]'s split is the next after left[i]'s."""
    joint = ad.concat([left, right], axis=1)
    return ad.sigmoid(ad.add(ad.matmul(joint, model.score_w), model.score_b))


def _pair_scores(pairs: list[PairExample], model: SepModel) -> Tensor:
    """Scores of every pair, shape [P]; each distinct tree is folded once."""
    trees = list({id(t): t for p in pairs for t in (p.t, p.t_prime)}.values())
    row = {id(t): i for i, t in enumerate(trees)}
    roots = encode_trees(trees, model.tree)
    left = ad.embedding_lookup(roots, [row[id(p.t)] for p in pairs])
    right = ad.embedding_lookup(roots, [row[id(p.t_prime)] for p in pairs])
    return sep_score(left, right, model)


SCORE_FLOOR = 1e-12


def sep_loss(pairs: list[PairExample], model: SepModel) -> Tensor:
    """Mean binary cross entropy of pair scores against successor labels."""
    if not pairs:
        raise ValueError("sep_loss needs at least one pair")
    scores = _pair_scores(pairs, model)
    y = np.array([p.label for p in pairs], dtype=np.float64)
    # the probability given to the observed label: s for 1, 1 - s for 0
    observed = ad.add(ad.mul(scores, Tensor(2.0 * y - 1.0)), Tensor(1.0 - y))
    total = ad.sum_(ad.log(observed, floor=SCORE_FLOOR))
    return ad.scalar_mul(total, -1.0 / len(pairs))


def generate_pairs(splits: MethodSplits, neg_ratio: int = 1,
                   seed: int = 0) -> list[PairExample]:
    """Positive pairs from successor edges plus sampled negatives.

    Negatives are drawn uniformly without replacement from the ordered
    non-adjacent split pairs of the same method, neg_ratio per positive.
    A single-split method yields no pairs.
    """
    asts = {a.split_id: a for a in splits.asts}
    edges = list(splits.graph.successor_edges)
    pairs = [PairExample(asts[a], asts[b], 1) for a, b in edges]
    if not pairs:
        return []
    edge_set = set(edges)
    ids = sorted(asts)
    candidates = [
        (a, b) for a in ids for b in ids if a != b and (a, b) not in edge_set
    ]
    want = min(neg_ratio * len(pairs), len(candidates))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=want, replace=False)
    for idx in chosen:
        a, b = candidates[int(idx)]
        pairs.append(PairExample(asts[a], asts[b], 0))
    return pairs


@dataclass
class PretrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    neg_ratio: int = 1

    def validate(self):
        for name in ("epochs", "batch_size", "neg_ratio"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        return self


@dataclass
class EpochStats:
    loss: float
    accuracy: float


def pretrain(corpus: list[MethodSplits], params: TreeLstmParams,
             config: PretrainConfig) -> tuple[SepModel, list[EpochStats]]:
    """Train the next-split classifier; returns the model and loss history.

    After each epoch's steps, an accuracy pass scores every pair without
    a tape, one method's pairs per `encode_trees` call, so every tree is
    folded once (a method without pairs is skipped).

    A corpus with no multi-split methods produces no pairs and the
    initialized parameters come back untouched.
    """
    config.validate()
    seeds = np.random.SeedSequence(config.seed).spawn(len(corpus) + 2)
    model = SepModel.init(params, np.random.default_rng(seeds[0]))
    # each method's pairs are one chunk of the accuracy pass; no tree is in two methods
    chunks = [generate_pairs(method_splits, config.neg_ratio, int(seq.generate_state(1)[0]))
              for method_splits, seq in zip(corpus, seeds[2:])]
    pairs = [pair for chunk in chunks for pair in chunk]
    if not pairs:
        return model, []

    opt = Adam(model.all_params(), lr=config.learning_rate)
    shuffle_rng = np.random.default_rng(seeds[1])
    history = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(pairs))
        epoch_loss = 0.0
        correct = 0
        for lo in range(0, len(pairs), config.batch_size):
            batch = [pairs[i] for i in order[lo : lo + config.batch_size]]
            with Tape() as tape:
                loss = sep_loss(batch, model)
                backward(tape, loss)
            opt.step()
            opt.zero_grad()
            epoch_loss += loss.item() * len(batch)
        with ad.no_grad():
            for chunk in filter(None, chunks):
                predicted = _pair_scores(chunk, model).data > 0.5
                correct += int(np.sum(predicted == [p.label == 1 for p in chunk]))
        history.append(EpochStats(epoch_loss / len(pairs), correct / len(pairs)))
    return model, history
