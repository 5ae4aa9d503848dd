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
the distinct subtrees. Each `TreeLstmParams` owns a `SubtreeIndex`,
which interns each tree once, the first time a fold with those
parameters holds it, and builds every later batch's plan from cached
arrays. So pre-training and summarizer training, which fold the same
trees every epoch, and decoding, which folds an example's trees once
per call, walk each tree once per tree encoder. The index lives as long
as its parameters and keeps every tree they have folded. The gates are
gate-major, one [4, R, L] block per call, so each elementwise op of the
cell runs on contiguous rows. Each height gathers its child rows once,
sums child h into the parents, gives each child edge its own forget
gate row, and writes its own rows. The tape holds one op per fold,
whatever the trees.

Pre-training scores ordered pairs of split embeddings with a logistic
head and minimizes binary cross entropy against the block successor
relation; the trained tree parameters are what the summarizer later
fine-tunes. Pairs are scored as rows of two gathered embedding matrices.
Each epoch's pair accuracy is counted from the scores its steps already
compute, so pre-training folds only its batches and its memory follows
the batch, not the corpus.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
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
    """The Tree-LSTM's tensors, with the `SubtreeIndex` that plans its folds.

    The index is made from `vocab` with the parameters, however they are
    made (`init`, `statement`, `build` or the checkpoint loader), and is no
    parameter. It lives as long as they do and keeps every tree they have
    folded, so each tree is interned once per tree encoder, the first time
    `encode_trees` holds it, and every later fold of it is planned from
    cached arrays.
    """

    vocab: dict[str, int]
    size: int
    # gate g's input weight W is wu[g, 0] and its hidden weight U is wu[g, 1],
    # each applied as W @ x; gates in Tai et al.'s order i, f, o, u
    wu: Tensor  # [4, 2, L, L]
    b: Tensor  # [4, L] gate biases, in the same order
    embedding: Tensor  # |vocab| x L rows of type_value embeddings
    virtual: Tensor  # [2, L]: h, then m, of the leaves' one shared child
    index: SubtreeIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = SubtreeIndex(self.vocab)

    @classmethod
    def statement(cls, vocab: dict[str, int], size: int) -> "TreeLstmParams":
        ad.check_width(size)
        return cls(vocab, size, glorot((4, 2, size, size), fans=2 * size),
                   Slot((4, size)), Slot((len(vocab), size), 0.1), Slot((2, size), 0.1))

    @classmethod
    def init(cls, vocab: dict[str, int], size: int,
             rng: np.random.Generator) -> "TreeLstmParams":
        return cls.statement(dict(vocab), size).draw(rng)


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


class SubtreeIndex:
    """Every distinct subtree of the trees it has seen, each interned once.

    Subtrees are hash-consed (Filliâtre & Conchon, ML Workshop 2006): a
    node is keyed by its embedding row and its children's ids, in order,
    and a node's state depends on nothing else. Id 0 is the virtual child,
    at height -1; each new key takes the next id, at height 1 + its tallest
    child, so a leaf, whose one child is id 0, is at height 0. Each id keeps
    its label, its height and its children, sorted stably by height, so a
    row's child sums add lower heights first.

    `plan` interns a tree the first time it sees it, walking it in reverse
    breadth-first order, which puts a node's children before it, with loops
    only, so depth is not bounded by the Python recursion limit. For each
    tree the index keeps the tree object itself, its ids in first-occurrence
    order, and its root id, under `id(tree)`; holding the tree means no
    other object can take that id while the entry lives. A tree must not
    change after it is interned. A batch's plan then comes from the cached
    arrays alone, so a tree folded again, as pre-training folds every tree
    once or more per epoch, costs no Python work per node.
    """

    def __init__(self, vocab: dict[str, int]):
        self.vocab = vocab
        self._ids: dict[tuple, int] = {}  # (embedding row, child ids) -> id
        self._trees: dict[int, tuple[SplitAst, np.ndarray, int]] = {}
        # per id: label and height; id i's children are kids[ptr[i]:ptr[i + 1]]
        self._lists = ([0], [-1], [0, 0], [])  # label, height, ptr, kids
        self._arrays = tuple(np.array(values, dtype=np.intp) for values in self._lists)

    def _intern(self, tree: SplitAst) -> tuple[SplitAst, np.ndarray, int]:
        label, height, ptr, kids = self._lists
        known, row_of = self._ids, self.vocab.get
        nodes, first = [tree.root], []
        for node in nodes:  # the list grows breadth-first; siblings are adjacent
            first.append(len(nodes))
            nodes.extend(node.children)
        ids = [0] * len(nodes)
        for j in range(len(nodes) - 1, -1, -1):
            node = nodes[j]
            key = (row_of(node.type_value(), 0),
                   tuple(ids[first[j]:first[j] + len(node.children)]))
            found = known.get(key)
            if found is None:
                found = known[key] = len(height)
                ordered = sorted(key[1], key=height.__getitem__) if key[1] else (0,)
                label.append(key[0])
                height.append(1 + height[ordered[-1]])
                kids.extend(ordered)
                ptr.append(len(kids))
            ids[j] = found
        order = np.fromiter(dict.fromkeys(reversed(ids)), dtype=np.intp)
        entry = self._trees[id(tree)] = (tree, order, ids[0])
        return entry

    def plan(self, trees: list[SplitAst]) -> _Plan:
        """The batch's `_Plan`: one row per distinct subtree, grouped by height.

        The heights follow the tallest tree and the rows follow the distinct
        subtrees of the batch, not its node count. Rows come in the order
        their subtrees first occur, walking the trees in turn, each in
        reverse breadth-first order, then sorted stably by height.
        """
        entries = [self._trees.get(id(t)) or self._intern(t) for t in trees]
        if len(self._arrays[1]) < len(self._lists[1]):  # new ids since the last plan
            self._arrays = tuple(np.concatenate((a, np.array(values[len(a):], dtype=np.intp)))
                                 for a, values in zip(self._arrays, self._lists))
        label, height, ptr, kids = self._arrays
        ids = np.concatenate([order for _, order, _ in entries])
        _, first = np.unique(ids, return_index=True)
        ids = ids[np.sort(first)]  # each id once, where it first occurs
        ids = ids[np.argsort(height[ids], kind="stable")]
        rows = len(ids) + 1
        local = np.empty(len(height), dtype=np.intp)  # id -> row
        local[0] = 0
        local[ids] = np.arange(1, rows)
        # row r's edges are its id's children, kids[ptr[id]:ptr[id + 1]]
        starts = ptr[ids]
        counts = ptr[ids + 1] - starts
        ends = np.cumsum(counts)  # ends[r - 1] is the end of row r's edges
        in_kids = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
        levels = height[ids]
        lo = np.searchsorted(levels, np.arange(levels[-1] + 2)) + 1  # first row per height
        e = np.concatenate(([0], ends))[lo - 1].tolist()
        lo = lo.tolist()
        return _Plan(
            labels=np.concatenate(([0], label[ids])),
            children=local[kids[in_kids]],
            parents=np.repeat(np.arange(1, rows), counts),
            roots=local[[root for _, _, root in entries]],
            heights=list(zip(lo, lo[1:], e, e[1:])),
        )


def _sigmoid_(x: np.ndarray):
    """x <- 1 / (1 + exp(-x)), in place."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


# the fold's gate order, i, o, u then f, as indices into the parameters' gates
_FOLD_GATES = [0, 2, 3, 1]


def encode_trees(trees: list[SplitAst], params: TreeLstmParams) -> Tensor:
    """Child-Sum Tree-LSTM fold: row i of the [T, L] result is trees[i]'s root h.

    The whole fold is one tape op with a hand-written backward. The
    parameters' own `params.index` plans the batch: every distinct
    subtree is one row of the [R, L] h and m buffers, height by height,
    with the virtual child state in row 0. A subtree that occurs more than
    once in the batch is one row, read by every parent that holds it, so
    its gradient is the sum over its occurrences.

    Gates are gate-major: a height's [4, n, L] block holds i, o, u and
    tanh(m), so every elementwise op runs on contiguous [n, L] rows. The
    label part of all four gates' pre-activations is one batched product
    over the batch's distinct labels, before the heights. Each height
    gathers its rows' label parts and its child rows, gives each child
    edge its own forget gate, sums child h and the gated child m into the
    parents with one `np.bincount` each, over flat ids computed once per
    plan, adds the children's part of i, o and u in one batched product,
    and writes its own rows. A recorded fold keeps every height's gates in
    one [4, R, L] buffer, with the forget gates and child-h sums, for its
    backward; when no tape records the op, outside a tape or when no
    parameter requires grad (a frozen encoder), only h and m are kept.

    The backward walks the heights top-down. Each height turns its rows'
    h and m gradients into gate pre-activation gradients and scatters its
    edges' gradients into the rows below it, where all its children lie,
    by one `np.bincount` each over child ids computed once per backward;
    its cost follows those rows, not its own edges. Every weight gradient
    is then one product over all rows, all edges or the distinct labels.
    The op takes the four `TreeLstmParams` tensors as they are; its tape
    cost is one op, whatever the trees.
    """
    size = params.size
    if not trees:
        return Tensor(np.zeros((0, size)))
    labels, children, parents, roots, heights = params.index.plan(trees)
    p = params
    inputs = (p.wu, p.b, p.embedding, p.virtual)
    keep = ad._recording(inputs)  # the backward's buffers, only if it can run
    rows, edges = len(labels), len(children)
    # gate g of a row is x @ w_x[g] + b[g], plus h_sum @ u_iou[g] for i, o, u;
    # the label part is taken once per distinct label of the batch
    wu = p.wu.data
    w_x = np.stack([wu[g, 0].T for g in _FOLD_GATES])
    b = p.b.data[_FOLD_GATES][:, None]
    u_iou = np.stack([wu[g, 1].T for g in _FOLD_GATES[:3]])
    u_f = wu[1, 1]  # the forget gate's U
    used, label_of = np.unique(labels[1:], return_inverse=True)
    x = p.embedding.data[used]
    label_pre = x @ w_x + b  # [4, labels, L]
    h, m = np.empty((rows, size)), np.empty((rows, size))
    h[0], m[0] = p.virtual.data
    # each edge's parent, counted within its height, as flat ids into [n, L]
    spans = [e1 - e0 for _, _, e0, e1 in heights]
    up = parents - np.repeat([lo for lo, _, _, _ in heights], spans)
    flat = up[:, None] * size + np.arange(size)
    if keep:
        gates = np.empty((4, rows, size))  # i, o, u, tanh(m)
        forget, h_sum = np.empty((edges, size)), np.empty((rows, size))
    for lo, hi, e0, e1 in heights:
        n = hi - lo
        # the rows' label parts, then each edge's parent's forget gate part;
        # the ids are the plan's own, and "clip" writes `out` unbuffered
        gate = gates[:, lo:hi] if keep else np.empty((4, n, size))
        np.take(label_pre, label_of[lo - 1:hi - 1], axis=1, out=gate, mode="clip")
        f = forget[e0:e1] if keep else np.empty((e1 - e0, size))
        np.take(gate[3], up[e0:e1], axis=0, out=f, mode="clip")
        kids, ids = children[e0:e1], flat[e0:e1].ravel()
        kid_h, kid_m = h[kids], m[kids]
        f += kid_h @ u_f.T
        _sigmoid_(f)
        kid_m *= f
        sums = np.bincount(ids, kid_h.ravel(), n * size).reshape(n, size)
        gate[:3] += sums @ u_iou
        _sigmoid_(gate[:2])
        np.tanh(gate[2], out=gate[2])
        m_rows = m[lo:hi]
        np.multiply(gate[0], gate[2], out=m_rows)
        m_rows += np.bincount(ids, kid_m.ravel(), n * size).reshape(n, size)
        np.tanh(m_rows, out=gate[3])
        np.multiply(gate[1], gate[3], out=h[lo:hi])
        if keep:
            h_sum[lo:hi] = sums

    def back(g):
        # the op's one backward turns `gates` into the gate pre-activation
        # gradients, height by height, and `forget` into the forget gate's
        d_h, d_m = np.zeros((rows, size)), np.zeros((rows, size))
        np.add.at(d_h, roots, g)
        # each edge's child, as flat ids into the rows below its height
        to_kid = children[:, None] * size + np.arange(size)
        u_hsum = u_iou.transpose(0, 2, 1)
        for k in range(len(heights) - 1, -1, -1):
            lo, hi, e0, e1 = heights[k]
            n = hi - lo
            d = gates[:, lo:hi]
            i, o, u, tanh_m = d
            dh, dm = d_h[lo:hi], d_m[lo:hi]
            dm += dh * o * (1.0 - tanh_m * tanh_m)
            d_i = dm * u * i * (1.0 - i)
            d[1] = dh * tanh_m * o * (1.0 - o)
            d[2] = dm * i * (1.0 - u * u)
            d[0] = d_i
            # each edge takes its parent's d h_sum and d m
            up_e, f, ids = up[e0:e1], forget[e0:e1], flat[e0:e1].ravel()
            d_edge_h = (d[:3] @ u_hsum).sum(axis=0)[up_e]
            d_edge_m = dm[up_e]
            d_f = d_edge_m * m[children[e0:e1]] * f * (1.0 - f)
            d_edge_h += d_f @ u_f
            d_edge_m *= f
            f[...] = d_f
            d[3] = np.bincount(ids, d_f.ravel(), n * size).reshape(n, size)
            # rows are sorted by height, so every child, virtual row 0
            # included, lies below row lo
            ids = to_kid[e0:e1].ravel()
            d_h[:lo] += np.bincount(ids, d_edge_h.ravel(), lo * size).reshape(lo, size)
            d_m[:lo] += np.bincount(ids, d_edge_m.ravel(), lo * size).reshape(lo, size)
        d = gates[:, 1:]
        d_wu, d_b = np.empty_like(wu), np.empty_like(p.b.data)
        d_wu[_FOLD_GATES[:3], 1] = d[:3].transpose(0, 2, 1) @ h_sum[1:]
        d_wu[1, 1] = forget.T @ h[children]
        # the label parts, summed per distinct label first
        to_label = (label_of[:, None] * size + np.arange(size)).ravel()
        d_label = np.stack([np.bincount(to_label, d_g.ravel(), len(used) * size)
                            for d_g in d]).reshape(4, len(used), size)
        d_wu[_FOLD_GATES, 0] = d_label.transpose(0, 2, 1) @ x
        d_b[_FOLD_GATES] = d_label.sum(axis=1)
        d_embedding = np.zeros_like(p.embedding.data)
        d_embedding[used] = (d_label @ w_x.transpose(0, 2, 1)).sum(axis=0)
        return d_wu, d_b, d_embedding, np.stack((d_h[0], d_m[0]))

    return ad._emit(h[roots], inputs, back)


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


SCORE_FLOOR = 1e-12


def sep_loss(pairs: list[PairExample], model: SepModel) -> tuple[Tensor, np.ndarray]:
    """Mean binary cross entropy of pair scores against successor labels.

    Returns the loss and the [P] scores it was taken from, as an array.
    Each distinct tree of the pairs is folded once, in one `encode_trees`
    call planned by the tree parameters' own index.
    """
    if not pairs:
        raise ValueError("sep_loss needs at least one pair")
    trees = list({id(t): t for p in pairs for t in (p.t, p.t_prime)}.values())
    row = {id(t): i for i, t in enumerate(trees)}
    roots = encode_trees(trees, model.tree)
    left = ad.embedding_lookup(roots, [row[id(p.t)] for p in pairs])
    right = ad.embedding_lookup(roots, [row[id(p.t_prime)] for p in pairs])
    scores = sep_score(left, right, model)
    y = np.array([p.label for p in pairs], dtype=np.float64)
    # the probability given to the observed label: s for 1, 1 - s for 0
    observed = ad.add(ad.mul(scores, Tensor(2.0 * y - 1.0)), Tensor(1.0 - y))
    total = ad.sum_(ad.log(observed, floor=SCORE_FLOOR))
    return ad.scalar_mul(total, -1.0 / len(pairs)), scores.data


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

    The index of `params` plans every fold, so each tree is walked once,
    the first time a batch holds it, and each later fold of it, in this
    run or in a later use of the same parameters, takes its plan from
    cached arrays. Every fold is a step's: an epoch's loss and pair
    accuracy are counted from the scores each step's `sep_loss` takes
    before its update, so an epoch's accuracy is the share of its pairs
    scored on their label's side of 0.5, and memory follows the batch,
    not the corpus.

    A corpus with no multi-split methods produces no pairs and the
    initialized parameters come back untouched. A step whose loss or
    parameter gradient is not finite raises `autodiff.NaNError` from
    `backward`, before its Adam update.
    """
    config.validate()
    seeds = np.random.SeedSequence(config.seed).spawn(len(corpus) + 2)
    model = SepModel.init(params, np.random.default_rng(seeds[0]))
    pairs = [pair for method_splits, seq in zip(corpus, seeds[2:])
             for pair in generate_pairs(method_splits, config.neg_ratio,
                                        int(seq.generate_state(1)[0]))]
    if not pairs:
        return model, []

    successors = np.array([p.label == 1 for p in pairs])
    opt = Adam(model.all_params(), lr=config.learning_rate)
    shuffle_rng = np.random.default_rng(seeds[1])
    history = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(pairs))
        epoch_loss, correct = 0.0, 0
        for lo in range(0, len(pairs), config.batch_size):
            idx = order[lo : lo + config.batch_size]
            with Tape() as tape:
                loss, scores = sep_loss([pairs[i] for i in idx], model)
                backward(tape, loss)
            opt.step()
            opt.zero_grad()
            epoch_loss += loss.item() * len(idx)
            correct += int(np.count_nonzero((scores > 0.5) == successors[idx]))
        history.append(EpochStats(epoch_loss / len(pairs), correct / len(pairs)))
    return model, history
