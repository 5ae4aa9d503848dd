"""Child-Sum Tree-LSTM over split ASTs and next-split pre-training.

Every AST node is embedded by its type_value label and folded bottom-up:
children's hidden states are summed for the input/output/update gates
while each child's memory passes through its own forget gate. Leaves
borrow a single learnable virtual child state so the same cell serves
the whole tree. The root hidden state is the split's syntax embedding,
and a batch of T trees gives one [T, L] matrix of them.

The fold is batched by node height (leaf = 0), as in dynamic batching
(Looks et al., ICLR 2017): one cell application per height covers every
node of that height in every tree of the batch, so a batch of trees
costs as many cell applications as its tallest tree has levels. Within
a level there is one row per distinct subtree of the batch: equal
subtrees (the same label over the same children, in order) are
hash-consed into one row, so the batch is folded as a DAG. Ops follow
the tallest tree and rows follow the distinct subtrees. Child states
are gathered by row from the levels below, summed into their parents
with `autodiff.segment_sum`, and each child edge gets its own forget
gate row.

Pre-training scores ordered pairs of split embeddings with a logistic
head and minimizes binary cross entropy against the block successor
relation; the trained tree parameters are what the summarizer later
fine-tunes. Pairs are scored as rows of two gathered embedding matrices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from basts import autodiff as ad
from basts.autodiff import Adam, Params, Tape, Tensor, backward
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
    def init(cls, vocab: dict[str, int], size: int,
             rng: np.random.Generator) -> "TreeLstmParams":
        def gate():
            return (
                ad.glorot_init(rng, size, size),
                ad.glorot_init(rng, size, size),
                ad.zeros_init(size),
            )

        w_i, u_i, b_i = gate()
        w_f, u_f, b_f = gate()
        w_o, u_o, b_o = gate()
        w_u, u_u, b_u = gate()
        return cls(
            vocab=dict(vocab),
            size=size,
            embedding=ad.uniform_init(rng, (len(vocab), size), 0.1),
            w_i=w_i, u_i=u_i, b_i=b_i,
            w_f=w_f, u_f=u_f, b_f=b_f,
            w_o=w_o, u_o=u_o, b_o=b_o,
            w_u=w_u, u_u=u_u, b_u=b_u,
            virtual_h=ad.uniform_init(rng, size, 0.1),
            virtual_m=ad.uniform_init(rng, size, 0.1),
        )


_VIRTUAL = -1  # the level of the virtual child state, one row


@dataclass
class _Level:
    """Every node of one height across a batch, as rows of one matrix."""

    labels: list[int] = field(default_factory=list)  # embedding row per node
    # lower level -> (child rows there, parent rows here), one pair per
    # child edge; a leaf's one child is row 0 of the _VIRTUAL level
    edges: dict[int, tuple[list[int], list[int]]] = field(default_factory=dict)

    def add_edge(self, lower: int, child_row: int, parent_row: int):
        rows, parents = self.edges.setdefault(lower, ([], []))
        rows.append(child_row)
        parents.append(parent_row)


def _levels(trees: list[SplitAst], vocab: dict[str, int]):
    """One row per distinct subtree of the batch, grouped by height; also
    each root's (level, row).

    Subtrees are hash-consed (Filliâtre & Conchon, ML Workshop 2006): a
    node is keyed by its embedding row and the (height, row) of each child
    in order, and a node's state depends on nothing else. The first node
    with a key takes a row at height 1 + its tallest child (0 for a leaf,
    whose one child is the virtual state); every later node with that key,
    in any tree, reuses that row. So the levels follow the tallest tree and
    the rows follow the distinct subtrees, not the node count.

    Loops only, so tree depth is not bounded by the Python recursion
    limit. Each tree is walked in reverse breadth-first order, which puts
    a node's children before it.
    """
    levels: list[_Level] = []
    found: dict[tuple, tuple[int, int]] = {}  # key -> (height, row)
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
                    levels.append(_Level())
                level = levels[height]
                hit = found[key] = (height, len(level.labels))
                level.labels.append(key[0])
                for lower, row in kids or ((_VIRTUAL, 0),):
                    level.add_edge(lower, row, hit[1])
            ids[j] = hit
        roots.append(ids[0])
    return levels, roots


def encode_trees(trees: list[SplitAst], params: TreeLstmParams) -> Tensor:
    """Child-Sum Tree-LSTM fold: row i of the [T, L] result is trees[i]'s root h.

    All nodes of one height, across every tree, go through the cell as
    one matrix: a level gathers the (h, m) rows of its children from the
    lower levels that hold them, sums child h into the parents with
    `segment_sum`, applies the forget gate once per child edge and sums
    the gated child m the same way. Leaves take the virtual child state
    as their one child. A subtree that occurs more than once in the batch
    is one row, gathered by every parent that holds it, so its gradient
    is the sum over its occurrences. The op count grows with the tallest
    tree and the row count with the distinct subtrees, not with the
    number of nodes.
    """
    if not trees:
        return Tensor(np.zeros((0, params.size)))
    levels, roots = _levels(trees, params.vocab)
    size = params.size
    # [x, h_tilde] @ iou_w gives every row's input, output and update
    # pre-activations at once
    iou_w = ad.transpose(ad.concat([
        ad.concat([params.w_i, params.w_o, params.w_u], axis=0),
        ad.concat([params.u_i, params.u_o, params.u_u], axis=0),
    ], axis=1))
    iou_b = ad.concat([params.b_i, params.b_o, params.b_u], axis=0)
    f_w, f_u = ad.transpose(params.w_f), ad.transpose(params.u_f)
    states = {_VIRTUAL: (ad.repeat_row(params.virtual_h, 1),
                        ad.repeat_row(params.virtual_m, 1))}
    for height, level in enumerate(levels):
        n = len(level.labels)
        parents, h_parts, m_parts = [], [], []
        for lower in sorted(level.edges):  # one gather per lower level
            rows, lower_parents = level.edges[lower]
            parents += lower_parents
            h_low, m_low = states[lower]
            h_parts.append(ad.embedding_lookup(h_low, rows))
            m_parts.append(ad.embedding_lookup(m_low, rows))
        h_kids = h_parts[0] if len(h_parts) == 1 else ad.concat(h_parts)
        m_kids = m_parts[0] if len(m_parts) == 1 else ad.concat(m_parts)

        x = ad.embedding_lookup(params.embedding, level.labels)
        h_tilde = ad.segment_sum(h_kids, parents, n)
        iou = ad.add_rowvec(ad.matmul(ad.concat([x, h_tilde], axis=1), iou_w), iou_b)
        gates = ad.sigmoid(iou)
        i = ad.col_slice(gates, 0, size)
        o = ad.col_slice(gates, size, 2 * size)
        u = ad.tanh(ad.col_slice(iou, 2 * size, 3 * size))

        wfx = ad.add_rowvec(ad.matmul(x, f_w), params.b_f)
        f = ad.sigmoid(ad.add(ad.embedding_lookup(wfx, parents),
                              ad.matmul(h_kids, f_u)))
        m = ad.add(ad.mul(i, u), ad.segment_sum(ad.mul(f, m_kids), parents, n))
        states[height] = (ad.mul(o, ad.tanh(m)), m)
    # one gather of the root rows from the levels that hold roots, stacked
    heights = sorted({height for height, _ in roots})
    tops = [states[height][0] for height in heights]
    first = dict(zip(heights, np.cumsum([0] + [top.shape[0] for top in tops])))
    stacked = tops[0] if len(tops) == 1 else ad.concat(tops)
    return ad.embedding_lookup(stacked, [first[height] + row for height, row in roots])


def encode_tree(t: SplitAst, params: TreeLstmParams) -> Tensor:
    """The syntax embedding of one split AST, as a one-row [1, L] matrix."""
    return encode_trees([t], params)


@dataclass
class SepModel(Params):
    tree: TreeLstmParams
    score_w: Tensor  # length 2L projection
    score_b: Tensor  # scalar bias

    @classmethod
    def init(cls, tree: TreeLstmParams, rng: np.random.Generator) -> "SepModel":
        two_l = 2 * tree.size
        return cls(
            tree=tree,
            score_w=ad.glorot_init(rng, two_l, 1, shape=(two_l,)),
            score_b=ad.zeros_init(()),
        )


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
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.neg_ratio <= 0:
            raise ConfigError(f"neg_ratio must be positive, got {self.neg_ratio}")


@dataclass
class EpochStats:
    loss: float
    accuracy: float


def pretrain(corpus: list[MethodSplits], params: TreeLstmParams,
             config: PretrainConfig) -> tuple[SepModel, list[EpochStats]]:
    """Train the next-split classifier; returns the model and loss history.

    A corpus with no multi-split methods produces no pairs and the
    initialized parameters come back untouched.
    """
    config.validate()
    seeds = np.random.SeedSequence(config.seed).spawn(len(corpus) + 2)
    model = SepModel.init(params, np.random.default_rng(seeds[0]))
    pairs: list[PairExample] = []
    for method_splits, seq in zip(corpus, seeds[2:]):
        method_seed = int(seq.generate_state(1)[0])
        pairs.extend(generate_pairs(method_splits, config.neg_ratio, method_seed))
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
            for lo in range(0, len(pairs), config.batch_size):
                chunk = pairs[lo : lo + config.batch_size]
                predicted = _pair_scores(chunk, model).data > 0.5
                correct += int(np.sum(predicted == [p.label == 1 for p in chunk]))
        history.append(EpochStats(epoch_loss / len(pairs), correct / len(pairs)))
    return model, history
