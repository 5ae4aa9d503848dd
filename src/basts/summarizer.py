"""Fusion Transformer that turns code plus split-AST encodings into comments.

Split embeddings are average-pooled into one syntax vector, concatenated
with every code token embedding, and projected through a ReLU layer; the
result, plus sinusoidal position encodings, feeds a standard multi-head
encoder/decoder stack (post-sublayer layer norm, residual connections,
padding and causal masks). Training is teacher-forced cross entropy;
decoding is greedy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from basts import autodiff as ad
from basts.autodiff import Adam, Tape, Tensor, backward, no_grad
from basts.splitter import SplitAst
from basts.syntax_encoder import SyntaxEmbedding, TreeLstmParams, encode_trees
# encode_tree is also reachable here (bench/workloads.py wraps it by this name)
from basts.syntax_encoder import encode_tree  # noqa: F401


class EmptyInputError(ValueError):
    pass


class MaskError(ValueError):
    pass


class NaNError(RuntimeError):
    pass


SPECIAL_TOKENS = ("<PAD>", "<BOS>", "<EOS>", "<UNK>", "<NUM>", "<STR>", "<BOOL>")


@dataclass
class Vocab:
    """Token/id bijection with fixed low ids for the special tokens."""

    PAD = 0
    BOS = 1
    EOS = 2
    UNK = 3

    token_to_id: dict[str, int]
    id_to_token: list[str]

    @classmethod
    def build(cls, sequences, min_freq: int = 1) -> "Vocab":
        counts = Counter()
        for seq in sequences:
            counts.update(seq)
        id_to_token = list(SPECIAL_TOKENS)
        for token, freq in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            if freq >= min_freq and token not in SPECIAL_TOKENS:
                id_to_token.append(token)
        return cls({t: i for i, t in enumerate(id_to_token)}, id_to_token)

    def __len__(self):
        return len(self.id_to_token)

    def encode(self, tokens) -> list[int]:
        return [self.token_to_id.get(t, self.UNK) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]


@dataclass
class SummarizationExample:
    """One training unit: code ids, its split ASTs, and the gold comment.

    The split ASTs are kept (rather than frozen vectors) because the tree
    encoder is fine-tuned: embeddings are recomputed from the current
    parameters on every pass. comment_ids is BOS-prefixed, EOS-terminated.
    """

    code_ids: list[int]
    split_asts: list[SplitAst]
    comment_ids: list[int]


@dataclass
class AttentionParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    @classmethod
    def init(cls, size, rng):
        return cls(*(ad.glorot_init(rng, size, size) for _ in range(4)))

    def named(self, prefix):
        return [
            (f"{prefix}.wq", self.wq), (f"{prefix}.wk", self.wk),
            (f"{prefix}.wv", self.wv), (f"{prefix}.wo", self.wo),
        ]


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor

    @classmethod
    def init(cls, size):
        return cls(Tensor(np.ones(size), requires_grad=True), ad.zeros_init(size))

    def named(self, prefix):
        return [(f"{prefix}.gain", self.gain), (f"{prefix}.bias", self.bias)]


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, size, hidden, rng):
        return cls(
            ad.glorot_init(rng, size, hidden, shape=(size, hidden)),
            ad.zeros_init(hidden),
            ad.glorot_init(rng, hidden, size, shape=(hidden, size)),
            ad.zeros_init(size),
        )

    def named(self, prefix):
        return [
            (f"{prefix}.w1", self.w1), (f"{prefix}.b1", self.b1),
            (f"{prefix}.w2", self.w2), (f"{prefix}.b2", self.b2),
        ]


@dataclass
class EncoderLayerParams:
    attn: AttentionParams
    ln1: LayerNormParams
    ffn: FeedForwardParams
    ln2: LayerNormParams

    @classmethod
    def init(cls, size, hidden, rng):
        return cls(
            AttentionParams.init(size, rng),
            LayerNormParams.init(size),
            FeedForwardParams.init(size, hidden, rng),
            LayerNormParams.init(size),
        )

    def named(self, prefix):
        return (
            self.attn.named(f"{prefix}.attn")
            + self.ln1.named(f"{prefix}.ln1")
            + self.ffn.named(f"{prefix}.ffn")
            + self.ln2.named(f"{prefix}.ln2")
        )


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    ln1: LayerNormParams
    cross_attn: AttentionParams
    ln2: LayerNormParams
    ffn: FeedForwardParams
    ln3: LayerNormParams

    @classmethod
    def init(cls, size, hidden, rng):
        return cls(
            AttentionParams.init(size, rng),
            LayerNormParams.init(size),
            AttentionParams.init(size, rng),
            LayerNormParams.init(size),
            FeedForwardParams.init(size, hidden, rng),
            LayerNormParams.init(size),
        )

    def named(self, prefix):
        return (
            self.self_attn.named(f"{prefix}.self_attn")
            + self.ln1.named(f"{prefix}.ln1")
            + self.cross_attn.named(f"{prefix}.cross_attn")
            + self.ln2.named(f"{prefix}.ln2")
            + self.ffn.named(f"{prefix}.ffn")
            + self.ln3.named(f"{prefix}.ln3")
        )


@dataclass
class TransformerParams:
    size: int  # embedding width L, split across heads
    heads: int
    code_embedding: Tensor
    word_embedding: Tensor
    fuse_w: Tensor  # L x 2L projection applied to concat(pooled, token)
    fuse_b: Tensor
    encoder_layers: list[EncoderLayerParams]
    decoder_layers: list[DecoderLayerParams]
    out_w: Tensor  # L x |W| word projection
    out_b: Tensor

    @classmethod
    def init(cls, code_vocab_size: int, word_vocab_size: int, size: int,
             heads: int, encoder_layers: int, decoder_layers: int,
             rng: np.random.Generator) -> "TransformerParams":
        if size % heads != 0:
            raise ValueError(f"size {size} not divisible by {heads} heads")
        hidden = 2 * size
        return cls(
            size=size,
            heads=heads,
            code_embedding=ad.uniform_init(rng, (code_vocab_size, size), 0.1),
            word_embedding=ad.uniform_init(rng, (word_vocab_size, size), 0.1),
            fuse_w=ad.glorot_init(rng, 2 * size, size, shape=(size, 2 * size)),
            fuse_b=ad.zeros_init(size),
            encoder_layers=[
                EncoderLayerParams.init(size, hidden, rng)
                for _ in range(encoder_layers)
            ],
            decoder_layers=[
                DecoderLayerParams.init(size, hidden, rng)
                for _ in range(decoder_layers)
            ],
            out_w=ad.glorot_init(rng, size, word_vocab_size,
                                 shape=(size, word_vocab_size)),
            out_b=ad.zeros_init(word_vocab_size),
        )

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = [
            ("code_embedding", self.code_embedding),
            ("word_embedding", self.word_embedding),
            ("fuse_w", self.fuse_w),
            ("fuse_b", self.fuse_b),
        ]
        for i, layer in enumerate(self.encoder_layers):
            out.extend(layer.named(f"enc{i}"))
        for i, layer in enumerate(self.decoder_layers):
            out.extend(layer.named(f"dec{i}"))
        out.extend([("out_w", self.out_w), ("out_b", self.out_b)])
        return out

    def all_params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]


@dataclass
class SummarizerModel:
    """Tree encoder plus Transformer; the unit that checkpoints store."""

    tree: TreeLstmParams
    transformer: TransformerParams

    def named_params(self):
        return [
            (f"tree.{n}", t) for n, t in self.tree.named_params()
        ] + [
            (f"transformer.{n}", t) for n, t in self.transformer.named_params()
        ]

    def all_params(self):
        return [t for _, t in self.named_params()]


# --- building blocks --------------------------------------------------------


def avg_pool(embeddings: list[SyntaxEmbedding]) -> Tensor:
    """Coordinate-wise mean of split embeddings."""
    if not embeddings:
        raise EmptyInputError("cannot pool an empty embedding list")
    total = embeddings[0].vector
    for e in embeddings[1:]:
        total = ad.add(total, e.vector)
    return ad.scalar_mul(total, 1.0 / len(embeddings))


_POS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def positional_matrix(n_positions: int, size: int) -> np.ndarray:
    key = (n_positions, size)
    cached = _POS_CACHE.get(key)
    if cached is None:
        coords = np.arange(size, dtype=np.float64)
        angles = np.arange(n_positions, dtype=np.float64)[:, None] / (
            10000.0 ** (coords / size)
        )
        cached = np.where(coords % 2 == 0, np.sin(angles), np.cos(angles))
        cached.setflags(write=False)
        _POS_CACHE[key] = cached
    return cached


def multi_head_attention(x_q: Tensor, x_kv: Tensor, params: AttentionParams,
                         heads: int, allowed: np.ndarray) -> Tensor:
    """Scaled dot-product attention over `heads` column slices.

    `allowed[i, j]` marks whether query position i may look at key
    position j; a query row with no allowed key raises MaskError.
    """
    rows_ok = allowed.any(axis=1)
    if not rows_ok.all():
        bad = int(np.flatnonzero(~rows_ok)[0])
        raise MaskError(f"query position {bad} has every key masked")
    size = x_q.shape[1]
    head_width = size // heads
    additive = np.where(allowed, 0.0, -np.inf)
    q = ad.matmul(x_q, params.wq)
    k = ad.matmul(x_kv, params.wk)
    v = ad.matmul(x_kv, params.wv)
    contexts = []
    scale = 1.0 / math.sqrt(head_width)
    for h in range(heads):
        lo, hi = h * head_width, (h + 1) * head_width
        scores = ad.scalar_mul(
            ad.matmul(ad.col_slice(q, lo, hi), ad.transpose(ad.col_slice(k, lo, hi))),
            scale,
        )
        attn = ad.row_softmax(scores, additive)
        contexts.append(ad.matmul(attn, ad.col_slice(v, lo, hi)))
    joined = contexts[0] if heads == 1 else ad.concat(contexts, axis=1)
    return ad.matmul(joined, params.wo)


def _feed_forward(x: Tensor, p: FeedForwardParams) -> Tensor:
    hidden = ad.relu(ad.add_rowvec(ad.matmul(x, p.w1), p.b1))
    return ad.add_rowvec(ad.matmul(hidden, p.w2), p.b2)


def _encoder_layer(x: Tensor, layer: EncoderLayerParams, heads: int,
                   allowed: np.ndarray) -> Tensor:
    attended = multi_head_attention(x, x, layer.attn, heads, allowed)
    x = ad.layer_norm(ad.add(x, attended), layer.ln1.gain, layer.ln1.bias)
    x = ad.layer_norm(ad.add(x, _feed_forward(x, layer.ffn)),
                      layer.ln2.gain, layer.ln2.bias)
    return x


def _decoder_layer(y: Tensor, memory: Tensor, layer: DecoderLayerParams,
                   heads: int, self_allowed: np.ndarray,
                   cross_allowed: np.ndarray) -> Tensor:
    attended = multi_head_attention(y, y, layer.self_attn, heads, self_allowed)
    y = ad.layer_norm(ad.add(y, attended), layer.ln1.gain, layer.ln1.bias)
    crossed = multi_head_attention(y, memory, layer.cross_attn, heads, cross_allowed)
    y = ad.layer_norm(ad.add(y, crossed), layer.ln2.gain, layer.ln2.bias)
    y = ad.layer_norm(ad.add(y, _feed_forward(y, layer.ffn)),
                      layer.ln3.gain, layer.ln3.bias)
    return y


def source_mask(example: SummarizationExample) -> np.ndarray:
    """True at non-PAD code positions."""
    return np.asarray(example.code_ids) != Vocab.PAD


def encode(example: SummarizationExample, model: SummarizerModel,
           freeze_tree: bool = False) -> Tensor:
    """Source encoding: fused and positioned inputs through the encoder stack.

    With zero encoder layers the result is exactly the fused inputs plus
    position encodings. PAD key positions are masked in attention.
    """
    t = model.transformer
    if freeze_tree:
        with no_grad():
            embeddings = encode_trees(example.split_asts, model.tree)
    else:
        embeddings = encode_trees(example.split_asts, model.tree)
    pooled = avg_pool(embeddings)

    n = len(example.code_ids)
    tokens = ad.embedding_lookup(t.code_embedding, example.code_ids)
    joint = ad.concat([ad.repeat_row(pooled, n), tokens], axis=1)
    fused = ad.relu(ad.add_rowvec(ad.matmul(joint, ad.transpose(t.fuse_w)), t.fuse_b))
    x = ad.add(fused, Tensor(positional_matrix(n, t.size)))

    keys_ok = source_mask(example)
    allowed = np.broadcast_to(keys_ok, (n, n))
    for layer in t.encoder_layers:
        x = _encoder_layer(x, layer, t.heads, allowed)
    return x


def decoder_logits(target_ids: list[int], memory: Tensor, keys_ok: np.ndarray,
                   model: SummarizerModel) -> Tensor:
    """Word logits at every target position under the causal mask."""
    t = model.transformer
    s = len(target_ids)
    y = ad.add(
        ad.embedding_lookup(t.word_embedding, target_ids),
        Tensor(positional_matrix(s, t.size)),
    )
    target_ok = np.asarray(target_ids) != Vocab.PAD
    causal = np.tril(np.ones((s, s), dtype=bool))
    self_allowed = causal & target_ok
    np.fill_diagonal(self_allowed, True)  # a position may always see itself
    cross_allowed = np.broadcast_to(keys_ok, (s, memory.shape[0]))
    for layer in t.decoder_layers:
        y = _decoder_layer(y, memory, layer, t.heads, self_allowed, cross_allowed)
    return ad.add_rowvec(ad.matmul(y, t.out_w), t.out_b)


def train_step(batch: list[SummarizationExample], model: SummarizerModel,
               opt: Adam, freeze_tree: bool = False) -> float:
    """One teacher-forced step: mean token cross entropy, one Adam update."""
    if not batch:
        raise EmptyInputError("train_step needs a non-empty batch")
    with Tape() as tape:
        total = None
        count = 0
        for example in batch:
            memory = encode(example, model, freeze_tree)
            decoder_in = example.comment_ids[:-1]
            targets = example.comment_ids[1:]
            logits = decoder_logits(decoder_in, memory, source_mask(example), model)
            ce = ad.cross_entropy_logits(logits, targets, reduction="sum")
            total = ce if total is None else ad.add(total, ce)
            count += len(targets)
        loss = ad.scalar_mul(total, 1.0 / count)
        if not np.isfinite(loss.data):
            raise NaNError(
                f"non-finite loss {loss.data} on batch of {len(batch)} "
                f"(first code length {len(batch[0].code_ids)})"
            )
        backward(tape, loss)
    opt.step()
    opt.zero_grad()
    return loss.item()


def greedy_decode(example: SummarizationExample, model: SummarizerModel,
                  max_len: int = 30) -> list[int]:
    """Greedily generate up to max_len content word ids.

    PAD and BOS are never candidates; argmax ties break toward the lowest
    eligible id. EOS stops generation and is not part of the result.
    """
    with no_grad():
        memory = encode(example, model)
        keys_ok = source_mask(example)
        out = [Vocab.BOS]
        content: list[int] = []
        for _ in range(max_len):
            logits = decoder_logits(out, memory, keys_ok, model).data[-1].copy()
            logits[Vocab.PAD] = -np.inf
            logits[Vocab.BOS] = -np.inf
            nxt = int(np.argmax(logits))
            if nxt == Vocab.EOS:
                break
            content.append(nxt)
            out.append(nxt)
    return content
