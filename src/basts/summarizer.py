"""Transformer that turns code plus split-AST encodings into comments.

Each example's encoder rows are its code token embeddings, then one row
per split AST, the split's root embedding, in split order, so every
block of the method keeps a row of its own. The rows, plus sinusoidal
position encodings, feed a standard multi-head encoder/decoder stack
(post-sublayer layer norm, residual connections, a causal mask in the
decoder). Training is teacher-forced cross entropy; decoding is greedy.

A training batch is packed: the rows of all its examples form one
matrix, with position encodings restarting at each example, so
`train_step` runs each encoder and decoder layer once per batch and
scores every target token with one cross entropy. One `encode_trees`
call folds every split AST of the batch. Every attention call runs all
of its heads, over every example's own rows, as one `autodiff.attention`
op, so its tape cost grows with neither the head count nor the batch
size, and no attention array spans two examples. Each call names every
example's (query rows, key rows); packed batches hold no padding, so the
only mask is the decoder's causal one, which its self-attention asks of
`autodiff.attention` by a flag, and the summarizer builds no mask. The
decoder's cross-attention keys and values depend on the encoder output
alone, so `memory_kv` projects them once per batch, before the decoder
runs, and every decoder layer takes its own pair.
`greedy_decode` runs `encode_batch` and `decoder_logits` on a batch of
one, and encodes and projects the memory keys and values once per
comment.

Memory rows are stated once: `encode_batch` returns the packed memory
with `lengths`, where `lengths[b]` is the number of memory rows of
example b (its code tokens plus its splits), and `train_step` and
`greedy_decode` hand those counts to `decoder_logits`. The encoder stack
is stated once: `encode` adds positions to packed rows and runs every
encoder layer. So an encoder of another row layout, such as the ablation
arms of `experiments/ablation.py`, replaces `encode_batch` alone: it
builds its rows and hands them to `encode`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from basts import autodiff as ad
from basts.autodiff import Adam, Params, Slot, Tape, Tensor, backward, glorot
from basts.frontend import BOOL_TOKEN, NUM_TOKEN, STR_TOKEN
from basts.splitter import SplitAst
from basts.syntax_encoder import TreeLstmParams, encode_trees
# encode_tree is also reachable here (bench/workloads.py wraps it by this name)
from basts.syntax_encoder import encode_tree  # noqa: F401


class EmptyInputError(ValueError):
    pass


SPECIAL_TOKENS = ("<PAD>", "<BOS>", "<EOS>", "<UNK>", NUM_TOKEN, STR_TOKEN, BOOL_TOKEN)


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
    def build(cls, sequences) -> "Vocab":
        counts = Counter(token for seq in sequences for token in seq)
        ranked = sorted(counts, key=lambda token: (-counts[token], token))
        id_to_token = list(SPECIAL_TOKENS) + [
            token for token in ranked if token not in SPECIAL_TOKENS
        ]
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
class AttentionParams(Params):
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    @classmethod
    def statement(cls, size):
        return cls(*[glorot((size, size))] * 4)


@dataclass
class LayerNormParams(Params):
    gain: Tensor
    bias: Tensor

    @classmethod
    def statement(cls, size):
        return cls(Slot((size,), fill=1.0), Slot((size,)))


@dataclass
class FeedForwardParams(Params):
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def statement(cls, size, hidden):
        return cls(glorot((size, hidden)), Slot((hidden,)),
                   glorot((hidden, size)), Slot((size,)))


@dataclass
class EncoderLayerParams(Params):
    attn: AttentionParams
    ln1: LayerNormParams
    ffn: FeedForwardParams
    ln2: LayerNormParams

    @classmethod
    def statement(cls, size, hidden):
        norm = LayerNormParams.statement(size)
        return cls(AttentionParams.statement(size), norm,
                   FeedForwardParams.statement(size, hidden), norm)


@dataclass
class DecoderLayerParams(Params):
    self_attn: AttentionParams
    ln1: LayerNormParams
    cross_attn: AttentionParams
    ln2: LayerNormParams
    ffn: FeedForwardParams
    ln3: LayerNormParams

    @classmethod
    def statement(cls, size, hidden):
        attn, norm = AttentionParams.statement(size), LayerNormParams.statement(size)
        return cls(attn, norm, attn, norm, FeedForwardParams.statement(size, hidden), norm)


@dataclass
class TransformerParams(Params):
    size: int  # embedding width L, split across heads
    heads: int
    code_embedding: Tensor
    word_embedding: Tensor
    enc: list[EncoderLayerParams]  # blob names enc0., enc1., ...
    dec: list[DecoderLayerParams]
    out_w: Tensor  # L x |W| word projection
    out_b: Tensor

    @classmethod
    def statement(cls, code_vocab_size: int, word_vocab_size: int, size: int,
                  heads: int, encoder_layers: int,
                  decoder_layers: int) -> "TransformerParams":
        ad.check_width(size, heads)
        hidden = 2 * size
        return cls(
            size, heads,
            code_embedding=Slot((code_vocab_size, size), 0.1),
            word_embedding=Slot((word_vocab_size, size), 0.1),
            enc=[EncoderLayerParams.statement(size, hidden)] * encoder_layers,
            dec=[DecoderLayerParams.statement(size, hidden)] * decoder_layers,
            out_w=glorot((size, word_vocab_size)),
            out_b=Slot((word_vocab_size,)),
        )

    @classmethod
    def init(cls, code_vocab_size: int, word_vocab_size: int, size: int,
             heads: int, encoder_layers: int, decoder_layers: int,
             rng: np.random.Generator) -> "TransformerParams":
        return cls.statement(code_vocab_size, word_vocab_size, size, heads,
                             encoder_layers, decoder_layers).draw(rng)


@dataclass
class SummarizerModel(Params):
    """Tree encoder plus Transformer; the unit that checkpoints store."""

    tree: TreeLstmParams
    transformer: TransformerParams


# --- building blocks --------------------------------------------------------


@cache
def positional_matrix(n_positions: int, size: int) -> np.ndarray:
    """Sinusoidal position encodings, [n_positions, size]; read-only and cached."""
    coords = np.arange(size, dtype=np.float64)
    angles = np.arange(n_positions, dtype=np.float64)[:, None] / (10000.0 ** (coords / size))
    out = np.where(coords % 2 == 0, np.sin(angles), np.cos(angles))
    out.setflags(write=False)
    return out


def _positions(lengths, size: int) -> np.ndarray:
    """Position encodings of packed rows; positions restart at each example."""
    return np.concatenate([positional_matrix(n, size) for n in lengths])


def multi_head_attention(x: Tensor, params: AttentionParams, heads: int, lengths,
                         kv: tuple[Tensor, Tensor] | None = None,
                         causal: bool = False) -> Tensor:
    """Scaled dot-product attention of the rows of x over `heads` column slices.

    Without `kv` this is self-attention: the keys and values are projected
    from x, after its queries. Otherwise `kv` holds the projected keys and
    values of another sequence, as `memory_kv` makes them. `lengths`
    holds the (query rows, key rows) of each example packed into the
    rows, and with `causal` an example's query i sees its keys 0..i only,
    as in `autodiff.attention`. Self-attention is five tape ops at any
    head count and batch size: three projections, `autodiff.attention`
    and the output projection; attention over given keys and values is
    three.
    """
    q = ad.matmul(x, params.wq)
    if kv is None:
        kv = ad.matmul(x, params.wk), ad.matmul(x, params.wv)
    return ad.matmul(ad.attention(q, *kv, heads, lengths, causal), params.wo)


def memory_kv(memory: Tensor, model: SummarizerModel) -> list[tuple[Tensor, Tensor]]:
    """Each decoder layer's cross-attention keys and values of `memory`.

    They depend on the encoder output alone, so they are projected once
    per batch or decoded comment, not once per decoder step. The
    projections are recorded layer by layer, K before V, the order in
    which the layers would make them, so the memory's gradient sums its
    parts in the same order.
    """
    return [(ad.matmul(memory, layer.cross_attn.wk), ad.matmul(memory, layer.cross_attn.wv))
            for layer in model.transformer.dec]


def _feed_forward(x: Tensor, p: FeedForwardParams) -> Tensor:
    hidden = ad.relu(ad.add_rowvec(ad.matmul(x, p.w1), p.b1))
    return ad.add_rowvec(ad.matmul(hidden, p.w2), p.b2)


def _encoder_layer(x: Tensor, layer: EncoderLayerParams, heads: int,
                   lengths) -> Tensor:
    attended = multi_head_attention(x, layer.attn, heads, lengths)
    x = ad.layer_norm(ad.add(x, attended), layer.ln1.gain, layer.ln1.bias)
    x = ad.layer_norm(ad.add(x, _feed_forward(x, layer.ffn)),
                      layer.ln2.gain, layer.ln2.bias)
    return x


def _decoder_layer(y: Tensor, kv: tuple[Tensor, Tensor], layer: DecoderLayerParams,
                   heads: int, self_lengths, cross_lengths) -> Tensor:
    attended = multi_head_attention(y, layer.self_attn, heads, self_lengths, causal=True)
    y = ad.layer_norm(ad.add(y, attended), layer.ln1.gain, layer.ln1.bias)
    crossed = multi_head_attention(y, layer.cross_attn, heads, cross_lengths, kv)
    y = ad.layer_norm(ad.add(y, crossed), layer.ln2.gain, layer.ln2.bias)
    y = ad.layer_norm(ad.add(y, _feed_forward(y, layer.ffn)),
                      layer.ln3.gain, layer.ln3.bias)
    return y


def encode(x: Tensor, lengths, model: SummarizerModel) -> Tensor:
    """The encoder stack over packed source rows x, [Σn, L].

    `lengths[b]` is the number of rows of example b, whose rows follow
    those of examples 0..b-1. Position encodings restart at each example,
    then every encoder layer runs once over all the rows; attention stays
    within an example. Every row layout, `encode_batch`'s and the ablation
    arms', feeds this one stack. With zero encoder layers the result is x
    plus the position encodings.
    """
    t = model.transformer
    x = ad.add(x, Tensor(_positions(lengths, t.size)))
    self_lengths = [(n, n) for n in lengths]
    for layer in t.enc:
        x = _encoder_layer(x, layer, t.heads, self_lengths)
    return x


def encode_batch(batch: list[SummarizationExample],
                 model: SummarizerModel) -> tuple[Tensor, list[int]]:
    """Source encodings of a batch, packed into one [Σn, L] matrix, and
    `lengths`, where `lengths[b]` is the number of memory rows of example b.

    Example b's rows follow those of examples 0..b-1: one row per code
    token, its embedding, then one row per split AST, the split's root,
    in split order. Every split AST of the batch is folded in one
    `encode_trees` call, and one lookup gathers each example's code and
    split rows together. `encode` runs them through the encoder stack,
    with positions running on from an example's code rows into its split
    rows.
    """
    # `rows` holds the batch's code tokens, then its split roots; `order`
    # takes example b's code rows, then its roots
    code_ids, trees, order, lengths = [], [], [], []
    first_root = sum(len(example.code_ids) for example in batch)
    for b, example in enumerate(batch):
        if not example.split_asts:
            raise EmptyInputError(f"example {b} of the batch has no split ASTs")
        if not example.code_ids:
            raise EmptyInputError(f"example {b} of the batch has no code tokens")
        n, k, root = len(example.code_ids), len(example.split_asts), first_root + len(trees)
        order += [*range(len(code_ids), len(code_ids) + n), *range(root, root + k)]
        code_ids += example.code_ids
        trees += example.split_asts
        lengths.append(n + k)
    rows = ad.concat([ad.embedding_lookup(model.transformer.code_embedding, code_ids),
                      encode_trees(trees, model.tree)])
    return encode(ad.embedding_lookup(rows, order), lengths, model), lengths


def decoder_logits(target_ids, kv, memory_lengths, model: SummarizerModel) -> Tensor:
    """Word logits at every target position of a packed batch, under the causal mask.

    `target_ids` holds each example's decoder input ids; `kv` is
    `memory_kv` of the batch's packed memory, and `memory_lengths[b]`
    the number of memory rows of example b, as `encode_batch` returns it.
    The [Σs, V] result holds example b's rows in order. Each example's
    self-attention and cross-attention stay within its own rows, so every
    decoder layer runs once for the whole batch.
    """
    t = model.transformer
    lengths = [len(ids) for ids in target_ids]
    self_lengths = [(s, s) for s in lengths]
    cross_lengths = list(zip(lengths, memory_lengths))
    y = ad.add(
        ad.embedding_lookup(t.word_embedding, [i for ids in target_ids for i in ids]),
        Tensor(_positions(lengths, t.size)),
    )
    for layer, layer_kv in zip(t.dec, kv):
        y = _decoder_layer(y, layer_kv, layer, t.heads, self_lengths, cross_lengths)
    return ad.add_rowvec(ad.matmul(y, t.out_w), t.out_b)


def train_step(batch: list[SummarizationExample], model: SummarizerModel, opt: Adam) -> float:
    """One teacher-forced step: mean token cross entropy, one Adam update.

    The whole batch is packed: one encoder pass, one projection of the
    memory's cross-attention keys and values, one decoder pass and one
    cross entropy over every target token of the batch. A parameter that
    does not require grad, such as a frozen tree encoder's, is a constant
    of the step: its ops record nothing and Adam leaves it as it is.

    A loss or parameter gradient that is not finite raises
    `autodiff.NaNError` from `backward`, before the Adam update, so the
    step changes no parameter, moment or gradient.
    """
    if not batch:
        raise EmptyInputError("train_step needs a non-empty batch")
    with Tape() as tape:
        memory, lengths = encode_batch(batch, model)
        inputs = [example.comment_ids[:-1] for example in batch]
        logits = decoder_logits(inputs, memory_kv(memory, model), lengths, model)
        targets = [i for example in batch for i in example.comment_ids[1:]]
        loss = ad.cross_entropy_logits(logits, targets)
        backward(tape, loss)
    opt.step()
    opt.zero_grad()
    return loss.item()


def greedy_decode(example: SummarizationExample, model: SummarizerModel,
                  max_len: int = 30) -> list[int]:
    """Greedily generate up to max_len content word ids.

    PAD and BOS are never candidates: they are the only ids below EOS, so
    each step takes the argmax of the logits from EOS on, and ties break
    toward the lowest eligible id. EOS stops generation and is not part
    of the result.

    Each step runs the whole prefix through `decoder_logits`. What does
    not change between steps is made once per comment: the encoding of
    `encode_batch` over a batch of one, and its cross-attention keys and
    values. Decoding runs outside any tape, so nothing records and the
    tree fold keeps no backward buffers.
    """
    memory, memory_lengths = encode_batch([example], model)
    kv = memory_kv(memory, model)
    out = [Vocab.BOS]
    content: list[int] = []
    for _ in range(max_len):
        row = decoder_logits([out], kv, memory_lengths, model).data[-1]
        nxt = Vocab.EOS + int(np.argmax(row[Vocab.EOS:]))
        if nxt == Vocab.EOS:
            break
        content.append(nxt)
        out.append(nxt)
    return content
