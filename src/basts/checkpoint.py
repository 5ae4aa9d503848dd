"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    magic     8 bytes  b"BASTSCKP"
    version   u32
    flags     u32      bit 0: tree section, bit 1: transformer section
    payload   sections in flag order
    checksum  u32      crc32 of everything between magic and checksum

The tree section stores the embedding width, the type_value vocabulary in
row order, and the parameter blobs in `named_params()` order; with
the pair-scoring head appended it is a pre-training checkpoint on its
own. The transformer section adds the two token vocabularies, the layer
geometry, and its parameter blobs. Identical parameters serialize to
identical bytes, which is what the reproducibility checks compare.

Loading a section reads its header, vocabularies and blobs, then checks
the blobs' names and shapes, in order, against the parameter classes'
shape statements (`Params`), which follow from the header's integers and
the vocabulary lengths alone. Only then are the parameters built, each
wrapping its blob's array; no parameter is drawn or allocated first.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from basts.autodiff import Params, ShapeError, Slot, Tensor
from basts.summarizer import SPECIAL_TOKENS, SummarizerModel, TransformerParams, Vocab
from basts.syntax_encoder import SepModel, TreeLstmParams

MAGIC = b"BASTSCKP"
VERSION = 1

_FLAG_TREE = 1
_FLAG_TRANSFORMER = 2


class CheckpointError(ValueError):
    pass


def _pack_str(out: bytearray, text: str):
    raw = text.encode("utf-8")
    out += struct.pack("<I", len(raw))
    out += raw


def _pack_str_list(out: bytearray, items: list[str]):
    out += struct.pack("<I", len(items))
    for item in items:
        _pack_str(out, item)


def _pack_blobs(out: bytearray, blobs: list[tuple[str, Tensor]]):
    out += struct.pack("<I", len(blobs))
    for name, tensor in blobs:
        _pack_str(out, name)
        shape = tensor.data.shape
        out += struct.pack("<B", len(shape))
        for dim in shape:
            out += struct.pack("<Q", dim)
        out += np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.raw):
            raise CheckpointError("truncated checkpoint")
        chunk = self.raw[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"string at payload offset {self.pos - len(raw)} is not UTF-8"
            ) from None

    def str_list(self) -> list[str]:
        return [self.text() for _ in range(self.u32())]

    def blob(self) -> tuple[str, np.ndarray]:
        name = self.text()
        rank = self.u8()
        shape = tuple(self.u64() for _ in range(rank))
        count = math.prod(shape)  # exact, so huge dims read as truncation, not overflow
        data = np.frombuffer(self.take(count * 8), dtype="<f8")
        try:
            data = data.reshape(shape)
        except ValueError as err:  # rank past numpy's limit, or a dim past int64
            raise CheckpointError(f"blob {name!r} has unusable shape: {err}") from None
        return name, data.astype(np.float64)


def _tree_blobs(tree: TreeLstmParams, sep: SepModel | None):
    """The tree section's blobs: the tree's, then the pair-scoring head's."""
    blobs = tree.named_params()
    if sep is not None:
        blobs = blobs + [("score_w", sep.score_w), ("score_b", sep.score_b)]
    return blobs


def _pack_tree(out: bytearray, tree: TreeLstmParams, sep: SepModel | None):
    out += struct.pack("<I", tree.size)
    rows = sorted(tree.vocab, key=tree.vocab.get)
    _pack_str_list(out, rows)
    _pack_blobs(out, _tree_blobs(tree, sep))


def _pack_transformer(out: bytearray, t: TransformerParams,
                      code_vocab: Vocab, word_vocab: Vocab):
    out += struct.pack("<IIII", t.size, t.heads, len(t.enc), len(t.dec))
    _pack_str_list(out, code_vocab.id_to_token)
    _pack_str_list(out, word_vocab.id_to_token)
    _pack_blobs(out, t.named_params())


def _ids(tokens: list[str], what: str, first=()) -> dict[str, int]:
    """Each token's id, its index; the list must start with `first`, in
    order, and hold no entry twice."""
    for i, token in enumerate(first):
        if tokens[i:i + 1] != [token]:
            raise CheckpointError(f"{what} vocabulary lacks {token!r} at id {i}")
    ids = {}
    for i, token in enumerate(tokens):
        if ids.setdefault(token, i) != i:
            raise CheckpointError(f"{what} vocabulary repeats {token!r} "
                                  f"(ids {ids[token]} and {i})")
    return ids


def _vocab(tokens: list[str], what: str) -> Vocab:
    return Vocab(_ids(tokens, what, SPECIAL_TOKENS), tokens)


def _stated(statement, *geometry) -> Params:
    """`statement(*geometry)`, with a broken geometry rule raised as a
    CheckpointError."""
    try:
        return statement(*geometry)
    except ShapeError as err:
        raise CheckpointError(str(err)) from None


def _take(statement: list[tuple[str, Slot]], blobs: list[tuple[str, np.ndarray]]):
    """A `Params.build` maker that wraps the blobs, in order, as the
    parameters, once their names and shapes are the statement's."""
    for (name, slot), (found, data) in zip(statement, blobs):
        if found != name:
            raise CheckpointError(f"blob {found!r} found where {name!r} belongs")
        if data.shape != slot.shape:
            raise CheckpointError(f"blob {name!r} has shape {data.shape}, "
                                  f"expected {slot.shape}")
    if len(blobs) < len(statement):
        raise CheckpointError(f"missing blob {statement[len(blobs)][0]!r}")
    if len(blobs) > len(statement):
        raise CheckpointError(f"unexpected blob {blobs[len(statement)][0]!r}")
    arrays = (data for _, data in blobs)
    return lambda name, slot: Tensor(next(arrays), requires_grad=True)


@dataclass
class Checkpoint:
    tree: TreeLstmParams | None = None
    sep: SepModel | None = None
    transformer: TransformerParams | None = None
    code_vocab: Vocab | None = None
    word_vocab: Vocab | None = None

    def model(self) -> SummarizerModel:
        if self.tree is None or self.transformer is None:
            raise CheckpointError("checkpoint does not hold a full summarizer")
        return SummarizerModel(self.tree, self.transformer)


def serialize(tree: TreeLstmParams | None = None, sep: SepModel | None = None,
              transformer: TransformerParams | None = None,
              code_vocab: Vocab | None = None,
              word_vocab: Vocab | None = None) -> bytes:
    flags = 0
    payload = bytearray()
    payload += struct.pack("<I", VERSION)
    flag_pos = len(payload)
    payload += struct.pack("<I", 0)  # reserved for flags, patched below
    if tree is not None:
        flags |= _FLAG_TREE
        _pack_tree(payload, tree, sep)
    if transformer is not None:
        if code_vocab is None or word_vocab is None:
            raise CheckpointError("transformer section needs both vocabularies")
        flags |= _FLAG_TRANSFORMER
        _pack_transformer(payload, transformer, code_vocab, word_vocab)
    payload[flag_pos : flag_pos + 4] = struct.pack("<I", flags)
    return MAGIC + bytes(payload) + struct.pack("<I", zlib.crc32(bytes(payload)))


def deserialize(raw: bytes) -> Checkpoint:
    if raw[:8] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    payload, (stored_crc,) = raw[8:-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise CheckpointError("checkpoint checksum mismatch")
    r = _Reader(payload)
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    flags = r.u32()
    unknown = flags & ~(_FLAG_TREE | _FLAG_TRANSFORMER)
    if unknown:
        raise CheckpointError(f"unknown flag bits {unknown:#x}")
    out = Checkpoint()
    if flags & _FLAG_TREE:
        size = r.u32()
        vocab = _ids(r.str_list(), "type_value")
        blobs = [r.blob() for _ in range(r.u32())]
        tree = _stated(TreeLstmParams.statement, vocab, size)
        sep = SepModel.statement(tree) if any(n == "score_w" for n, _ in blobs) else None
        take = _take(_tree_blobs(tree, sep), blobs)
        if sep is None:
            out.tree = tree.build(take)
        else:
            out.sep = sep.build(take)
            out.tree = out.sep.tree
    if flags & _FLAG_TRANSFORMER:
        size, heads, n_enc, n_dec = (r.u32() for _ in range(4))
        if out.tree is not None and out.tree.size != size:
            raise CheckpointError(f"tree width {out.tree.size} differs from "
                                  f"transformer width {size}")
        out.code_vocab = _vocab(r.str_list(), "code")
        out.word_vocab = _vocab(r.str_list(), "word")
        blobs = [r.blob() for _ in range(r.u32())]
        if n_enc + n_dec > len(blobs):  # every layer holds a blob
            raise CheckpointError(f"header has {n_enc} enc and {n_dec} dec layers, "
                                  f"more than its {len(blobs)} blobs")
        transformer = _stated(TransformerParams.statement, len(out.code_vocab),
                              len(out.word_vocab), size, heads, n_enc, n_dec)
        out.transformer = transformer.build(_take(transformer.named_params(), blobs))
    if r.pos != len(payload):
        raise CheckpointError(f"extra bytes after the last section ({len(payload) - r.pos})")
    return out


def save_checkpoint(path, **kwargs):
    with open(path, "wb") as fh:
        fh.write(serialize(**kwargs))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
