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
`serialize` builds the file in one bytearray and returns it;
`save_checkpoint` writes it as is.

Loading reads the file once, front to back, through a memoryview of it.
A section's blob count is bounded by the bytes left (every blob takes at
least 5), and each blob is checked as it is read: its name and shape
against its slot in the parameter classes' shape statements (`Params`),
which follow from the header's integers and the vocabulary lengths
alone. Only a blob that passes is copied, once, into its parameter's
array; nothing else is allocated per blob.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from basts.autodiff import Params, ShapeError, Slot, Tensor
from basts.summarizer import SPECIAL_TOKENS, SummarizerModel, TransformerParams, Vocab
from basts.syntax_encoder import UNK_TYPE_VALUE, SepModel, TreeLstmParams

MAGIC = b"BASTSCKP"
# Version 2 dropped the transformer section's fuse_w and fuse_b blobs;
# version 3 packed the tree section's gate tensors into `wu` and `b` and its
# virtual child state into `virtual`. Only the current version loads.
VERSION = 3

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
        out += struct.pack(f"<B{len(shape)}Q", len(shape), *shape)
        out += np.ascontiguousarray(tensor.data, dtype="<f8").data


class _Reader:
    """Reads a payload front to back from a memoryview; `blobs` counts the
    current section's blobs not yet read."""

    def __init__(self, view: memoryview):
        self.view = view
        self.pos = 0
        self.blobs = 0

    def take(self, count: int) -> memoryview:
        if self.pos + count > len(self.view):
            raise CheckpointError("truncated checkpoint")
        self.pos += count
        return self.view[self.pos - count : self.pos]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"string at payload offset {self.pos - len(raw)} is not UTF-8"
            ) from None

    def str_list(self) -> list[str]:
        return [self.text() for _ in range(self.u32())]

    def blob_count(self) -> int:
        """Starts a section's blobs: their count, at most the bytes left
        can hold at 5 bytes (a name length and a rank) per blob."""
        self.blobs, left = self.u32(), len(self.view) - self.pos
        if 5 * self.blobs > left:
            raise CheckpointError(f"{self.blobs} blobs cannot fit in the {left} bytes left")
        return self.blobs

    def blob(self, name: str, slot: Slot) -> Tensor:
        """The next blob as parameter `name`, once its name and shape are
        the slot's; the `Params.build` maker of loading."""
        if not self.blobs:
            raise CheckpointError(f"missing blob {name!r}")
        self.blobs -= 1
        found = self.text()
        if found != name:
            raise CheckpointError(f"blob {found!r} found where {name!r} belongs")
        rank = self.take(1)[0]
        shape = struct.unpack(f"<{rank}Q", self.take(8 * rank))
        if shape != slot.shape:
            raise CheckpointError(f"blob {name!r} has shape {shape}, expected {slot.shape}")
        data = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8")
        return Tensor(data.reshape(shape).astype(np.float64), requires_grad=True)

    def end_blobs(self):
        if self.blobs:
            raise CheckpointError(f"unexpected blob {self.text()!r}")


def _pack_tree(out: bytearray, tree: TreeLstmParams, sep: SepModel | None):
    out += struct.pack("<I", tree.size)
    rows = sorted(tree.vocab, key=tree.vocab.get)
    _pack_str_list(out, rows)
    head = [] if sep is None else [("score_w", sep.score_w), ("score_b", sep.score_b)]
    _pack_blobs(out, tree.named_params() + head)


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
              word_vocab: Vocab | None = None) -> bytearray:
    if transformer is not None and (code_vocab is None or word_vocab is None):
        raise CheckpointError("transformer section needs both vocabularies")
    flags = ((_FLAG_TREE if tree is not None else 0)
             | (_FLAG_TRANSFORMER if transformer is not None else 0))
    out = bytearray(MAGIC + struct.pack("<II", VERSION, flags))
    if tree is not None:
        _pack_tree(out, tree, sep)
    if transformer is not None:
        _pack_transformer(out, transformer, code_vocab, word_vocab)
    out += struct.pack("<I", zlib.crc32(memoryview(out)[8:]))
    return out


def deserialize(raw: bytes) -> Checkpoint:
    if raw[:8] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    view = memoryview(raw)
    r = _Reader(view[8:-4])
    if zlib.crc32(r.view) != struct.unpack("<I", view[-4:])[0]:
        raise CheckpointError("checkpoint checksum mismatch")
    version, flags = r.u32(), r.u32()
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    unknown = flags & ~(_FLAG_TREE | _FLAG_TRANSFORMER)
    if unknown:
        raise CheckpointError(f"unknown flag bits {unknown:#x}")
    out = Checkpoint()
    if flags & _FLAG_TREE:
        size = r.u32()
        vocab = _ids(r.str_list(), "type_value", (UNK_TYPE_VALUE,))
        r.blob_count()
        out.tree = _stated(TreeLstmParams.statement, vocab, size).build(r.blob)
        if r.blobs:  # the pair-scoring head; its tree holds no slot
            out.sep = SepModel.statement(out.tree).build(r.blob)
        r.end_blobs()
    if flags & _FLAG_TRANSFORMER:
        size, heads, n_enc, n_dec = (r.u32() for _ in range(4))
        if out.tree is not None and out.tree.size != size:
            raise CheckpointError(f"tree width {out.tree.size} differs from "
                                  f"transformer width {size}")
        out.code_vocab = _vocab(r.str_list(), "code")
        out.word_vocab = _vocab(r.str_list(), "word")
        if n_enc + n_dec > r.blob_count():  # every layer holds a blob
            raise CheckpointError(f"header has {n_enc} enc and {n_dec} dec layers, "
                                  f"more than its {r.blobs} blobs")
        transformer = _stated(TransformerParams.statement, len(out.code_vocab),
                              len(out.word_vocab), size, heads, n_enc, n_dec)
        out.transformer = transformer.build(r.blob)
        r.end_blobs()
    if r.pos != len(r.view):
        raise CheckpointError(f"extra bytes after the last section ({len(r.view) - r.pos})")
    return out


def save_checkpoint(path, **kwargs):
    with open(path, "wb") as fh:
        fh.write(serialize(**kwargs))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
