"""Golden sha256 digests of `basts split` output, of serialized checkpoints,
and of the tree encoder's initial values.

These paths avoid BLAS (the split pipeline is pure Python and parameter
init only draws from a seeded generator), so the digests are the same on
every platform. A refactor that changes an output changes a digest. The
values digest does not follow the checkpoint layout, so a change of
layout alone re-pins the checkpoint digests and leaves it as it is.
"""

import hashlib

import numpy as np
import pytest

from basts.checkpoint import serialize
from basts.cli import run
from basts.summarizer import TransformerParams, Vocab
from basts.syntax_encoder import SepModel, TreeLstmParams
from conftest import DIAMOND_SOURCE, IDLE_CONNECTIONS_SOURCE, STRAIGHT_LINE_SOURCE
from toydata import PRETRAIN_SOURCES, SUMMARIZATION_ROWS

SPLIT_SHA256 = (
    "e9f09aeb67274fca9ad68cfbdb896f9bd75a06928cfadfdb0f37ce687e0c4e81"
)
# re-pinned when the tree section's blobs became wu, b, embedding and
# virtual at checkpoint version 3; TREE_VALUES_SHA256 holds their values
SEP_CHECKPOINT_SHA256 = (
    "c76d9b66dc4ea744ae5780dfacc39addb95250bff53c81d35fb1514612de295f"
)
SUMMARIZER_CHECKPOINT_SHA256 = (
    "5adcd41983c9961da57f6402a366bac87db4e45303f4682801cd6a93455be4f6"
)
# the values `TreeLstmParams.init(TYPE_VALUES, 8, rng)` draws at seeds 3 and
# 5, gate by gate (see `_tree_values`); the same since the gates were
# separate tensors
TREE_VALUES_SHA256 = {
    3: "ca6f98d3735eafb024781b5f5dedc0479874cb512b237e716cce9d659f6140b2",
    5: "797fdbf48f74dc1b122efeb80cfd7407847f87a81fa2427549c757d0c81acfee",
}

TYPE_VALUES = {"<UNK>": 0, "MethodDeclaration_f": 1, "BasicType_int": 2,
               "ReturnStatement": 3}


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _tree_values(tree: TreeLstmParams) -> bytes:
    """W, U and b of the i, f, o and u gates in turn, then the embedding and
    the virtual child's h and m, as little-endian float64s."""
    parts = [part for g in range(4) for part in (tree.wu.data[g, 0], tree.wu.data[g, 1],
                                                  tree.b.data[g])]
    parts += [tree.embedding.data, *tree.virtual.data]
    return b"".join(part.astype("<f8").tobytes() for part in parts)


@pytest.mark.parametrize("seed", sorted(TREE_VALUES_SHA256))
def test_tree_init_values_digest(seed):
    tree = TreeLstmParams.init(TYPE_VALUES, 8, np.random.default_rng(seed))
    assert _sha256(_tree_values(tree)) == TREE_VALUES_SHA256[seed]


def test_split_output_digest(tmp_path):
    sources = [IDLE_CONNECTIONS_SOURCE, DIAMOND_SOURCE, STRAIGHT_LINE_SOURCE]
    sources += PRETRAIN_SOURCES + [row["code"] for row in SUMMARIZATION_ROWS]
    src = tmp_path / "toy.mini"
    src.write_text("\n".join(sources))
    out = tmp_path / "splits.json"
    assert run(["split", "--input", str(src), "--output", str(out)]) == 0
    assert _sha256(out.read_bytes()) == SPLIT_SHA256


def test_sep_checkpoint_digest():
    tree = TreeLstmParams.init(TYPE_VALUES, 8, np.random.default_rng(3))
    sep = SepModel.init(tree, np.random.default_rng(4))
    assert _sha256(serialize(tree=tree, sep=sep)) == SEP_CHECKPOINT_SHA256


def test_summarizer_checkpoint_digest():
    code_vocab = Vocab.build([row["code"].split() for row in SUMMARIZATION_ROWS])
    word_vocab = Vocab.build([row["comment"].split() for row in SUMMARIZATION_ROWS])
    tree = TreeLstmParams.init(TYPE_VALUES, 8, np.random.default_rng(5))
    transformer = TransformerParams.init(
        len(code_vocab), len(word_vocab), 8, 2, 2, 2, np.random.default_rng(6)
    )
    raw = serialize(tree=tree, transformer=transformer,
                    code_vocab=code_vocab, word_vocab=word_vocab)
    assert _sha256(raw) == SUMMARIZER_CHECKPOINT_SHA256
