"""Golden sha256 digests of `basts split` output and of serialized checkpoints.

Both paths avoid BLAS (the split pipeline is pure Python and parameter
init only draws from a seeded generator), so the digests are the same on
every platform. A refactor that changes either output changes a digest.
"""

import hashlib

import numpy as np

from basts.checkpoint import serialize
from basts.cli import run
from basts.summarizer import TransformerParams, Vocab
from basts.syntax_encoder import SepModel, TreeLstmParams
from conftest import DIAMOND_SOURCE, IDLE_CONNECTIONS_SOURCE, STRAIGHT_LINE_SOURCE
from toydata import PRETRAIN_SOURCES, SUMMARIZATION_ROWS

SPLIT_SHA256 = (
    "e9f09aeb67274fca9ad68cfbdb896f9bd75a06928cfadfdb0f37ce687e0c4e81"
)
SEP_CHECKPOINT_SHA256 = (
    "00167ecd0970fa0a994d06d000b91e1d4b000271451ac61d3581b3b71b77bcd9"
)
SUMMARIZER_CHECKPOINT_SHA256 = (
    "86b5a0f415cb600c77f71b268c384289208be56d701749820ef4f01e2e4f43b5"
)

TYPE_VALUES = {"<UNK>": 0, "MethodDeclaration_f": 1, "BasicType_int": 2,
               "ReturnStatement": 3}


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


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
