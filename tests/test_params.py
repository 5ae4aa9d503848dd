from collections import Counter
from dataclasses import dataclass

import numpy as np

from basts.autodiff import Params, Tensor
from basts.summarizer import SummarizerModel, TransformerParams
from basts.syntax_encoder import SepModel, TreeLstmParams
from oracles import reachable_tensors


def tree_params():
    return TreeLstmParams.init({"<UNK>": 0, "A": 1, "B": 2}, 8, np.random.default_rng(1))


def assert_walk_covers(model):
    """Each reachable tensor appears exactly once in the walk, under a unique name."""
    named = model.named_params()
    names = [name for name, _ in named]
    assert len(set(names)) == len(names)
    assert [id(t) for _, t in named] == [id(t) for t in model.all_params()]
    walked = Counter(id(t) for t in model.all_params())
    assert walked == Counter(id(t) for t in reachable_tensors(model))
    return names


class TestParamsWalk:
    def test_summarizer_model_walk_covers_every_tensor(self):
        transformer = TransformerParams.init(12, 10, 8, 2, 2, 2, np.random.default_rng(2))
        names = assert_walk_covers(SummarizerModel(tree_params(), transformer))
        assert "transformer.enc0.attn.wq" in names
        assert "transformer.dec1.ffn.b2" in names
        blob_names = [name for name, _ in transformer.named_params()]
        assert "enc0.attn.wq" in blob_names and "dec1.ffn.b2" in blob_names
        # tree; embeddings and fusion; two encoder and two decoder layers; output
        assert len(names) == 15 + 4 + 2 * 12 + 2 * 18 + 2

    def test_sep_model_walk_covers_every_tensor(self):
        tree = tree_params()
        sep = SepModel.init(tree, np.random.default_rng(3))
        names = assert_walk_covers(sep)
        assert names == [f"tree.{n}" for n, _ in tree.named_params()] + [
            "score_w", "score_b",
        ]

    def test_names_follow_field_order_and_skip_other_fields(self):
        @dataclass
        class Leaf(Params):
            b: Tensor
            a: Tensor

        @dataclass
        class Root(Params):
            size: int
            first: Leaf
            layers: list[Leaf]
            last: Tensor

        def leaf():
            return Leaf(Tensor(0.0), Tensor(0.0))

        root = Root(3, leaf(), [leaf(), leaf()], Tensor(0.0))
        assert [name for name, _ in root.named_params()] == [
            "first.b", "first.a", "layers0.b", "layers0.a",
            "layers1.b", "layers1.a", "last",
        ]
        assert [name for name, _ in root.named_params("m.")][0] == "m.first.b"

    def test_oracle_sees_a_tensor_the_walk_skips(self):
        @dataclass
        class Hidden(Params):
            w: Tensor
            extra: dict

        model = Hidden(Tensor(0.0), {"v": Tensor(1.0)})
        assert len(model.all_params()) == 1
        assert len(reachable_tensors(model)) == 2
