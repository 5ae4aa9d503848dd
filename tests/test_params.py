import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from basts.autodiff import Params, Slot, Tensor
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
        # tree; the two embeddings; two encoder and two decoder layers; output
        assert len(names) == 4 + 2 + 2 * 12 + 2 * 18 + 2

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


class TestShapeStatement:
    @pytest.mark.parametrize("size, heads, message", [
        (4, 0, r"^heads must be at least 1 and divide size 4, got 0$"),
        (4, -2, r"^heads must be at least 1 and divide size 4, got -2$"),
        (4, 3, r"^heads must be at least 1 and divide size 4, got 3$"),
        (0, 1, r"^size must be at least 1, got 0$"),
    ])
    def test_transformer_init_rejects_a_bad_geometry(self, size, heads, message):
        with pytest.raises(ValueError, match=message):
            TransformerParams.init(9, 9, size, heads, 1, 1, np.random.default_rng(0))

    def test_tree_init_rejects_width_zero(self):
        with pytest.raises(ValueError, match=r"^size must be at least 1, got 0$"):
            TreeLstmParams.init({"<UNK>": 0}, 0, np.random.default_rng(0))

    def test_init_has_the_statement_names_and_shapes(self):
        tree = tree_params()
        pairs = [
            (tree, TreeLstmParams.statement(tree.vocab, 8)),
            (SepModel.init(tree, np.random.default_rng(3)), SepModel.statement(tree)),
            (TransformerParams.init(12, 10, 8, 2, 2, 1, np.random.default_rng(2)),
             TransformerParams.statement(12, 10, 8, 2, 2, 1)),
        ]
        for made, stated in pairs:
            assert [(name, t.shape) for name, t in made.named_params()] == [
                (name, s.shape if isinstance(s, Slot) else s.data.shape)
                for name, s in stated.named_params()]

    def test_statement_allocates_no_array(self):
        tracemalloc.start()
        stated = TransformerParams.statement(50_000, 50_000, 4096, 8, 6, 6)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert stated.named_params()[0][1] == Slot((50_000, 4096), 0.1)
        assert peak < 64 * 1024  # the arrays themselves would take gigabytes
