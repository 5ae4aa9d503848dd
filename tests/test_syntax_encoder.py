import copy
import gc

import numpy as np
import pytest

import basts.autodiff as ad
from basts.autodiff import Tape, Tensor, backward
from basts.frontend import AstNode, iter_nodes
from basts.splitter import SplitAst, split_method
from basts.syntax_encoder import (
    ConfigError,
    PairExample,
    PretrainConfig,
    SepModel,
    TreeLstmParams,
    build_type_value_vocab,
    encode_tree,
    encode_trees,
    generate_pairs,
    pretrain,
    sep_loss,
    sep_score,
)
from conftest import parse_source
from oracles import embed, encode_tree_per_node, tree_lstm_cell
from toydata import PRETRAIN_SOURCES, SUMMARIZATION_ROWS


def make_params(size=4, seed=0, vocab=None):
    vocab = vocab or {"<UNK>": 0, "A": 1, "B": 2, "C": 3}
    return TreeLstmParams.init(vocab, size, np.random.default_rng(seed))


def zero_params(size=2):
    params = make_params(size=size)
    for _, tensor in params.named_params():
        tensor.data[...] = 0.0
    return params


def chain_tree(labels):
    nodes = [AstNode(i, label) for i, label in enumerate(labels)]
    for parent, child in zip(nodes, nodes[1:]):
        parent.children.append(child)
    return SplitAst(0, nodes[0])


class TestTreeLstmCell:
    def test_all_zero_weights_single_zero_child(self):
        params = zero_params(size=3)
        x = Tensor(np.zeros(3))
        zero = Tensor(np.zeros(3))
        h, m = tree_lstm_cell(x, [(zero, zero)], params)
        assert np.array_equal(h.data, np.zeros(3))
        assert np.array_equal(m.data, np.zeros(3))

    def test_duplicated_child_matches_hand_formula(self):
        # scalar case: every weight a concrete number, evaluated directly
        params = make_params(size=1, seed=9)
        vals = {name: float(t.data.reshape(-1)[0]) for name, t in params.named_params()}
        x = Tensor([0.7])
        h_c, m_c = Tensor([0.3]), Tensor([-0.2])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def expected(n_children):
            h_tilde = n_children * 0.3
            i = sig(vals["w_i"] * 0.7 + vals["u_i"] * h_tilde + vals["b_i"])
            o = sig(vals["w_o"] * 0.7 + vals["u_o"] * h_tilde + vals["b_o"])
            u = np.tanh(vals["w_u"] * 0.7 + vals["u_u"] * h_tilde + vals["b_u"])
            f = sig(vals["w_f"] * 0.7 + vals["u_f"] * 0.3 + vals["b_f"])
            m = i * u + n_children * f * (-0.2)
            return o * np.tanh(m)

        h1, _ = tree_lstm_cell(x, [(h_c, m_c)], params)
        h2, _ = tree_lstm_cell(x, [(h_c, m_c), (h_c, m_c)], params)
        assert abs(h1.data[0] - expected(1)) < 1e-12
        assert abs(h2.data[0] - expected(2)) < 1e-12

    def test_child_order_invariance(self):
        params = make_params(size=4, seed=3)
        rng = np.random.default_rng(1)
        kids = [
            (Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4)))
            for _ in range(3)
        ]
        x = Tensor(rng.normal(size=4))
        h1, m1 = tree_lstm_cell(x, kids, params)
        h2, m2 = tree_lstm_cell(x, kids[::-1], params)
        assert np.allclose(h1.data, h2.data, atol=1e-12)
        assert np.allclose(m1.data, m2.data, atol=1e-12)

    def test_gradient_wrt_input_gate_weight(self):
        params = make_params(size=3, seed=5)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=3))
        kid = (Tensor(rng.normal(size=3)), Tensor(rng.normal(size=3)))

        def f(_):
            h, _m = tree_lstm_cell(x, [kid], params)
            return ad.sum_(ad.mul(h, h))

        report = ad.grad_check(f, params.w_i)
        assert report.passed, report


class TestEncodeTree:
    def test_single_node_uses_virtual_child(self):
        params = make_params(size=3, seed=7)
        tree = SplitAst(0, AstNode(0, "A"))
        emb = encode_tree(tree, params)
        x = embed(params, "A")
        h, _ = tree_lstm_cell(x, [(params.virtual_h, params.virtual_m)], params)
        # matrix and matrix-vector products may round differently
        assert np.allclose(emb.vector.data, h.data, rtol=0.0, atol=1e-12)

    def test_three_node_chain_matches_manual_unrolling(self):
        params = make_params(size=3, seed=8)
        emb = encode_tree(chain_tree(["A", "B", "C"]), params)
        leaf = tree_lstm_cell(
            embed(params, "C"), [(params.virtual_h, params.virtual_m)], params
        )
        mid = tree_lstm_cell(embed(params, "B"), [leaf], params)
        root = tree_lstm_cell(embed(params, "A"), [mid], params)
        assert np.allclose(emb.vector.data, root[0].data, atol=1e-15)

    def test_node_id_permutation_invariance(self):
        params = make_params(size=3, seed=4)
        a = chain_tree(["A", "B", "C"])
        b = chain_tree(["A", "B", "C"])
        for node, new_id in zip([b.root] + b.root.children, (7, 2)):
            pass  # ids rewritten below
        b.root.node_id = 40
        b.root.children[0].node_id = 17
        b.root.children[0].children[0].node_id = 5
        assert np.array_equal(
            encode_tree(a, params).vector.data, encode_tree(b, params).vector.data
        )

    def test_unknown_labels_fall_to_unk(self):
        params = make_params(size=3, seed=4)
        seen = encode_tree(SplitAst(0, AstNode(0, "NeverSeen")), params)
        unk = encode_tree(SplitAst(0, AstNode(0, "<UNK>")), params)
        assert np.array_equal(seen.vector.data, unk.vector.data)

    def test_gradients_through_recursion(self):
        params = make_params(size=3, seed=11)
        tree = chain_tree(["A", "B", "A", "C"])

        def f(_):
            emb = encode_tree(tree, params)
            return ad.sum_(ad.mul(emb.vector, emb.vector))

        for target in (params.u_f, params.embedding, params.virtual_m):
            report = ad.grad_check(f, target)
            assert report.passed, report


def star_tree(n_leaves, split_id=0):
    root = AstNode(0, "A")
    root.children = [AstNode(i + 1, "BC"[i % 2]) for i in range(n_leaves)]
    return SplitAst(split_id, root)


def random_tree(rng, n_nodes, split_id=0):
    """Each new node hangs under a uniformly chosen earlier node."""
    nodes = [AstNode(0, "A")]
    for i in range(1, n_nodes):
        node = AstNode(i, str(rng.choice(["A", "B", "C", "Unseen"])))
        nodes[int(rng.integers(0, i))].children.append(node)
        nodes.append(node)
    return SplitAst(split_id, nodes[0])


def tree_grads(trees, params, fold):
    """Root embeddings and d(loss)/d(param) for a fixed random readout."""
    readout = np.random.default_rng(99).normal(size=(len(trees), params.size))
    for p in params.all_params():
        p.zero_grad()
    with Tape() as tape:
        embeddings = fold(trees, params)
        loss = ad.sum_(ad.mul(embeddings[0].vector, Tensor(readout[0])))
        for e, w in zip(embeddings[1:], readout[1:]):
            loss = ad.add(loss, ad.sum_(ad.mul(e.vector, Tensor(w))))
        backward(tape, loss)
    grads = {name: p.grad.copy() for name, p in params.named_params()}
    for p in params.all_params():
        p.zero_grad()
    return [e.vector.data for e in embeddings], grads


def per_node_fold(trees, params):
    return [encode_tree_per_node(t, params) for t in trees]


def _shaped_batches():
    rng = np.random.default_rng(21)
    return {
        "single node": [SplitAst(0, AstNode(0, "A"))],
        "40-child star": [star_tree(40)],
        "50-deep chain": [chain_tree(["ABC"[i % 3] for i in range(50)])],
        "mixed heights": [random_tree(rng, n, i) for i, n in enumerate((1, 2, 7, 30, 60))]
        + [star_tree(12, 5), chain_tree(["B", "A", "C", "A"])],
    }


class TestEncodeTreesMatchesPerNodeFold:
    """The height-batched fold against the one-cell-per-node oracle."""

    def _assert_match(self, trees, params):
        got_h, got_g = tree_grads(trees, params, encode_trees)
        want_h, want_g = tree_grads(trees, params, per_node_fold)
        for got, want in zip(got_h, want_h):
            assert np.max(np.abs(got - want)) <= 1e-12
        for name, want in want_g.items():
            scale = max(np.max(np.abs(want)), 1e-30)
            assert np.max(np.abs(got_g[name] - want)) <= 1e-10 * scale, name

    @pytest.mark.parametrize("corpus", ["pretrain", "summarization"])
    def test_toy_corpora(self, corpus):
        sources = (PRETRAIN_SOURCES if corpus == "pretrain"
                   else [row["code"] for row in SUMMARIZATION_ROWS])
        trees = [a for src in sources for a in split_method(parse_source(src)).asts]
        vocab = build_type_value_vocab([t.root for t in trees], min_freq=2)
        self._assert_match(trees, TreeLstmParams.init(vocab, 6, np.random.default_rng(5)))

    @pytest.mark.parametrize("shape", list(_shaped_batches()))
    def test_shaped_trees(self, shape):
        self._assert_match(_shaped_batches()[shape], make_params(size=5, seed=6))

    def test_batch_equals_trees_folded_alone(self):
        trees = _shaped_batches()["mixed heights"]
        params = make_params(size=4, seed=2)
        together = encode_trees(trees, params)
        for t, e in zip(trees, together):
            assert e.split_id == t.split_id
            assert np.allclose(e.vector.data, encode_tree(t, params).vector.data,
                               rtol=0.0, atol=1e-12)

    def test_empty_batch(self):
        assert encode_trees([], make_params()) == []

    def test_grad_check_every_parameter_on_three_trees(self):
        params = make_params(size=3, seed=12)
        trees = [
            chain_tree(["A", "B", "C"]),
            star_tree(3, split_id=1),
            SplitAst(2, AstNode(0, "C", children=[
                AstNode(1, "A"), AstNode(2, "B", children=[AstNode(3, "A")])])),
        ]

        def f(_):
            total = None
            for e in encode_trees(trees, params):
                term = ad.sum_(ad.mul(e.vector, e.vector))
                total = term if total is None else ad.add(total, term)
            return total

        for name, tensor in params.named_params():
            report = ad.grad_check(f, tensor)
            assert report.passed, (name, report)


def toy_pretrain_batch(size=8):
    """The first 16 pairs over the toy pre-training methods, and a model."""
    corpus = [split_method(parse_source(src)) for src in PRETRAIN_SOURCES]
    vocab = build_type_value_vocab([a.root for ms in corpus for a in ms.asts])
    params = TreeLstmParams.init(vocab, size, np.random.default_rng(0))
    model = SepModel.init(params, np.random.default_rng(1))
    pairs = [p for ms in corpus for p in generate_pairs(ms, 1, seed=0)]
    return pairs[:16], model


def node_count(trees):
    return sum(1 for t in trees for _ in iter_nodes(t.root))


class TestCostGates:
    """Exact, machine-independent costs of the fold, pinned against regressions."""

    # 10 distinct trees of 103 nodes on 5 levels; a per-node fold records 3,036
    PRETRAIN_BATCH_OPS = 269

    def test_pretrain_batch_op_count(self):
        batch, model = toy_pretrain_batch()
        with Tape() as tape:
            loss = sep_loss(batch, model)
            backward(tape, loss)
        assert len(tape.nodes) == self.PRETRAIN_BATCH_OPS

    def test_op_count_follows_height_not_node_count(self):
        def widened(t):
            # every subtree under the root three times: same levels, ~3x nodes
            children = [copy.deepcopy(c) for _ in range(3) for c in t.root.children]
            return SplitAst(t.split_id, AstNode(t.root.node_id, t.root.node_type,
                                                t.root.value, children))

        small = split_method(parse_source(PRETRAIN_SOURCES[0])).asts
        large = [widened(t) for t in small]
        assert node_count(large) >= 2 * node_count(small)
        params = make_params(size=4)
        with Tape() as tape_small:
            encode_trees(small, params)
        with Tape() as tape_large:
            encode_trees(large, params)
        assert len(tape_small.nodes) == len(tape_large.nodes)

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_large_trees_fold_in_linear_memory(self, shape):
        size = 8
        tree = (chain_tree(["ABC"[i % 3] for i in range(2000)]) if shape == "chain"
                else star_tree(2000))
        params = make_params(size=size)
        with Tape() as tape:
            emb = encode_tree(tree, params)
            loss = ad.sum_(ad.mul(emb.vector, emb.vector))
            floats = sum(node.out().data.size for node in tape.nodes
                         if node.out() is not None)
            backward(tape, loss)
        assert floats <= 40 * node_count([tree]) * size
        assert np.all(np.isfinite(params.u_f.grad))

    def test_step_leaves_no_reference_cycles(self):
        batch, model = toy_pretrain_batch()
        gc.collect()
        gc.disable()
        try:
            with Tape() as tape:
                loss = sep_loss(batch, model)
                backward(tape, loss)
            del tape, loss
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSepScore:
    def test_zero_projection_gives_half(self):
        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(0))
        model.score_w.data[...] = 0.0
        model.score_b.data[...] = 0.0
        e1 = encode_tree(SplitAst(0, AstNode(0, "A")), params)
        e2 = encode_tree(SplitAst(1, AstNode(0, "B")), params)
        assert sep_score(e1, e2, model).item() == 0.5

    def test_unit_projection_of_first_coordinate(self):
        from basts.syntax_encoder import SyntaxEmbedding

        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(0))
        model.score_w.data[...] = 0.0
        model.score_w.data[0] = 1.0
        model.score_b.data[...] = 0.0
        e_t = SyntaxEmbedding(Tensor(np.array([2.0, 0.0])), 0)
        e_tp = SyntaxEmbedding(Tensor(np.array([0.0, 0.0])), 1)
        score = sep_score(e_t, e_tp, model)
        assert abs(score.item() - 0.8807970779778823) < 1e-12

    def test_asymmetric_in_argument_order(self):
        from basts.syntax_encoder import SyntaxEmbedding

        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(0))
        model.score_w.data[:] = [1.0, 0.0, -1.0, 0.0]
        e_a = SyntaxEmbedding(Tensor(np.array([1.0, 0.0])), 0)
        e_b = SyntaxEmbedding(Tensor(np.array([3.0, 0.0])), 1)
        s_ab = sep_score(e_a, e_b, model).item()
        s_ba = sep_score(e_b, e_a, model).item()
        assert s_ab != s_ba


class TestSepLoss:
    def _model_scoring_half(self):
        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(0))
        model.score_w.data[...] = 0.0
        model.score_b.data[...] = 0.0
        return model

    def test_score_half_gives_ln2(self):
        model = self._model_scoring_half()
        t = SplitAst(0, AstNode(0, "A"))
        tp = SplitAst(1, AstNode(0, "B"))
        for label in (0, 1):
            loss = sep_loss([PairExample(t, tp, label)], model)
            assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_hand_computed_two_pair_loss(self):
        # force scores 0.9 and 0.2 through the bias, labels 1 and 0
        from basts.syntax_encoder import SCORE_FLOOR

        model = self._model_scoring_half()
        t = SplitAst(0, AstNode(0, "A"))
        tp = SplitAst(1, AstNode(0, "B"))

        def bias_for(p):
            return np.log(p / (1.0 - p))

        model.score_b.data[...] = bias_for(0.9)
        loss1 = sep_loss([PairExample(t, tp, 1)], model).item()
        model.score_b.data[...] = bias_for(0.2)
        loss0 = sep_loss([PairExample(t, tp, 0)], model).item()
        combined = (loss1 + loss0) / 2.0
        assert abs(combined - (-np.log(0.9) - np.log(0.8)) / 2.0) < 1e-9

    def test_loss_nonnegative_and_gradients_pass(self):
        params = make_params(size=3, seed=13)
        model = SepModel.init(params, np.random.default_rng(1))
        t = chain_tree(["A", "B"])
        tp = chain_tree(["C", "A"])
        pairs = [PairExample(t, tp, 1), PairExample(tp, t, 0)]
        assert sep_loss(pairs, model).item() >= 0.0

        def f(_):
            return sep_loss(pairs, model)

        for target in (model.score_w, params.w_o):
            report = ad.grad_check(f, target)
            assert report.passed, report


class TestGeneratePairs:
    def test_single_split_method_yields_nothing(self, straight_method):
        splits = split_method(straight_method)
        assert generate_pairs(splits) == []

    def test_diamond_counts_and_determinism(self, diamond_method):
        splits = split_method(diamond_method)
        pairs = generate_pairs(splits, neg_ratio=1, seed=42)
        positives = [p for p in pairs if p.label == 1]
        negatives = [p for p in pairs if p.label == 0]
        assert len(positives) == 3
        assert len(negatives) == 3
        edge_set = {(0, 1), (0, 2), (0, 3)}
        for p in negatives:
            key = (p.t.split_id, p.t_prime.split_id)
            assert key not in edge_set and key[0] != key[1]
        again = generate_pairs(splits, neg_ratio=1, seed=42)
        assert [(p.t.split_id, p.t_prime.split_id, p.label) for p in pairs] == [
            (p.t.split_id, p.t_prime.split_id, p.label) for p in again
        ]

    def test_idle_method_has_five_positives(self, idle_method):
        splits = split_method(idle_method)
        pairs = generate_pairs(splits, neg_ratio=1, seed=0)
        assert sum(p.label for p in pairs) == 5

    def test_negative_pool_exhaustion(self, diamond_method):
        splits = split_method(diamond_method)
        pairs = generate_pairs(splits, neg_ratio=100, seed=0)
        assert len([p for p in pairs if p.label == 0]) == 9  # 4*3 ordered - 3 edges


class TestPretrain:
    def test_single_split_corpus_is_noop(self, straight_method):
        corpus = [split_method(straight_method)]
        vocab = build_type_value_vocab([s.asts[0].root for s in corpus], min_freq=1)
        params = TreeLstmParams.init(vocab, 4, np.random.default_rng(0))
        before = params.embedding.data.copy()
        model, history = pretrain(corpus, params, PretrainConfig(epochs=3))
        assert history == []
        assert np.array_equal(model.tree.embedding.data, before)

    def test_identical_seeds_identical_losses(self, diamond_method):
        def run():
            corpus = [split_method(diamond_method)]
            roots = [a.root for s in corpus for a in s.asts]
            vocab = build_type_value_vocab(roots, min_freq=1)
            params = TreeLstmParams.init(vocab, 4, np.random.default_rng(1))
            _, history = pretrain(
                corpus, params, PretrainConfig(epochs=4, seed=33)
            )
            return [h.loss for h in history]

        assert run() == run()

    def test_rejects_bad_config(self, diamond_method):
        corpus = [split_method(diamond_method)]
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            pretrain(corpus, params, PretrainConfig(epochs=0))
        with pytest.raises(ConfigError):
            pretrain(corpus, params, PretrainConfig(learning_rate=-1.0))


def test_vocab_unk_threshold():
    roots = [chain_tree(["A", "A", "B"]).root, chain_tree(["A", "C"]).root]
    vocab = build_type_value_vocab(roots, min_freq=2)
    assert "A" in vocab and vocab["<UNK>"] == 0
    assert "B" not in vocab and "C" not in vocab
