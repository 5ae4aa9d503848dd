import copy
import functools
import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basts.autodiff as ad
from basts import syntax_encoder
from basts.autodiff import Adam, Tape, Tensor, backward
from basts.frontend import AstNode, iter_nodes
from basts.splitter import SplitAst, split_method
from basts.syntax_encoder import (
    ConfigError,
    PairExample,
    PretrainConfig,
    SepModel,
    SubtreeIndex,
    TreeLstmParams,
    build_type_value_vocab,
    encode_tree,
    encode_trees,
    generate_pairs,
    pretrain,
    sep_loss,
    sep_score,
)
from conftest import assert_same_state, optimizer_state, parse_source
from oracles import (
    _levels,
    distinct_subtrees,
    embed,
    encode_tree_per_node,
    encode_trees_per_level,
    grad_check,
    repeat_row,
    sep_loss_per_pair,
    tree_lstm_cell,
)
from toydata import PRETRAIN_SOURCES, SUMMARIZATION_ROWS

from minigen import generate_records
from workloads import MEDIUM_PROFILE, PREP_PROFILE, SMALL_PROFILE


ROOT = Path(__file__).resolve().parents[1]


def make_params(size=4, seed=0, vocab=None):
    vocab = vocab or {"<UNK>": 0, "A": 1, "B": 2, "C": 3}
    return TreeLstmParams.init(vocab, size, np.random.default_rng(seed))


def zero_params(size=2):
    params = make_params(size=size)
    for _, tensor in params.named_params():
        tensor.data[...] = 0.0
    return params


def virtual_child(params):
    """The leaves' shared child state, (h, m), as two constant vectors."""
    h, m = params.virtual.data
    return Tensor(h), Tensor(m)


def chain_tree(labels):
    nodes = [AstNode(label) for label in labels]
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
        # gate g's scalar W, U and b, for g in Tai et al.'s order i, f, o, u
        w, u, b = (dict(zip("ifou", column.tolist()))
                   for column in (params.wu.data[:, 0, 0, 0], params.wu.data[:, 1, 0, 0],
                                  params.b.data[:, 0]))
        x = Tensor([0.7])
        h_c, m_c = Tensor([0.3]), Tensor([-0.2])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def expected(n_children):
            h_tilde = n_children * 0.3
            i_g = sig(w["i"] * 0.7 + u["i"] * h_tilde + b["i"])
            o_g = sig(w["o"] * 0.7 + u["o"] * h_tilde + b["o"])
            u_g = np.tanh(w["u"] * 0.7 + u["u"] * h_tilde + b["u"])
            f_g = sig(w["f"] * 0.7 + u["f"] * 0.3 + b["f"])
            m = i_g * u_g + n_children * f_g * (-0.2)
            return o_g * np.tanh(m)

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

        report = grad_check(f, params.wu)
        assert report.passed, report


class TestEncodeTree:
    def test_single_node_uses_virtual_child(self):
        params = make_params(size=3, seed=7)
        tree = SplitAst(0, AstNode("A"))
        emb = encode_tree(tree, params)
        x = embed(params, "A")
        h, _ = tree_lstm_cell(x, [virtual_child(params)], params)
        # matrix and matrix-vector products may round differently
        assert np.allclose(emb.data[0], h.data, rtol=0.0, atol=1e-12)

    def test_three_node_chain_matches_manual_unrolling(self):
        params = make_params(size=3, seed=8)
        emb = encode_tree(chain_tree(["A", "B", "C"]), params)
        leaf = tree_lstm_cell(embed(params, "C"), [virtual_child(params)], params)
        mid = tree_lstm_cell(embed(params, "B"), [leaf], params)
        root = tree_lstm_cell(embed(params, "A"), [mid], params)
        assert np.allclose(emb.data[0], root[0].data, atol=1e-15)

    def test_unknown_labels_fall_to_unk(self):
        params = make_params(size=3, seed=4)
        seen = encode_tree(SplitAst(0, AstNode("NeverSeen")), params)
        unk = encode_tree(SplitAst(0, AstNode("<UNK>")), params)
        assert np.array_equal(seen.data, unk.data)

    def test_gradients_through_recursion(self):
        params = make_params(size=3, seed=11)
        tree = chain_tree(["A", "B", "A", "C"])

        def f(_):
            emb = encode_tree(tree, params)
            return ad.sum_(ad.mul(emb, emb))

        for target in (params.wu, params.embedding, params.virtual):
            report = grad_check(f, target)
            assert report.passed, report


def star_tree(n_leaves, split_id=0):
    root = AstNode("A")
    root.children = [AstNode("BC"[i % 2]) for i in range(n_leaves)]
    return SplitAst(split_id, root)


def random_tree(rng, n_nodes, split_id=0):
    """Each new node hangs under a uniformly chosen earlier node."""
    nodes = [AstNode("A")]
    for i in range(1, n_nodes):
        node = AstNode(str(rng.choice(["A", "B", "C", "Unseen"])))
        nodes[int(rng.integers(0, i))].children.append(node)
        nodes.append(node)
    return SplitAst(split_id, nodes[0])


def tree_grads(trees, params, fold):
    """Root embeddings and d(loss)/d(param) for a fixed random readout."""
    readout = np.random.default_rng(99).normal(size=(len(trees), params.size))
    for p in params.all_params():
        p.zero_grad()
    with Tape() as tape:
        roots = fold(trees, params)
        loss = ad.sum_(ad.mul(roots, Tensor(readout)))
        backward(tape, loss)
    grads = {name: p.grad.copy() for name, p in params.named_params()}
    for p in params.all_params():
        p.zero_grad()
    return roots.data, grads


def per_node_fold(trees, params):
    """The oracle's root vectors stacked as the rows of one matrix."""
    return ad.concat([repeat_row(encode_tree_per_node(t, params), 1) for t in trees])


def _shaped_batches():
    rng = np.random.default_rng(21)
    return {
        "single node": [SplitAst(0, AstNode("A"))],
        "40-child star": [star_tree(40)],
        "50-deep chain": [chain_tree(["ABC"[i % 3] for i in range(50)])],
        "mixed heights": [random_tree(rng, n, i) for i, n in enumerate((1, 2, 7, 30, 60))]
        + [star_tree(12, 5), chain_tree(["B", "A", "C", "A"])],
    }


def toy_trees(corpus):
    sources = (PRETRAIN_SOURCES if corpus == "pretrain"
               else [row["code"] for row in SUMMARIZATION_ROWS])
    return [a for src in sources for a in split_method(parse_source(src)).asts]


def with_own_vocab(trees, size=5, seed=6):
    vocab = build_type_value_vocab([t.root for t in trees], min_freq=2)
    return trees, TreeLstmParams.init(vocab, size, np.random.default_rng(seed))


def _sharing_batches():
    """Batches in which many nodes repeat a subtree seen before them."""
    rng = np.random.default_rng(31)
    tree = random_tree(rng, 25)
    method = max((split_method(parse_source(src)) for src in PRETRAIN_SOURCES),
                 key=lambda ms: len(ms.asts))
    star = AstNode("A", children=[AstNode("B") for _ in range(40)])
    return {
        "same tree twice": ([tree, copy.deepcopy(tree)], make_params(size=5, seed=6)),
        "splits of one method": with_own_vocab(method.asts),
        # both labels fall to UNK, so the two roots are one subtree
        "two unknown labels": ([
            SplitAst(0, AstNode("A", children=[AstNode("Unseen"), AstNode("B")])),
            SplitAst(1, AstNode("A", children=[AstNode("Other"), AstNode("B")])),
            SplitAst(2, AstNode("Other")),
        ], make_params(size=5, seed=6)),
        "40-child star of identical leaves": ([SplitAst(0, star)],
                                              make_params(size=5, seed=6)),
    }


def row_count(trees, vocab):
    # every row of the plan but the virtual child's
    return len(SubtreeIndex(vocab).plan(trees).labels) - 1


# the leading axes of each tree tensor that index its parts: a gate's W or
# U, a gate's b, the embedding as a whole, the virtual child's h or m
PART_AXES = {"wu": 2, "b": 1, "embedding": 0, "virtual": 1}


def assert_fold_matches(trees, params, oracle):
    """Root h within 1e-12, and each part of each gradient (see `PART_AXES`)
    within 1e-10 of that part's largest entry."""
    got_h, got_g = tree_grads(trees, params, encode_trees)
    want_h, want_g = tree_grads(trees, params, oracle)
    assert got_h.shape == want_h.shape == (len(trees), params.size)
    assert np.max(np.abs(got_h - want_h)) <= 1e-12
    assert got_g.keys() == want_g.keys() == PART_AXES.keys()
    for name, want_all in want_g.items():
        for at in np.ndindex(want_all.shape[:PART_AXES[name]]):
            want = want_all[at]
            scale = max(np.max(np.abs(want)), 1e-30)
            assert np.max(np.abs(got_g[name][at] - want)) <= 1e-10 * scale, (name, at)


class TestEncodeTreesMatchesPerNodeFold:
    """The height-batched fold against the one-cell-per-node oracle."""

    def _assert_match(self, trees, params):
        assert_fold_matches(trees, params, per_node_fold)

    @pytest.mark.parametrize("corpus", ["pretrain", "summarization"])
    def test_toy_corpora(self, corpus):
        self._assert_match(*with_own_vocab(toy_trees(corpus), size=6, seed=5))

    @pytest.mark.parametrize("shape", list(_shaped_batches()))
    def test_shaped_trees(self, shape):
        self._assert_match(_shaped_batches()[shape], make_params(size=5, seed=6))

    @pytest.mark.parametrize("sharing", list(_sharing_batches()))
    def test_sharing_heavy_batches(self, sharing):
        trees, params = _sharing_batches()[sharing]
        assert row_count(trees, params.vocab) < node_count(trees)
        self._assert_match(trees, params)

    def test_batch_equals_trees_folded_alone(self):
        trees = _shaped_batches()["mixed heights"]
        params = make_params(size=4, seed=2)
        together = encode_trees(trees, params)
        assert together.shape == (len(trees), params.size)
        for i, t in enumerate(trees):
            assert np.allclose(together.data[i], encode_tree(t, params).data[0],
                               rtol=0.0, atol=1e-12)

    def test_empty_batch(self):
        assert encode_trees([], make_params(size=4)).shape == (0, 4)

    def test_grad_check_every_parameter_on_three_trees(self):
        params = make_params(size=3, seed=12)
        trees = [
            chain_tree(["A", "B", "C"]),
            star_tree(3, split_id=1),
            SplitAst(2, AstNode("C", children=[
                AstNode("A"), AstNode("B", children=[AstNode("A")])])),
        ]

        def f(_):
            roots = encode_trees(trees, params)
            return ad.sum_(ad.mul(roots, roots))

        for name, tensor in params.named_params():
            report = grad_check(f, tensor)
            assert report.passed, (name, report)


def rows_with_several_parents(trees, vocab):
    """Plan rows, other than the virtual child, that two or more rows hold."""
    plan = SubtreeIndex(vocab).plan(trees)
    holders = {}
    for child, parent in zip(plan.children.tolist(), plan.parents.tolist()):
        holders.setdefault(child, set()).add(parent)
    return [child for child, parents in holders.items() if child and len(parents) > 1]


def generated_trees(seed, methods=4, profile=MEDIUM_PROFILE):
    records = generate_records("pretrain-sep", seed, methods, profile)
    return [a for r in records for a in split_method(parse_source(r["code"])).asts]


def longest_edge(trees, vocab):
    """The most heights between a plan edge's parent row and its child row."""
    plan = SubtreeIndex(vocab).plan(trees)
    height = np.repeat(np.arange(len(plan.heights)), [hi - lo for lo, hi, _, _ in plan.heights])
    real = plan.children > 0  # the virtual child, row 0, has no height
    return int(np.max(height[plan.parents[real] - 1] - height[plan.children[real] - 1]))


ORACLES = {"per level": encode_trees_per_level, "per node": per_node_fold}


class TestFusedFoldMatchesOracles:
    """The one-op fold against the per-level composite and the per-node cell."""

    @pytest.mark.parametrize("oracle", list(ORACLES))
    def test_toy_pretraining_batch(self, oracle):
        batch, model = toy_pretrain_batch()
        trees = list({id(t): t for p in batch for t in (p.t, p.t_prime)}.values())
        assert_fold_matches(trees, model.tree, ORACLES[oracle])

    # the prep profile's deep nesting reaches children many heights down
    @pytest.mark.parametrize("profile, methods, seed",
                             [(MEDIUM_PROFILE, 4, 1), (MEDIUM_PROFILE, 4, 2),
                              (MEDIUM_PROFILE, 4, 3), (PREP_PROFILE, 2, 1)],
                             ids=["1", "2", "3", "prep-1"])
    @pytest.mark.parametrize("oracle", list(ORACLES))
    def test_medium_generated_batches(self, oracle, profile, methods, seed):
        trees, params = with_own_vocab(generated_trees(seed, methods, profile), size=8, seed=seed)
        assert rows_with_several_parents(trees, params.vocab)
        assert longest_edge(trees, params.vocab) >= 3
        assert_fold_matches(trees, params, ORACLES[oracle])

    @pytest.mark.parametrize("shape", ["chain", "star"])
    @pytest.mark.parametrize("oracle", list(ORACLES))
    def test_chain_and_star(self, oracle, shape):
        trees = [chain_tree(["ABC"[i % 3] for i in range(60)]) if shape == "chain"
                 else star_tree(60)]
        assert_fold_matches(trees, make_params(size=5, seed=6), ORACLES[oracle])

    def test_grad_check_every_parameter_at_width_4(self):
        params = make_params(size=4, seed=12)
        # leaf "A" hangs under "C" and under "B"; "B(A)" under two roots
        trees = [
            SplitAst(0, AstNode("C", children=[
                AstNode("A"), AstNode("B", children=[AstNode("A")])])),
            SplitAst(1, AstNode("A", children=[
                AstNode("B", children=[AstNode("A")]), AstNode("C")])),
            chain_tree(["A", "B", "C"]),
            star_tree(3, split_id=3),
        ]
        assert len(rows_with_several_parents(trees, params.vocab)) >= 2
        readout = Tensor(np.random.default_rng(5).normal(size=(len(trees), 4)))

        def f(_):
            return ad.sum_(ad.mul(encode_trees(trees, params), readout))

        named = params.named_params()
        assert len(named) == 4
        for name, tensor in named:
            report = grad_check(f, tensor)
            assert report.passed, (name, report)


# each profile's methods per corpus, so that every corpus holds a few dozen trees
PLAN_CORPORA = {"small": (SMALL_PROFILE, 24), "medium": (MEDIUM_PROFILE, 6),
                "prep": (PREP_PROFILE, 2)}


@functools.cache
def plan_corpus(profile, seed):
    """The split ASTs of one generated corpus, and their vocabulary."""
    shape, methods = PLAN_CORPORA[profile]
    records = generate_records(f"plans/{profile}", seed, methods, shape)
    trees = tuple(a for r in records for a in split_method(parse_source(r["code"])).asts)
    return trees, build_type_value_vocab([t.root for t in trees])


def assert_same_plan(got, want):
    assert got.heights == want.heights
    for name in ("labels", "children", "parents", "roots"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestSubtreeIndex:
    """Plans from the index's cached arrays equal the hash-consing walk's."""

    @settings(max_examples=120)
    @given(profile=st.sampled_from(sorted(PLAN_CORPORA)), seed=st.integers(1, 3),
           data=st.data())
    def test_every_plan_equals_the_oracle(self, profile, seed, data):
        trees, vocab = plan_corpus(profile, seed)
        index = SubtreeIndex(vocab)
        for _ in range(data.draw(st.integers(2, 5), label="plans")):
            order = data.draw(st.permutations(range(len(trees))), label="shuffle")
            batch = [trees[i] for i in order[:data.draw(st.integers(1, len(trees)))]]
            if data.draw(st.booleans(), label="repeat a tree"):
                batch.insert(data.draw(st.integers(0, len(batch))),
                             batch[data.draw(st.integers(0, len(batch) - 1))])
            assert_same_plan(index.plan(batch), _levels(batch, vocab))
            # a fresh tree, planned and then dropped: a later object at its
            # address must not hit its cache entry
            fresh = [copy.deepcopy(trees[data.draw(st.integers(0, len(trees) - 1))])]
            assert_same_plan(index.plan(fresh), _levels(fresh, vocab))
            del fresh


class TestHashConsedLevels:
    """A plan keeps one row per distinct subtree, by the recursive oracle."""

    def _assert_one_row_per_subtree(self, trees):
        vocab = build_type_value_vocab([t.root for t in trees], min_freq=2)
        assert row_count(trees, vocab) == len(distinct_subtrees(trees, vocab))
        assert row_count(trees, vocab) < node_count(trees)
        # two roots share a row exactly when their trees are equal, that is
        # when they hold the same distinct subtrees
        roots = SubtreeIndex(vocab).plan(trees).roots
        forms = [frozenset(distinct_subtrees([t], vocab)) for t in trees]
        for i in range(len(trees)):
            for j in range(i):
                assert (roots[i] == roots[j]) == (forms[i] == forms[j])

    @pytest.mark.parametrize("corpus", ["pretrain", "summarization"])
    def test_toy_corpora(self, corpus):
        self._assert_one_row_per_subtree(toy_trees(corpus))

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_generated_methods(self, seed):
        records = generate_records("pretrain-sep", seed, 20, MEDIUM_PROFILE)
        self._assert_one_row_per_subtree(
            [a for r in records for a in split_method(parse_source(r["code"])).asts])


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

    # 10 distinct trees of 103 nodes on 5 levels, folded as one op;
    # `sep_loss_per_pair` records 8,740
    PRETRAIN_BATCH_OPS = 12
    # the fold's rows: the distinct subtrees of those 103 nodes
    PRETRAIN_BATCH_ROWS = 48

    def test_pretrain_batch_op_count(self):
        batch, model = toy_pretrain_batch()
        with Tape() as tape:
            loss, _ = sep_loss(batch, model)
            backward(tape, loss)
        assert len(tape.nodes) == self.PRETRAIN_BATCH_OPS

    def test_pretrain_batch_row_count(self):
        batch, model = toy_pretrain_batch()
        trees = list({id(t): t for p in batch for t in (p.t, p.t_prime)}.values())
        assert node_count(trees) == 103
        assert row_count(trees, model.tree.vocab) == self.PRETRAIN_BATCH_ROWS

    def test_op_count_follows_height_not_node_count(self):
        def widened(t):
            # every subtree under the root three times: same levels, ~3x nodes
            children = [copy.deepcopy(c) for _ in range(3) for c in t.root.children]
            return SplitAst(t.split_id, AstNode(t.root.node_type, t.root.value, children))

        small = split_method(parse_source(PRETRAIN_SOURCES[0])).asts
        large = [widened(t) for t in small]
        assert node_count(large) >= 2 * node_count(small)
        params = make_params(size=4)
        with Tape() as tape_small:
            encode_trees(small, params)
        with Tape() as tape_large:
            encode_trees(large, params)
        # the whole fold is one op, at any height and node count
        assert len(tape_small.nodes) == len(tape_large.nodes) == 1

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_large_trees_fold_in_linear_memory(self, shape):
        size = 8
        tree = (chain_tree(["ABC"[i % 3] for i in range(2000)]) if shape == "chain"
                else star_tree(2000))
        params = make_params(size=size)
        tracemalloc.start()
        try:
            with Tape() as tape:
                emb = encode_tree(tree, params)
                loss = ad.sum_(ad.mul(emb, emb))
                backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # everything allocated over forward and backward, the plan and the
        # arrays the op keeps included, as float64s per node and unit of width
        assert peak <= 40 * node_count([tree]) * size * 8
        assert np.all(np.isfinite(params.wu.grad))

    def test_no_grad_fold_keeps_no_backward_buffers(self):
        trees, params = with_own_vocab(generated_trees(1, methods=8)[:60], size=64)
        assert len(trees) == 60
        # the first plan interns the trees; both folds plan from cached arrays
        rows = len(params.index.plan(trees).labels)

        def peak(recorded):
            tracemalloc.start()
            try:
                if recorded:
                    with Tape():
                        encode_trees(trees, params)
                else:  # outside any tape nothing records
                    encode_trees(trees, params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the recorded fold keeps its [4, R, L] gate buffer, and more
        assert peak(False) + 4 * rows * params.size * 8 <= peak(True)

    # minor page faults of one steady pre-training epoch (`steady_epoch_faults`),
    # in fresh processes on glibc 2.36: 7-13 with autodiff's allocator setting
    # and its release of closures in backward, 2,389 with neither, and about
    # 10,700 with the release alone
    STEADY_EPOCH_FAULTS = 500

    @pytest.mark.skipif(not ad._HEAP_KEPT, reason="no mallopt to keep the freed heap")
    def test_steady_pretraining_steps_fault_in_no_freed_heap(self):
        # a fresh process: what earlier tests freed would hide the faults
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "tests")))
        done = subprocess.run(
            [sys.executable, "-c", "from test_syntax_encoder import steady_epoch_faults as f; "
                                   "print(f())"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert int(done.stdout) < self.STEADY_EPOCH_FAULTS

    def test_step_leaves_no_reference_cycles(self):
        batch, model = toy_pretrain_batch()
        gc.collect()
        gc.disable()
        try:
            with Tape() as tape:
                loss, _ = sep_loss(batch, model)
                backward(tape, loss)
            del tape, loss
            assert gc.collect() == 0
        finally:
            gc.enable()


def steady_epoch_faults() -> int:
    """Minor page faults of the second epoch of `pretrain`'s steps over 20
    `MEDIUM_PROFILE` methods at L=64; the first interns every tree and
    grows the heap to a step's peak."""
    import resource  # POSIX only; this runs in the fault test's own process

    records = generate_records("pretrain-sep", 1, 20, MEDIUM_PROFILE)
    corpus = [split_method(parse_source(r["code"])) for r in records]
    vocab = build_type_value_vocab([a.root for ms in corpus for a in ms.asts])
    model = SepModel.init(TreeLstmParams.init(vocab, 64, np.random.default_rng(0)),
                          np.random.default_rng(1))
    pairs = [p for i, ms in enumerate(corpus) for p in generate_pairs(ms, 1, seed=i)]
    opt = Adam(model.all_params(), lr=1e-3)

    def epoch():
        for lo in range(0, len(pairs), 16):
            with Tape() as tape:
                loss, _ = sep_loss(pairs[lo : lo + 16], model)
                backward(tape, loss)
            opt.step()
            opt.zero_grad()

    epoch()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    epoch()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def rows(*vectors):
    return Tensor(np.array(vectors, dtype=float))


class TestSepScore:
    def test_zero_projection_gives_half(self):
        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(0))
        model.score_w.data[...] = 0.0
        model.score_b.data[...] = 0.0
        e1 = encode_tree(SplitAst(0, AstNode("A")), params)
        e2 = encode_tree(SplitAst(1, AstNode("B")), params)
        assert sep_score(e1, e2, model).data.tolist() == [0.5]

    def test_unit_projection_of_first_coordinate(self):
        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(0))
        model.score_w.data[...] = 0.0
        model.score_w.data[0] = 1.0
        model.score_b.data[...] = 0.0
        score = sep_score(rows([2.0, 0.0]), rows([0.0, 0.0]), model)
        assert score.shape == (1,)
        assert abs(score.data[0] - 0.8807970779778823) < 1e-12

    def test_asymmetric_in_argument_order(self):
        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(0))
        model.score_w.data[:] = [1.0, 0.0, -1.0, 0.0]
        e_a, e_b = rows([1.0, 0.0]), rows([3.0, 0.0])
        s_ab = sep_score(e_a, e_b, model).data[0]
        s_ba = sep_score(e_b, e_a, model).data[0]
        assert s_ab != s_ba

    def test_rows_score_independently(self):
        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(3))
        left, right = rows([1.0, -2.0], [0.5, 0.0]), rows([0.0, 3.0], [-1.0, 1.0])
        both = sep_score(left, right, model).data
        for i in range(2):
            one = sep_score(rows(left.data[i]), rows(right.data[i]), model).data
            assert np.allclose(both[i], one[0], rtol=0.0, atol=1e-15)


class TestSepLoss:
    def _model_scoring_half(self):
        params = make_params(size=2)
        model = SepModel.init(params, np.random.default_rng(0))
        model.score_w.data[...] = 0.0
        model.score_b.data[...] = 0.0
        return model

    def test_score_half_gives_ln2(self):
        model = self._model_scoring_half()
        t = SplitAst(0, AstNode("A"))
        tp = SplitAst(1, AstNode("B"))
        for label in (0, 1):
            loss, _ = sep_loss([PairExample(t, tp, label)], model)
            assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_hand_computed_two_pair_loss(self):
        # force scores 0.9 and 0.2 through the bias, labels 1 and 0
        from basts.syntax_encoder import SCORE_FLOOR

        model = self._model_scoring_half()
        t = SplitAst(0, AstNode("A"))
        tp = SplitAst(1, AstNode("B"))

        def bias_for(p):
            return np.log(p / (1.0 - p))

        model.score_b.data[...] = bias_for(0.9)
        loss1 = sep_loss([PairExample(t, tp, 1)], model)[0].item()
        model.score_b.data[...] = bias_for(0.2)
        loss0 = sep_loss([PairExample(t, tp, 0)], model)[0].item()
        combined = (loss1 + loss0) / 2.0
        assert abs(combined - (-np.log(0.9) - np.log(0.8)) / 2.0) < 1e-9

    def test_loss_nonnegative_and_gradients_pass(self):
        params = make_params(size=3, seed=13)
        model = SepModel.init(params, np.random.default_rng(1))
        t = chain_tree(["A", "B"])
        tp = chain_tree(["C", "A"])
        pairs = [PairExample(t, tp, 1), PairExample(tp, t, 0)]
        assert sep_loss(pairs, model)[0].item() >= 0.0

        def f(_):
            return sep_loss(pairs, model)[0]

        for target in (model.score_w, params.wu):
            report = grad_check(f, target)
            assert report.passed, report


def pair_loss_grads(loss_fn, batch, model):
    for p in model.all_params():
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn(batch, model)
        backward(tape, loss)
    grads = {name: p.grad.copy() for name, p in model.named_params()}
    for p in model.all_params():
        p.zero_grad()
    return loss.item(), grads


class TestSepLossMatchesPerPairOracle:
    """The vector loss against one score and one loss term per pair."""

    @pytest.mark.parametrize("labels", ["toy", "all positive", "all negative"])
    def test_loss_and_gradients(self, labels):
        batch, model = toy_pretrain_batch()
        if labels != "toy":
            label = 1 if labels == "all positive" else 0
            batch = [PairExample(p.t, p.t_prime, label) for p in batch]
        got_loss, got_g = pair_loss_grads(lambda b, m: sep_loss(b, m)[0], batch, model)
        want_loss, want_g = pair_loss_grads(sep_loss_per_pair, batch, model)
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        for name, want in want_g.items():
            scale = max(np.max(np.abs(want)), 1e-30)
            assert np.max(np.abs(got_g[name] - want)) <= 1e-10 * scale, name


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

    @pytest.mark.parametrize("batch_size", [4, 16])
    def test_every_fold_is_inside_a_step(self, monkeypatch, batch_size):
        corpus = [split_method(parse_source(src)) for src in PRETRAIN_SOURCES]
        vocab = build_type_value_vocab([a.root for ms in corpus for a in ms.asts])
        params = TreeLstmParams.init(vocab, 4, np.random.default_rng(0))
        stepping, steps, folds = [], [], []

        def step_loss(*args):
            stepping.append(True)
            steps.append(len(args[0]))
            try:
                return sep_loss(*args)
            finally:
                stepping.pop()

        def spied_encode_trees(trees, *args):
            folds.append(bool(stepping))
            return encode_trees(trees, *args)

        monkeypatch.setattr(syntax_encoder, "sep_loss", step_loss)
        monkeypatch.setattr(syntax_encoder, "encode_trees", spied_encode_trees)
        _, history = pretrain(corpus, params, PretrainConfig(epochs=2, batch_size=batch_size))
        assert len(history) == 2
        # the toy methods give 58 pairs: 15 steps an epoch at 4, 4 at 16
        assert sum(steps) == 2 * 58
        assert len(steps) == 2 * -(-58 // batch_size)
        # one fold per step, and none outside a step
        assert folds == [True] * len(steps)

    @pytest.mark.parametrize("batch_size", [4, 16])
    def test_accuracy_counts_each_steps_scores(self, monkeypatch, batch_size):
        corpus = [split_method(parse_source(src)) for src in PRETRAIN_SOURCES]
        vocab = build_type_value_vocab([a.root for ms in corpus for a in ms.asts])
        params = TreeLstmParams.init(vocab, 4, np.random.default_rng(0))
        steps = []

        def spied_sep_loss(batch, *args):
            loss, scores = sep_loss(batch, *args)
            steps.append((batch, scores.copy()))
            return loss, scores

        monkeypatch.setattr(syntax_encoder, "sep_loss", spied_sep_loss)
        epochs = 3
        _, history = pretrain(corpus, params,
                              PretrainConfig(epochs=epochs, batch_size=batch_size))
        assert len(history) == epochs and len(steps) % epochs == 0
        per_epoch = len(steps) // epochs
        for e in range(epochs):
            epoch = steps[e * per_epoch:(e + 1) * per_epoch]
            pairs = sum(len(batch) for batch, _ in epoch)
            # a pair is right when its step's score, before the update, is
            # on its label's side of 0.5; a score of 0.5 predicts no successor
            right = sum((score > 0.5) == (pair.label == 1)
                        for batch, scores in epoch for pair, score in zip(batch, scores))
            assert type(history[e].accuracy) is float
            assert history[e].accuracy == right / pairs

    def test_a_nan_embedding_row_stops_the_first_step(self, monkeypatch):
        corpus = [split_method(parse_source(src)) for src in PRETRAIN_SOURCES]
        vocab = build_type_value_vocab([a.root for ms in corpus for a in ms.asts])
        params = TreeLstmParams.init(vocab, 4, np.random.default_rng(0))
        params.embedding.data[1] = np.nan  # the most frequent label's row
        made, steps = [], []

        class RecordedAdam(ad.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append((self, optimizer_state(self)))

        def counted_sep_loss(*args):
            steps.append(True)
            return sep_loss(*args)

        monkeypatch.setattr(syntax_encoder, "Adam", RecordedAdam)
        monkeypatch.setattr(syntax_encoder, "sep_loss", counted_sep_loss)
        with pytest.raises(ad.NaNError, match="^non-finite loss nan$"):
            pretrain(corpus, params, PretrainConfig(epochs=1))
        assert len(steps) == 1 and len(made) == 1
        opt, before = made[0]
        assert any(p is params.embedding for p in opt.params)
        assert_same_state(before, optimizer_state(opt))

    def test_a_step_updates_six_tensors(self, monkeypatch):
        corpus = [split_method(parse_source(src)) for src in PRETRAIN_SOURCES]
        vocab = build_type_value_vocab([a.root for ms in corpus for a in ms.asts])
        params = TreeLstmParams.init(vocab, 4, np.random.default_rng(0))
        made = []

        class RecordedAdam(ad.Adam):
            def step(self):
                made.append([p.grad.shape for p in self.params])
                super().step()

        monkeypatch.setattr(syntax_encoder, "Adam", RecordedAdam)
        pretrain(corpus, params, PretrainConfig(epochs=1, batch_size=64))
        # the tree's wu, b, embedding and virtual, then the head's score_w and score_b
        assert made == [[(4, 2, 4, 4), (4, 4), (len(vocab), 4), (2, 4), (8,), ()]]

    def test_rejects_bad_config(self, diamond_method):
        corpus = [split_method(diamond_method)]
        params = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            pretrain(corpus, params, PretrainConfig(epochs=0))
        with pytest.raises(ConfigError):
            pretrain(corpus, params, PretrainConfig(learning_rate=-1.0))
        with pytest.raises(ConfigError):
            pretrain(corpus, params, PretrainConfig(learning_rate=float("nan")))

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="^seed must be non-negative, got -3$"):
            PretrainConfig(seed=-3).validate()


def test_vocab_unk_threshold():
    roots = [chain_tree(["A", "A", "B"]).root, chain_tree(["A", "C"]).root]
    vocab = build_type_value_vocab(roots, min_freq=2)
    assert "A" in vocab and vocab["<UNK>"] == 0
    assert "B" not in vocab and "C" not in vocab
