import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basts.autodiff as ad
from basts import summarizer
from basts.autodiff import Adam, NaNError, Tensor
from basts.cli import CorpusRecord, RunConfig, preprocess, train_summarizer
from basts.frontend import AstNode
from basts.metrics import corpus_bleu
from basts.splitter import SplitAst
from basts.summarizer import (
    AttentionParams,
    EmptyInputError,
    SummarizationExample,
    SummarizerModel,
    TransformerParams,
    Vocab,
    decoder_logits,
    encode,
    encode_batch,
    greedy_decode,
    memory_kv,
    multi_head_attention,
    positional_matrix,
    train_step,
)
from basts.syntax_encoder import (
    SepModel,
    SubtreeIndex,
    TreeLstmParams,
    build_type_value_vocab,
    encode_trees,
    sep_loss,
)
from conftest import assert_same_state, optimizer_state
from oracles import (
    allowed_block,
    avg_pool,
    grad_check,
    memory_rows,
    multi_head_attention_per_head,
    positional_encoding,
    row_softmax,
    train_loss_per_example,
)
from toydata import SUMMARIZATION_ROWS

from minigen import generate_records
from workloads import MEDIUM_PROFILE, PREP_PROFILE, SMALL_PROFILE


def make_model(size=8, heads=2, enc=1, dec=1, code_vocab=12, word_vocab=10, seed=0):
    rng = np.random.default_rng(seed)
    tree = TreeLstmParams.init({"<UNK>": 0, "A": 1, "B": 2}, size, rng)
    transformer = TransformerParams.init(code_vocab, word_vocab, size, heads,
                                         enc, dec, rng)
    return SummarizerModel(tree, transformer)


def make_example(code_ids=(7, 8, 9, 4), comment_ids=(1, 7, 8, 2)):
    ast = SplitAst(0, AstNode("A", children=[AstNode("B")]))
    return SummarizationExample(list(code_ids), [ast], list(comment_ids))


def rows(*vectors):
    return Tensor(np.asarray(vectors, dtype=float))


class TestVocab:
    def test_specials_first_and_distinct(self):
        v = Vocab.build([["foo", "bar", "foo"]])
        assert v.id_to_token[:7] == [
            "<PAD>", "<BOS>", "<EOS>", "<UNK>", "<NUM>", "<STR>", "<BOOL>",
        ]
        assert v.encode(["foo", "bar", "nope"]) == [7, 8, Vocab.UNK]

    def test_placeholders_map_to_their_special_ids(self):
        v = Vocab.build([["<NUM>", "x"]])
        assert v.encode(["<NUM>"]) == [4]

    def test_bijection(self):
        v = Vocab.build([["a", "b", "c"]])
        ids = v.encode(["a", "b", "c"])
        assert v.decode(ids) == ["a", "b", "c"]
        assert len(set(ids)) == 3


class TestAvgPool:
    def test_single_embedding_identity(self):
        assert np.array_equal(avg_pool(rows([1.0, 3.0])).data, [1.0, 3.0])

    def test_two_vector_mean(self):
        pooled = avg_pool(rows([1.0, 3.0], [3.0, 1.0]))
        assert np.array_equal(pooled.data, [2.0, 2.0])

    def test_constant_idempotence(self):
        pooled = avg_pool(rows(*[[0.5, -2.0]] * 5))
        assert np.allclose(pooled.data, [0.5, -2.0], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 7, 16])
    def test_matches_sequential_mean(self, n):
        values = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 6))
        total = values[0].copy()
        for row in values[1:]:
            total = total + row
        assert np.max(np.abs(avg_pool(Tensor(values)).data - total / n)) <= 1e-15

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            avg_pool(Tensor(np.zeros((0, 2))))


class TestPositionalEncoding:
    def test_position_zero(self):
        assert positional_encoding(0, 0, 64) == 0.0
        assert positional_encoding(0, 2, 64) == 0.0
        assert positional_encoding(0, 1, 64) == 1.0
        assert positional_encoding(0, 3, 64) == 1.0

    def test_direct_values(self):
        assert abs(positional_encoding(3, 0, 64) - math.sin(3.0)) < 1e-15
        assert abs(positional_encoding(3, 0, 64) - 0.1411200080598672) < 1e-12
        expected = math.cos(1.0 / 10000.0 ** (1.0 / 64.0))
        assert abs(positional_encoding(1, 1, 64) - expected) < 1e-15

    def test_matrix_matches_scalar_form(self):
        mat = positional_matrix(100, 64)
        for d in (0, 1, 7, 50, 99):
            for l in (0, 1, 2, 33, 63):
                assert abs(mat[d, l] - positional_encoding(d, l, 64)) <= 1e-12


class TestMultiHeadAttention:
    def _params(self, size, seed=0, wo_identity=False):
        params = AttentionParams.statement(size).draw(np.random.default_rng(seed))
        if wo_identity:
            params.wo.data[...] = np.eye(size)
        return params

    def test_identical_value_rows_exactly(self):
        size = 6
        params = self._params(size, wo_identity=True)
        row = np.linspace(-1.0, 1.0, size)
        x_kv = Tensor(np.tile(row, (4, 1)))
        x_q = Tensor(np.random.default_rng(1).normal(size=(3, size)))
        kv = ad.matmul(x_kv, params.wk), ad.matmul(x_kv, params.wv)
        out = multi_head_attention(x_q, params, heads=2, lengths=[(3, 4)], kv=kv)
        expected = row @ params.wv.data
        for r in out.data:
            assert np.allclose(r, expected, atol=1e-12)

    def test_single_position_is_bitwise_exact(self):
        size = 4
        params = self._params(size, wo_identity=True)
        x = Tensor(np.random.default_rng(2).normal(size=(1, size)))
        out = multi_head_attention(x, params, heads=1, lengths=[(1, 1)])
        assert np.array_equal(out.data, x.data @ params.wv.data)

    def test_two_by_two_single_head_hand_computed(self):
        size = 2
        params = self._params(size, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2))
        q = x @ params.wq.data
        k = x @ params.wk.data
        v = x @ params.wv.data
        scores = q @ k.T / math.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        expected = (attn @ v) @ params.wo.data
        out = multi_head_attention(Tensor(x), params, heads=1, lengths=[(2, 2)])
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 4))
        attn = row_softmax(Tensor(x @ x.T))
        assert np.max(np.abs(attn.data.sum(axis=1) - 1.0)) <= 1e-12

    def test_causal_mask_blocks_keys_above_the_diagonal(self):
        params = self._params(4, seed=3)
        x = np.random.default_rng(4).normal(size=(5, 4))
        lengths = [(2, 2), (3, 3)]
        base = multi_head_attention(Tensor(x), params, 2, lengths, causal=True).data
        # row i of each sequence sees rows 0..i of that sequence only
        for later, earlier in ((1, [0]), (3, [2]), (4, [2, 3])):
            moved = x.copy()
            moved[later] += 5.0
            out = multi_head_attention(Tensor(moved), params, 2, lengths, causal=True).data
            assert np.array_equal(out[earlier], base[earlier])
            assert not np.array_equal(out[later], base[later])
        block = ad._causal(3)
        assert np.array_equal(block, [[0.0, -np.inf, -np.inf],
                                      [0.0, 0.0, -np.inf],
                                      [0.0, 0.0, 0.0]])
        assert not np.signbit(block[np.isfinite(block)]).any()  # +0.0, not -0.0
        assert not block.flags.writeable
        assert ad._causal(3) is block


class TestEncode:
    def test_zero_layers_is_code_then_split_rows_plus_positions(self):
        model = make_model(enc=0, dec=0)
        ex = make_example()
        ex.split_asts = ex.split_asts + [SplitAst(1, AstNode("B"))]
        out = encode_batch([ex], model)[0]
        t = model.transformer
        rows = np.concatenate([t.code_embedding.data[ex.code_ids],
                               encode_trees(ex.split_asts, model.tree).data])
        expected = rows + positional_matrix(memory_rows(ex), t.size)
        assert out.shape == (6, 8)
        assert np.array_equal(out.data, expected)

    def test_output_shape_for_any_layer_count(self):
        for enc in (0, 1, 2):
            model = make_model(enc=enc)
            out = encode_batch([make_example()], model)[0]
            assert out.shape == (5, 8)  # 4 code rows, 1 split row

    def test_one_layer_matches_manual_composition(self):
        model = make_model(size=2, heads=1, enc=1, dec=0, seed=11)
        ex = make_example(code_ids=(7, 8, 9), comment_ids=(1, 7, 2))
        t = model.transformer
        layer = t.enc[0]

        root = encode_trees(ex.split_asts, model.tree).data
        tok = t.code_embedding.data[np.asarray(ex.code_ids)]
        x = np.concatenate([tok, root]) + positional_matrix(4, 2)

        q, k, v = (x @ w.data for w in (layer.attn.wq, layer.attn.wk, layer.attn.wv))
        scores = q @ k.T / math.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attended = (e / e.sum(axis=1, keepdims=True)) @ v @ layer.attn.wo.data

        def ln(m, p):
            mu = m.mean(axis=1, keepdims=True)
            var = m.var(axis=1, keepdims=True)
            return (m - mu) / np.sqrt(var + 1e-6) * p.gain.data + p.bias.data

        x = ln(x + attended, layer.ln1)
        hidden = np.maximum(x @ layer.ffn.w1.data + layer.ffn.b1.data, 0.0)
        x = ln(x + hidden @ layer.ffn.w2.data + layer.ffn.b2.data, layer.ln2)

        out = encode_batch([ex], model)[0]
        assert np.allclose(out.data, x, atol=1e-12)

    def test_stack_restarts_positions_and_attends_within_each_example(self):
        model = make_model(enc=2, seed=5)
        x = np.random.default_rng(5).normal(size=(7, 8))
        packed = encode(Tensor(x), [3, 4], model).data
        for lo, hi in ((0, 3), (3, 7)):
            alone = encode(Tensor(x[lo:hi]), [hi - lo], model).data
            assert np.max(np.abs(packed[lo:hi] - alone)) <= 1e-12
        bare = make_model(enc=0, seed=5)
        assert np.array_equal(encode(Tensor(x), [3, 4], bare).data,
                              x + np.concatenate([positional_matrix(3, 8),
                                                  positional_matrix(4, 8)]))


def corpus_and_model(records, config):
    """Records {id, code, comment}, preprocessed, and a fresh model at `config`."""
    corpus = preprocess(
        [CorpusRecord(r["id"], r["code"], r["comment"]) for r in records], config
    )
    roots = [a.root for r in corpus.records for a in r.splits.asts]
    vocab = build_type_value_vocab(roots, min_freq=config.type_value_min_freq)
    rng = np.random.default_rng(0)
    model = SummarizerModel(
        TreeLstmParams.init(vocab, config.embedding_size, rng),
        TransformerParams.init(
            len(corpus.code_vocab), len(corpus.word_vocab), config.embedding_size,
            config.heads, config.encoder_layers, config.decoder_layers, rng,
        ),
    )
    return corpus, model


def toy_corpus_and_model():
    """The 16 toy rows, preprocessed, and a fresh model at the default config."""
    return corpus_and_model(SUMMARIZATION_ROWS, RunConfig())


class TestPreprocessedExamples:
    """Packed batches carry no padding masks, which rests on what `preprocess` yields."""

    # seeds 1-5 of each bench profile; about 1.5 s in all
    @pytest.mark.parametrize("label, profile, count", [
        ("toy", None, None),
        ("prep-large", PREP_PROFILE, 20),
        ("pretrain-sep", MEDIUM_PROFILE, 60),
        ("summarize-small", SMALL_PROFILE, 60),
    ], ids=["toy", "prep-large", "pretrain-sep", "summarize-small"])
    def test_no_pad_ids_and_no_empty_code(self, label, profile, count):
        if profile is None:
            records = SUMMARIZATION_ROWS
        else:
            records = [r for seed in range(1, 6)
                       for r in generate_records(label, seed, count, profile)]
        corpus = preprocess(
            [CorpusRecord(r["id"], r["code"], r["comment"]) for r in records], RunConfig())
        assert len(corpus.examples) == len(records)
        for example in corpus.examples:
            assert example.code_ids
            assert Vocab.PAD not in example.code_ids
            assert Vocab.PAD not in example.comment_ids


class GradientRecorder:
    """Stands in for Adam in `train_step`: keeps each parameter's gradient."""

    def __init__(self, params):
        self.params = params
        self.grads = None

    def step(self):
        self.grads = [None if p.grad is None else p.grad.copy() for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def assert_step_matches_oracle(batch, model, freeze_tree):
    """The packed `train_step` against `train_loss_per_example`.

    With `freeze_tree` the tree's parameters do not require grad over
    both. The loss agrees within 1e-10 relative and every gradient within
    1e-10 of its largest entry. The model is left as it was: no update,
    no grads, every parameter requiring grad.
    """
    params = model.all_params()
    recorder = GradientRecorder(params)
    for p in model.tree.all_params():
        p.requires_grad = not freeze_tree
    try:
        loss = train_step(batch, model, recorder)
        with ad.Tape() as tape:
            ref = train_loss_per_example(batch, model)
            ad.backward(tape, ref)
    finally:
        for p in model.tree.all_params():
            p.requires_grad = True
    ref_grads = [p.grad for p in params]
    recorder.zero_grad()

    assert abs(loss - ref.item()) <= 1e-10 * abs(ref.item())
    for (name, _), g, r in zip(model.named_params(), recorder.grads, ref_grads):
        if r is None:
            assert freeze_tree and name.startswith("tree.") and g is None, name
            continue
        assert np.max(np.abs(g - r)) <= 1e-10 * np.max(np.abs(r)), name


@pytest.fixture(scope="module")
def minigen_pool():
    """24 summarize-small methods from the bench generator, at L=8 and 2 heads."""
    records = generate_records("summarize-small", 11, 24, SMALL_PROFILE)
    corpus, model = corpus_and_model(records, RunConfig(embedding_size=8, heads=2))
    assert len(corpus.examples) == 24
    return corpus, model


class TestBatchedEncode:
    @pytest.mark.parametrize("freeze_tree", [False, True])
    def test_train_step_matches_per_example_oracle(self, freeze_tree):
        corpus, model = toy_corpus_and_model()
        assert len(corpus.examples) == 16
        assert_step_matches_oracle(corpus.examples, model, freeze_tree)

    @pytest.mark.parametrize("freeze_tree", [False, True])
    @pytest.mark.parametrize("picks", [[14], [8, 14, 6]])
    def test_small_batches_match_per_example_oracle(self, picks, freeze_tree):
        # code lengths 13, 57 and 18, comment lengths 7, 7 and 8
        corpus, model = toy_corpus_and_model()
        assert_step_matches_oracle([corpus.examples[i] for i in picks], model, freeze_tree)

    # 60 batches of 1 to 16 methods, repeats allowed; about 4 s
    @settings(max_examples=60)
    @given(picks=st.lists(st.integers(0, 23), min_size=1, max_size=16),
           freeze_tree=st.booleans())
    def test_minigen_batches_match_per_example_oracle(self, minigen_pool, picks,
                                                      freeze_tree):
        corpus, model = minigen_pool
        assert_step_matches_oracle([corpus.examples[i] for i in picks], model, freeze_tree)

    def test_greedy_decode_matches_per_head_path(self, monkeypatch):
        corpus, model = toy_corpus_and_model()
        opt = Adam(model.all_params(), lr=3e-3)
        for _ in range(20):  # before about 15 steps, every example decodes alike
            train_step(corpus.examples, model, opt)
        decoded = [greedy_decode(ex, model, max_len=12) for ex in corpus.examples]

        def per_head(x, params, heads, lengths, kv=None, causal=False):  # lengths to blocks
            return multi_head_attention_per_head(
                x, params, heads, [allowed_block(n, m, causal) for n, m in lengths], kv)

        monkeypatch.setattr(summarizer, "multi_head_attention", per_head)
        assert decoded == [greedy_decode(ex, model, max_len=12) for ex in corpus.examples]
        assert len({tuple(ids) for ids in decoded}) > 1

    def test_batch_rows_match_single_example_encodes(self):
        model = make_model(enc=2, seed=8)
        batch = [make_example(), make_example(code_ids=(9, 4, 7)),
                 make_example(code_ids=(8, 8, 10, 11, 4))]
        batch[1].split_asts = batch[1].split_asts * 3
        memory, lengths = encode_batch(batch, model)
        offsets = [0, 5, 11, 17]
        assert lengths == [memory_rows(ex) for ex in batch] == [5, 6, 6]
        assert memory.shape == (17, 8)
        for b, ex in enumerate(batch):
            rows = memory.data[offsets[b]:offsets[b + 1]]
            assert np.max(np.abs(rows - encode_batch([ex], model)[0].data)) <= 1e-12

    def test_each_example_holds_its_code_rows_then_its_split_roots(self):
        # with no encoder layer the memory is the encoder's input rows
        model = make_model(enc=0, seed=8)
        shapes = [AstNode("A"), AstNode("B"), AstNode("A", children=[AstNode("B")]),
                  AstNode("B", children=[AstNode("A")]),
                  AstNode("A", children=[AstNode("A"), AstNode("B")])]
        batch = [make_example(), make_example(code_ids=(9, 4, 7)),
                 make_example(code_ids=(8, 10))]
        batch[0].split_asts = [SplitAst(0, shapes[4])]
        batch[1].split_asts = [SplitAst(i, shapes[i]) for i in (0, 2, 3)]
        batch[2].split_asts = [SplitAst(0, shapes[1]), SplitAst(1, shapes[0])]
        memory, lengths = encode_batch(batch, model)
        assert lengths == [4 + 1, 3 + 3, 2 + 2]
        t = model.transformer
        roots = encode_trees([a for ex in batch for a in ex.split_asts], model.tree).data
        at = root_at = 0
        for ex, n in zip(batch, lengths):
            k = len(ex.split_asts)
            rows = np.concatenate([t.code_embedding.data[ex.code_ids],
                                   roots[root_at:root_at + k]])
            expected = rows + positional_matrix(n, t.size)
            assert np.array_equal(memory.data[at:at + n], expected)
            at, root_at = at + n, root_at + k
        assert at == memory.shape[0]

    def test_example_without_split_asts_raises(self):
        model = make_model()
        empty = SummarizationExample([7, 8], [], [1, 7, 2])
        with pytest.raises(EmptyInputError, match="example 1"):
            train_step([make_example(), empty], model, Adam(model.all_params()))

    def test_fully_masked_example_is_named_by_its_batch_index(self):
        # without code tokens, the comment's cross-attention would have no key
        model = make_model(enc=1, dec=1)
        batch = [make_example(), make_example(code_ids=(9, 4, 7)), make_example(code_ids=())]
        with pytest.raises(EmptyInputError, match="^example 2 of the batch has no code tokens$"):
            train_step(batch, model, Adam(model.all_params()))
        assert all(p.grad is None for p in model.all_params())


def _non_finite_step():
    model = make_model()
    model.transformer.out_b.data[...] = np.nan
    with np.errstate(invalid="ignore"):
        train_step([make_example()], model, Adam(model.all_params(), lr=1e-3))


def _no_pairs_sep_loss():
    tree = TreeLstmParams.init({"<UNK>": 0}, 4, np.random.default_rng(0))
    sep_loss([], SepModel.init(tree, np.random.default_rng(1)))


class TestEmptyAndNonFiniteInputs:
    @pytest.mark.parametrize("act, error, message", [
        (lambda: train_step([], make_model(), Adam(make_model().all_params(), lr=1e-3)),
         EmptyInputError, "train_step needs a non-empty batch"),
        (_non_finite_step, NaNError, "non-finite loss nan"),
        (_no_pairs_sep_loss, ValueError, "sep_loss needs at least one pair"),
        (lambda: corpus_bleu([]), ValueError, "corpus_bleu needs at least one pair"),
    ], ids=["empty batch", "non-finite loss", "sep_loss on no pairs",
            "corpus_bleu on no pairs"])
    def test_exact_error(self, act, error, message):
        with pytest.raises(error) as err:
            act()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_a_non_finite_loss_updates_no_parameter(self):
        model = make_model()
        model.transformer.out_b.data[0] = np.inf
        before = [p.data.copy() for p in model.all_params()]
        opt = Adam(model.all_params(), lr=1e-3)
        with pytest.raises(NaNError), np.errstate(invalid="ignore"):
            train_step([make_example()], model, opt)
        for old, p in zip(before, model.all_params()):
            assert np.array_equal(old, p.data, equal_nan=True)

    @pytest.mark.parametrize("steps_before", [0, 1])
    def test_a_nan_code_embedding_stops_the_step(self, steps_before):
        # the NaN code rows reach the encoder, so the loss is NaN
        model = make_model()
        opt = Adam(model.all_params(), lr=1e-3)
        for _ in range(steps_before):
            train_step([make_example()], model, opt)
        model.transformer.code_embedding.data[...] = np.nan
        before = optimizer_state(opt)
        with pytest.raises(NaNError) as err:
            train_step([make_example()], model, opt)
        assert str(err.value) == "non-finite loss nan"
        assert_same_state(before, optimizer_state(opt))


class TestTrainStep:
    def test_uniform_distribution_loss_is_log_vocab(self):
        model = make_model(word_vocab=13)
        for p in model.all_params():
            p.data[...] = 0.0
        opt = Adam(model.all_params(), lr=1e-3)
        loss = train_step([make_example()], model, opt)
        assert abs(loss - math.log(13)) < 1e-12

    def test_duplicated_example_same_loss(self):
        ex = make_example()
        loss_one = train_step([ex], make_model(seed=4),
                              Adam(make_model(seed=4).all_params(), lr=1e-3))
        model = make_model(seed=4)
        loss_two = train_step([ex, ex], model, Adam(model.all_params(), lr=1e-3))
        assert abs(loss_one - loss_two) < 1e-12

    def test_repeated_steps_reduce_loss(self):
        model = make_model()
        ex = make_example()
        opt = Adam(model.all_params(), lr=1e-3)
        first = train_step([ex], model, opt)
        for _ in range(60):
            last = train_step([ex], model, opt)
        assert last < first * 0.5

    def test_freeze_tree_leaves_tree_params_untouched(self):
        model = make_model()
        before = model.tree.embedding.data.copy()
        for p in model.tree.all_params():
            p.requires_grad = False
        opt = Adam(model.all_params(), lr=1e-2)
        for _ in range(3):
            train_step([make_example()], model, opt)
        assert np.array_equal(model.tree.embedding.data, before)
        assert not np.array_equal(
            model.transformer.code_embedding.data.copy(), np.zeros((12, 8))
        )

    def test_end_to_end_gradients(self):
        model = make_model(size=8, heads=2, enc=1, dec=1, seed=21)
        ex = make_example(code_ids=(7, 8, 9, 10, 4), comment_ids=(1, 7, 8, 9, 2))

        def f(_):
            memory = encode_batch([ex], model)[0]
            inputs = [ex.comment_ids[:-1]]
            logits = decoder_logits(inputs, memory_kv(memory, model), [memory_rows(ex)],
                                    model)
            return ad.cross_entropy_logits(logits, ex.comment_ids[1:])

        targets = {
            "code_embedding": model.transformer.code_embedding,
            "enc_wq": model.transformer.enc[0].attn.wq,
            "dec_cross_wv": model.transformer.dec[0].cross_attn.wv,
            "ln_gain": model.transformer.enc[0].ln1.gain,
            "tree_wu": model.tree.wu,
            "tree_virtual": model.tree.virtual,
        }
        for name, param in targets.items():
            report = grad_check(f, param)
            assert report.passed, (name, report)


class TestCostGates:
    """The exact, machine-independent op count of one step, and its
    allocation peak, pinned against regressions."""

    # the 16 toy rows as one packed batch at the default config: L=64, 4 heads,
    # 2+2 layers; one of them is the tree fold of all the batch's split ASTs
    TRAIN_STEP_OPS = 80
    # the same step with the tree's parameters not requiring grad: the fold
    # records nothing
    TRAIN_STEP_FROZEN_OPS = 79
    # the tracemalloc peak of that step, in MiB: it reads 12.7 when each node
    # keeps only what its backward reads, 19.0 when nodes keep their inputs
    TRAIN_STEP_PEAK_MIB = 14

    def test_train_step_peak_memory(self):
        corpus, model = toy_corpus_and_model()
        optimizer = Adam(model.all_params())
        tracemalloc.start()
        try:
            train_step(corpus.examples, model, optimizer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.TRAIN_STEP_PEAK_MIB * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_train_step_op_count(self, monkeypatch):
        corpus, model = toy_corpus_and_model()
        recorded = []

        def counting_backward(tape, loss):
            recorded.append(len(tape.nodes))
            ad.backward(tape, loss)

        monkeypatch.setattr(summarizer, "backward", counting_backward)
        train_step(corpus.examples, model, Adam(model.all_params()))
        assert len(corpus.examples) == 16
        assert recorded == [self.TRAIN_STEP_OPS]

    def test_frozen_train_step_op_count(self, monkeypatch):
        corpus, model = toy_corpus_and_model()
        for p in model.tree.all_params():
            p.requires_grad = False
        before = [p.data.copy() for p in model.tree.all_params()]
        recorded = []

        def counting_backward(tape, loss):
            recorded.append(len(tape.nodes))
            ad.backward(tape, loss)

        monkeypatch.setattr(summarizer, "backward", counting_backward)
        train_step(corpus.examples, model, Adam(model.all_params()))
        assert recorded == [self.TRAIN_STEP_FROZEN_OPS]
        for p, data in zip(model.tree.all_params(), before):
            assert p.grad is None and np.array_equal(p.data, data)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_is_five_ops_at_any_head_count(self, heads):
        params = AttentionParams.statement(8).draw(np.random.default_rng(heads))
        x = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
        with ad.Tape() as tape:
            multi_head_attention(x, params, heads, [(5, 5)], causal=True)
        assert len(tape.nodes) == 5

    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_attention_is_five_ops_at_any_batch_size(self, batch):
        params = AttentionParams.statement(8).draw(np.random.default_rng(batch))
        lengths = [2 + b % 5 for b in range(batch)]
        x = Tensor(np.random.default_rng(0).normal(size=(sum(lengths), 8)))
        with ad.Tape() as tape:
            multi_head_attention(x, params, 2, [(n, n) for n in lengths], causal=True)
        assert len(tape.nodes) == 5

    @pytest.mark.parametrize("max_len", [1, 12])
    def test_greedy_decode_builds_masks_and_memory_kv_once(self, monkeypatch, max_len):
        model = make_model(enc=1, dec=2, seed=13)
        model.transformer.out_b.data[Vocab.EOS] = -1e9  # every step runs
        cross_weights = {id(w) for layer in model.transformer.dec
                         for w in (layer.cross_attn.wk, layer.cross_attn.wv)}
        projections, steps = [], []

        def counting_matmul(a, b, matmul=ad.matmul):
            if id(b) in cross_weights:
                projections.append(id(b))
            return matmul(a, b)

        def counting_decoder_logits(*args, decoder_logits=decoder_logits):
            steps.append(1)
            return decoder_logits(*args)

        monkeypatch.setattr(ad, "matmul", counting_matmul)
        monkeypatch.setattr(summarizer, "decoder_logits", counting_decoder_logits)
        ad._causal.cache_clear()
        assert len(greedy_decode(make_example(), model, max_len=max_len)) == max_len
        assert len(steps) == max_len
        # each decoder layer's K and V, projected once, layer by layer
        assert projections == [id(w) for layer in model.transformer.dec
                               for w in (layer.cross_attn.wk, layer.cross_attn.wv)]
        # step s's causal block is built once, on the step's first decoder
        # layer, and a second comment reuses every one
        info = ad._causal.cache_info()
        assert (info.misses, info.currsize) == (max_len, max_len)
        greedy_decode(make_example(), model, max_len=max_len)
        assert ad._causal.cache_info().misses == max_len

    @staticmethod
    def interned_trees(monkeypatch) -> list[int]:
        """The `id` of every tree a `SubtreeIndex` interns from now on."""
        interned = []

        def counting_intern(index, tree, intern=SubtreeIndex._intern):
            interned.append(id(tree))
            return intern(index, tree)

        monkeypatch.setattr(SubtreeIndex, "_intern", counting_intern)
        return interned

    def test_training_interns_each_split_ast_once(self, monkeypatch):
        config = RunConfig(embedding_size=8, heads=2, encoder_layers=1,
                           decoder_layers=1, batch_size=4, epochs=3)
        corpus, model = corpus_and_model(SUMMARIZATION_ROWS, config)
        interned = self.interned_trees(monkeypatch)
        assert len(train_summarizer(corpus.examples, model, config)) == 3
        # 12 steps fold every tree three times; the tree encoder's index
        # walks each one once
        trees = [id(t) for ex in corpus.examples for t in ex.split_asts]
        assert sorted(interned) == sorted(trees)

    def test_decoding_twice_interns_the_trees_once(self, monkeypatch):
        corpus, model = corpus_and_model(SUMMARIZATION_ROWS, RunConfig(
            embedding_size=8, heads=2, encoder_layers=1, decoder_layers=1))
        example = max(corpus.examples, key=lambda ex: len(ex.split_asts))
        assert len(example.split_asts) >= 3
        interned = self.interned_trees(monkeypatch)
        assert greedy_decode(example, model, 4) == greedy_decode(example, model, 4)
        assert interned == [id(t) for t in example.split_asts]


class TestCausality:
    def test_future_target_perturbation_is_invisible(self):
        rng = np.random.default_rng(77)
        for trial in range(5):
            model = make_model(seed=trial)
            ex = make_example()
            memory, lengths = encode_batch([ex], model)
            kv = memory_kv(memory, model)
            ids = [1, 7, 8, 9, 7]
            base = decoder_logits([ids], kv, lengths, model).data
            s = int(rng.integers(1, len(ids)))
            perturbed_ids = list(ids)
            perturbed_ids[s] = 4 if ids[s] != 4 else 5
            perturbed = decoder_logits([perturbed_ids], kv, lengths, model).data
            assert np.array_equal(base[:s], perturbed[:s])
            assert not np.array_equal(base[s:], perturbed[s:])


class TestMemoryRowSeam:
    """`encode_batch` states each example's memory rows once, so an encoder
    that adds rows replaces it alone: `train_step` and `greedy_decode`
    hand the decoder the row counts it returns."""

    @staticmethod
    def one_zero_row_more(encode_rows):
        """`encode_rows` with one zero row appended to each example's memory."""

        def encode_batch(batch, model):
            memory, lengths = encode_rows(batch, model)
            table = ad.concat([memory, Tensor(np.zeros((1, memory.shape[1])))])
            ends = np.cumsum(lengths)
            rows = [i for end, n in zip(ends, lengths)
                    for i in [*range(end - n, end), memory.shape[0]]]
            return ad.embedding_lookup(table, rows), [n + 1 for n in lengths]

        return encode_batch

    def test_added_rows_reach_every_decoder_call(self, monkeypatch):
        batch = [make_example(), make_example(code_ids=(9, 4, 7))]
        model, twin = make_model(enc=1, dec=2, seed=5), make_model(enc=1, dec=2, seed=5)
        rows = encode_batch(batch, twin)[1]
        plain = train_step(batch, twin, Adam(twin.all_params(), lr=3e-3))
        seen = []

        def spy(target_ids, kv, memory_lengths, model):
            seen.append((len(target_ids), list(memory_lengths), kv[0][0].shape[0]))
            return decoder_logits(target_ids, kv, memory_lengths, model)

        monkeypatch.setattr(summarizer, "encode_batch",
                            self.one_zero_row_more(summarizer.encode_batch))
        monkeypatch.setattr(summarizer, "decoder_logits", spy)
        loss = train_step(batch, model, Adam(model.all_params(), lr=3e-3))
        assert rows == [5, 4]  # code rows, then one split row
        assert seen == [(2, [6, 5], 11)]
        assert math.isfinite(loss) and loss != plain  # the zero rows were attended

        seen.clear()
        out = greedy_decode(batch[1], model, max_len=3)
        assert len(seen) == min(len(out) + 1, 3)
        assert all(counts == [5] and total == 5 for _, counts, total in seen)


class TestGreedyDecode:
    def test_zero_params_emit_eos_immediately(self):
        model = make_model()
        for p in model.all_params():
            p.data[...] = 0.0
        assert greedy_decode(make_example(), model) == []

    def test_never_emits_pad_or_bos(self):
        model = make_model(seed=13)
        out = greedy_decode(make_example(), model, max_len=12)
        assert Vocab.PAD not in out
        assert Vocab.BOS not in out

    def test_max_len_one(self):
        model = make_model(seed=13)
        out = greedy_decode(make_example(), model, max_len=1)
        assert len(out) <= 1
        # no step runs
        assert greedy_decode(make_example(), model, max_len=0) == []
        assert greedy_decode(make_example(), model, max_len=-3) == []

    def test_deterministic(self):
        model = make_model(seed=17)
        ex = make_example()
        assert greedy_decode(ex, model) == greedy_decode(ex, model)

    def test_overfit_single_example_reproduces_gold(self):
        model = make_model(seed=3)
        ex = make_example(code_ids=(7, 8, 9), comment_ids=(1, 7, 9, 8, 2))
        opt = Adam(model.all_params(), lr=3e-3)
        for _ in range(150):
            train_step([ex], model, opt)
        assert greedy_decode(ex, model) == [7, 9, 8]
