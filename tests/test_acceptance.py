"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Tolerances and runtime budgets are asserted, not just
reported.
"""

import json
import math
import time

import numpy as np

import basts.autodiff as ad
from basts.autodiff import Adam, Tensor
from basts.cli import CorpusRecord, RunConfig, preprocess, run
from basts.dominators import brute_force_dominators, compute_dominators
from basts.frontend import AstNode
from basts.metrics import (
    corpus_bleu,
    meteor_lite,
    rouge_l,
    rouge_n,
    sentence_bleu,
)
from basts.splitter import SplitAst, split_method
from basts.summarizer import (
    AttentionParams,
    SummarizationExample,
    SummarizerModel,
    TransformerParams,
    decoder_logits,
    encode_batch,
    greedy_decode,
    memory_kv,
    multi_head_attention,
    positional_matrix,
    train_step,
)
from basts.syntax_encoder import (
    PairExample,
    PretrainConfig,
    SepModel,
    TreeLstmParams,
    build_type_value_vocab,
    encode_tree,
    pretrain,
    sep_loss,
)
from conftest import parse_source, random_reachable_cfg
from oracles import grad_check, positional_encoding, row_softmax, tree_lstm_cell
from toydata import PRETRAIN_SOURCES, SUMMARIZATION_ROWS


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_dominator_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(13)
    mismatches = 0
    for _ in range(200):
        cfg = random_reachable_cfg(rng, max_nodes=15)
        tree = compute_dominators(cfg)
        oracle = brute_force_dominators(cfg)
        for node, dom_set in oracle.items():
            if tree.dominator_set(node) != dom_set:
                mismatches += 1
    elapsed = time.time() - start
    report(
        1, "dominator correctness",
        mismatches == 0 and elapsed < 10.0,
        f"200 graphs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_golden_split_counts():
    idle = split_method(parse_source(PRETRAIN_SOURCES[0]))
    straight = split_method(
        parse_source("int f(int a) { int b = a + 1; b = b * 2; return b; }")
    )
    ok = (
        len(idle.graph.splits) == 6
        and len(idle.graph.successor_edges) == 5
        and len(straight.graph.splits) == 1
    )
    report(
        2, "golden split",
        ok,
        f"loop method: {len(idle.graph.splits)} splits / "
        f"{len(idle.graph.successor_edges)} edges; "
        f"straight-line: {len(straight.graph.splits)} split",
    )


def test_criterion_3_gradient_fidelity():
    start = time.time()
    worst = {}

    # (a) one cell application
    cell_params = TreeLstmParams.init(
        {"<UNK>": 0, "A": 1}, 6, np.random.default_rng(41)
    )
    rng = np.random.default_rng(42)
    x = Tensor(rng.normal(size=6))
    kids = [(Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6)))
            for _ in range(2)]

    def cell_loss(_):
        h, _m = tree_lstm_cell(x, kids, cell_params)
        return ad.sum_(ad.mul(h, h))

    worst["cell"] = max(
        grad_check(cell_loss, p).max_rel_error for p in cell_params.all_params()
    )

    # (b) a ten-node tree through the full recursion
    tree_params = TreeLstmParams.init(
        {"<UNK>": 0, "A": 1, "B": 2, "C": 3}, 4, np.random.default_rng(43)
    )
    labels = ["A", "B", "C", "A", "B", "C", "A", "B", "C", "A"]
    nodes = [AstNode(lab) for lab in labels]
    for i in range(1, 10):
        nodes[(i - 1) // 2].children.append(nodes[i])
    ten_node_tree = SplitAst(0, nodes[0])

    def tree_loss(_):
        emb = encode_tree(ten_node_tree, tree_params)
        return ad.sum_(ad.mul(emb, emb))

    worst["tree"] = max(
        grad_check(tree_loss, p).max_rel_error for p in tree_params.all_params()
    )

    # (c) pair loss end to end
    sep = SepModel.init(tree_params, np.random.default_rng(44))
    other = SplitAst(1, AstNode("B", children=[AstNode("C")]))
    pairs = [
        PairExample(ten_node_tree, other, 1),
        PairExample(other, ten_node_tree, 0),
    ]

    def pair_loss(_):
        return sep_loss(pairs, sep)[0]

    worst["sep"] = max(
        grad_check(pair_loss, p).max_rel_error for p in sep.all_params()
    )

    # (d) one full summarizer forward, every parameter
    rng = np.random.default_rng(45)
    model = SummarizerModel(
        TreeLstmParams.init({"<UNK>": 0, "A": 1, "B": 2, "C": 3}, 8, rng),
        TransformerParams.init(14, 11, 8, 2, 1, 1, rng),
    )
    ast = SplitAst(0, AstNode("A", children=[AstNode("B"), AstNode("C")]))
    example = SummarizationExample([7, 8, 9, 10, 4], [ast], [1, 7, 8, 9, 2])

    def summarizer_loss(_):
        memory, lengths = encode_batch([example], model)
        inputs = [example.comment_ids[:-1]]
        logits = decoder_logits(inputs, memory_kv(memory, model), lengths, model)
        return ad.cross_entropy_logits(logits, example.comment_ids[1:])

    worst["summarizer"] = max(
        grad_check(summarizer_loss, p).max_rel_error
        for p in model.all_params()
    )

    elapsed = time.time() - start
    peak = max(worst.values())
    report(
        3, "gradient fidelity",
        peak < 1e-4 and elapsed < 60.0,
        "max rel err "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f"; {elapsed:.1f}s",
    )


def test_criterion_4_sep_overfit():
    start = time.time()
    corpus = [split_method(parse_source(src)) for src in PRETRAIN_SOURCES]
    assert all(len(ms.graph.splits) >= 3 for ms in corpus)
    roots = [a.root for ms in corpus for a in ms.asts]
    vocab = build_type_value_vocab(roots, min_freq=1)
    params = TreeLstmParams.init(vocab, 16, np.random.default_rng(7))
    config = PretrainConfig(learning_rate=0.01, epochs=200, batch_size=256, seed=7)
    _, history = pretrain(corpus, params, config)
    elapsed = time.time() - start

    accuracy = history[-1].accuracy
    losses = np.array([h.loss for h in history])
    window = 20
    smoothed = np.convolve(losses, np.ones(window) / window, mode="valid")
    decreasing = bool((np.diff(smoothed) < 0).all())
    report(
        4, "pre-training overfit",
        accuracy >= 0.95 and decreasing and elapsed < 120.0,
        f"pair accuracy {accuracy:.3f}, smoothed loss strictly decreasing: "
        f"{decreasing}, {elapsed:.1f}s",
    )


def test_criterion_5_summarizer_overfit():
    start = time.time()
    records = [
        CorpusRecord(r["id"], r["code"], r["comment"]) for r in SUMMARIZATION_ROWS
    ]
    config = RunConfig(seed=5)  # desk-scale defaults: L=64, H=4, 2+2 layers
    corpus = preprocess(records, config)
    assert len(corpus.examples) == 16 and not corpus.dropped

    roots = [a.root for r in corpus.records for a in r.splits.asts]
    vocab = build_type_value_vocab(roots, min_freq=1)
    model = SummarizerModel(
        TreeLstmParams.init(vocab, 64, np.random.default_rng(5)),
        TransformerParams.init(
            len(corpus.code_vocab), len(corpus.word_vocab), 64, 4, 2, 2,
            np.random.default_rng(6),
        ),
    )
    opt = Adam(model.all_params(), lr=config.learning_rate)
    rng = np.random.default_rng(5)
    loss = math.inf
    epochs = 0
    for epochs in range(1, 501):
        order = rng.permutation(len(corpus.examples))
        batch = [corpus.examples[i] for i in order]
        loss = train_step(batch, model, opt)
        if loss < 0.03:
            break

    exact = 0
    decode_pairs = []
    for example, record in zip(corpus.examples, corpus.records):
        out = greedy_decode(example, model, max_len=config.max_comment_length)
        gold = example.comment_ids[1:-1]
        exact += int(out == gold)
        id_to_word = corpus.word_vocab.decode
        decode_pairs.append((id_to_word(out), id_to_word(gold)))
    s_bleu = sum(sentence_bleu(h, r) for h, r in decode_pairs) / len(decode_pairs)
    elapsed = time.time() - start
    report(
        5, "summarizer overfit",
        loss < 0.05 and exact >= 15 and s_bleu >= 0.95 and elapsed < 600.0,
        f"loss {loss:.4f} after {epochs} epochs, {exact}/16 exact, "
        f"train S-BLEU {100 * s_bleu:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_metric_golden_values():
    identity = "close the idle connection".split()
    checks = {
        "sentence_bleu identity": sentence_bleu(identity, identity) == 1.0,
        "corpus_bleu identity": corpus_bleu([(identity, identity)]) == 1.0,
        "rouge1 identity": rouge_n(identity, identity, 1) == 1.0,
        "rouge2 identity": rouge_n(identity, identity, 2) == 1.0,
        "rougeL identity": rouge_l(identity, identity) == 1.0,
        # exact-match METEOR keeps its fragmentation penalty on identity
        "meteor identity": abs(
            meteor_lite(identity, identity) - (1.0 - 0.5 / len(identity) ** 3)
        ) < 1e-12,
        "rouge1 two-thirds": abs(
            rouge_n("a b c".split(), "a b d".split(), 1) - 2.0 / 3.0
        ) < 1e-6,
        "rougeL two-thirds": abs(
            rouge_l("a b c".split(), "a c b".split()) - 2.0 / 3.0
        ) < 1e-6,
    }
    # clipping example: one creditable 'a' out of three
    p1 = 1.0 / 3.0
    p2 = 1.0 / 3.0  # smoothed (0+1)/(2+1)
    p3 = 1.0 / 2.0  # smoothed (0+1)/(1+1)
    p4 = 1.0  # no 4-grams
    expected = min(1.0, math.exp(1 - 2 / 3)) * (p1 * p2 * p3 * p4) ** 0.25
    checks["bleu clipping"] = abs(
        sentence_bleu("a a a".split(), "a b".split()) - expected
    ) < 1e-6
    failed = [name for name, ok in checks.items() if not ok]
    report(6, "metric golden values", not failed, f"failed: {failed or 'none'}")


def test_criterion_7_positional_encoding_matrix():
    mat = positional_matrix(100, 64)
    worst = max(
        abs(mat[d, l] - positional_encoding(d, l, 64))
        for d in range(100)
        for l in range(64)
    )
    report(7, "positional encoding", worst <= 1e-12, f"max abs err {worst:.2e}")


def test_criterion_8_attention_invariants():
    rng = np.random.default_rng(55)
    # softmax rows sum to one
    x = Tensor(rng.normal(size=(7, 9)))
    sums = row_softmax(x).data.sum(axis=1)
    rows_ok = bool(np.max(np.abs(sums - 1.0)) <= 1e-12)

    # identical value rows pass through attention
    size = 6
    params = AttentionParams.statement(size).draw(rng)
    params.wo.data[...] = np.eye(size)
    row = rng.normal(size=size)
    x_kv = Tensor(np.tile(row, (5, 1)))
    x_q = Tensor(rng.normal(size=(3, size)))
    kv = ad.matmul(x_kv, params.wk), ad.matmul(x_kv, params.wv)
    out = multi_head_attention(x_q, params, 2, [(3, 5)], kv)
    expected = row @ params.wv.data
    value_ok = bool(np.max(np.abs(out.data - expected)) <= 1e-12)

    # decoder causality under target perturbation, 20 random instances
    causal_ok = True
    for trial in range(20):
        model = SummarizerModel(
            TreeLstmParams.init(
                {"<UNK>": 0, "A": 1}, 8, np.random.default_rng(trial)
            ),
            TransformerParams.init(14, 12, 8, 2, 1, 1,
                                   np.random.default_rng(100 + trial)),
        )
        ast = SplitAst(0, AstNode("A"))
        n_words = int(rng.integers(3, 7))
        ids = [1] + [int(rng.integers(4, 12)) for _ in range(n_words)]
        example = SummarizationExample([7, 8, 9], [ast], ids + [2])
        memory, lengths = encode_batch([example], model)
        kv = memory_kv(memory, model)
        base = decoder_logits([ids], kv, lengths, model).data
        s = int(rng.integers(1, len(ids)))
        perturbed = list(ids)
        perturbed[s] = 4 if ids[s] != 4 else 5
        after = decoder_logits([perturbed], kv, lengths, model).data
        if not np.array_equal(base[:s], after[:s]):
            causal_ok = False
            break
    report(
        8, "softmax/attention invariants",
        rows_ok and value_ok and causal_ok,
        f"row sums: {rows_ok}, identical-V: {value_ok}, causality: {causal_ok}",
    )


def test_criterion_9_training_determinism(tmp_path, capsys):
    corpus_path = tmp_path / "train.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for row in SUMMARIZATION_ROWS[:6]:
            fh.write(json.dumps(row) + "\n")
    config_path = tmp_path / "det.cfg"
    config_path.write_text(
        "embedding_size = 16\nheads = 2\nencoder_layers = 1\n"
        "decoder_layers = 1\nbatch_size = 4\nepochs = 3\n"
    )
    artifacts = []
    for tag in ("first", "second"):
        ckpt = tmp_path / f"{tag}.ckpt"
        log = tmp_path / f"{tag}.csv"
        code = run([
            "train", "--config", str(config_path), "--input", str(corpus_path),
            "--from-scratch", "--output", str(ckpt), "--log", str(log),
            "--seed", "3",
        ])
        assert code == 0
        artifacts.append((ckpt.read_bytes(), log.read_text()))
    capsys.readouterr()
    identical = artifacts[0] == artifacts[1]
    report(
        9, "determinism",
        identical,
        f"checkpoints identical: {artifacts[0][0] == artifacts[1][0]}, "
        f"loss logs identical: {artifacts[0][1] == artifacts[1][1]}",
    )
