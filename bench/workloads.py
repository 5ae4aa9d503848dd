"""The benchmark's three workloads: inputs, set-up, timed units and checks.

Each workload drives the public functions the `basts` CLI calls, in this
process, as a closed loop with one caller and one thread: the next call
starts when the previous one returns. Calls go through module attributes
(`cli.preprocess`, `summarizer.greedy_decode`, ...) so that a traced run
sees them through its wrappers. Why each workload exists, and what it
predicts for the optimizations it bypasses, is in NOTES.md.

A workload's work is a fixed list of units, one "pass". An untraced run
repeats units until the time budget is spent, always finishing the first
pass; a traced run does exactly one pass, so its counters are exact.
Each timed sample is kept as (key, seconds, scale, work): the unit (or
record, step, comment) it timed, and the scale from a speed probe run
right before it (see speed.py). Repeats of one key reduce to their
median, so every key counts once however many passes the time allowed.
Output checks run outside every timed region.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from basts import (autodiff, checkpoint, cli, frontend, metrics, splitter, summarizer,
                   syntax_encoder)
from basts.cfg import build_cfg
from basts.dominators import ORACLE_NODE_CAP, brute_force_dominators, compute_dominators
from basts.frontend import iter_nodes
from minigen import Profile, generate_records

PREP_PROFILE = Profile(nodes=(30, 160), max_depth=5, p_compound=0.3, p_jump=0.3,
                       max_params=3)
MEDIUM_PROFILE = Profile(nodes=(10, 36), max_depth=3, p_compound=0.35, p_jump=0.3,
                         max_params=2)
SMALL_PROFILE = Profile(nodes=(2, 8), max_depth=2, p_compound=0.3, p_jump=0.2,
                        max_params=2)

PROPERTIES = ("statements", "nesting_depth", "cfg_nodes", "splits", "split_ast_nodes",
              "split_ast_height", "code_tokens", "comment_words")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


@dataclass
class Checks:
    """Output checks; each item is one attempted check."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Outcome:
    """What a run measured. Rates and times are given raw and scaled."""

    named: dict[str, tuple[float, str]]  # scaled metric name -> (value, unit)
    raw: dict[str, float]  # the same metrics from unscaled samples
    throughput_per_s: float
    unit_ms: list[float]  # scaled per-unit times for the percentiles
    samples: dict[str, int]
    operations: int
    dropped: int


def per_key(samples) -> list[tuple[float, float, float]]:
    """(work, median scaled seconds, median raw seconds) per sample key."""
    by_key: dict = {}
    for key, seconds, scale, work in samples:
        by_key.setdefault(key, (work, [], []))
        by_key[key][1].append(seconds * scale)
        by_key[key][2].append(seconds)
    return [(work, statistics.median(scaled), statistics.median(raw))
            for work, scaled, raw in by_key.values()]


def rate(samples) -> tuple[float, float]:
    """(scaled, raw) work per second, each key counted once."""
    keys = per_key(samples)
    work = sum(k[0] for k in keys)
    return work / sum(k[1] for k in keys), work / sum(k[2] for k in keys)


def unit_ms(samples) -> tuple[list[float], list[float]]:
    """(scaled, raw) milliseconds per unit of work, one value per key."""
    keys = per_key(samples)
    return ([1000.0 * k[1] / k[0] for k in keys], [1000.0 * k[2] / k[0] for k in keys])


# --- input properties and pipeline checks -----------------------------------


def ast_height(root) -> int:
    height = 0
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        stack.extend((c, depth + 1) for c in node.children)
    return height


def nesting_depth(statements, depth: int = 0) -> int:
    deepest = depth
    for s in statements:
        inner = s.body + s.orelse
        if inner:
            deepest = max(deepest, nesting_depth(inner, depth + 1))
    return deepest


def inspect_prepared(records, props: dict, checks: Checks):
    """Record input properties, and check splits and dominators, per record.

    Every statement must land in exactly one split. Every CFG within the
    brute-force oracle's node cap must have the oracle's dominators.
    """
    for r in records:
        method = r.splits.method
        cfg = build_cfg(method)
        props["statements"].append(len(method.statements))
        props["nesting_depth"].append(nesting_depth(method.body))
        props["cfg_nodes"].append(len(cfg.nodes))
        props["splits"].append(len(r.splits.graph.splits))
        for a in r.splits.asts:
            props["split_ast_nodes"].append(sum(1 for _ in iter_nodes(a.root)))
            props["split_ast_height"].append(ast_height(a.root))
        props["code_tokens"].append(len(method.tokens))
        props["comment_words"].append(len(r.comment_words))

        placed = sorted(sid for s in r.splits.graph.splits for sid in s.statements)
        stmt_ids = sorted(n.stmt_id for n in cfg.nodes if n.stmt_id is not None)
        checks.check(placed == stmt_ids,
                     f"{r.record_id}: statements not placed in exactly one split")
        if len(cfg.nodes) <= ORACLE_NODE_CAP:
            tree = compute_dominators(cfg)
            oracle = brute_force_dominators(cfg)
            checks.check(all(tree.dominator_set(v) == oracle[v] for v in oracle),
                         f"{r.record_id}: dominator tree differs from the oracle")


# --- tracing -----------------------------------------------------------------


def _split_asts_stats(counts, result):
    for split_ast in result:
        counts["splitter.ast_trees"] += 1
        counts["splitter.ast_nodes"] += sum(1 for _ in iter_nodes(split_ast.root))
        counts["splitter.ast_height_sum"] += ast_height(split_ast.root)


def _tape_ops(layer: str):
    def count(counts, args, result):
        counts[f"{layer}.steps"] += 1
        counts[f"{layer}.tape_ops"] += len(args[0].nodes)
    return count


def _fold(counts, args, result):
    counts["syntax_encoder.trees_folded"] += 1


def install_wrappers(tracer):
    """Wrap every public function the workloads reach, at its call-site name."""
    w = tracer.wrap
    w(cli, "load_corpus", "cli.load_corpus")
    w(cli, "preprocess", "cli.preprocess",
      count=lambda c, a, r: c.update({"cli.dropped": len(r.dropped)}))
    w(cli, "tokenize", "frontend.tokenize",
      count=lambda c, a, r: c.update({"frontend.tokens": len(r)}))
    w(cli, "abstract_literals", "frontend.abstract_literals")
    w(cli, "parse_method", "frontend.parse")
    w(cli, "split_method", "splitter.split_method")
    w(splitter, "parse_method", "frontend.parse")
    w(splitter, "build_ast", "frontend.build_ast")
    w(splitter, "build_cfg", "cfg.build",
      count=lambda c, a, r: c.update({"cfg.nodes": len(r.nodes)}))
    w(splitter, "compute_dominators", "dominators.compute")
    w(splitter, "partition_blocks", "splitter.partition",
      count=lambda c, a, r: c.update({"splitter.splits": len(r.splits)}))
    w(splitter, "build_split_asts", "splitter.split_asts", deferred=_split_asts_stats)
    w(syntax_encoder, "pretrain", "syntax_encoder.pretrain")
    w(syntax_encoder, "encode_tree", "syntax_encoder.encode_tree", count=_fold)
    w(syntax_encoder, "sep_loss", "syntax_encoder.sep_loss")
    w(syntax_encoder, "backward", "autodiff.backward", count=_tape_ops("syntax_encoder"))
    w(cli, "train_summarizer", "cli.train_summarizer")
    w(cli, "train_step", "summarizer.train_step")
    w(summarizer, "encode_tree", "syntax_encoder.encode_tree", count=_fold)
    w(summarizer, "encode", "summarizer.encode")
    w(summarizer, "multi_head_attention", "summarizer.attention")
    w(summarizer, "decoder_logits", "summarizer.decoder_logits")
    w(summarizer, "backward", "autodiff.backward", count=_tape_ops("summarizer"))
    w(summarizer, "greedy_decode", "summarizer.greedy_decode")
    w(autodiff, "cross_entropy_logits", "autodiff.cross_entropy")
    w(autodiff.Adam, "step", "autodiff.adam_step")
    w(checkpoint, "save_checkpoint", "checkpoint.save",
      count=lambda c, a, r: c.update({"checkpoint.saves": 1}))
    w(checkpoint, "load_checkpoint", "checkpoint.load")
    w(metrics, "evaluate_corpus", "metrics.evaluate_corpus")


# --- workloads ---------------------------------------------------------------


class Workload:
    def start(self, checks: Checks, clock):
        self.checks = checks
        self.clock = clock
        self.props = {name: [] for name in PROPERTIES}


class PrepLarge(Workload):
    """Preprocessing only, over large, branchy, nested methods."""

    name = "prep-large"
    records = 256
    chunk = 16

    def inputs(self, seed):
        return {"corpus": generate_records(self.name, seed, self.records, PREP_PROFILE)}

    def setup(self, paths, seed):
        self.config = cli.RunConfig(seed=seed)
        self.corpus = cli.load_corpus(paths["corpus"])

    def units(self):
        return [(i, self.corpus[i : i + self.chunk])
                for i in range(0, len(self.corpus), self.chunk)]

    def start(self, checks, clock):
        super().start(checks, clock)
        self.batches: list = []
        self.chain: list = []
        self.dropped = 0

    def run_unit(self, unit, first_pass: bool, traced: bool):
        key, chunk = unit
        scale = self.clock.factor()
        t0 = time.perf_counter()
        prepared = cli.preprocess(chunk, self.config)
        self.batches.append((key, time.perf_counter() - t0, scale, len(chunk)))
        self.dropped += len(prepared.dropped)
        if first_pass:
            inspect_prepared(prepared.records, self.props, self.checks)
        del prepared
        if traced:
            return  # the per-record chain repeats preprocess's work; time it untraced only
        scale = self.clock.factor()
        for record in chunk:
            t0 = time.perf_counter()
            method = frontend.parse_method(
                frontend.abstract_literals(frontend.tokenize(record.code)))
            splitter.split_method(method)
            self.chain.append((record.record_id, time.perf_counter() - t0, scale, 1))

    def sample(self):
        cli.preprocess(self.corpus[: self.chunk], self.config)

    def outcome(self) -> Outcome:
        scaled_rate, raw_rate = rate(self.batches)
        named = {"prep_records_per_s": (scaled_rate, "records/s")}
        raw = {"prep_records_per_s": raw_rate}
        record_ms, raw_ms = unit_ms(self.chain)
        if record_ms:
            for q in (50, 90, 99):
                named[f"prep_record_ms_p{q}"] = (percentile(record_ms, q), "ms")
                raw[f"prep_record_ms_p{q}"] = percentile(raw_ms, q)
        return Outcome(named, raw, scaled_rate, record_ms,
                       {"preprocess_batches": len(self.batches),
                        "records_timed": len(self.chain)},
                       operations=sum(b[3] for b in self.batches), dropped=self.dropped)


class PretrainSep(Workload):
    """Next-split pre-training on medium multi-split methods."""

    name = "pretrain-sep"
    corpora = 3
    methods_per_corpus = 20
    epochs = 2

    def inputs(self, seed):
        count = self.corpora * self.methods_per_corpus
        return {"corpus": generate_records(self.name, seed, count, MEDIUM_PROFILE)}

    def setup(self, paths, seed):
        self.config = cli.RunConfig(seed=seed)
        self.corpus = cli.preprocess(cli.load_corpus(paths["corpus"]), self.config)
        roots = [a.root for r in self.corpus.records for a in r.splits.asts]
        self.vocab = syntax_encoder.build_type_value_vocab(
            roots, min_freq=self.config.type_value_min_freq)
        self.params = self.fresh_params()

    def fresh_params(self):
        return syntax_encoder.TreeLstmParams.init(
            self.vocab, self.config.embedding_size,
            np.random.default_rng(self.config.seed))

    def pretrain_config(self, epochs):
        c = self.config
        return syntax_encoder.PretrainConfig(
            learning_rate=c.learning_rate, epochs=epochs, batch_size=c.batch_size,
            seed=c.seed, neg_ratio=c.neg_ratio)

    def units(self):
        methods = self.corpus.split_corpus
        k = self.methods_per_corpus
        return [(i, methods[i : i + k]) for i in range(0, len(methods), k)]

    def start(self, checks, clock):
        super().start(checks, clock)
        inspect_prepared(self.corpus.records, self.props, checks)
        self.calls: list[float] = []
        self.steps: list = []
        self.first_pass_losses: list[float] = []

    def _pretrain(self, key, methods, params):
        """syntax_encoder.pretrain, timing each batch step it makes.

        A step runs from its `sep_loss` call to the end of its `Adam.step`.
        The speed probe runs before each step, outside its timing.
        """
        sep_loss, adam_step = syntax_encoder.sep_loss, autodiff.Adam.step
        open_step = []

        def timed_sep_loss(batch, *args, **kwargs):
            open_step[:] = [self.clock.factor(), len(batch), time.perf_counter()]
            return sep_loss(batch, *args, **kwargs)

        def timed_adam_step(opt):
            adam_step(opt)
            scale, pairs, t0 = open_step
            self.steps.append(((key, len(self.steps)), time.perf_counter() - t0, scale, pairs))

        syntax_encoder.sep_loss, autodiff.Adam.step = timed_sep_loss, timed_adam_step
        try:
            return syntax_encoder.pretrain(methods, params, self.pretrain_config(self.epochs))
        finally:
            syntax_encoder.sep_loss, autodiff.Adam.step = sep_loss, adam_step

    def run_unit(self, unit, first_pass: bool, traced: bool):
        key, methods = unit
        # pretrain updates the parameters it is given; every call starts fresh
        params = self.params if not self.calls else self.fresh_params()
        t0 = time.perf_counter()
        _, history = self._pretrain(key, methods, params)
        self.calls.append(time.perf_counter() - t0)
        losses = [h.loss for h in history]
        n = len(self.calls)
        self.checks.check(len(losses) == self.epochs and bool(np.all(np.isfinite(losses))),
                          f"pretrain call {n}: missing or non-finite loss")
        self.checks.check(losses[-1] < losses[0],
                          f"pretrain call {n}: last epoch loss {losses[-1]} "
                          f"not below first {losses[0]}")
        self.checks.check(all(0.0 <= h.accuracy <= 1.0 for h in history),
                          f"pretrain call {n}: pair accuracy outside [0, 1]")
        if first_pass:
            self.first_pass_losses.append(losses[-1])

    def sample(self):
        syntax_encoder.pretrain(self.corpus.split_corpus[:4], self.fresh_params(),
                                self.pretrain_config(1))

    def outcome(self) -> Outcome:
        scaled_rate, raw_rate = rate(self.steps)
        pair_ms, raw_pair_ms = unit_ms(self.steps)
        named = {
            "pretrain_pairs_per_s": (scaled_rate, "pairs/s"),
            "pretrain_step_ms_per_pair_p50": (percentile(pair_ms, 50), "ms"),
            "pretrain_step_ms_per_pair_p90": (percentile(pair_ms, 90), "ms"),
            "pretrain_loss_final": (statistics.fmean(self.first_pass_losses), "nats"),
        }
        raw = {"pretrain_pairs_per_s": raw_rate,
               "pretrain_step_ms_per_pair_p50": percentile(raw_pair_ms, 50),
               "pretrain_step_ms_per_pair_p90": percentile(raw_pair_ms, 90)}
        return Outcome(named, raw, scaled_rate, pair_ms,
                       {"pretrain_calls": len(self.calls), "steps_timed": len(self.steps),
                        "pretrain_call_s": round(sum(self.calls), 3)},
                       operations=len(self.calls) + len(self.corpus.records),
                       dropped=len(self.corpus.dropped))


class SummarizeSmall(Workload):
    """Summarizer training, a checkpoint round trip, then decoding and scoring."""

    name = "summarize-small"
    train_records = 128
    heldout_records = 96
    epochs = 3
    learning_rate = 3e-3
    max_comment_length = 12
    reload_checks = 4

    def inputs(self, seed):
        return {
            "train": generate_records(self.name, seed, self.train_records, SMALL_PROFILE),
            "heldout": generate_records(f"{self.name}/heldout", seed,
                                        self.heldout_records, SMALL_PROFILE,
                                        id_prefix="h"),
        }

    def setup(self, paths, seed):
        # At the default learning rate of 1e-3, 24 steps leave the model's
        # output length (5 to 10 decoder steps) up to the seed, and decode
        # time per step with it; at 3e-3 it settles at 6 or 7 on every seed.
        c = self.config = cli.RunConfig(seed=seed, epochs=self.epochs,
                                        max_comment_length=self.max_comment_length,
                                        learning_rate=self.learning_rate)
        self.ckpt_path = paths["checkpoint"]
        self.train = cli.preprocess(cli.load_corpus(paths["train"]), c)
        self.heldout = cli.preprocess(cli.load_corpus(paths["heldout"]), c,
                                      code_vocab=self.train.code_vocab,
                                      word_vocab=self.train.word_vocab)
        roots = [a.root for r in self.train.records for a in r.splits.asts]
        self.tree_vocab = syntax_encoder.build_type_value_vocab(
            roots, min_freq=c.type_value_min_freq)
        self.model = self.fresh_model()

    def fresh_model(self):
        c = self.config
        tree = syntax_encoder.TreeLstmParams.init(
            self.tree_vocab, c.embedding_size, np.random.default_rng(c.seed))
        transformer = summarizer.TransformerParams.init(
            len(self.train.code_vocab), len(self.train.word_vocab), c.embedding_size,
            c.heads, c.encoder_layers, c.decoder_layers, np.random.default_rng(c.seed + 1))
        return summarizer.SummarizerModel(tree, transformer)

    def units(self):
        return ["train"] + list(range(len(self.heldout.examples)))

    def start(self, checks, clock):
        super().start(checks, clock)
        inspect_prepared(self.train.records + self.heldout.records, self.props, checks)
        self.steps: list = []
        self.decodes: list = []
        self.decoded: dict[int, list[int]] = {}

    def _train(self):
        """cli.train_summarizer, timing each train_step it makes.

        The speed probe runs between steps, outside their timing.
        """
        step = cli.train_step

        def timed_step(batch, *args, **kwargs):
            scale = self.clock.factor()
            t0 = time.perf_counter()
            loss = step(batch, *args, **kwargs)
            self.steps.append((len(self.steps), time.perf_counter() - t0, scale, len(batch)))
            return loss

        cli.train_step = timed_step
        try:
            return cli.train_summarizer(self.train.examples, self.model, self.config)
        finally:
            cli.train_step = step

    def run_unit(self, unit, first_pass: bool, traced: bool):
        if unit == "train":
            if first_pass:  # later passes only decode
                self.train_once()
            return
        max_len = self.config.max_comment_length
        scale = self.clock.factor()
        t0 = time.perf_counter()
        ids = summarizer.greedy_decode(self.heldout.examples[unit], self.model,
                                       max_len=max_len)
        elapsed = time.perf_counter() - t0
        # Each step but the last emits a word; the last emits EOS unless max_len stops it.
        steps = len(ids) + 1 if len(ids) < max_len else max_len
        self.decodes.append((unit, elapsed, scale, steps))
        if first_pass:
            self.decoded[unit] = ids
            if len(self.decoded) == len(self.heldout.examples):
                self.score()

    def train_once(self):
        losses = self._train()
        self.checks.check(len(losses) == self.epochs and bool(np.all(np.isfinite(losses))),
                          "summarizer: missing or non-finite epoch loss")
        self.checks.check(losses[-1] < losses[0],
                          f"summarizer: last epoch loss {losses[-1]} not below first {losses[0]}")
        self.loss_final = losses[-1]
        checkpoint.save_checkpoint(
            self.ckpt_path, tree=self.model.tree, transformer=self.model.transformer,
            code_vocab=self.train.code_vocab, word_vocab=self.train.word_vocab)
        self.reloaded = checkpoint.load_checkpoint(self.ckpt_path)
        with open(self.ckpt_path, "rb") as fh:
            raw = fh.read()
        self.checkpoint_bytes = len(raw)
        r = self.reloaded
        again = checkpoint.serialize(tree=r.tree, transformer=r.transformer,
                                     code_vocab=r.code_vocab, word_vocab=r.word_vocab)
        self.checks.check(again == raw, "checkpoint does not re-serialize byte-identically")

    def score(self):
        word_vocab = self.train.word_vocab
        pairs = [(word_vocab.decode(self.decoded[i]), r.comment_words)
                 for i, r in enumerate(self.heldout.records)]
        self.report = metrics.evaluate_corpus(pairs, self.config.bleu_smoothing)
        for key, value in vars(self.report).items():
            self.checks.check(0.0 <= value <= 1.0, f"metric {key} = {value} outside [0, 1]")

    def check_reloaded(self):
        """The reloaded checkpoint decodes like the in-memory model."""
        reloaded_model = self.reloaded.model()
        for i in range(min(self.reload_checks, len(self.heldout.examples))):
            ids = summarizer.greedy_decode(self.heldout.examples[i], reloaded_model,
                                           max_len=self.config.max_comment_length)
            self.checks.check(ids == self.decoded[i],
                              f"held-out example {i}: reloaded model decodes differently")

    def sample(self):
        config = replace(self.config, epochs=1)
        cli.train_summarizer(self.train.examples[: config.batch_size], self.fresh_model(),
                             config)
        for example in self.heldout.examples[:4]:
            summarizer.greedy_decode(example, self.model, max_len=config.max_comment_length)

    def outcome(self) -> Outcome:
        self.check_reloaded()
        scaled_rate, raw_rate = rate(self.steps)
        per_token, raw_per_token = unit_ms(self.decodes)
        named = {
            "train_examples_per_s": (scaled_rate, "examples/s"),
            "train_loss_final": (self.loss_final, "nats"),
            "decode_ms_per_token_p50": (percentile(per_token, 50), "ms"),
            "decode_ms_per_token_p90": (percentile(per_token, 90), "ms"),
            "heldout_s_bleu": (self.report.s_bleu, "ratio"),
        }
        raw = {
            "train_examples_per_s": raw_rate,
            "decode_ms_per_token_p50": percentile(raw_per_token, 50),
            "decode_ms_per_token_p90": percentile(raw_per_token, 90),
        }
        return Outcome(named, raw, scaled_rate, per_token,
                       {"train_steps": len(self.steps), "decodes_timed": len(self.decodes),
                        "decode_steps_first_pass": sum(
                            d[3] for d in self.decodes[: len(self.decoded)]),
                        "checkpoint_bytes": self.checkpoint_bytes},
                       operations=len(self.train.records) + len(self.heldout.records)
                       + len(self.steps) + 1 + len(self.decodes) + 1,
                       dropped=len(self.train.dropped) + len(self.heldout.dropped))


WORKLOADS = {w.name: w for w in (PrepLarge, PretrainSep, SummarizeSmall)}
