"""Block-wise fusion ablation: split rows against mean pooling and code alone.

Run from the repository root:

    python3 experiments/ablation.py

It regenerates `experiments/ablation.json` for seeds 1-10 at
`max_code_length` 24 and 100, and prints its wall time: about 170 s at
two processes on two cores, and 290 s at one. Each (seed,
length) pair is one job; jobs run in at most `os.cpu_count()` worker
processes (`--processes`), each with single-threaded BLAS, and the
results are the same, byte for byte apart from the `*_s` timings, at any
process count.

Per seed, 384 training and 128 held-out methods come from the bench
generator (`bench/minigen.py`, `MEDIUM_PROFILE` of `bench/workloads.py`;
both are imported, not edited). Each comment is minigen's template with
one clause per structure feature of the parsed method, in a fixed order:
a `while`, a `for`, a `break` in a loop, a loop inside a loop. Three arms
train from the same initial weights, with no pre-training, at L=32,
2 heads, 1+1 layers, lr 3e-3, batch 16 and 12 epochs:

- *positions*: the package's `summarizer.encode_batch`, where each split
  root is one more encoder row after the method's code rows;
- *mean*: every split root averaged into one vector, fused with each code
  token by a ReLU layer whose weights live in `MeanModel`;
- *none*: the code rows alone.

Each arm replaces `summarizer.encode_batch` only, the seam that
`train_step` and `greedy_decode` read, and hands its rows to
`summarizer.encode`, the package's one encoder stack. Scores are on the
held-out methods: clause accuracy (the share whose decoded clause set is
exactly the reference's), then `corpus_bleu`, `sentence_bleu` with
add-one smoothing, ROUGE-L and `meteor_lite` as `metrics.evaluate_corpus`
reports them. For each pair of arms the JSON gives the
per-seed differences, their mean, wins, losses and a two-sided sign test.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads, here and in every
# worker, which imports this module afresh (bench/run.py does the same)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from basts import autodiff as ad  # noqa: E402
from basts import summarizer  # noqa: E402
from basts.autodiff import Params, Slot, Tensor, glorot  # noqa: E402
from basts.cli import (CorpusRecord, RunConfig, build_model, code_token_texts,  # noqa: E402
                       preprocess, summaries, train_summarizer)
from basts.frontend import abstract_literals, parse_method, tokenize  # noqa: E402
from basts.metrics import evaluate_corpus  # noqa: E402
from basts.summarizer import SummarizerModel, encode_trees  # noqa: E402
from minigen import generate_records  # noqa: E402
from workloads import MEDIUM_PROFILE  # noqa: E402

OUTPUT = Path(__file__).resolve().with_name("ablation.json")
ARMS = ("positions", "mean", "none")
PAIRS = (("positions", "mean"), ("positions", "none"), ("mean", "none"))
METRICS = ("clause_accuracy", "corpus_bleu", "sentence_bleu", "rouge_l", "meteor_lite")
# structure feature -> its clause, in the order clauses are written
CLAUSES = {"while": "with a while loop", "for": "with a for loop",
           "break": "with an early break", "nested": "with nested loops"}
GATE = {"max_code_length": 24, "metric": "clause_accuracy", "arms": ["positions", "mean"],
        "rule": "mean paired difference > 0 and at least 7 wins of 10"}


# --- the corpus ---------------------------------------------------------------


def structure(code: str) -> list[str]:
    """The clauses of a method's structure features, from its parsed statements."""
    found = set()

    def walk(statements, loops: int):
        for s in statements:
            loop = s.kind in ("while", "for")
            if loop:
                found.add(s.kind)
                if loops:
                    found.add("nested")
            elif s.kind == "break" and loops:
                found.add("break")
            walk(s.body + s.orelse, loops + loop)

    walk(parse_method(abstract_literals(tokenize(code))).body, 0)
    return [clause for key, clause in CLAUSES.items() if key in found]


def records(label: str, seed: int, count: int) -> list[CorpusRecord]:
    """`count` minigen methods, each comment ending in its structure clauses."""
    out = []
    for r in generate_records(label, seed, count, MEDIUM_PROFILE):
        comment = " ".join([r["comment"].removesuffix(" ."), *structure(r["code"]), "."])
        out.append(CorpusRecord(r["id"], r["code"], comment))
    return out


def clause_set(words: list[str]) -> frozenset[str]:
    """The clauses whose words occur, in a row, among `words`."""
    text = f" {' '.join(words)} "
    return frozenset(c for c in CLAUSES.values() if f" {c} " in text)


# --- the arms -----------------------------------------------------------------


@dataclass
class FuseParams(Params):
    w: Tensor  # [2L, L], applied to concat(pooled roots, token)
    b: Tensor


@dataclass
class MeanModel(SummarizerModel):
    """The summarizer plus the mean arm's fuse layer, which Adam trains too."""

    fuse: FuseParams


def _code_rows(batch, model) -> tuple[Tensor, list[int]]:
    ids = [c for example in batch for c in example.code_ids]
    return (ad.embedding_lookup(model.transformer.code_embedding, ids),
            [len(example.code_ids) for example in batch])


def encode_mean(batch, model: MeanModel) -> tuple[Tensor, list[int]]:
    """One code row per token, fused with the mean of its method's split roots."""
    trees = [tree for example in batch for tree in example.split_asts]
    pool = np.zeros((len(batch), len(trees)))
    lo = 0
    for b, example in enumerate(batch):
        hi = lo + len(example.split_asts)
        pool[b, lo:hi] = 1.0 / (hi - lo)
        lo = hi
    pooled = ad.matmul(Tensor(pool), encode_trees(trees, model.tree))
    tokens, lengths = _code_rows(batch, model)
    syntax = ad.embedding_lookup(pooled, np.repeat(np.arange(len(batch)), lengths))
    joint = ad.concat([syntax, tokens], axis=1)
    fused = ad.relu(ad.add_rowvec(ad.matmul(joint, model.fuse.w), model.fuse.b))
    return summarizer.encode(fused, lengths, model), lengths


def encode_none(batch, model) -> tuple[Tensor, list[int]]:
    """The code rows alone; no split is read."""
    tokens, lengths = _code_rows(batch, model)
    return summarizer.encode(tokens, lengths, model), lengths


def build_arm(arm: str, corpus, config: RunConfig):
    """A fresh model: the three arms share the tree and Transformer weights."""
    model = build_model(corpus, config)
    if arm != "mean":
        return model
    size = config.embedding_size
    fuse = FuseParams(glorot((2 * size, size)), Slot((size,)))
    return MeanModel(model.tree, model.transformer,
                     fuse.draw(np.random.default_rng(config.seed + 2)))


ENCODERS = {"positions": summarizer.encode_batch, "mean": encode_mean, "none": encode_none}


@contextmanager
def arm_encoder(arm: str):
    package = summarizer.encode_batch
    summarizer.encode_batch = ENCODERS[arm]
    try:
        yield
    finally:
        summarizer.encode_batch = package


# --- one job ------------------------------------------------------------------


def scores(hyps: list[list[str]], refs: list[list[str]]) -> dict:
    pairs = list(zip(hyps, refs))
    report = evaluate_corpus(pairs)
    exact = sum(clause_set(h) == clause_set(r) for h, r in pairs)
    return {"clause_accuracy": exact / len(pairs), "corpus_bleu": report.c_bleu,
            "sentence_bleu": report.s_bleu, "rouge_l": report.rougeL_f,
            "meteor_lite": report.meteor}


def run_job(job: dict) -> dict:
    """Train and score every arm for one (seed, max_code_length)."""
    start = time.perf_counter()
    seed, length = job["seed"], job["max_code_length"]
    config = RunConfig(embedding_size=32, heads=2, encoder_layers=1, decoder_layers=1,
                       max_code_length=length, learning_rate=3e-3, batch_size=16,
                       epochs=job["epochs"], seed=seed).validate()
    train = preprocess(records(f"abl{seed}", seed, job["train"]), config)
    held = preprocess(records(f"held{seed}", seed, job["heldout"]), config,
                      code_vocab=train.code_vocab, word_vocab=train.word_vocab)
    full = [len(code_token_texts(r.splits.method, 10**9)) for r in train.records]
    out = {
        "seed": seed, "max_code_length": length,
        "truncated_share": round(sum(n > length for n in full) / len(full), 6),
        "splits_mean": round(statistics.fmean(len(r.splits.asts) for r in train.records), 6),
        "arms": {},
    }
    refs = [r.comment_words for r in held.records]
    for arm in ARMS:
        model = build_arm(arm, train, config)
        with arm_encoder(arm):
            t0 = time.perf_counter()
            history = train_summarizer(train.examples, model, config)
            t1 = time.perf_counter()
            hyps = summaries(held, model, config)
            t2 = time.perf_counter()
        out["arms"][arm] = {
            **{k: round(v, 6) for k, v in scores(hyps, refs).items()},
            "final_loss": round(history[-1], 6), "train_s": round(t1 - t0, 2),
            "decode_s": round(t2 - t1, 2),
        }
    out["job_s"] = round(time.perf_counter() - start, 2)
    return out


# --- the summary --------------------------------------------------------------


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign test; ties are dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def summarize(runs: list[dict]) -> dict:
    out = {}
    for length in sorted({r["max_code_length"] for r in runs}):
        rows = [r for r in runs if r["max_code_length"] == length]
        arms = {}
        for arm in ARMS:
            arms[arm] = {}
            for metric in METRICS:
                values = [r["arms"][arm][metric] for r in rows]
                arms[arm][metric] = {
                    "mean": round(statistics.fmean(values), 6),
                    "sd": round(statistics.stdev(values), 6) if len(values) > 1 else 0.0,
                    "min": min(values), "max": max(values)}
        pairs = {}
        for a, b in PAIRS:
            pairs[f"{a}-{b}"] = {}
            for metric in METRICS:
                diffs = [round(r["arms"][a][metric] - r["arms"][b][metric], 6) for r in rows]
                wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
                pairs[f"{a}-{b}"][metric] = {
                    "per_seed": diffs, "mean": round(statistics.fmean(diffs), 6),
                    "wins": wins, "losses": losses, "ties": len(diffs) - wins - losses,
                    "sign_test_p": round(sign_test(wins, losses), 6)}
        out[str(length)] = {"arms": arms, "pairs": pairs}
    return out


def gate(summary: dict) -> dict:
    key = str(GATE["max_code_length"])
    if key not in summary:
        return {**GATE, "holds": None}
    pair = summary[key]["pairs"]["-".join(GATE["arms"])][GATE["metric"]]
    holds = pair["mean"] > 0 and pair["wins"] >= 7
    return {**GATE, "mean_difference": pair["mean"], "wins": pair["wins"], "holds": holds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--lengths", type=int, nargs="+", default=[24, 100],
                        help="max_code_length settings")
    parser.add_argument("--train", type=int, default=384, help="training methods per seed")
    parser.add_argument("--heldout", type=int, default=128, help="held-out methods per seed")
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--processes", type=int, default=os.cpu_count(),
                        help="worker processes, at most os.cpu_count()")
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args(argv)

    start = time.perf_counter()
    jobs = [{"seed": seed, "max_code_length": length, "train": args.train,
             "heldout": args.heldout, "epochs": args.epochs}
            for seed in args.seeds for length in args.lengths]
    processes = max(1, min(args.processes, os.cpu_count() or 1, len(jobs)))
    if processes == 1:
        runs = [run_job(job) for job in jobs]
    else:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(processes, mp_context=spawn) as pool:
            runs = list(pool.map(run_job, jobs))
    summary = summarize(runs)
    result = {
        "command": " ".join(["python3 experiments/ablation.py", "--seeds", *map(str, args.seeds),
                             "--lengths", *map(str, args.lengths), "--train", str(args.train),
                             "--heldout", str(args.heldout), "--epochs", str(args.epochs)]),
        "setup": {
            "profile": "MEDIUM_PROFILE", "train": args.train, "heldout": args.heldout,
            "seeds": args.seeds, "max_code_length": args.lengths, "embedding_size": 32,
            "heads": 2, "encoder_layers": 1, "decoder_layers": 1, "learning_rate": 3e-3,
            "batch_size": 16, "epochs": args.epochs, "pretraining": None,
            "arms": list(ARMS), "clauses": list(CLAUSES.values()),
            "sentence_bleu": "add-one smoothing at orders 2-4 when some order has no match",
            "meteor_lite": "exact unigram matches only",
        },
        "gate": gate(summary),
        "summary": summary,
        "runs": runs,
        "wall_s": round(time.perf_counter() - start, 1),
    }
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"{len(jobs)} jobs in {result['wall_s']} s at {processes} processes; "
          f"gate holds: {result['gate']['holds']}; wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
