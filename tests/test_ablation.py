"""The block-wise fusion ablation script, `experiments/ablation.py`.

One seed of a tiny configuration runs in two subprocesses, at one and at
two worker processes: the JSON must follow its schema and, with every
`*_s` timing dropped, be equal at both. No outcome is gated. The arms'
encoders are checked against per-example forms, a test-local arm joins
the run as one record, and the committed JSON is checked against the
script's summary, gate, arms and parser without training.
"""

import importlib.util
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from basts import summarizer
from basts.autodiff import Adam
from basts.cli import RunConfig, preprocess
from basts.summarizer import encode_trees, positional_matrix, train_step
from oracles import avg_pool

SCRIPT = Path(__file__).resolve().parents[1] / "experiments" / "ablation.py"
COMMITTED = SCRIPT.with_name("ablation.json")
TINY = ["--seeds", "1", "--lengths", "8", "24", "--train", "16", "--heldout", "8",
        "--epochs", "1"]


@pytest.fixture(scope="module")
def ablation():
    """The script as a module; the BLAS settings and path entries it makes
    on import are undone."""
    environ, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location("ablation", SCRIPT)
    module = sys.modules["ablation"] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    yield module
    del sys.modules["ablation"]


def record(ablation, name: str):
    """The `Arm` record called `name`."""
    return next(arm for arm in ablation.ARMS if arm.name == name)


def without_timings(value):
    if isinstance(value, dict):
        return {k: without_timings(v) for k, v in value.items() if not k.endswith("_s")}
    if isinstance(value, list):
        return [without_timings(v) for v in value]
    return value


def check_schema(result: dict, arms, metrics):
    assert list(result) == ["command", "setup", "gate", "summary", "runs", "wall_s"]
    assert result["setup"]["seeds"] == [1] and result["setup"]["max_code_length"] == [8, 24]
    assert result["setup"]["arms"] == list(arms)
    assert set(result["gate"]) == {"max_code_length", "metric", "arms", "rule",
                                   "mean_difference", "wins", "holds"}
    assert list(result["summary"]) == ["8", "24"]
    for setting in result["summary"].values():
        assert list(setting["arms"]) == list(arms)
        for arm in arms:
            assert list(setting["arms"][arm]) == list(metrics)
            for stats in setting["arms"][arm].values():
                assert list(stats) == ["mean", "sd", "min", "max"]
        assert list(setting["pairs"]) == ["positions-mean", "positions-none", "mean-none"]
        for pair in setting["pairs"].values():
            assert list(pair) == list(metrics)
            for diff in pair.values():
                assert list(diff) == ["per_seed", "mean", "wins", "losses", "ties",
                                      "sign_test_p"]
                assert len(diff["per_seed"]) == 1 and 0.0 <= diff["sign_test_p"] <= 1.0
    assert [(r["seed"], r["max_code_length"]) for r in result["runs"]] == [(1, 8), (1, 24)]
    for run in result["runs"]:
        assert list(run) == ["seed", "max_code_length", "truncated_share", "splits_mean",
                             "arms", "job_s"]
        for arm in arms:
            scores = run["arms"][arm]
            assert list(scores) == [*metrics, "final_loss", "train_s", "decode_s"]
            assert all(0.0 <= scores[m] <= 1.0 for m in metrics)


def test_a_tiny_run_follows_the_schema_at_one_and_two_processes(tmp_path, ablation):
    start = time.perf_counter()
    results = []
    for processes in (1, 2):
        out = tmp_path / f"p{processes}.json"
        subprocess.run([sys.executable, str(SCRIPT), *TINY, "--processes", str(processes),
                        "--output", str(out)], check=True, capture_output=True, timeout=60)
        results.append(json.loads(out.read_text()))
    assert time.perf_counter() - start <= 10.0
    for result in results:
        check_schema(result, [arm.name for arm in ablation.ARMS], ablation.METRICS)
    assert without_timings(results[0]) == without_timings(results[1])


def test_an_arm_is_one_record(ablation, monkeypatch):
    package = summarizer.encode_batch
    swapped = []

    def encode_probe(batch, model):
        swapped.append(summarizer.encode_batch is encode_probe)
        return ablation.encode_none(batch, model)

    monkeypatch.setattr(ablation, "ARMS", (*ablation.ARMS, ablation.Arm("probe", encode_probe)))
    start = time.perf_counter()
    run = ablation.run_job({"seed": 1, "max_code_length": 8, "train": 16, "heldout": 8,
                            "epochs": 1})
    summary = ablation.summarize([run])
    assert time.perf_counter() - start <= 10.0
    assert swapped and all(swapped)
    assert summarizer.encode_batch is package
    assert list(run["arms"]) == ["positions", "mean", "none", "probe"]
    assert list(summary["8"]["arms"]) == ["positions", "mean", "none", "probe"]
    assert list(summary["8"]["pairs"]) == ["positions-mean", "positions-none",
                                           "positions-probe", "mean-none", "probe-none"]


def test_repeated_seeds_or_lengths_are_a_parser_error(ablation, capsys):
    for argv, message in ((["--seeds", "3", "1", "3"], "--seeds: 3 is given more than once"),
                          (["--lengths", "24", "24"], "--lengths: 24 is given more than once")):
        with pytest.raises(SystemExit) as exit_:
            ablation.parse_args(argv)
        assert exit_.value.code == 2 and message in capsys.readouterr().err
    assert ablation.parse_args(["--seeds", "2", "1"]).seeds == [2, 1]


def test_the_committed_json_agrees_with_the_script(ablation):
    result = json.loads(COMMITTED.read_text(encoding="utf-8"))
    setup = result["setup"]
    assert ablation.summarize(result["runs"]) == result["summary"]
    assert ablation.gate(result["summary"]) == result["gate"]
    assert setup["arms"] == [arm.name for arm in ablation.ARMS]
    assert {key: setup[key] for key in ablation.MODEL} == ablation.MODEL
    program, script, *argv = shlex.split(result["command"])
    assert (program, script) == ("python3", "experiments/ablation.py")
    args = ablation.parse_args(argv)
    assert (args.seeds, args.lengths, args.train, args.heldout, args.epochs) == (
        setup["seeds"], setup["max_code_length"], setup["train"], setup["heldout"],
        setup["epochs"])


def test_sign_test_is_two_sided_and_drops_ties(ablation):
    assert ablation.sign_test(9, 1) == pytest.approx(22 / 1024)
    assert ablation.sign_test(1, 9) == ablation.sign_test(9, 1)
    assert ablation.sign_test(5, 5) == 1.0
    assert ablation.sign_test(0, 0) == 1.0


def test_clauses_are_read_from_the_parsed_method(ablation):
    code = ("void f(int n) { while (n > 0) { for (int i = 0; i < n; i = i + 1) "
            "{ if (i > 2) { break; } } n = n - 1; } }")
    assert ablation.structure(code) == ["with a while loop", "with a for loop",
                                        "with an early break", "with nested loops"]
    assert ablation.structure("int g(int a) { for (;;) { return a; } }") == ["with a for loop"]
    assert ablation.structure("int h(int a) { if (a > 0) { return a; } return 0; }") == []
    words = "finds the entry with a for loop with nested loops .".split()
    assert ablation.clause_set(words) == {"with a for loop", "with nested loops"}
    assert ablation.clause_set("with a for".split()) == set()


@pytest.fixture(scope="module")
def corpus_and_config(ablation):
    config = RunConfig(embedding_size=8, heads=2, encoder_layers=0, decoder_layers=1,
                       max_code_length=24, seed=3)
    return preprocess(ablation.records("abl3", 3, 6), config), config


def test_mean_arm_fuses_each_token_with_its_methods_mean_root(ablation, corpus_and_config):
    corpus, config = corpus_and_config
    model = record(ablation, "mean").build(corpus, config)
    batch = corpus.examples[:4]
    memory, lengths = ablation.encode_mean(batch, model)
    assert lengths == [len(ex.code_ids) for ex in batch]
    t, w, b = model.transformer, model.fuse.w.data, model.fuse.b.data
    at = 0
    for ex, n in zip(batch, lengths):
        pooled = avg_pool(encode_trees(ex.split_asts, model.tree)).data
        tokens = t.code_embedding.data[ex.code_ids]
        joint = np.concatenate([np.tile(pooled, (n, 1)), tokens], axis=1)
        expected = np.maximum(joint @ w + b, 0.0) + positional_matrix(n, t.size)
        assert np.allclose(memory.data[at:at + n], expected, rtol=0, atol=1e-12)
        at += n


def test_mean_arm_trains_its_fuse_layer(ablation, corpus_and_config):
    corpus, config = corpus_and_config
    model = record(ablation, "mean").build(corpus, config)
    twin = record(ablation, "positions").build(corpus, config)
    assert [n for n, _ in model.named_params()][-2:] == ["fuse.w", "fuse.b"]
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(model.all_params(), twin.all_params()))  # shared weights
    before = model.fuse.w.data.copy()
    package = summarizer.encode_batch
    with ablation.arm_encoder(record(ablation, "mean")):
        assert summarizer.encode_batch is ablation.encode_mean
        train_step(corpus.examples[:4], model, Adam(model.all_params(), lr=3e-3))
    assert summarizer.encode_batch is package
    assert not np.array_equal(model.fuse.w.data, before)


def test_none_arm_holds_the_code_rows_alone(ablation, corpus_and_config):
    corpus, config = corpus_and_config
    model = record(ablation, "none").build(corpus, config)
    batch = corpus.examples[:3]
    memory, lengths = ablation.encode_none(batch, model)
    assert lengths == [len(ex.code_ids) for ex in batch]
    ids = [c for ex in batch for c in ex.code_ids]
    positions = np.concatenate([positional_matrix(n, 8) for n in lengths])
    assert np.array_equal(memory.data,
                          model.transformer.code_embedding.data[ids] + positions)
