"""Tests of the benchmark's own parts: inputs, span arithmetic, metric lists."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from basts import cli, splitter  # noqa: E402
from minigen import Profile, generate_records, write_jsonl  # noqa: E402
from spans import Tracer, child_count, self_times  # noqa: E402
from workloads import MEDIUM_PROFILE, PREP_PROFILE, SMALL_PROFILE  # noqa: E402


def test_generator_is_deterministic(tmp_path):
    a = generate_records("prep-large", 7, 12, PREP_PROFILE)
    b = generate_records("prep-large", 7, 12, PREP_PROFILE)
    write_jsonl(tmp_path / "a.jsonl", a)
    write_jsonl(tmp_path / "b.jsonl", b)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert generate_records("prep-large", 8, 12, PREP_PROFILE) != a


def test_every_generated_method_parses_and_splits(tmp_path):
    for label, profile, count in (("prep-large", PREP_PROFILE, 12),
                                  ("pretrain-sep", MEDIUM_PROFILE, 24),
                                  ("summarize-small", SMALL_PROFILE, 48)):
        path = tmp_path / f"{label}.jsonl"
        write_jsonl(path, generate_records(label, 3, count, profile))
        corpus = cli.preprocess(cli.load_corpus(path), cli.RunConfig())
        assert corpus.dropped == []
        assert len(corpus.records) == count
        assert all(r.comment_words for r in corpus.records)


def test_generator_covers_the_grammar():
    profile = Profile(nodes=(40, 60), max_depth=4, p_compound=0.4, p_jump=0.5,
                      max_params=2)
    text = " ".join(r["code"] for r in generate_records("cover", 1, 20, profile))
    for construct in ("if (", "} else {", "while (", "for (int", "break;", "continue;",
                      "return", "\"", "true", ".", "= "):
        assert construct in text, construct


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    spans = [
        [0, "root", 0.0, 10.0, None, 0],
        [1, "a", 1.0, 4.0, 0, 0],
        [2, "b", 2.0, 3.0, 1, 0],
        [3, "c", 5.0, 9.0, 0, 0],
        [4, "b", 6.0, 8.5, 3, 0],
    ]
    times = self_times(spans)
    assert times == {"root": 3.0, "a": 2.0, "b": 3.5, "c": 1.5}
    assert sum(times.values()) == 10.0
    assert child_count(spans, "b", "a") == 1


def test_tracer_records_nesting_and_restores_functions():
    original = splitter.build_cfg
    with Tracer("t") as tracer:
        tracer.wrap(splitter, "build_cfg", "cfg.build",
                    count=lambda c, a, r: c.update({"cfg.nodes": len(r.nodes)}))
        method = cli.parse_method(cli.abstract_literals(cli.tokenize(
            "void f() { if (a) { b(); } c(); }")))
        with tracer.span("outer"):
            splitter.split_method(method)
    assert splitter.build_cfg is original
    outer, inner = tracer.spans
    assert inner[1] == "cfg.build" and inner[4] == outer[0] and inner[5] == outer[0]
    assert tracer.finish()["cfg.nodes"] == 5


def test_benchmark_json_matches_the_runner():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
