"""Benchmark of the basts pipeline: three seeded workloads, one process each.

    python3 bench/run.py --workload prep-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

`--workload all` runs every workload in a fresh process of its own and
prints each one's report. With `--trace 0` a run measures the end-to-end
metrics; with `--trace 1` it installs timing wrappers around the public
functions and reports per-layer self times and counts instead. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics. Everything a run writes goes under `.bench_out/` at the root
of the checkout. NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("prep-large", "pretrain-sep", "summarize-small")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
OVERHEAD_PAIRS = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "unit_ms_p50": "ms",
}

# Per-layer self times, by span name; every workload reports all of them,
# with 0 for a layer it never calls.
LAYER_TIMES = (
    "frontend.tokenize", "frontend.parse", "frontend.build_ast",
    "cfg.build", "dominators.compute",
    "splitter.partition", "splitter.split_asts",
    "cli.load_corpus", "cli.preprocess",
    "syntax_encoder.encode_tree", "syntax_encoder.sep_loss",
    "summarizer.encode", "summarizer.attention", "summarizer.decoder_logits",
    "autodiff.backward", "autodiff.adam_step", "autodiff.cross_entropy",
    "checkpoint.save", "checkpoint.load",
    "metrics.evaluate_corpus",
)
LAYER_COUNTS = {
    "frontend.tokens": "count",
    "cfg.nodes": "count",
    "splitter.splits": "count",
    "splitter.ast_nodes": "count",
    "splitter.ast_height_mean": "levels",
    "cli.dropped": "count",
    "syntax_encoder.trees_folded": "count",
    "syntax_encoder.tape_ops_per_step": "ops/step",
    "summarizer.tape_ops_per_step": "ops/step",
    "summarizer.decode_steps": "count",
    "checkpoint.bytes": "bytes",
    "trace.overhead_share": "ratio",
}
PER_LAYER = {**{f"{name}_s": "s" for name in LAYER_TIMES}, **LAYER_COUNTS}


def pin_environment():
    """One BLAS thread, and the default (unthreaded) preprocessing path."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("BASTS_THREADS", None)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "BASTS_THREADS": os.environ.get("BASTS_THREADS", "unset"),
    }


def describe(values) -> dict:
    from workloads import percentile

    return {
        "mean": statistics.fmean(values), "p50": percentile(values, 50),
        "p90": percentile(values, 90), "max": max(values), "n": len(values),
    }


def per_layer_metrics(tracer, checkpoint_path) -> dict:
    from spans import child_count, self_times

    counts = tracer.finish()
    selfs = self_times(tracer.spans)
    out = {f"{name}_s": selfs.get(name, 0.0) for name in LAYER_TIMES}
    for name in ("frontend.tokens", "cfg.nodes", "splitter.splits",
                 "splitter.ast_nodes", "cli.dropped", "syntax_encoder.trees_folded"):
        out[name] = counts[name]
    trees = counts["splitter.ast_trees"]
    out["splitter.ast_height_mean"] = counts["splitter.ast_height_sum"] / trees if trees else 0.0
    for layer in ("syntax_encoder", "summarizer"):
        steps = counts[f"{layer}.steps"]
        out[f"{layer}.tape_ops_per_step"] = counts[f"{layer}.tape_ops"] / steps if steps else 0.0
    out["summarizer.decode_steps"] = child_count(
        tracer.spans, "summarizer.decoder_logits", "summarizer.greedy_decode")
    out["checkpoint.bytes"] = (checkpoint_path.stat().st_size
                               if counts["checkpoint.saves"] else 0)
    return out


def tracing_overhead(wl, clock, run_id: str) -> float:
    """Traced over untraced time of the workload's sample, scaled, median of pairs."""
    from spans import Tracer
    from workloads import install_wrappers

    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        scale = clock.factor()
        t0 = time.perf_counter()
        wl.sample()
        plain.append((time.perf_counter() - t0) * scale)
        with Tracer(run_id) as tracer:
            install_wrappers(tracer)
            scale = clock.factor()
            t0 = time.perf_counter()
            wl.sample()
            traced.append((time.perf_counter() - t0) * scale)
    return statistics.median(traced) / statistics.median(plain)


# Run in a fresh interpreter: time the imports, then probe that process's speed.
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy, basts.cli; "
    "t1 = time.perf_counter(); import speed, statistics; speed.speed_probe(); "
    "print(t1 - t0, statistics.median(speed.speed_probe() for _ in range(5)))"
)


def import_seconds() -> tuple[float, float]:
    """(scaled, raw) median time for a fresh interpreter to import numpy and basts.

    Fresh processes, because a module imports once per process. Each child
    probes its own speed, since it may run on the other core.
    """
    from speed import PROBE_REF_S

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), str(Path(__file__).resolve().parent),
                    os.environ.get("PYTHONPATH")) if p)}
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        seconds, probe = (float(x) for x in out.split())
        scaled.append(seconds * PROBE_REF_S / probe)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_environment()
    sys.path.insert(0, str(SRC))
    from minigen import write_jsonl
    from spans import Tracer
    from speed import Clock
    from workloads import WORKLOADS, Checks, install_wrappers, percentile

    clock = Clock()
    wl = WORKLOADS[name]()
    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    out_dir = OUT / f"{name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, records in wl.inputs(seed).items():
        paths[stem] = out_dir / f"{stem}.jsonl"
        write_jsonl(paths[stem], records)
    paths["checkpoint"] = out_dir / "model.ckpt"

    setup_runs = []
    if trace:
        tracer = Tracer(run_id)
        install_wrappers(tracer)
        with tracer.span("bench.setup"):
            wl.setup(paths, seed)
    else:
        import_s, import_raw_s = import_seconds()
        for _ in range(SETUP_REPEATS):
            scale = clock.factor()
            t0 = time.perf_counter()
            wl.setup(paths, seed)
            setup_runs.append((time.perf_counter() - t0, scale))

    checks = Checks()
    wl.start(checks, clock)
    units = wl.units()
    done = 0
    t_start = time.perf_counter()
    while True:
        unit = units[done % len(units)]
        first_pass = done < len(units)
        if trace:
            with tracer.span("bench.unit"):
                wl.run_unit(unit, first_pass, traced=True)
        else:
            wl.run_unit(unit, first_pass, traced=False)
        done += 1
        if done >= len(units) and (trace or time.perf_counter() - t_start >= seconds):
            break
    measured_s = time.perf_counter() - t_start
    if trace:
        tracer.uninstall()

    outcome = wl.outcome()
    attempted = outcome.operations + checks.attempted
    failed = outcome.dropped + len(checks.failures)
    named = {"failed_share": (failed / attempted, "ratio"),
             "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
    raw = dict(outcome.raw)
    if setup_runs:
        named["setup_s"] = (import_s + statistics.median(
            s * f for s, f in setup_runs), "s")
        raw["setup_s"] = import_raw_s + statistics.median(s for s, _ in setup_runs)
    named.update(outcome.named)

    if trace:
        values = per_layer_metrics(tracer, paths["checkpoint"])
        tracer.write(out_dir / "spans.jsonl")
        del tracer  # free the spans before timing the tracing overhead
        values["trace.overhead_share"] = tracing_overhead(wl, clock, run_id)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
            "throughput_per_s": outcome.throughput_per_s,
            "unit_ms_p50": percentile(outcome.unit_ms, 50),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    env = environment()
    props = {k: describe(v) for k, v in wl.props.items()}
    print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, s in props.items():
        print(f"# input {key:<18} mean {s['mean']:8.2f}  p50 {s['p50']:7.1f}  "
              f"p90 {s['p90']:7.1f}  max {s['max']:5d}  n {s['n']}")
    cfg_nodes = wl.props["cfg_nodes"]
    print("# input share of CFGs within the 64-node oracle cap: "
          f"{sum(n <= 64 for n in cfg_nodes) / len(cfg_nodes):.3f}")
    print(f"# measured {measured_s:.2f} s over {done} units; {len(clock.probes)} speed probes, "
          f"median {statistics.median(clock.probes) * 1000:.3f} ms; samples "
          + " ".join(f"{k}={v}" for k, v in outcome.samples.items()))
    for key, (value, unit) in named.items():
        raw_text = f"   raw {raw[key]:12.4f}" if key in raw else ""
        print(f"# metric {key:<26} {value:12.4f} {unit:<11}{raw_text}")
    if trace:
        for key, m in metrics.items():
            print(f"# layer  {key:<36} {m['value']:14.4f} {m['unit']}")
    print(f"# checks {checks.attempted} attempted, {len(checks.failures)} failed; "
          f"dropped records {outcome.dropped}")
    for failure in checks.failures[:20]:
        print(f"# FAILED {failure}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(out_dir / f"result-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "named": named, "raw": raw,
                   "samples": outcome.samples, "inputs": props,
                   "input_values": wl.props, "failures": checks.failures}, fh, indent=1)
    for path in paths.values():
        path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so set-up time and peak memory are its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "basts" / "__init__.py").is_file():
        print(f"bench: no basts sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
