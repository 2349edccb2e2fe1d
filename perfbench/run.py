#!/usr/bin/env python3
"""Runs one workload of the gpClust benchmark and prints its metrics.

    python3 perfbench/run.py --workload build|serve|append --seed N \
        --seconds S --trace 0|1

Builds perfbench/ against the sources of the checkout it sits in (CMake,
into $CARGO_TARGET_DIR or .bench_build under the checkout root), runs the
workload in a scratch directory there, and reduces its raw samples to the
metrics named in BENCHMARK.json: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A summary goes to stdout first; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero if the build fails or any output check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# Percentiles considered for a timing's tail, highest first.
PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)
MIN_BEYOND = 10
# Query latency percentiles are taken per run of this many open-loop
# queries (10 beyond each p99, the fewest the percentile rule allows),
# closed-loop throughput per window of this many seconds.
WINDOW_QUERIES = 1000
WINDOW_S = 0.25

# Per-layer host seconds read from bench-side spans: metric -> span name.
# Each is the median over the span's calls in the run.
SPAN_SECONDS = {
    "align.graph_s": "align.build_homology_graph",
    "align.seed_s": "align.find_candidate_pairs",
    "align.verify_s": "align.verify_candidate_pairs",
    "core.cluster_s": "core.cluster",
    "core.pass1_s": "core.pass1",
    "core.aggregate1_s": "core.aggregate1",
    "core.pass2_s": "core.pass2",
    "core.aggregate2_s": "core.aggregate2",
    "core.report_s": "core.report",
    "store.build_s": "store.build_family_store",
    "store.serialize_s": "store.serialize_snapshot",
    "store.write_s": "store.write_snapshot",
    "store.load_s": "store.load_snapshot",
    "store.delta_build_s": "store.delta_build",
    "store.delta_write_s": "store.write_delta",
    "store.delta_apply_s": "store.apply_snapshot_delta",
    "serve.reload_s": "serve.reload",
    "ingest.seed_s": "ingest.seed",
    "ingest.verify_s": "ingest.verify",
    "ingest.recluster_s": "ingest.recluster",
}
SPAN_MICROSECONDS = {
    "serve.score_us": "serve.score_candidates",
    "serve.decide_us": "serve.decide",
}
HOST_LAYERS = ("align", "core", "store", "serve", "ingest")


class BenchError(Exception):
    pass


def nearest_rank(ordered, p):
    """Index of the p-th percentile (nearest rank) in a sorted sample."""
    # Rounded first: 99.9 * 10000 / 100 is 9990.000000000002 in binary.
    return max(0, math.ceil(round(p * len(ordered) / 100.0, 6)) - 1)


def percentile(samples, p):
    ordered = sorted(samples)
    return ordered[nearest_rank(ordered, p)]


def tail_percentile(samples):
    """The highest percentile in PERCENTILES with at least MIN_BEYOND
    samples beyond it, as (percentile, value, sample count); None when the
    sample is too small for any."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        k = nearest_rank(ordered, p)
        if n > 0 and n - 1 - k >= MIN_BEYOND:
            return p, ordered[k], n
    return None


def describe(name, samples, unit):
    """One summary line: median, supported tail percentile, sample count."""
    tail = tail_percentile(samples)
    text = f"{name}: median {statistics.median(samples):.6g} {unit}"
    if tail is None:
        text += f", no percentile has {MIN_BEYOND} samples beyond it"
    else:
        text += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    return text + f" (n={len(samples)})"


def spans_by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s["end"] - s["start"])
    return out


def layer_times(spans, start, end):
    """Per-layer self seconds and the share of [start, end] that no
    top-level span covers. A span's self time is its duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[int(s["parent"])] += s["end"] - s["start"]
    self_s = {layer: 0.0 for layer in HOST_LAYERS}
    covered = 0.0
    for i, s in enumerate(spans):
        if s["start"] < start or s["end"] > end:
            continue
        dur = s["end"] - s["start"]
        self_s[s["layer"]] = self_s.get(s["layer"], 0.0) + dur - child[i]
        if s["parent"] < 0:
            covered += dur
    wall = end - start
    return self_s, (wall - covered) / wall


def quiet_window_percentile(latencies, p):
    """The lower quartile of the p-th percentiles of consecutive runs of
    WINDOW_QUERIES latencies (in due order). Co-tenant CPU steal on a
    shared virtual machine stalls a worker for milliseconds and only ever
    adds latency; a quiet window still shows every stall the program
    causes itself, which recurs in every window. The quartile rather than
    the lowest window: which queries a window draws moves its p99 by 10%,
    and the lowest picks the luckiest draw."""
    runs = [latencies[i:i + WINDOW_QUERIES]
            for i in range(0, len(latencies) - WINDOW_QUERIES + 1,
                           WINDOW_QUERIES)]
    if not runs:
        raise BenchError(f"{len(latencies)} query latencies fill no window "
                         f"of {WINDOW_QUERIES}")
    return sorted(percentile(r, p) for r in runs)[len(runs) // 4]


def best_window_rate(done_s):
    """The highest completions per second among the full WINDOW_S windows
    of a closed loop, given each completion's seconds since it opened."""
    windows = int(done_s[-1] // WINDOW_S) if done_s else 0
    if windows == 0:
        raise BenchError("closed loop shorter than one window")
    counts = [0] * windows
    for t in done_s:
        if t < windows * WINDOW_S:
            counts[int(t // WINDOW_S)] += 1
    return max(counts) / WINDOW_S


def end_to_end_metrics(raw):
    samples, values = raw["samples"], raw["values"]
    query = samples["query_ms"]
    # Timings that co-tenant noise can only inflate are best-of-N: the
    # fastest build, a quiet query window. A median needs no such help.
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "build_s": min(samples["build_s"]),
        "device_modeled_s": values["device_modeled_s"],
        "family_ppv": values["family_ppv"],
        "family_se": values["family_se"],
        "peak_rss_mb": values["peak_rss_mb"],
        "query_p50_ms": statistics.median(query),
        "query_p99_ms": quiet_window_percentile(query, 99.0),
        "queries_per_s": best_window_rate(samples["closed_done_s"]),
        "query_assigned_frac": values["query_assigned_frac"],
        "append_visible_s": statistics.median(samples["append_visible_s"]),
    }


def per_layer_metrics(raw):
    spans, values = raw["spans"], raw["values"]
    durations = spans_by_name(spans)
    out = {}
    for metric, name in SPAN_SECONDS.items():
        out[metric] = statistics.median(durations[name])
    for metric, name in SPAN_MICROSECONDS.items():
        out[metric] = 1e6 * statistics.median(durations[name])
    self_s, unattributed = layer_times(
        spans, raw["wall"]["start"], raw["wall"]["end"])
    for layer in HOST_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    out["bench.unattributed_frac"] = unattributed
    out["bench.generator_lag_ms"] = percentile(raw["samples"]["lag_ms"], 99.0)
    out["serve.append_p99_ms"] = percentile(
        raw["samples"]["append_query_ms"], 99.0)
    for name, value in values.items():
        if "." in name:
            out[name] = value
    return out


def summary_lines(raw):
    samples = raw["samples"]
    lines = [f"workload {raw['workload']}, seed {raw['seed']:g}, "
             f"{raw['orfs']:g} ORFs, trace {int(raw['trace'])}"]
    for name, unit in (("setup_s", "s"), ("build_s", "s"),
                       ("traced_build_s", "s"), ("append_visible_s", "s"),
                       ("query_ms", "ms"), ("append_query_ms", "ms"),
                       ("lag_ms", "ms")):
        if name in samples:
            lines.append(describe(name, samples[name], unit))
    for phase, t in sorted(raw["phases"].items()):
        lines.append(f"{phase}: sent {t['sent']:g}, succeeded "
                     f"{t['succeeded']:g}, failed {t['failed']:g} in "
                     f"{t['seconds']:.3f} s")
    for name, ok in sorted(raw["checks"].items()):
        lines.append(f"check {name}: {'ok' if ok else 'FAILED'}")
    return lines


def result_line(raw, spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    computed = per_layer_metrics(raw) if trace else end_to_end_metrics(raw)
    metrics = {}
    for m in group:
        if m["name"] not in computed:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
    correct = bool(raw["checks"]) and all(raw["checks"].values())
    return {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", str(HERE), "-B", str(build_dir),
                        *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run([cmake, "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "serve", "append"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--families", type=int, default=None,
                        help="planted families (default: the benchmark's "
                             "scale; smaller for smoke tests)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, BenchError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    workdir = build_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    raw_path = workdir / "result.json"
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--out={raw_path}",
               f"--workdir={workdir}"]
    if args.families is not None:
        command.append(f"--families={args.families}")
    try:
        subprocess.run(command, stdout=sys.stderr, check=True,
                       timeout=RUN_TIMEOUT_S)
        raw = json.loads(raw_path.read_text())
        line = result_line(raw, spec, bool(args.trace))
    except (subprocess.SubprocessError, OSError, ValueError, KeyError,
            BenchError) as e:
        print(f"run.py: workload failed: {e!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"wall": raw["wall"], "spans": raw["spans"]}))
    for text in summary_lines(raw):
        print(text)
    if args.trace:
        print(f"spans written to {trace_path}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
