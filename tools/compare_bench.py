#!/usr/bin/env python3
"""Perf-trajectory gate: compare a fresh bench --json document against the
committed snapshot (BENCH_*.json, docs/bench_json.md) and fail on
host-measured regressions beyond noise bounds.

Usage:
    tools/compare_bench.py BASELINE.json CURRENT.json [--bound=RATIO]

Field policy, derived from the bench_json.md conventions:

* Count/config fields (integers, workload shape, params) must match
  exactly — a different workload is not a comparison, it is a bug in the
  harness or an unregenerated snapshot.
* Duration fields (``*_s``) are regression-gated: current/baseline must
  stay below --bound. Modeled fields (``*_modeled_s``) are deterministic,
  so they get a much tighter bound (they only move when the cost model or
  schedule changes — which should be a conscious, snapshot-regenerating
  change). The 4-vCPU CI host is shared with other work and noisy, hence
  the generous default host bound; the gate is for trajectory-scale
  regressions (an accidentally-disabled fast path), not single-digit
  percent drift.
* Throughput fields (``*_per_s``) are gated in the other direction:
  baseline/current must stay below the same bound.
* Ratio fields (``*speedup*``) and latency quantiles (noisy on a shared
  4-vCPU host) are informational only.
* Host durations where both sides sit under an absolute noise floor
  (50 ms) are informational only: a ratio bound on a handful of
  milliseconds gates scheduler jitter, not a code path.

Exit status: 0 clean, 1 regression or shape mismatch, 2 usage error.
"""

import json
import sys

HOST_BOUND = 2.5  # default --bound: generous, 4-vCPU host shared with other work
MODELED_BOUND = 1.001  # modeled seconds are deterministic
HOST_FLOOR_S = 0.05  # host durations below this on both sides: not gated

# Noisy-by-design fields that are reported but never gated: ratios,
# latency quantiles, the serve bench's profile-cache hit/build split
# (which worker claims a query — and thus whose single-slot cache hits —
# depends on scheduling, even though the assignments themselves do not),
# and the sharded tier's fail-over counters (how many in-flight requests
# a dying rank strands — and thus the re-issue count — depends on
# scheduling; answers stay bit-identical, which the bench itself
# digest-checks).
SKIP_SUBSTRINGS = ("speedup", "latency_", "_max_s", "profile_hits",
                   "profile_builds", "rank_failures", "query_reissues",
                   "shard_failovers")


def walk(doc, prefix=""):
    """Flattens a JSON document into (dotted.path, value) leaves."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from walk(doc[key], prefix + key + ".")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from walk(item, f"{prefix}{i}.")
    else:
        yield prefix[:-1], doc


def classify(path):
    leaf = path.rsplit(".", 1)[-1]
    if any(s in leaf for s in SKIP_SUBSTRINGS):
        return "skip"
    if leaf.endswith("_modeled_s"):
        return "modeled"
    # "_per_s" also ends in "_s": test it first, or every throughput field
    # is gated as a duration (a gain fails and a loss passes).
    if leaf.endswith("_per_s"):
        return "throughput"
    if leaf.endswith("_s"):
        return "host"
    return "exact"


def main(argv):
    bound = HOST_BOUND
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--bound="):
            bound = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(f"usage: {argv[0]} BASELINE.json CURRENT.json [--bound=RATIO]",
              file=sys.stderr)
        return 2

    with open(paths[0]) as f:
        baseline = dict(walk(json.load(f)))
    with open(paths[1]) as f:
        current = dict(walk(json.load(f)))

    failures = []
    if set(baseline) != set(current):
        only_base = sorted(set(baseline) - set(current))
        only_cur = sorted(set(current) - set(baseline))
        for k in only_base:
            failures.append(f"field {k} present only in baseline")
        for k in only_cur:
            failures.append(f"field {k} present only in current")

    gated = 0
    for key in sorted(set(baseline) & set(current)):
        kind = classify(key)
        base, cur = baseline[key], current[key]
        if kind == "skip":
            continue
        if kind == "exact":
            if base != cur:
                failures.append(f"{key}: expected {base!r}, got {cur!r}")
            continue
        if not isinstance(base, (int, float)) or isinstance(base, bool) or \
           not isinstance(cur, (int, float)) or isinstance(cur, bool):
            failures.append(f"{key}: non-numeric duration ({base!r}, {cur!r})")
            continue
        if kind == "host" and base < HOST_FLOOR_S and cur < HOST_FLOOR_S:
            continue
        gated += 1
        limit = MODELED_BOUND if kind == "modeled" else bound
        if kind == "throughput":
            ratio = base / cur if cur > 0 else float("inf")
            direction = "slowdown (baseline/current)"
        else:
            ratio = cur / base if base > 0 else (1.0 if cur == 0 else
                                                 float("inf"))
            direction = "slowdown (current/baseline)"
        if ratio > limit:
            failures.append(
                f"{key}: {direction} {ratio:.2f}x exceeds bound {limit}x "
                f"({base} -> {cur})")

    if failures:
        for msg in failures:
            print(f"REGRESSION {msg}")
        print(f"compare_bench: FAILED ({len(failures)} finding(s), "
              f"{gated} gated fields)")
        return 1
    print(f"compare_bench: ok ({gated} duration fields within bounds, "
          f"baseline {paths[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
