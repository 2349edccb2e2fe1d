#!/usr/bin/env sh
# CI entry point: docs checks (tier 0, no build needed), tier-1
# verification (configure + build + full ctest with warnings-as-errors),
# then an ASan/UBSan build of the unit-test binary, run directly, and a
# ThreadSanitizer build of the unit and alignment tests. Mirrors
# what a hosted CI job would do; runnable locally from the repo root:
#
#   sh tools/ci.sh
#
# The build host has 4 vCPUs shared with other work, so the tiers run one
# after another and timing gates are never raced against a build.
set -eu

cd "$(dirname "$0")/.."

echo "=== tier 0: docs — markdown links + CLI flag coverage ==="
sh tools/check_docs.sh

echo "=== tier 0b: perf-gate unit tests (tools/compare_bench.py) ==="
python3 tools/test_compare_bench.py

echo "=== tier 1: configure + build + ctest (preset: ci) ==="
cmake --preset ci
cmake --build --preset ci
ctest --preset ci

echo "=== tier 1b: alignment bench smoke + perf-trajectory gate ==="
# --quick keeps it to seconds; the bench asserts that the SIMD, scalar and
# device-batched verification paths emit identical edges before reporting
# throughput. The JSON output is then compared against the committed
# snapshot (BENCH_alignment.json): host-measured regressions beyond the
# noise bound and any modeled-time drift fail CI (tools/compare_bench.py;
# regenerate the snapshots on an idle host after intentional changes).
./build-ci/bench/bench_alignment --quick --json=build-ci/BENCH_alignment.json
python3 tools/compare_bench.py BENCH_alignment.json     build-ci/BENCH_alignment.json

echo "=== tier 1b2: serve bench smoke + perf-trajectory gate ==="
./build-ci/bench/bench_serve --quick --json=build-ci/BENCH_serve.json
python3 tools/compare_bench.py BENCH_serve.json build-ci/BENCH_serve.json

echo "=== tier 1b3: graph-scale bench smoke + perf-trajectory gate ==="
# The driver itself asserts the headline (a >= 10x-larger graph built by
# the MinHash/LSH seed stage within the exact path's scale-1 peak
# candidate-memory budget, recall >= 0.95, SpGEMM ablation bit-identical);
# compare_bench then gates the snapshot — counts, recall and peak bytes
# are deterministic and must match exactly, timings within the host bound.
./build-ci/bench/bench_graph_scale --quick --json=build-ci/BENCH_graph.json
python3 tools/compare_bench.py BENCH_graph.json build-ci/BENCH_graph.json

echo "=== tier 1b4: ingest bench smoke + perf-trajectory gate ==="
# The driver digest-checks every batch split against the from-scratch
# partition and asserts the >= 5x amortized host-time reduction for a
# small appended batch before reporting; compare_bench then gates the
# snapshot (counts and touched fractions exactly, host timings within
# the noise bound).
./build-ci/bench/bench_ingest --quick --json=build-ci/BENCH_ingest.json
python3 tools/compare_bench.py BENCH_ingest.json build-ci/BENCH_ingest.json

echo "=== tier 1b5: Table I bench smoke + perf-trajectory gate ==="
# The paper's own pipeline: bench_table1 exits 1 if its serial and
# gpClust partitions differ or its trace-derived device columns disagree
# with GpClustReport; compare_bench then gates the snapshot — per-pass
# tuple and shingle counts and D2H bytes exactly, the modeled GPU, c->g
# and g->c columns at the modeled bound, host columns at the noise bound.
./build-ci/bench/bench_table1 --quick --json=build-ci/BENCH_table1.json
python3 tools/compare_bench.py BENCH_table1.json build-ci/BENCH_table1.json

echo "=== tier 1b6: distributed shingling smoke ==="
# dist at a non-toy size: exits 1 if any rank count differs from serial.
./build-ci/bench/bench_dist --scale 0.05 --ranks 1,3,4

echo "=== tier 1c: family-index round trip (build-index -> query) ==="
# The serving-layer smoke (store + serve unit tests run inside ctest
# above): persist a demo family index, then classify its own ORFs back —
# at least 70% must return to the family they came from, and the query
# tool exits 3 otherwise.
./build-ci/tools/gpclust-build-index --demo-families=12 \
    --out=build-ci/ci_families.gpfi --demo-fasta-out=build-ci/ci_orfs.faa
./build-ci/tools/gpclust-query --index=build-ci/ci_families.gpfi \
    --fasta=build-ci/ci_orfs.faa --workers=2 \
    --require-assigned-fraction=0.7 --out=build-ci/ci_assignments.tsv

echo "=== tier 1d: distributed-serve round trip (shards + fail-over) ==="
# Same index and queries through the sharded tier (DESIGN.md §12): 4
# serving ranks, replication 2, rank 1 killed mid-stream. The surviving
# replicas must produce a TSV byte-identical to the single-node run above
# — fail-over changes who answers, never the answer. gpclust-build-index
# printed the arena check for the device-built index ("device arena empty
# after clustering"); re-run it here so the smoke records the invariant.
./build-ci/tools/gpclust-build-index --demo-families=12 \
    --out=build-ci/ci_families2.gpfi --demo-fasta-out=build-ci/ci_orfs2.faa \
    2>build-ci/ci_build_index.log
grep -q "device arena empty after clustering" build-ci/ci_build_index.log
./build-ci/tools/gpclust-query --index=build-ci/ci_families2.gpfi \
    --fasta=build-ci/ci_orfs2.faa --out=build-ci/ci_single.tsv
./build-ci/tools/gpclust-query --index=build-ci/ci_families2.gpfi \
    --fasta=build-ci/ci_orfs2.faa --ranks=4 --replication=2 \
    --kill-rank=1@5 --resilience=fallback --out=build-ci/ci_sharded.tsv
cmp build-ci/ci_single.tsv build-ci/ci_sharded.tsv
echo "sharded answers byte-identical to single-node under rank death"

echo "=== tier 1e: bucketed seed index (full recall, sharded, mid-stream kill) ==="
# DESIGN.md §13: build an index with explicit signature flags, then serve
# tier 1d's queries through the bucketed seed index at the full-recall
# band setting (--bands=0) — single-node, and on 4 ranks with rank 1
# killed mid-stream. Both TSVs must be byte-identical to the postings
# path's single-node answers: the bucket table changes how candidates are
# found, never the answer.
./build-ci/tools/gpclust-build-index --demo-families=12 --sig-hashes=64 \
    --out=build-ci/ci_families3.gpfi
./build-ci/tools/gpclust-query --index=build-ci/ci_families3.gpfi \
    --fasta=build-ci/ci_orfs2.faa --seed-index=bucketed --bands=0 \
    --out=build-ci/ci_bucketed_single.tsv
./build-ci/tools/gpclust-query --index=build-ci/ci_families3.gpfi \
    --fasta=build-ci/ci_orfs2.faa --seed-index=bucketed --bands=0 \
    --ranks=4 --replication=2 --kill-rank=1@5 --resilience=fallback \
    --out=build-ci/ci_bucketed_sharded.tsv
cmp build-ci/ci_single.tsv build-ci/ci_bucketed_single.tsv
cmp build-ci/ci_single.tsv build-ci/ci_bucketed_sharded.tsv
echo "bucketed answers byte-identical to postings, with and without rank death"

echo "=== tier 1f: streaming ingest (append -> follow-deltas -> compact) ==="
# DESIGN.md §15 equivalence contract end to end through the CLIs: a
# three-way FASTA split built incrementally (base snapshot + two delta
# links) compacts to the byte-identical snapshot a from-scratch build
# over the concatenated input produces, and --follow-deltas serves the
# chain tip with exactly the TSV the compacted snapshot serves. Stale
# links from an earlier run would extend the chain, so clear them first.
rm -f build-ci/ci_ingest_base.gpfi.delta.1 build-ci/ci_ingest_base.gpfi.delta.2
./build-ci/tools/gpclust-build-index --demo-families=10 --seed=7 \
    --out=build-ci/ci_ingest_scratch.gpfi \
    --demo-fasta-out=build-ci/ci_ingest_all.faa
python3 - <<'EOF'
# Split the demo FASTA into three near-equal record runs.
records = []
with open("build-ci/ci_ingest_all.faa") as fasta:
    for line in fasta:
        if line.startswith(">"):
            records.append([])
        records[-1].append(line)
third = (len(records) + 2) // 3
for part in range(3):
    with open(f"build-ci/ci_ingest_part{part + 1}.faa", "w") as out:
        for record in records[part * third:(part + 1) * third]:
            out.writelines(record)
EOF
./build-ci/tools/gpclust-build-index --fasta=build-ci/ci_ingest_part1.faa \
    --out=build-ci/ci_ingest_base.gpfi
./build-ci/tools/gpclust-build-index \
    --base-snapshot=build-ci/ci_ingest_base.gpfi \
    --append=build-ci/ci_ingest_part2.faa,build-ci/ci_ingest_part3.faa
./build-ci/tools/gpclust-build-index \
    --base-snapshot=build-ci/ci_ingest_base.gpfi \
    --compact --out=build-ci/ci_ingest_compacted.gpfi
cmp build-ci/ci_ingest_scratch.gpfi build-ci/ci_ingest_compacted.gpfi
echo "compacted chain byte-identical to the from-scratch snapshot"
./build-ci/tools/gpclust-query --index=build-ci/ci_ingest_compacted.gpfi \
    --fasta=build-ci/ci_ingest_all.faa --out=build-ci/ci_ingest_compacted.tsv
./build-ci/tools/gpclust-query --index=build-ci/ci_ingest_base.gpfi \
    --follow-deltas --fasta=build-ci/ci_ingest_all.faa \
    --out=build-ci/ci_ingest_chain.tsv
cmp build-ci/ci_ingest_compacted.tsv build-ci/ci_ingest_chain.tsv
echo "follow-deltas answers byte-identical to the compacted snapshot"

echo "=== tier 2: ASan/UBSan gpclust_tests + gpclust_align_tests (preset: asan) ==="
cmake --preset asan
cmake --build --preset asan
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/gpclust_tests
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/gpclust_align_tests

echo "=== tier 3: chaos — randomized fault schedules under ASan ==="
# Reuses the asan preset build; the chaos suite is the ctest label
# (equivalently: ctest --test-dir build-asan -L chaos).
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/gpclust_chaos_tests

echo "=== tier 4: ThreadSanitizer gpclust_tests + gpclust_align_tests (preset: tsan) ==="
# The parallel host loops (bucketed group-by, parallel consume, the
# device-emulation kernels) under the race detector; any report fails.
cmake --preset tsan
cmake --build --preset tsan
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/gpclust_tests
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/gpclust_align_tests

echo "=== CI passed ==="
