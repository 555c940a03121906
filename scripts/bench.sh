#!/usr/bin/env bash
# bench.sh — record the core perf trajectory.
#
# Runs the single-vs-batch-vs-stream access benchmarks, the LRU-policy
# stream benchmark, the set-sharded parallel pass at fan-outs 2/4/8,
# the span pipeline's per-span shard split vs the serial
# materialize-then-shard baseline, the
# block-size fold ladder vs the decode-per-block-size baseline, and the
# write-policy reference replay over the kind-preserving stream vs its
# per-access baseline, the DBS1 artifact marshal/load costs, the
# artifact-store warm-vs-cold exploration pair, the result-tier
# warm-vs-cold sweep pair, the pipelined streaming replay vs the
# phased materialize-then-replay baseline, the span-ladder driver's
# concurrent vs serial rung replay, and one sweep cell's reference side
# (30 kind-free FIFO passes over a materialized stream), and writes:
#   BENCH_core.txt   raw `go test -bench` output (benchstat input)
#   BENCH_core.json  summary with means, batch-over-single,
#                    stream-over-batch and sharded-over-stream speedup
#                    curves, per-workload stream run-compression ratios,
#                    per-workload span-shard throughput (blocks/s,
#                    decode→partition) and span-over-serial shard
#                    speedups, the fold-over-decode speedup and per-rung
#                    fold compression of the block ladder, the
#                    write-policy stream-over-access speedup and the kind
#                    channel's bytes-per-access footprint, the artifact
#                    cache's warm-over-cold exploration speedup and
#                    load throughput (cache_load_blocks_per_s), the
#                    result tier's warm-over-cold sweep speedup
#                    (speedup_sweep_warm_over_cold) and warm cell-serve
#                    throughput (result_cache_hit_cells_per_s), the
#                    pipelined streaming replay's speedup over the
#                    materialize-then-replay baseline
#                    (speedup_streamed_over_phased) and its enforced
#                    resident-stream bound (peak_resident_bytes), the
#                    span-ladder driver's concurrent-over-serial rung
#                    speedup (speedup_ladder_concurrent_over_serial), the
#                    cold exploration's heap bytes per run
#                    (explore_cold_bytes_per_op), the sweep cell's
#                    reference replay time (ref_stream_ns_per_access),
#                    the host core
#                    count (num_cpu), speedups against the committed
#                    seed baseline, and a history of previous recordings
#                    (appended, not overwritten)
#
# Environment:
#   COUNT  benchmark repetitions per name (default 5)
#   OUT    output basename (default BENCH_core)
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
OUT="${OUT:-BENCH_core}"
REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Tee into a temp file and move it into place only once the benchmarks
# pass (set -o pipefail fails the pipeline with go test), so a failed
# or interrupted run cannot leave a truncated $OUT.txt behind.
go test -run '^$' -bench 'Benchmark(Access(Single|Stream|StreamLRU|Sharded)|(Span|Serial)Shard|(Fold|Decode)Ladder|Ref(Access|Stream)Write|RefStream|Stream(Marshal|Load)|Explore(Cold|Warm)|Sweep(Cold|Warm)|Replay(Streamed|Materialized|StreamedLadder))$' -benchmem -count "$COUNT" . | tee "$OUT.txt.tmp"
mv "$OUT.txt.tmp" "$OUT.txt"

# Preserve the previous recording as history: benchjson reads it from a
# side copy (the shell truncates $OUT.json before benchjson runs).
PREV_ARGS=()
if [ -f "$OUT.json" ]; then
    cp "$OUT.json" "$OUT.prev.json"
    PREV_ARGS=(-prev "$OUT.prev.json")
fi

# Write to a temp file and move into place only on success, so a failed
# or interrupted run cannot leave a truncated $OUT.json behind. (The
# guarded expansion keeps `set -u` happy on bash < 4.4, where an empty
# array would otherwise count as unbound.)
go run ./scripts/benchjson -baseline scripts/seed_baseline.json -rev "$REV" \
    ${PREV_ARGS[@]+"${PREV_ARGS[@]}"} \
    < "$OUT.txt" > "$OUT.json.tmp"
mv "$OUT.json.tmp" "$OUT.json"
rm -f "$OUT.prev.json"

echo "wrote $OUT.txt and $OUT.json"
