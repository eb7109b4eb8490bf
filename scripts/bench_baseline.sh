#!/usr/bin/env bash
# Regenerate the diff-pipeline and protocol benchmark baselines.
#
# Usage: scripts/bench_baseline.sh [OUT.json] [PROTO_OUT.json]
#
# Runs the criterion micro benches (benches/micro.rs, benches/diff.rs and
# benches/protocol.rs) plus short paper-harness `hist` and `protocol` runs,
# and distills the numbers these baselines track into OUT.json (default
# BENCH_diff.json) and PROTO_OUT.json (default BENCH_protocol.json):
#
#   - diff create ns/op at five sparsity levels (1/32/256/448/512 dirty
#     words of a 4 KiB page), for both the naive byte-wise reference and
#     the u64 word-diff fast path;
#   - diff apply ns/op (plain and pooled) at the same levels;
#   - the steady-state twin cycle (twin + write + diff + recycle) ns/op;
#   - bytes physically copied per remote page fetch (zero-copy check);
#   - page-pool counters from a real FT Water-Spatial run;
#   - remote fetch round trips per page and protocol op latencies on the
#     barrier-heavy Water-Spatial FT kernel (n=8), against the pinned
#     pre-batching baseline.
#
# Alongside the JSON baselines it leaves a metrics snapshot of the hist
# run: BENCH_metrics.jsonl (periodic registry samples, one per line) and
# BENCH_metrics.prom (final Prometheus exposition), driven by the
# FTDSM_METRICS_EVERY_MS / FTDSM_METRICS_OUT environment hooks.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_diff.json}"
PROTO_OUT="${2:-BENCH_protocol.json}"
METRICS_OUT="${3:-BENCH_metrics.jsonl}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo bench -p dsm-bench --bench diff | tee "$TMP/diff.txt"
cargo bench -p dsm-bench --bench micro | tee "$TMP/micro.txt"
rm -f "$METRICS_OUT"
FTDSM_METRICS_EVERY_MS=10 FTDSM_METRICS_OUT="$METRICS_OUT" \
    cargo run -q --release -p dsm-bench --bin paper -- hist >"$TMP/hist.txt"
[ -s "$METRICS_OUT" ] || { echo "no metrics sampled into $METRICS_OUT" >&2; exit 1; }
echo "wrote $METRICS_OUT and ${METRICS_OUT%.jsonl}.prom"

# Median ns/iter of one `bench <id> <median> ns/iter ...` line.
median() {
    awk -v id="$1" '$1 == "bench" && $2 == id { print $3; exit }' "$TMP/diff.txt"
}

# First (clean-run) fetch_copy_bytes row: count and mean bytes per fetch.
FETCHES=$(awk '$1 == "fetch_copy_bytes" { print $2; exit }' "$TMP/hist.txt")
FETCH_BYTES=$(awk '$1 == "fetch_copy_bytes" { print $3; exit }' "$TMP/hist.txt")
# Clean-run pool counters: "page pool: H hits, M misses, R recycled, X rejected".
read -r HITS MISSES RECYCLED REJECTED < <(
    awk -F'[ ,]+' '/page pool:/ { print $4, $6, $8, $10; exit }' "$TMP/hist.txt"
)

{
    echo '{'
    echo '  "generated_by": "scripts/bench_baseline.sh",'
    echo '  "page_bytes": 4096,'
    echo '  "diff_create_ns_per_op": {'
    for d in 1 32 256 448 512; do
        comma=$([ "$d" = 512 ] && echo "" || echo ",")
        echo "    \"dirty_words_$d\": {\"naive\": $(median "diff_create/naive_4k/$d"), \"u64\": $(median "diff_create/u64_4k/$d")}$comma"
    done
    echo '  },'
    echo "  \"diff_create_identical_ns_per_op\": $(median "diff_create/u64_4k_identical"),"
    echo '  "diff_apply_ns_per_op": {'
    for d in 1 32 256 448 512; do
        comma=$([ "$d" = 512 ] && echo "" || echo ",")
        echo "    \"dirty_words_$d\": {\"plain\": $(median "diff_apply/plain_4k/$d"), \"pooled\": $(median "diff_apply/pooled_4k/$d")}$comma"
    done
    echo '  },'
    echo "  \"twin_cycle_ns_per_op\": $(median "twin_cycle/pooled_4k"),"
    echo "  \"fetch\": {\"count\": $FETCHES, \"bytes_copied_per_fetch\": $FETCH_BYTES},"
    echo "  \"pool\": {\"hits\": $HITS, \"misses\": $MISSES, \"recycled\": $RECYCLED, \"rejected\": $REJECTED}"
    echo '}'
} >"$OUT"

echo "wrote $OUT"
cat "$OUT"

# ---- protocol baseline (BENCH_protocol.json) -------------------------------

cargo bench -p dsm-bench --bench protocol | tee "$TMP/protocol.txt"
cargo run -q --release -p dsm-bench --bin paper -- protocol >"$TMP/protocol_run.txt"

# Median ns/iter of one protocol bench row.
pmedian() {
    awk -v id="$1" '$1 == "bench" && $2 == id { print $3; exit }' "$TMP/protocol.txt"
}
# Count from a `protocol_msgs <kind> <count>` line.
pmsgs() {
    awk -v k="$1" '$1 == "protocol_msgs" && $2 == k { print $3; exit }' "$TMP/protocol_run.txt"
}
phist() {
    awk -v m="$1" -v f="$2" '$1 == "protocol_hist" && $2 == m {
        for (i = 3; i < NF; i++) if ($i == f) { print $(i + 1); exit }
    }' "$TMP/protocol_run.txt"
}

PAGE_REQ=$(pmsgs PageReq)
BATCH_REQ=$(pmsgs PageBatchReq)
PAGES=$(awk '$1 == "protocol_pages_fetched" { print $2; exit }' "$TMP/protocol_run.txt")
RT_PER_PAGE=$(awk '$1 == "protocol_round_trips_per_page" { print $2; exit }' "$TMP/protocol_run.txt")
read -r PF_HITS PF_MISSES < <(
    awk '$1 == "protocol_prefetch" { print $3, $5; exit }' "$TMP/protocol_run.txt"
)
# Pre-batching baseline: every remote page miss was its own PageReq round
# trip (740 fetches = 740 round trips on this kernel at commit afbdd17),
# measured on the same host as the bench medians below.
PRE_RT_PER_PAGE=1.0
REDUCTION=$(awk -v post="$RT_PER_PAGE" -v pre="$PRE_RT_PER_PAGE" 'BEGIN { printf "%.2f", pre / post }')

{
    echo '{'
    echo '  "generated_by": "scripts/bench_baseline.sh",'
    echo '  "workload": "Water-Spatial, FT, 8 nodes, 4 KiB pages (barrier-heavy SPLASH kernel)",'
    echo '  "prechange": {'
    echo '    "comment": "pre big-lock decomposition and batched fetch (commit afbdd17), same host",'
    echo '    "fetch_round_trips": {"PageReq": 740, "PageBatchReq": 0, "pages_fetched": 740, "round_trips_per_page": 1.0},'
    echo '    "bench_ns_per_iter": {"page_fetch_4k": 110.0, "lock_roundtrip_2n": 1935.8, "barrier_2n": 14826.2, "barrier_4n": 23132.5, "write_release_diff": 4562.1, "ft_checkpoint_64_pages": 373069.8}'
    echo '  },'
    echo '  "postchange": {'
    echo "    \"fetch_round_trips\": {\"PageReq\": $PAGE_REQ, \"PageBatchReq\": $BATCH_REQ, \"pages_fetched\": $PAGES, \"round_trips_per_page\": $RT_PER_PAGE},"
    echo "    \"round_trip_reduction_x\": $REDUCTION,"
    echo "    \"prefetch\": {\"hits\": $PF_HITS, \"misses\": $PF_MISSES},"
    echo '    "latency_ns": {'
    for m in page_fetch lock_wait barrier_wait; do
        comma=$([ "$m" = barrier_wait ] && echo "" || echo ",")
        echo "      \"$m\": {\"count\": $(phist "$m" count), \"mean\": $(phist "$m" mean_ns), \"p50\": $(phist "$m" p50_ns), \"p95\": $(phist "$m" p95_ns)}$comma"
    done
    echo '    },'
    echo '    "bench_ns_per_iter": {'
    echo "      \"page_fetch_4k\": $(pmedian protocol/page_fetch_4k),"
    echo "      \"access_hit_home\": $(pmedian protocol/access_hit_home),"
    echo "      \"access_hit_remote\": $(pmedian protocol/access_hit_remote),"
    echo "      \"lock_roundtrip_2n\": $(pmedian protocol/lock_roundtrip_2n),"
    echo "      \"barrier_2n\": $(pmedian protocol/barrier_2n),"
    echo "      \"barrier_4n\": $(pmedian protocol/barrier_4n),"
    echo "      \"barrier_8n\": $(pmedian protocol/barrier_8n),"
    echo "      \"write_release_diff\": $(pmedian protocol/write_release_diff),"
    echo "      \"invalidate_fetch_16p_2n\": $(pmedian protocol/invalidate_fetch_16p_2n),"
    echo "      \"page_fetch_contended_4n\": $(pmedian protocol/page_fetch_contended_4n),"
    echo "      \"ft_checkpoint_64_pages\": $(pmedian ft/checkpoint_64_pages),"
    echo "      \"ft_checkpoint_64_pages_full\": $(pmedian ft/checkpoint_64_pages_full)"
    echo '    }'
    echo '  },'
    # The access hit path A/B (single checked read/write), measured once on
    # the same host with the same bench source on both sides.
    echo '  "access_hit_path": {'
    echo '    "comment": "single checked read/write per access vs the parent'"'"'s three big-lock sections; same host (2 vCPU), same bench source on both sides, median of 3 interleaved runs each. page_fetch_4k now misses on every iteration (one PageReq per iteration, asserted); access_hit_* time one typed read plus one typed write per iteration on an already-valid page",'
    echo '    "parent_ns_per_iter": {"page_fetch_4k": 47474.6, "access_hit_home": 417.9, "access_hit_remote": 224.3},'
    echo '    "change_ns_per_iter": {"page_fetch_4k": 43942.6, "access_hit_home": 139.2, "access_hit_remote": 82.7}'
    echo '  }'
    echo '}'
} >"$PROTO_OUT"

echo "wrote $PROTO_OUT"
cat "$PROTO_OUT"
