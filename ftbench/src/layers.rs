//! Per-layer metrics read from the counters `RunReport` exposes.
//!
//! Program histograms are used only through count and sum (means); every
//! percentile comes from the benchmark's own spans (see [`crate::stats`]).

use std::collections::BTreeMap;

use ftdsm::RunReport;

use crate::stats::ratio;

/// Metric name → value, for one execution.
pub type Values = BTreeMap<&'static str, f64>;

const MIB: f64 = 1024.0 * 1024.0;

/// Histogram mean in microseconds.
fn mean_us(h: &dsm_trace::Histogram) -> f64 {
    ratio(h.sum() as f64, h.count() as f64) / 1e3
}

/// The per-layer metrics of one failure-free execution. `node_s` is each
/// node's closure span, the wall the Figure-3 categories must add up to.
pub fn of_run<R>(r: &RunReport<R>, node_s: &[f64]) -> Values {
    let n = r.nodes.len() as f64;
    let b = r.total_breakdown();
    let h = r.total_hists();
    let kinds: BTreeMap<_, _> = r.total_msg_kinds().into_iter().collect();
    let kind = |k: &str| kinds.get(k).copied().unwrap_or(0) as f64;
    let traffic = r.total_traffic();
    let pool = r.total_pool();
    let svc_s: f64 = r
        .total_svc_time_by_kind()
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .sum();
    let (q_count, q_ns) = r
        .phases
        .iter()
        .fold((0u64, 0u64), |(c, q), (_, p)| (c + p.count, q + p.queue_ns));
    let sum_ft =
        |f: fn(&ftdsm::FtReport) -> u64| r.nodes.iter().map(|x| f(&x.ft)).sum::<u64>() as f64;
    let created = sum_ft(|f| f.log_counters.created_bytes);
    let categories = b.page_wait
        + b.lock_wait
        + b.barrier_wait
        + b.protocol
        + b.logging
        + b.disk_write
        + b.compute();
    let per_node = |d: std::time::Duration| d.as_secs_f64() / n;
    let pages_fetched = kind("PageReq") + h.fetch_batch_pages.sum() as f64;

    let mut v = Values::new();
    v.insert("runtime.page_wait_s", per_node(b.page_wait));
    v.insert("runtime.lock_wait_s", per_node(b.lock_wait));
    v.insert("runtime.barrier_wait_s", per_node(b.barrier_wait));
    v.insert("runtime.protocol_s", per_node(b.protocol));
    v.insert("runtime.compute_s", per_node(b.compute()));
    v.insert(
        "runtime.ops",
        r.nodes.iter().map(|x| x.ops).sum::<u64>() as f64,
    );
    v.insert(
        "runtime.unattributed_frac",
        1.0 - ratio(categories.as_secs_f64(), node_s.iter().sum()),
    );

    v.insert("hlrc.pages_fetched", pages_fetched);
    v.insert(
        "hlrc.fetch_round_trips_per_page",
        ratio(kind("PageReq") + kind("PageBatchReq"), pages_fetched),
    );
    v.insert(
        "hlrc.prefetch_hit_frac",
        ratio(
            h.prefetch_hit.count() as f64,
            (h.prefetch_hit.count() as f64) + kind("PageReq"),
        ),
    );
    v.insert("hlrc.release_flush_mean_us", mean_us(&h.release_flush));
    v.insert(
        "hlrc.barrier_build_mean_us",
        mean_us(&h.barrier_release_build),
    );
    v.insert("hlrc.shard_lock_wait_mean_us", mean_us(&h.shard_lock_wait));
    v.insert(
        "hlrc.lock_msgs",
        kind("LockAcq") + kind("LockForward") + kind("LockGrant"),
    );

    v.insert("page.diffs_created", h.diff_apply.count() as f64);
    v.insert("page.diff_create_mean_us", mean_us(&h.diff_create));
    v.insert("page.diff_apply_mean_us", mean_us(&h.diff_apply));
    v.insert(
        "page.pool_hit_frac",
        ratio(pool.hits as f64, (pool.hits + pool.misses) as f64),
    );

    v.insert("net.msgs", traffic.msgs_sent as f64);
    v.insert("net.base_mb", traffic.base_bytes_sent as f64 / MIB);
    v.insert("net.ft_mb", traffic.ft_bytes_sent as f64 / MIB);
    v.insert(
        "net.queue_wait_mean_us",
        ratio(q_ns as f64, q_count as f64) / 1e3,
    );
    v.insert(
        "net.svc_mean_us",
        ratio(svc_s * 1e6, traffic.msgs_sent as f64),
    );

    v.insert("ft.ckpts", r.total_ckpts() as f64);
    v.insert("ft.delta_ckpts", sum_ft(|f| f.delta_ckpts));
    v.insert("ft.logging_s", per_node(b.logging));
    v.insert("ft.disk_write_s", per_node(b.disk_write));
    v.insert("ft.ckpt_write_mean_us", mean_us(&h.ckpt_write));
    v.insert("ft.log_created_mb", created / MIB);
    v.insert(
        "ft.log_discarded_frac",
        ratio(sum_ft(|f| f.log_counters.discarded_bytes), created),
    );
    v.insert("ft.wmax", r.max_ckpt_window() as f64);

    v.insert(
        "storage.mb_written",
        sum_ft(|f| f.store.bytes_written) / MIB,
    );
    v.insert(
        "storage.ckpt_mb",
        sum_ft(|f| f.store.ckpt_bytes_written) / MIB,
    );
    v.insert(
        "storage.log_mb",
        sum_ft(|f| f.store.log_bytes_written) / MIB,
    );
    v.insert("storage.writes", sum_ft(|f| f.store.writes));

    v.insert("member.retransmits", r.total_retransmits() as f64);
    v.insert("member.dup_suppressed", r.total_dup_suppressed() as f64);
    v
}

/// The recovery-phase metrics of one crashed execution, in milliseconds
/// (means over the recoveries it performed).
pub fn of_recovery<R>(r: &RunReport<R>) -> Values {
    let h = r.total_hists();
    let mut v = Values::new();
    v.insert("ft.rec_restore_ms", mean_us(&h.rec_restore) / 1e3);
    v.insert("ft.rec_log_collect_ms", mean_us(&h.rec_log_collect) / 1e3);
    v.insert("ft.rec_replay_ms", mean_us(&h.rec_replay) / 1e3);
    v
}
