//! End-to-end benchmark of the fault-tolerant DSM.
//!
//! Three workloads on a fixed 2-node cluster, each run for a fixed time:
//! Water-Spatial time to solution under base HLRC and under fault
//! tolerance (failure-free and with one node crashed and recovered), and a
//! lock-bound bank KV under fault tolerance. Every execution's output is
//! checked. End-to-end metrics come from untraced executions; per-layer
//! metrics come from a traced run, which also prices the tracing itself.
//! See `workload.rs` for what each metric means on each workload.

pub mod exec;
pub mod host;
pub mod kv;
pub mod layers;
pub mod output;
pub mod stats;
pub mod workload;

/// A declared metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of untraced runs (`--trace 0`), in print order.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("crash_wall_s", "s", "lower"),
    m("recovery_s", "s", "lower"),
    m("txn_per_s", "1/s", "higher"),
    m("txn_p50_us", "us", "lower"),
    m("txn_p99_us", "us", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Metrics of traced runs (`--trace 1`), in print order. A metric whose
/// mechanism a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("runtime.acquire_p50_us", "us", "lower"),
    m("runtime.acquire_p99_us", "us", "lower"),
    m("runtime.release_p50_us", "us", "lower"),
    m("runtime.release_p99_us", "us", "lower"),
    m("runtime.txn_access_p50_us", "us", "lower"),
    m("runtime.barrier_p50_us", "us", "lower"),
    m("runtime.safe_point_p50_us", "us", "lower"),
    m("runtime.page_wait_s", "s", "lower"),
    m("runtime.lock_wait_s", "s", "lower"),
    m("runtime.barrier_wait_s", "s", "lower"),
    m("runtime.protocol_s", "s", "lower"),
    m("runtime.compute_s", "s", "lower"),
    m("runtime.ops", "count", "lower"),
    m("runtime.unattributed_frac", "frac", "lower"),
    m("hlrc.pages_fetched", "count", "lower"),
    m("hlrc.fetch_round_trips_per_page", "count/page", "lower"),
    m("hlrc.prefetch_hit_frac", "frac", "higher"),
    m("hlrc.release_flush_mean_us", "us", "lower"),
    m("hlrc.barrier_build_mean_us", "us", "lower"),
    m("hlrc.shard_lock_wait_mean_us", "us", "lower"),
    m("hlrc.lock_msgs", "count", "lower"),
    m("page.diffs_created", "count", "lower"),
    m("page.diff_create_mean_us", "us", "lower"),
    m("page.diff_apply_mean_us", "us", "lower"),
    m("page.pool_hit_frac", "frac", "higher"),
    m("net.msgs", "count", "lower"),
    m("net.base_mb", "MiB", "lower"),
    m("net.ft_mb", "MiB", "lower"),
    m("net.queue_wait_mean_us", "us", "lower"),
    m("net.svc_mean_us", "us", "lower"),
    m("ft.ckpts", "count", "lower"),
    m("ft.delta_ckpts", "count", "higher"),
    m("ft.logging_s", "s", "lower"),
    m("ft.disk_write_s", "s", "lower"),
    m("ft.ckpt_write_mean_us", "us", "lower"),
    m("ft.log_created_mb", "MiB", "lower"),
    m("ft.log_discarded_frac", "frac", "higher"),
    m("ft.wmax", "count", "lower"),
    m("ft.rec_restore_ms", "ms", "lower"),
    m("ft.rec_log_collect_ms", "ms", "lower"),
    m("ft.rec_replay_ms", "ms", "lower"),
    m("storage.mb_written", "MiB", "lower"),
    m("storage.ckpt_mb", "MiB", "lower"),
    m("storage.log_mb", "MiB", "lower"),
    m("storage.writes", "count", "lower"),
    m("member.retransmits", "count", "lower"),
    m("member.dup_suppressed", "count", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
];
