//! Hand-rolled log2-bucketed latency histograms (HDR-style, power-of-two
//! resolution) — no dependencies, mergeable across nodes.

/// 65 buckets: bucket 0 holds the value 0; bucket `b` (1..=64) holds
/// values in `[2^(b-1), 2^b)`, so `u64::MAX` lands in bucket 64.
pub const BUCKETS: usize = 65;

/// A log2 histogram over `u64` samples (typically nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a sample.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lo(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => 1u64 << (b - 1),
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile (`q` in [0,1]): lower bound of the bucket
    /// containing the q-th sample. Power-of-two resolution, like HDR at
    /// zero significant digits.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_lo(b);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The named histograms every node keeps: latencies in nanoseconds plus a
/// few per-event counts (see [`LatencyHists::named`] for each one's unit).
#[derive(Debug, Clone, Default)]
pub struct LatencyHists {
    /// Remote page fetch, fault to installed copy.
    pub page_fetch: Histogram,
    /// Lock acquire wait, request to grant applied.
    pub lock_wait: Histogram,
    /// Barrier wait, arrival to release applied.
    pub barrier_wait: Histogram,
    /// End-of-interval diff creation pass (all twins of the interval).
    pub diff_create: Histogram,
    /// Applying one diff to a home page.
    pub diff_apply: Histogram,
    /// Page bytes physically copied per remote fetch (serve → deposit →
    /// install). Zero with shared buffers; page-size before them — a
    /// counter, in bytes rather than nanoseconds.
    pub fetch_copy: Histogram,
    /// Writing one checkpoint to stable storage.
    pub ckpt_write: Histogram,
    /// Recovery: restoring from the checkpoint.
    pub rec_restore: Histogram,
    /// Recovery: collecting peers' logs.
    pub rec_log_collect: Histogram,
    /// Recovery: deterministic replay.
    pub rec_replay: Histogram,
    /// Pages per batched prefetch request (a counter, in pages).
    pub fetch_batch_pages: Histogram,
    /// Waiting for a home-store shard lock in a service-thread handler.
    pub shard_lock_wait: Histogram,
    /// First touch satisfied by an in-flight prefetch (wait until installed).
    pub prefetch_hit: Histogram,
    /// First touch whose prefetch was dropped or stale (wait until the miss
    /// was detected; the fault then falls back to its own `PageReq`).
    pub prefetch_miss: Histogram,
    /// Heartbeat round-trip time (ping sent to matching pong received).
    pub heartbeat_rtt: Histogram,
    /// Failure-detection latency: first suspicion of a peer to its
    /// confirmed `Down`.
    pub suspicion_latency: Histogram,
    /// Retransmissions per completed wait (a counter, in retries: 0 =
    /// answered first time). Only recorded when the retry layer is on.
    pub retransmits: Histogram,
    /// Barrier manager: episode-completing arrival to release set built
    /// (join, per-(page, interval) dedupe, per-participant delta fan-out).
    pub barrier_release_build: Histogram,
    /// End-of-interval release flush: dirty-page collection through diff
    /// creation (serial or worker pool) to per-home batches sent.
    pub release_flush: Histogram,
    /// Pages written per incremental (delta-mode) checkpoint (a counter,
    /// in pages; full anchors are not recorded).
    pub ckpt_delta_pages: Histogram,
}

/// What a histogram's samples measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A duration in nanoseconds.
    Ns,
    /// A count of pages.
    Pages,
    /// A count of bytes.
    Bytes,
    /// A count of retransmissions.
    Retries,
}

impl Unit {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Pages => "pages",
            Unit::Bytes => "bytes",
            Unit::Retries => "retries",
        }
    }
}

impl LatencyHists {
    /// (label, unit, histogram) triples in print order.
    pub fn named(&self) -> [(&'static str, Unit, &Histogram); 20] {
        use Unit::*;
        [
            ("page_fetch", Ns, &self.page_fetch),
            ("lock_wait", Ns, &self.lock_wait),
            ("barrier_wait", Ns, &self.barrier_wait),
            ("diff_create", Ns, &self.diff_create),
            ("diff_apply", Ns, &self.diff_apply),
            ("fetch_copy_bytes", Bytes, &self.fetch_copy),
            ("ckpt_write", Ns, &self.ckpt_write),
            ("rec_restore", Ns, &self.rec_restore),
            ("rec_log_collect", Ns, &self.rec_log_collect),
            ("rec_replay", Ns, &self.rec_replay),
            ("fetch_batch_pages", Pages, &self.fetch_batch_pages),
            ("shard_lock_wait", Ns, &self.shard_lock_wait),
            ("prefetch_hit", Ns, &self.prefetch_hit),
            ("prefetch_miss", Ns, &self.prefetch_miss),
            ("heartbeat_rtt", Ns, &self.heartbeat_rtt),
            ("suspicion_latency", Ns, &self.suspicion_latency),
            ("retransmits", Retries, &self.retransmits),
            ("barrier_release_build", Ns, &self.barrier_release_build),
            ("release_flush", Ns, &self.release_flush),
            ("ckpt_delta_pages", Pages, &self.ckpt_delta_pages),
        ]
    }

    /// Fold another node's histograms into this one.
    pub fn merge(&mut self, other: &LatencyHists) {
        self.page_fetch.merge(&other.page_fetch);
        self.lock_wait.merge(&other.lock_wait);
        self.barrier_wait.merge(&other.barrier_wait);
        self.diff_create.merge(&other.diff_create);
        self.diff_apply.merge(&other.diff_apply);
        self.fetch_copy.merge(&other.fetch_copy);
        self.ckpt_write.merge(&other.ckpt_write);
        self.rec_restore.merge(&other.rec_restore);
        self.rec_log_collect.merge(&other.rec_log_collect);
        self.rec_replay.merge(&other.rec_replay);
        self.fetch_batch_pages.merge(&other.fetch_batch_pages);
        self.shard_lock_wait.merge(&other.shard_lock_wait);
        self.prefetch_hit.merge(&other.prefetch_hit);
        self.prefetch_miss.merge(&other.prefetch_miss);
        self.heartbeat_rtt.merge(&other.heartbeat_rtt);
        self.suspicion_latency.merge(&other.suspicion_latency);
        self.retransmits.merge(&other.retransmits);
        self.barrier_release_build
            .merge(&other.barrier_release_build);
        self.release_flush.merge(&other.release_flush);
        self.ckpt_delta_pages.merge(&other.ckpt_delta_pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of((1 << 20) - 1), 20);
        assert_eq!(bucket_of(1 << 20), 21);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(64), 1 << 63);
    }

    #[test]
    fn record_extremes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[64], 1);
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantiles_land_in_right_buckets() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 1024] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 16);
        assert_eq!(h.quantile(1.0), 1024);
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(0);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 100);
        assert_eq!(a.sum(), 105);
        assert_eq!(a.buckets()[0], 1);
    }

    #[test]
    fn latency_hists_merge_by_name() {
        let mut a = LatencyHists::default();
        let mut b = LatencyHists::default();
        a.page_fetch.record(10);
        b.page_fetch.record(20);
        b.lock_wait.record(30);
        a.merge(&b);
        assert_eq!(a.page_fetch.count(), 2);
        assert_eq!(a.lock_wait.count(), 1);
        assert_eq!(a.named()[0].0, "page_fetch");
    }

    #[test]
    fn count_histograms_carry_their_units() {
        let h = LatencyHists::default();
        let unit = |name: &str| h.named().iter().find(|n| n.0 == name).unwrap().1;
        assert_eq!(unit("page_fetch"), Unit::Ns);
        assert_eq!(unit("fetch_batch_pages"), Unit::Pages);
        assert_eq!(unit("ckpt_delta_pages"), Unit::Pages);
        assert_eq!(unit("fetch_copy_bytes"), Unit::Bytes);
        assert_eq!(unit("retransmits"), Unit::Retries);
    }
}
