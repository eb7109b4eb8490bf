//! The three workloads and the metrics they report.
//!
//! Every workload runs on a fixed 2-node cluster: one closed-loop
//! application thread per node, all in this process. More nodes than
//! cores would measure the scheduler, so no node-count scaling is reported.
//! The cluster seed is fixed; the workload seed only feeds the application
//! inputs (Water-Spatial's molecule placement, the KV's transaction stream)
//! and the choice of crash points.
//!
//! A run repeats rounds until its time is up. A round is one failure-free
//! execution and, on `water_sp_ft`, one execution in which one node
//! crashes and recovers. `water_sp_ft` first runs the base protocol once
//! as the checksum reference. Every end-to-end metric is reported on every
//! workload, as a median over the run unless said otherwise:
//!
//! * `setup_s`: call into `run` until the last node is ready, over every
//!   cluster start: entered the closure (Water-Spatial) or started its
//!   first transaction (KV, so the table load counts).
//! * `wall_s`: time to solution of the failure-free executions, call into
//!   `run` until the last node returns from the closure.
//! * `crash_wall_s`, `recovery_s`: on `water_sp_ft`, time to solution of
//!   the crashed executions and the victim's `FtReport::recovery_time`.
//!   The other workloads crash no node: base HLRC cannot recover one, and
//!   a crashed KV execution can hang in recovery (seed 34, node 1 at op
//!   56022 reproduces it). For them a crash at the same kind of crash
//!   point is priced as a rerun from the start, estimated from two
//!   measured executions: the previous one prorated by the victim's share
//!   of ops done before the crash point, plus the rerun (`crash_wall_s`),
//!   and that prorated share of the rerun (`recovery_s`).
//! * `txn_per_s`, `txn_p50_us`, `txn_p99_us`: per failure-free execution,
//!   transactions per second and the nearest-rank percentiles of its
//!   transaction latencies; the median of each over the run. On the KV a
//!   transaction is one bank transaction, from its first acquire called
//!   to its last release returned, and throughput counts from the first
//!   start to the return of the barrier that ends the last group.
//!   Water-Spatial's steps are internal to the app, so there a transaction
//!   is one time step: steps over the time to solution, and each node's
//!   mean step time (closure span / steps) as the samples, of which the
//!   p99 is the slower node's.
//!
//! Per-layer metrics (`--trace 1`) are medians over the traced executions
//! of the values in `layers.rs`, plus the KV's own spans pooled over its
//! traced executions. `runtime.unattributed_frac` is, on Water-Spatial,
//! 1 − (Figure-3 categories ÷ node closure spans) and, on the KV,
//! 1 − (acquire + access + release + barrier + safe-point spans ÷ each
//! node's closed loop). `trace.overhead_frac` is the traced failure-free
//! wall over the untraced one run in the same rounds, minus 1.
//! * `peak_rss_mb`: the process's VmHWM during each failure-free
//!   execution, with the allocator's free memory returned first.
//!
//! `attempted` and `failed` in the result count executions; their ratio
//! is the failed fraction. A failed execution contributes no samples.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ftdsm::{CkptPolicy, ClusterConfig, DiskMode, DiskModel, FailureSpec, TraceConfig};
use splash::{water_sp, WaterSpParams};

use crate::exec::{execute, Exec, Probe, HUNG};
use crate::kv::{self, KvParams, KvSamples};
use crate::layers::{self, Values};
use crate::stats::{median, mix, quantile, ratio};
use crate::{host, END_TO_END, PER_LAYER};

/// Nodes in every cluster.
pub const NODES: usize = 2;
/// The cluster seed (chaos decisions; no chaos runs here, so it only pins
/// the configuration).
pub const CLUSTER_SEED: u64 = 0xF7D5;
/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;
/// The paper's log-overflow limit `OF(L)` for Water-Spatial, reused for
/// the KV.
pub const OF_L: f64 = 0.1;
/// Time scale of the 1999 SCSI disk model (stall mode).
pub const DISK_SCALE: f64 = 0.2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Water-Spatial under base HLRC: page fetch, diff flush and barriers,
    /// no fault tolerance. The control for any fault-tolerance change.
    WaterSpBase,
    /// The same app under `OF(0.1)` with the stall-mode disk, failure-free
    /// and with one node crashed and recovered.
    WaterSpFt,
    /// The lock-bound bank KV under `OF(0.1)`, failure-free.
    KvBankFt,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::WaterSpBase,
        Workload::WaterSpFt,
        Workload::KvBankFt,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WaterSpBase => "water_sp_base",
            Workload::WaterSpFt => "water_sp_ft",
            Workload::KvBankFt => "kv_bank_ft",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem size: the benchmark's, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `WaterSpParams::paper_scaled` and `KvParams::full`.
    Full,
    /// `WaterSpParams::tiny` and `KvParams::tiny`.
    Tiny,
}

/// One benchmark run's options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time; at least one round runs whatever its length.
    pub seconds: f64,
    /// Report per-layer metrics from traced executions instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Executions attempted.
    pub attempted: u64,
    /// Executions that failed a correctness check, panicked or hung.
    pub failed: u64,
    /// One line per failed execution.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host and configuration facts, plus sample counts.
    pub stamp: Vec<(&'static str, String)>,
}

/// Counts executions and keeps the failures out of the samples.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    hung: bool,
}

impl Tally {
    /// Record one execution; `Some` only when it ran and passed its checks.
    fn take<T>(&mut self, what: &str, res: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(t) => Some(t),
            Err(e) => {
                self.hung |= e.starts_with(HUNG);
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

fn cfg(mut c: ClusterConfig, trace: bool) -> ClusterConfig {
    c = c
        .with_page_size(PAGE_SIZE)
        .with_seed(CLUSTER_SEED)
        .with_trace(if trace {
            TraceConfig::enabled()
        } else {
            TraceConfig::default()
        });
    c.metrics = None;
    c
}

fn base_cfg(trace: bool) -> ClusterConfig {
    cfg(ClusterConfig::base(NODES), trace)
}

fn ft_cfg(trace: bool) -> ClusterConfig {
    cfg(
        ClusterConfig::fault_tolerant(NODES)
            .with_policy(CkptPolicy::LogOverflow { l: OF_L })
            .with_disk(DiskModel::scsi_1999(DISK_SCALE, DiskMode::Stall)),
        trace,
    )
}

/// Crash `k` of a run: the victim alternates between node 0 (lock and
/// barrier manager) and node 1, at an op in the middle third of its
/// failure-free op count `ops`. The seed picks the first point; later ones
/// step by the golden ratio, so any few crashes of a run spread evenly over
/// the middle third and their median does not hinge on the seed.
pub fn crash_point(seed: u64, k: u64, ops: &[u64]) -> FailureSpec {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let node = (k % 2) as usize;
    let third = (ops[node] / 3).max(1);
    let u = (mix(seed) as f64 / 2f64.powi(64) + k as f64 * GOLDEN).fract();
    FailureSpec {
        node,
        at_op: third + (u * third as f64) as u64,
    }
}

/// One checked execution, reduced to what the metrics need.
#[derive(Default)]
struct Done {
    setup_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    /// DSM operations per node.
    ops: Vec<u64>,
    /// The crash victim's recovery time (crashed executions).
    recovery_s: f64,
    /// Per-layer values (traced executions).
    layers: Values,
    /// Transactions per second of the measured phase.
    txn_per_s: f64,
    /// Transaction latency samples.
    txn_us: Vec<f64>,
    /// KV spans (traced KV executions).
    spans: Vec<KvSamples>,
}

impl Done {
    fn new<R>(e: &Exec<R>, traced: bool, crash: Option<FailureSpec>) -> Done {
        let r = &e.report;
        let layers = match (traced, crash) {
            (false, _) => Values::new(),
            (true, None) => layers::of_run(r, &e.node_s),
            (true, Some(_)) => layers::of_recovery(r),
        };
        Done {
            setup_s: e.setup_s,
            wall_s: e.wall_s,
            peak_rss_mb: e.peak_rss_mb,
            ops: r.nodes.iter().map(|n| n.ops).collect(),
            recovery_s: crash.map_or(0.0, |c| r.nodes[c.node].ft.recovery_time.as_secs_f64()),
            layers,
            ..Done::default()
        }
    }
}

/// A workload's application: runs one execution and checks its output.
trait Subject {
    /// Whether rounds include an execution that crashes a node.
    fn recovers(&self) -> bool;
    /// The application parameters, for the stamp.
    fn describe(&self) -> String;
    /// Run once, traced or not, crashing `crash` if given; `Err` names
    /// what failed.
    fn execute(&mut self, traced: bool, crash: Option<FailureSpec>) -> Result<Done, String>;
}

/// Water-Spatial. Every execution of one seed, base, FT or crashed, must
/// give the same checksum on every node, and every execution of the
/// workload must leave the same shared memory.
struct Water {
    params: WaterSpParams,
    ft: bool,
    checksum: Option<u64>,
    hash: Option<u64>,
}

impl Water {
    fn run(&mut self, cfg: ClusterConfig, crash: Option<FailureSpec>) -> Result<Exec<u64>, String> {
        let probe = Arc::new(Probe::new(NODES));
        let pr = Arc::clone(&probe);
        let params = self.params.clone();
        let e = execute(cfg, crash.into_iter().collect(), probe, move |p| {
            let me = p.me();
            pr.enter(me);
            let sum = water_sp(p, &params);
            pr.exit(me);
            sum
        })?;
        let r = &e.report.results;
        let want = *self.checksum.get_or_insert(r[0]);
        if r.iter().any(|&c| c != want) {
            return Err(format!("checksums {r:x?}, expected {want:x} on every node"));
        }
        Ok(e)
    }

    /// The base protocol's run of this seed, whose checksum every FT and
    /// crashed execution must reproduce.
    fn reference(&mut self) -> Result<Done, String> {
        self.run(base_cfg(false), None)
            .map(|e| Done::new(&e, false, None))
    }
}

impl Subject for Water {
    fn recovers(&self) -> bool {
        self.ft
    }

    fn describe(&self) -> String {
        let p = &self.params;
        format!(
            "water_sp side={} per_cell={} steps={} seed={}",
            p.side, p.per_cell, p.steps, p.seed
        )
    }

    fn execute(&mut self, traced: bool, crash: Option<FailureSpec>) -> Result<Done, String> {
        let cfg = if self.ft {
            ft_cfg(traced)
        } else {
            base_cfg(traced)
        };
        let e = self.run(cfg, crash)?;
        if let Some(c) = crash {
            recovered_once(&e, c.node)?;
        }
        let h = e.report.shared_hash;
        let want = *self.hash.get_or_insert(h);
        if h != want {
            return Err(format!("shared-memory hash {h:x}, expected {want:x}"));
        }
        let steps = self.params.steps as f64;
        Ok(Done {
            txn_per_s: steps / e.wall_s,
            txn_us: e.node_s.iter().map(|&x| x * 1e6 / steps).collect(),
            ..Done::new(&e, traced, crash)
        })
    }
}

/// The bank KV, checked record by record against its sequential model.
struct Kv {
    params: KvParams,
    expected: Vec<u64>,
}

impl Subject for Kv {
    fn recovers(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        let p = &self.params;
        format!(
            "kv accounts={} buckets={} txns_per_node={} barrier_every={} read_pct={} read_size={} seed={}",
            p.accounts,
            p.buckets,
            p.txns_per_node,
            p.barrier_every,
            kv::READ_PCT,
            kv::READ_SIZE,
            p.seed
        )
    }

    fn execute(&mut self, traced: bool, crash: Option<FailureSpec>) -> Result<Done, String> {
        let probe = Arc::new(Probe::new(NODES));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let (pr, sk, params) = (Arc::clone(&probe), Arc::clone(&sink), self.params);
        let e = execute(
            ft_cfg(traced),
            crash.into_iter().collect(),
            probe,
            move |p| kv::kv_app(p, &params, &pr, traced, &sk),
        )?;
        kv::check(&self.params, NODES, &e.report.results[0], &self.expected)?;
        let mut d = Done::new(&e, traced, crash);
        let samples = std::mem::take(&mut *sink.lock().expect("sample sink poisoned"));
        let first = samples.iter().filter_map(|x| x.first).min();
        let last = samples.iter().filter_map(|x| x.last).max();
        if let (Some(a), Some(b)) = (first, last) {
            let txns = (self.params.txns_per_node * NODES as u64) as f64;
            d.txn_per_s = txns / (b - a).as_secs_f64();
        }
        d.txn_us = samples
            .iter()
            .flat_map(|x| x.txn_us.iter().copied())
            .collect();
        if traced {
            // What the spans leave unexplained of each node's closed loop
            // (first transaction start to the last barrier's return):
            // transaction generation and the loop itself.
            let sum = |f: fn(&KvSamples) -> &Vec<f64>| samples.iter().flat_map(f).sum::<f64>();
            let spanned = sum(|x| &x.acquire_us)
                + sum(|x| &x.access_us)
                + sum(|x| &x.release_us)
                + sum(|x| &x.barrier_us)
                + sum(|x| &x.safe_point_us);
            let loop_us: f64 = samples
                .iter()
                .filter_map(|x| Some((x.last? - x.first?).as_secs_f64() * 1e6))
                .sum();
            d.layers
                .insert("runtime.unattributed_frac", 1.0 - ratio(spanned, loop_us));
            d.spans = samples;
        }
        Ok(d)
    }
}

/// The victim recovered exactly once.
fn recovered_once<R>(e: &Exec<R>, victim: usize) -> Result<(), String> {
    match e.report.nodes[victim].ft.recoveries {
        1 => Ok(()),
        r => Err(format!(
            "victim {victim} recovered {r} times, expected once"
        )),
    }
}

/// Raw samples collected over a run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    wall_s: Vec<f64>,
    crash_wall_s: Vec<f64>,
    recovery_s: Vec<f64>,
    txn_per_s: Vec<f64>,
    txn_p50_us: Vec<f64>,
    txn_p99_us: Vec<f64>,
    /// Transaction samples per failure-free execution.
    txn_samples: Vec<f64>,
    /// Traced executions only.
    traced_wall_s: Vec<f64>,
    layers: Vec<Values>,
    spans: Vec<KvSamples>,
}

/// Run one workload for `o.seconds` and report its metrics.
pub fn run(o: &Opts) -> Outcome {
    let mut t = Tally::default();
    let mut s = Samples::default();
    let mut subject: Box<dyn Subject> = match o.workload {
        Workload::WaterSpBase | Workload::WaterSpFt => {
            let base = match o.size {
                Size::Full => WaterSpParams::paper_scaled(),
                Size::Tiny => WaterSpParams::tiny(),
            };
            let mut w = Water {
                params: WaterSpParams {
                    seed: o.seed,
                    ..base
                },
                ft: o.workload == Workload::WaterSpFt,
                checksum: None,
                hash: None,
            };
            if w.ft {
                if let Some(d) = t.take("base reference", w.reference()) {
                    s.setup_s.push(d.setup_s);
                }
            }
            Box::new(w)
        }
        Workload::KvBankFt => {
            let params = match o.size {
                Size::Full => KvParams::full(o.seed),
                Size::Tiny => KvParams::tiny(o.seed),
            };
            Box::new(Kv {
                params,
                expected: params.expected_table(NODES),
            })
        }
    };

    // With --trace 1 every round also runs one untraced failure-free
    // execution, the baseline of trace.overhead_frac, next to the traced
    // ones; end-to-end samples come only from untraced executions.
    let traced = o.trace;
    let end = Instant::now() + Duration::from_secs_f64(o.seconds);
    let mut k = 0u64;
    let mut first = true;
    while !t.hung && (first || Instant::now() < end) {
        first = false;
        if traced {
            if let Some(b) = t.take("untraced baseline", subject.execute(false, None)) {
                s.wall_s.push(b.wall_s);
            }
        }
        let Some(clean) = t.take("failure-free", subject.execute(traced, None)) else {
            continue;
        };
        s.setup_s.push(clean.setup_s);
        if traced {
            s.traced_wall_s.push(clean.wall_s);
            s.layers.push(clean.layers);
            s.spans.extend(clean.spans);
        } else {
            s.wall_s.push(clean.wall_s);
            s.peak_rss_mb.push(clean.peak_rss_mb);
            s.txn_per_s.push(clean.txn_per_s);
            s.txn_p50_us.push(quantile(&clean.txn_us, 0.5));
            s.txn_p99_us.push(quantile(&clean.txn_us, 0.99));
            s.txn_samples.push(clean.txn_us.len() as f64);
        }
        let spec = crash_point(o.seed, k, &clean.ops);
        k += 1;
        if !subject.recovers() {
            // No node is crashed: a crash at `spec` is priced as a rerun
            // from the start, estimated from this execution and the
            // previous one, prorating by the victim's share of ops done
            // before the crash.
            if !traced {
                let f = spec.at_op as f64 / clean.ops[spec.node] as f64;
                let prev = s.wall_s[s.wall_s.len().saturating_sub(2)];
                s.crash_wall_s.push(f * prev + clean.wall_s);
                s.recovery_s.push(f * clean.wall_s);
            }
            continue;
        }
        let what = format!("crash node {} at op {}", spec.node, spec.at_op);
        if let Some(d) = t.take(&what, subject.execute(traced, Some(spec))) {
            eprintln!("ftbench: {what}: recovery {:.6} s", d.recovery_s);
            s.setup_s.push(d.setup_s);
            if traced {
                s.layers.push(d.layers);
            } else {
                s.crash_wall_s.push(d.wall_s);
                s.recovery_s.push(d.recovery_s);
            }
        }
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if o.trace {
        // Each per-layer value is the median over the traced executions
        // that report it (failure-free ones for most, crashed ones for the
        // recovery phases).
        let mut per_exec: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (&name, &v) in s.layers.iter().flatten() {
            per_exec.entry(name).or_default().push(v);
        }
        for (name, v) in per_exec {
            values.insert(name, median(&v));
        }
        let pooled = |f: fn(&KvSamples) -> &Vec<f64>| -> Vec<f64> {
            s.spans.iter().flat_map(|x| f(x).iter().copied()).collect()
        };
        let acquire = pooled(|x| &x.acquire_us);
        let release = pooled(|x| &x.release_us);
        values.insert("runtime.acquire_p50_us", quantile(&acquire, 0.5));
        values.insert("runtime.acquire_p99_us", quantile(&acquire, 0.99));
        values.insert("runtime.release_p50_us", quantile(&release, 0.5));
        values.insert("runtime.release_p99_us", quantile(&release, 0.99));
        values.insert(
            "runtime.txn_access_p50_us",
            median(&pooled(|x| &x.access_us)),
        );
        values.insert("runtime.barrier_p50_us", median(&pooled(|x| &x.barrier_us)));
        values.insert(
            "runtime.safe_point_p50_us",
            median(&pooled(|x| &x.safe_point_us)),
        );
        values.insert(
            "trace.overhead_frac",
            ratio(median(&s.traced_wall_s), median(&s.wall_s)) - 1.0,
        );
    } else {
        values.insert("setup_s", median(&s.setup_s));
        values.insert("wall_s", median(&s.wall_s));
        values.insert("crash_wall_s", median(&s.crash_wall_s));
        values.insert("recovery_s", median(&s.recovery_s));
        values.insert("txn_per_s", median(&s.txn_per_s));
        values.insert("txn_p50_us", median(&s.txn_p50_us));
        values.insert("txn_p99_us", median(&s.txn_p99_us));
        values.insert("peak_rss_mb", median(&s.peak_rss_mb));
    }
    let declared = if o.trace { PER_LAYER } else { END_TO_END };
    let metrics = declared
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            (m.name, if v.is_finite() { v } else { 0.0 }, m.unit)
        })
        .collect();

    let disk = if o.workload != Workload::WaterSpBase {
        format!("scsi_1999(time_scale={DISK_SCALE}, Stall), OF({OF_L})")
    } else {
        "instant".to_string()
    };
    let stamp = vec![
        ("workload", o.workload.name().to_string()),
        ("workload_seed", o.seed.to_string()),
        ("cluster_seed", format!("{CLUSTER_SEED:#x}")),
        ("nodes", NODES.to_string()),
        ("page_size", PAGE_SIZE.to_string()),
        ("disk_model", disk),
        ("params", subject.describe()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("peak_threads", crate::exec::peak_threads().to_string()),
        ("git_commit", host::git_commit()),
        ("trace", o.trace.to_string()),
        ("samples_setup", s.setup_s.len().to_string()),
        ("samples_wall", s.wall_s.len().to_string()),
        ("samples_crash", s.crash_wall_s.len().to_string()),
        (
            "samples_txn_per_execution",
            median(&s.txn_samples).to_string(),
        ),
        ("samples_traced", s.layers.len().to_string()),
    ];
    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        errors: t.errors,
        metrics,
        stamp,
    }
}
