//! One guarded cluster execution, timed with the benchmark's own spans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use ftdsm::{run, ClusterConfig, FailureSpec, Process, RunReport};

use crate::host;

/// An execution that has not returned after this long is counted as
/// failed and ends the workload (its threads cannot be reclaimed).
pub const EXEC_TIMEOUT: Duration = Duration::from_secs(60);

/// How the error of a hung execution starts.
pub const HUNG: &str = "no result within";

/// Peak thread count of this process, sampled while executions run.
static PEAK_THREADS: AtomicU64 = AtomicU64::new(0);

/// Largest thread count seen so far.
pub fn peak_threads() -> u64 {
    PEAK_THREADS.load(Ordering::Relaxed)
}

/// Per-node marks the application closures set. Each mark keeps its first
/// value except `exited`, so a node that crashed and recovered spans from
/// its first start to its final return.
#[derive(Debug, Default)]
pub struct Probe {
    marks: Mutex<Vec<Marks>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Marks {
    entered: Option<Instant>,
    ready: Option<Instant>,
    exited: Option<Instant>,
}

impl Probe {
    /// A probe for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Probe {
            marks: Mutex::new(vec![Marks::default(); nodes]),
        }
    }

    fn with(&self, node: usize, f: impl FnOnce(&mut Marks)) {
        f(&mut self.marks.lock().expect("probe poisoned")[node]);
    }

    /// `node` entered the application closure.
    pub fn enter(&self, node: usize) {
        let now = Instant::now();
        self.with(node, |m| {
            m.entered.get_or_insert(now);
        });
    }

    /// `node` finished set-up and starts its measured work at `at`.
    pub fn ready(&self, node: usize, at: Instant) {
        self.with(node, |m| {
            m.ready.get_or_insert(at);
        });
    }

    /// `node` returned from the application closure.
    pub fn exit(&self, node: usize) {
        let now = Instant::now();
        self.with(node, |m| m.exited = Some(now));
    }
}

/// A completed execution.
pub struct Exec<R> {
    /// The program's own report.
    pub report: RunReport<R>,
    /// Call into `run` until the last node is ready (entered the closure,
    /// or the KV's first transaction), in seconds.
    pub setup_s: f64,
    /// Call into `run` until the last node returned from the closure: the
    /// time to solution, in seconds.
    pub wall_s: f64,
    /// Per node, closure entry to return, in seconds.
    pub node_s: Vec<f64>,
    /// Peak resident set size of the process during the execution, MiB.
    pub peak_rss_mb: f64,
}

/// Run `app` on a cluster built from `cfg`, with `failures` injected.
/// A panic or a hang is returned as `Err` with its message; the closure
/// must mark `probe` (enter, optionally ready, exit) on every node.
pub fn execute<R, F>(
    cfg: ClusterConfig,
    failures: Vec<FailureSpec>,
    probe: std::sync::Arc<Probe>,
    app: F,
) -> Result<Exec<R>, String>
where
    F: Fn(&mut Process) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    host::reset_peak_rss();
    let handle = std::thread::Builder::new()
        .name("ftbench-exec".into())
        .spawn(move || {
            let called = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| run(cfg, &failures, app)));
            let _ = tx.send((called, res));
        })
        .map_err(|e| format!("spawn: {e}"))?;
    let deadline = Instant::now() + EXEC_TIMEOUT;
    let (called, res) = loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(v) => break v,
            Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < deadline => {
                PEAK_THREADS.fetch_max(host::threads(), Ordering::Relaxed);
            }
            Err(_) => return Err(format!("{HUNG} {EXEC_TIMEOUT:?}")),
        }
    };
    handle
        .join()
        .map_err(|_| "execution thread panicked".to_string())?;
    let report = res.map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })?;
    let marks = probe.marks.lock().expect("probe poisoned").clone();
    let secs = |t: Option<Instant>| t.map_or(f64::NAN, |t| (t - called).as_secs_f64());
    let max =
        |f: fn(&Marks) -> Option<Instant>| marks.iter().map(|m| secs(f(m))).fold(0.0, f64::max);
    let setup_s = max(|m| m.ready.or(m.entered));
    let wall_s = max(|m| m.exited);
    let node_s = marks
        .iter()
        .map(|m| secs(m.exited) - secs(m.entered))
        .collect::<Vec<_>>();
    if marks
        .iter()
        .any(|m| m.entered.is_none() || m.exited.is_none())
    {
        return Err("a node never entered or never returned from the closure".into());
    }
    PEAK_THREADS.fetch_max(host::threads(), Ordering::Relaxed);
    let peak_rss_mb = host::peak_rss_mb();
    eprintln!("ftbench: execution setup {setup_s:.6} s, wall {wall_s:.6} s, peak rss {peak_rss_mb:.3} MiB");
    Ok(Exec {
        report,
        setup_s,
        wall_s,
        node_s,
        peak_rss_mb,
    })
}
