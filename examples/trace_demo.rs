//! Capture a Perfetto-loadable protocol trace of a crash + recovery run.
//!
//! Runs a lock/barrier workload on a fault-tolerant cluster with tracing,
//! metrics sampling and the protocol-invariant monitor enabled, crashes one
//! node mid-run, and writes the whole protocol timeline (page faults,
//! diffs, locks, barriers, checkpoints, log trims, messages with causal
//! flow arrows, recovery phases) as Chrome trace-event JSON plus a JSONL
//! dump, and the sampled metrics as JSONL + Prometheus exposition text.
//! Open the JSON in <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! ```text
//! cargo run --release --example trace_demo [-- OUT.json]
//! ```

use std::fs::File;
use std::time::Duration;

use dsm_trace::export::{write_chrome_trace, write_jsonl};
use ftdsm_suite::apps::{water_nsq, WaterNsqParams};
use ftdsm_suite::{run, CkptPolicy, ClusterConfig, FailureSpec, MetricsConfig, TraceConfig};

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace.json".to_string());
    // Start from the environment so FTDSM_TRACE_BUF / _ECHO / _LOCKS still
    // apply, but force recording on: the demo exists to produce a trace.
    let trace = TraceConfig {
        enabled: true,
        ..TraceConfig::from_env()
    };
    let metrics_out = format!(
        "{}metrics.jsonl",
        out.strip_suffix("trace.json").unwrap_or("")
    );
    let cfg = ClusterConfig::fault_tolerant(4)
        .with_policy(CkptPolicy::EverySteps(2))
        .with_trace(trace)
        .with_monitor(true)
        .with_metrics(MetricsConfig {
            every: Duration::from_millis(5),
            out: Some(metrics_out.clone().into()),
        });

    let params = WaterNsqParams::small();
    println!("running 4-node Water-Nsquared with node 2 crashing at op 500...");
    let report = run(
        cfg,
        &[FailureSpec {
            node: 2,
            at_op: 500,
        }],
        move |p| water_nsq(p, &params),
    );
    assert_eq!(report.nodes[2].ft.recoveries, 1, "the crash did not fire");
    let mon = report.monitor.as_ref().expect("monitor was on");
    println!(
        "invariant monitor: {} events checked, {} violations",
        mon.events_seen,
        mon.violations.len()
    );

    for (node, (retained, total)) in report.trace.counts().into_iter().enumerate() {
        println!("  node {node}: {retained} events retained of {total} emitted");
    }

    let mut f = File::create(&out).expect("create trace output");
    write_chrome_trace(&report.trace, &mut f).expect("write chrome trace");
    let jsonl = format!("{out}l");
    let mut f = File::create(&jsonl).expect("create jsonl output");
    write_jsonl(&report.trace, &mut f).expect("write jsonl");

    println!("\nlatency summary (all nodes merged):");
    for (name, unit, h) in report.total_hists().named() {
        if h.count() > 0 {
            let u = unit.name();
            println!(
                "  {name:<16} n={:<6} mean={:>9}{u} p95={:>9}{u} max={:>9}{u}",
                h.count(),
                h.mean(),
                h.quantile(0.95),
                h.max()
            );
        }
    }

    println!("\nreceive latency attribution by message kind (queue vs chaos):");
    for (kind, acc) in &report.phases {
        if acc.count > 0 {
            println!(
                "  {kind:<16} n={:<6} queue={:>9}ns/msg chaos={:>6}ns/msg",
                acc.count,
                acc.queue_ns / acc.count,
                acc.chaos_ns / acc.count,
            );
        }
    }

    println!(
        "\nmetrics: {} snapshots sampled -> {metrics_out} (+ .prom sibling)",
        report.metrics.snapshots.len()
    );
    println!(
        "wrote {out} (Chrome trace with cross-node flow arrows; open in \
         https://ui.perfetto.dev) and {jsonl}"
    );
}
