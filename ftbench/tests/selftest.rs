//! Self-tests of the benchmark: the KV generator, the correctness checks
//! on a second seed, and a tiny-size smoke run against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path ftbench/Cargo.toml`.

use ftbench::kv::{KvParams, Txn, READ_SIZE};
use ftbench::output::result_line;
use ftbench::workload::{run, Opts, Outcome, Size, Workload};
use ftbench::{END_TO_END, PER_LAYER};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Opts {
        workload,
        seed,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
    })
}

#[test]
fn kv_generator_is_deterministic_for_a_seed() {
    for params in [KvParams::full(7), KvParams::tiny(7)] {
        let again = KvParams { ..params };
        let other = KvParams { seed: 8, ..params };
        let stream = |p: &KvParams| {
            (0..2000)
                .map(|i| p.txn(i as usize % 2, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(&params), stream(&again));
        assert_ne!(stream(&params), stream(&other));
        assert_eq!(params.expected_table(2), again.expected_table(2));

        for t in stream(&params) {
            match t {
                Txn::Read { bucket, accounts } => {
                    assert_eq!(accounts.len(), READ_SIZE);
                    assert!(accounts
                        .iter()
                        .all(|a| params.bucket_range(bucket).contains(a)));
                }
                Txn::Transfer { from, to, amount } => {
                    assert_ne!(from, to);
                    assert!(from < params.accounts && to < params.accounts && amount > 0);
                }
            }
        }
        for b in 0..params.buckets {
            for a in params.bucket_range(b) {
                assert_eq!(params.bucket_of(a), b);
            }
        }
    }
}

#[test]
fn kv_mix_is_eighty_percent_reads() {
    let p = KvParams::full(1);
    let reads = (0..10_000)
        .filter(|&i| matches!(p.txn(0, i), Txn::Read { .. }))
        .count();
    assert!((7_700..8_300).contains(&reads), "{reads} reads in 10000");
}

#[test]
fn a_second_seed_passes_every_check() {
    for w in Workload::ALL {
        for seed in [1, 2] {
            let o = tiny(w, seed, false);
            assert!(o.attempted >= 1, "{}: nothing ran", w.name());
            assert_eq!(o.failed, 0, "{} seed {seed}: {:?}", w.name(), o.errors);
        }
    }
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &json[start..];
    let end = rest.find(']').expect("section is a list");
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_emits() {
    let names = |ms: &[ftbench::Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
    assert_eq!(declared("end_to_end"), names(END_TO_END));
    assert_eq!(declared("per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads"), workloads);
}

#[test]
fn tiny_smoke_run_emits_every_declared_metric() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = tiny(w, 3, trace);
            assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.errors);
            let emitted: Vec<String> = o.metrics.iter().map(|m| m.0.to_string()).collect();
            assert_eq!(emitted, declared(section), "{} trace={trace}", w.name());
            let line = result_line(&o);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, v, _) in &o.metrics {
                assert!(v.is_finite(), "{name} = {v}");
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                if !trace {
                    assert!(*v > 0.0, "{}: end-to-end {name} reads {v}", w.name());
                }
            }
        }
    }
}
