//! Cluster-level protocol operation costs: page fetch, the access hit path,
//! lock handoff, barrier crossing, and checkpointing, measured on live 2-,
//! 4- and 8-node simulated clusters.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use ftdsm::{run, CkptPolicy, ClusterConfig, HomeAlloc, Process, RunReport};

/// Run `body` on every node of a fresh cluster, between two barriers, and
/// return the report; each node's result is the time its body measured.
fn run_cluster(
    nodes: usize,
    body: impl Fn(&mut Process) -> Duration + Send + Sync + 'static,
) -> RunReport<Duration> {
    run(
        ClusterConfig::base(nodes).with_page_size(4096),
        &[],
        move |p| {
            p.barrier();
            let d = body(p);
            p.barrier();
            d
        },
    )
}

/// Run `iters` repetitions of an operation inside a fresh cluster and
/// return the time node 1 spent in the loop.
fn run_timed(
    nodes: usize,
    iters: u64,
    body: impl Fn(&mut Process, u64) + Send + Sync + 'static,
) -> Duration {
    run_cluster(nodes, move |p| {
        let t0 = Instant::now();
        body(p, iters);
        t0.elapsed()
    })
    .results[1]
}

/// One remote page miss per iteration: node 1 reads the first word of
/// `iters` distinct pages homed at node 0, each untouched before, so every
/// read is a cold fault answered by one `PageReq` round trip (no write
/// notices, so no prefetch batches stand in for it).
fn bench_page_fetch(c: &mut Criterion) {
    c.bench_function("protocol/page_fetch_4k", |b| {
        b.iter_custom(|iters| {
            let report = run_cluster(2, move |p| {
                let data = p.alloc_vec::<u64>(iters as usize * 512, HomeAlloc::Node(0));
                let t0 = Instant::now();
                if p.me() == 1 {
                    for i in 0..iters as usize {
                        std::hint::black_box(data.get(p, i * 512));
                    }
                }
                t0.elapsed()
            });
            let page_reqs = report.nodes[1]
                .msg_kinds
                .iter()
                .find(|(k, _)| *k == "PageReq")
                .map_or(0, |&(_, c)| c);
            assert_eq!(page_reqs, iters, "every iteration must miss exactly once");
            report.results[1]
        })
    });
}

/// The access hit path: one typed read and one typed write per iteration
/// on a page that is already valid at node 1. `home` is the page's home
/// node: 1 for a homed page (home-store shard), 0 for a cached remote copy
/// (faulted in and twinned before the clock starts).
fn access_hit(home: usize, iters: u64) -> Duration {
    run_cluster(2, move |p| {
        let data = p.alloc_vec::<u64>(512, HomeAlloc::Node(home));
        if p.me() != 1 {
            return Duration::ZERO;
        }
        data.set(p, 0, 1); // fault in, create the twin
        let t0 = Instant::now();
        for i in 0..iters as usize {
            let v = data.get(p, i % 512);
            data.set(p, (i + 1) % 512, std::hint::black_box(v) + 1);
        }
        t0.elapsed()
    })
    .results[1]
}

fn bench_access_hit(c: &mut Criterion) {
    c.bench_function("protocol/access_hit_home", |b| {
        b.iter_custom(|iters| access_hit(1, iters))
    });
    c.bench_function("protocol/access_hit_remote", |b| {
        b.iter_custom(|iters| access_hit(0, iters))
    });
}

fn bench_lock_handoff(c: &mut Criterion) {
    c.bench_function("protocol/lock_roundtrip_2n", |b| {
        b.iter_custom(|iters| {
            run_timed(2, iters, |p, iters| {
                for _ in 0..iters {
                    p.acquire(3);
                    p.release(3);
                }
            })
        })
    });
}

fn bench_barrier(c: &mut Criterion) {
    for &n in &[2usize, 4, 8] {
        c.bench_function(&format!("protocol/barrier_{n}n"), |b| {
            b.iter_custom(|iters| {
                run_timed(n, iters, |p, iters| {
                    for _ in 0..iters {
                        p.barrier();
                    }
                })
            })
        });
    }
}

fn bench_write_and_flush(c: &mut Criterion) {
    c.bench_function("protocol/write_release_diff", |b| {
        b.iter_custom(|iters| {
            run_timed(2, iters, |p, iters| {
                let data = p.alloc_vec::<u64>(512, HomeAlloc::Node(0));
                if p.me() == 1 {
                    for i in 0..iters {
                        p.acquire(1);
                        data.set(p, (i % 512) as usize, i);
                        p.release(1); // diff created, logged is off, sent to home
                    }
                }
            })
        })
    });
}

/// The batched-fetch path: the producer dirties 16 pages, the barrier's
/// write notices invalidate them at the consumer, and the consumer's eager
/// prefetch pulls all 16 back in one `PageBatchReq` round trip before the
/// reads touch them.
fn bench_prefetch_batch(c: &mut Criterion) {
    c.bench_function("protocol/invalidate_fetch_16p_2n", |b| {
        b.iter_custom(|iters| {
            run_timed(2, iters, |p, iters| {
                let data = p.alloc_vec::<u64>(16 * 512, HomeAlloc::Node(0));
                for i in 0..iters {
                    if p.me() == 0 {
                        for pg in 0..16 {
                            data.set(p, pg * 512, i + pg as u64);
                        }
                    }
                    p.barrier();
                    if p.me() == 1 {
                        for pg in 0..16 {
                            std::hint::black_box(data.get(p, pg * 512));
                        }
                    }
                    p.barrier();
                }
            })
        })
    });
}

/// Concurrent home service: node 0 dirties one page per reader each round,
/// and after the barrier all three readers fetch from node 0 at once. The
/// sharded store lets its service thread answer the simultaneous fetches
/// without serializing them behind the big node lock.
fn bench_contended_home(c: &mut Criterion) {
    c.bench_function("protocol/page_fetch_contended_4n", |b| {
        b.iter_custom(|iters| {
            run_timed(4, iters, |p, iters| {
                let data = p.alloc_vec::<u64>(3 * 512, HomeAlloc::Node(0));
                for i in 0..iters {
                    if p.me() == 0 {
                        for pg in 0..3 {
                            data.set(p, pg * 512, i + pg as u64);
                        }
                    }
                    p.barrier();
                    if p.me() != 0 {
                        std::hint::black_box(data.get(p, (p.me() - 1) * 512));
                    }
                    p.barrier();
                }
            })
        })
    });
}

fn bench_checkpoint(c: &mut Criterion) {
    // One page of 64 is written per step, then a checkpoint is requested.
    // The headline number runs incremental mode (anchor every 8, so 7 of 8
    // blobs carry a single dirty page); the `_full` variant snapshots all
    // 64 pages every time for comparison.
    fn ckpt_iters(incremental: bool, iters: u64) -> Duration {
        let mut cfg = ClusterConfig::fault_tolerant(2)
            .with_page_size(4096)
            .with_policy(CkptPolicy::Manual);
        if incremental {
            cfg = cfg.with_incremental_ckpt(8);
        }
        let report = run(cfg, &[], move |p| {
            let data = p.alloc_vec::<u64>(64 * 512, HomeAlloc::Node(1));
            let mut state = 0u64;
            let t0 = Instant::now();
            p.run_steps(&mut state, iters, |p, _s, step| {
                if p.me() == 1 {
                    data.set(p, (step % 64) as usize * 512, step);
                    p.request_checkpoint();
                }
                p.barrier();
            });
            t0.elapsed()
        });
        report.results[1]
    }
    c.bench_function("ft/checkpoint_64_pages", |b| {
        b.iter_custom(|iters| ckpt_iters(true, iters))
    });
    c.bench_function("ft/checkpoint_64_pages_full", |b| {
        b.iter_custom(|iters| ckpt_iters(false, iters))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3));
    targets = bench_page_fetch, bench_access_hit, bench_lock_handoff, bench_barrier, bench_write_and_flush,
        bench_prefetch_batch, bench_contended_home, bench_checkpoint
}
criterion_main!(benches);
