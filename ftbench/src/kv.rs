//! `kv_bank_ft`: a bank-transfer key-value table on the DSM.
//!
//! The table is one `u64` balance per account, its pages interleaved across
//! the homes. Accounts are split into contiguous buckets, one lock each.
//! Every node runs a fixed number of transactions in a closed loop (the
//! next starts when the previous one has released its locks):
//!
//! * 80% read `READ_SIZE` records of one bucket under that bucket's lock;
//! * 20% transfer an amount between two records, taking the two bucket
//!   locks in ascending order (one lock when both share a bucket).
//!
//! A barrier ends every `barrier_every` transactions; each such group is
//! one `run_steps` step, so checkpoints fall between groups.
//!
//! Transfers only add and subtract, so the final table does not depend on
//! the order in which nodes win the locks: [`KvParams::expected_table`]
//! computes it sequentially, and the benchmark checks every record against
//! it, which also proves total balance is conserved.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use ftdsm::{HomeAlloc, Process};

use crate::exec::Probe;
use crate::stats::mix;

/// Records read by one read transaction.
pub const READ_SIZE: usize = 8;
/// Percentage of transactions that only read.
pub const READ_PCT: u64 = 80;
/// Every account's opening balance; large enough that no transfer
/// sequence of a run can overdraw it.
pub const INIT_BALANCE: u64 = 1 << 40;
/// Largest amount one transfer moves.
pub const MAX_AMOUNT: u64 = 1000;

/// Table shape and transaction mix of one KV execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvParams {
    /// Accounts in the table.
    pub accounts: usize,
    /// Lock buckets over the accounts.
    pub buckets: usize,
    /// Transactions each node runs.
    pub txns_per_node: u64,
    /// Transactions between barriers (one `run_steps` step).
    pub barrier_every: u64,
    /// Workload seed.
    pub seed: u64,
}

/// One generated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Txn {
    /// Read `accounts` under `bucket`'s lock.
    Read {
        /// The bucket (and lock) read.
        bucket: usize,
        /// Accounts read, all inside `bucket`.
        accounts: [usize; READ_SIZE],
    },
    /// Move `amount` from account `from` to account `to`.
    Transfer {
        /// Debited account.
        from: usize,
        /// Credited account (never `from`).
        to: usize,
        /// Amount moved, `1..=MAX_AMOUNT`.
        amount: u64,
    },
}

impl KvParams {
    /// Benchmark size: 64 Ki accounts (512 KiB, 128 pages) keep the
    /// `OF(0.1)` checkpoint count in the tens per execution.
    pub fn full(seed: u64) -> Self {
        KvParams {
            accounts: 64 * 1024,
            buckets: 256,
            txns_per_node: 6_000,
            barrier_every: 400,
            seed,
        }
    }

    /// Smoke-test size.
    pub fn tiny(seed: u64) -> Self {
        KvParams {
            accounts: 4 * 1024,
            buckets: 16,
            txns_per_node: 400,
            barrier_every: 50,
            seed,
        }
    }

    /// The accounts guarded by `bucket`.
    pub fn bucket_range(&self, bucket: usize) -> Range<usize> {
        bucket * self.accounts / self.buckets..(bucket + 1) * self.accounts / self.buckets
    }

    /// The bucket (and lock) guarding `account`.
    pub fn bucket_of(&self, account: usize) -> usize {
        ((account + 1) * self.buckets - 1) / self.accounts
    }

    /// Transaction `i` of `node`: a pure function of the seed.
    pub fn txn(&self, node: usize, i: u64) -> Txn {
        let h = mix(self.seed ^ mix(((node as u64) << 48) ^ i));
        let pick = |k: u64, n: usize| (mix(h.wrapping_add(k)) % n as u64) as usize;
        if h % 100 < READ_PCT {
            let bucket = pick(1, self.buckets);
            let r = self.bucket_range(bucket);
            let mut accounts = [0; READ_SIZE];
            for (k, a) in accounts.iter_mut().enumerate() {
                *a = r.start + pick(2 + k as u64, r.len());
            }
            Txn::Read { bucket, accounts }
        } else {
            let from = pick(1, self.accounts);
            let to = (from + 1 + pick(2, self.accounts - 1)) % self.accounts;
            let amount = 1 + mix(h.wrapping_add(3)) % MAX_AMOUNT;
            Txn::Transfer { from, to, amount }
        }
    }

    /// The table after every node ran every transaction, in any order.
    pub fn expected_table(&self, nodes: usize) -> Vec<u64> {
        let mut t = vec![INIT_BALANCE; self.accounts];
        for node in 0..nodes {
            for i in 0..self.txns_per_node {
                if let Txn::Transfer { from, to, amount } = self.txn(node, i) {
                    t[from] -= amount;
                    t[to] += amount;
                }
            }
        }
        t
    }
}

/// What one node's KV run returns. Node 0 reads back the whole table and
/// every node's commit count after the final barrier; the others return
/// empty vectors.
#[derive(Debug, Clone, Default)]
pub struct KvOut {
    /// Final balances (node 0 only).
    pub table: Vec<u64>,
    /// Per-node committed transaction counts (node 0 only).
    pub commits: Vec<u64>,
}

/// Raw samples one node's KV run records, in microseconds. Only `txn_us`
/// and the phase bounds are recorded untraced; the per-layer spans need
/// `spans`.
#[derive(Debug, Clone, Default)]
pub struct KvSamples {
    /// Whole transaction: first acquire called to last release returned.
    pub txn_us: Vec<f64>,
    /// Acquiring the transaction's lock(s).
    pub acquire_us: Vec<f64>,
    /// Reading and writing records while holding the locks.
    pub access_us: Vec<f64>,
    /// Releasing the lock(s), including the release flush.
    pub release_us: Vec<f64>,
    /// The barrier that ends each group.
    pub barrier_us: Vec<f64>,
    /// Gap between one `run_steps` body returning and the next starting:
    /// the safe point, where a due checkpoint is taken.
    pub safe_point_us: Vec<f64>,
    /// First transaction started.
    pub first: Option<Instant>,
    /// The closing barrier of the latest group returned.
    pub last: Option<Instant>,
}

fn us(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

/// The KV application. Samples of each node's final incarnation are
/// pushed into `sink`; with `spans` off only transaction latency is timed.
pub fn kv_app(
    p: &mut Process,
    params: &KvParams,
    probe: &Probe,
    spans: bool,
    sink: &Mutex<Vec<KvSamples>>,
) -> KvOut {
    let me = p.me();
    let n = p.nodes();
    probe.enter(me);
    let table = p.alloc_vec::<u64>(params.accounts, HomeAlloc::Interleaved);
    let commits = p.alloc_vec::<u64>(n, HomeAlloc::Node(0));
    p.init_phase(|p| {
        for a in me * params.accounts / n..(me + 1) * params.accounts / n {
            table.set(p, a, INIT_BALANCE);
        }
        commits.set(p, me, 0);
    });

    let mut s = KvSamples::default();
    let mut done = 0u64;
    let steps = params.txns_per_node / params.barrier_every;
    p.run_steps(&mut done, steps, |p, done, step| {
        if let (true, Some(end)) = (spans, s.last) {
            s.safe_point_us.push(us(end, Instant::now()));
        }
        for j in 0..params.barrier_every {
            let txn = params.txn(me, step * params.barrier_every + j);
            let t0 = Instant::now();
            if s.first.is_none() {
                s.first = Some(t0);
                probe.ready(me, t0);
            }
            let (t1, t2) = match txn {
                Txn::Read { bucket, accounts } => {
                    p.acquire(bucket);
                    let t1 = spans.then(Instant::now);
                    let mut sum = 0u64;
                    for a in accounts {
                        sum = sum.wrapping_add(table.get(p, a));
                    }
                    std::hint::black_box(sum);
                    let t2 = spans.then(Instant::now);
                    p.release(bucket);
                    (t1, t2)
                }
                Txn::Transfer { from, to, amount } => {
                    let (b0, b1) = (params.bucket_of(from), params.bucket_of(to));
                    let (lo, hi) = (b0.min(b1), b0.max(b1));
                    p.acquire(lo);
                    if hi != lo {
                        p.acquire(hi);
                    }
                    let t1 = spans.then(Instant::now);
                    let f = table.get(p, from);
                    let t = table.get(p, to);
                    table.set(p, from, f.checked_sub(amount).expect("account overdrawn"));
                    table.set(p, to, t + amount);
                    let t2 = spans.then(Instant::now);
                    if hi != lo {
                        p.release(hi);
                    }
                    p.release(lo);
                    (t1, t2)
                }
            };
            let t3 = Instant::now();
            s.txn_us.push(us(t0, t3));
            if let (Some(t1), Some(t2)) = (t1, t2) {
                s.acquire_us.push(us(t0, t1));
                s.access_us.push(us(t1, t2));
                s.release_us.push(us(t2, t3));
            }
            *done += 1;
        }
        let tb = spans.then(Instant::now);
        p.barrier();
        let end = Instant::now();
        if let Some(tb) = tb {
            s.barrier_us.push(us(tb, end));
        }
        s.last = Some(end);
    });

    commits.set(p, me, done);
    p.barrier();
    let out = if me == 0 {
        KvOut {
            table: (0..params.accounts).map(|a| table.get(p, a)).collect(),
            commits: (0..n).map(|k| commits.get(p, k)).collect(),
        }
    } else {
        KvOut::default()
    };
    probe.exit(me);
    sink.lock().expect("sample sink poisoned").push(s);
    out
}

/// Check node 0's read-back against the sequential model; `Err` names the
/// first mismatch.
pub fn check(params: &KvParams, nodes: usize, out: &KvOut, expected: &[u64]) -> Result<(), String> {
    if out.commits != vec![params.txns_per_node; nodes] {
        return Err(format!(
            "commit counts {:?}, expected {} per node",
            out.commits, params.txns_per_node
        ));
    }
    let total: u128 = out.table.iter().map(|&b| u128::from(b)).sum();
    let want = u128::from(INIT_BALANCE) * params.accounts as u128;
    if total != want {
        return Err(format!("total balance {total}, expected {want}"));
    }
    if let Some(a) = (0..expected.len()).find(|&a| out.table.get(a) != Some(&expected[a])) {
        return Err(format!(
            "account {a} holds {:?}, expected {}",
            out.table.get(a),
            expected[a]
        ));
    }
    Ok(())
}
