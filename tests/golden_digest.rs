//! Golden-digest equivalence tests: a 64-bit FNV-1a fingerprint over
//! every behavior-bearing output of the load-balance simulation
//! (per-job wait times, final placements, route-hop and push summaries,
//! churn counters), at quick scale, for all three schedulers, with and
//! without eviction. The runs without eviction also pin their work
//! counts (route hops, pushes, fallbacks, events), which name what a
//! moved digest moved.
//!
//! The recorded constants pin the simulation's *exact* trajectory: any
//! hot-path optimization (CSR adjacency, scratch buffers, precomputed
//! tables) that changes matchmaking decisions — even by reordering a
//! tie-break — fails these tests loudly. Determinism is load-bearing
//! for the reproduction, so digests may only be re-recorded for a
//! change that is *supposed* to alter results (e.g. a model fix), never
//! for a refactor.
//!
//! To re-record after such a change:
//! `PGRID_PRINT_DIGESTS=1 cargo test --test golden_digest -- --nocapture`

use p2p_ce_grid::prelude::*;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Digests every behavior-bearing field of a simulation result.
fn digest(r: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.wait_times.len() as u64);
    for &w in &r.wait_times {
        h.f64(w);
    }
    for &n in &r.placed_nodes {
        h.u64(n.0 as u64);
    }
    h.u64(r.route_hops.count());
    h.f64(r.route_hops.mean());
    h.f64(r.route_hops.max().unwrap_or(-1.0));
    h.u64(r.pushes.count());
    h.f64(r.pushes.mean());
    h.f64(r.pushes.max().unwrap_or(-1.0));
    h.u64(r.fallback_placements);
    h.f64(r.makespan);
    h.u64(r.evictions);
    h.u64(r.resubmissions);
    for &b in &r.node_busy_seconds {
        h.f64(b);
    }
    h.0
}

fn quick_scenario() -> LoadBalanceScenario {
    let mut s = default_scenario().scaled_down(10); // 100 nodes
    s.jobs = 600;
    s
}

fn check(label: &str, expected: u64, r: &SimResult) {
    let got = digest(r);
    if std::env::var_os("PGRID_PRINT_DIGESTS").is_some() {
        println!("(\"{label}\", 0x{got:016x}),");
        return;
    }
    assert_eq!(
        got, expected,
        "{label}: digest 0x{got:016x} != recorded 0x{expected:016x} — \
         the simulation trajectory changed; see file header"
    );
}

/// Host-independent work counts of one run: Σ route hops, Σ pushes,
/// fallback placements and events fired.
fn work(r: &SimResult) -> [u64; 4] {
    let sum = |s: &Summary| (s.mean() * s.count() as f64).round() as u64;
    [
        sum(&r.route_hops),
        sum(&r.pushes),
        r.fallback_placements,
        r.events_fired,
    ]
}

const NO_EVICTION: [(&str, u64); 3] = [
    ("can-het", 0xf2d13c481f061b02),
    ("can-hom", 0x4c09d255f21bc163),
    ("central", 0xbc400b2d6f3c8d4a),
];

/// [`work`] of the [`NO_EVICTION`] runs.
const NO_EVICTION_WORK: [[u64; 4]; 3] =
    [[1901, 301, 6, 1619], [1938, 566, 1, 1628], [0, 0, 0, 1587]];

const WITH_EVICTION: [(&str, u64); 3] = [
    ("can-het+evict", 0x53f2a6ebefd6a08d),
    ("can-hom+evict", 0x38af4f86b7b6cc14),
    ("central+evict", 0x6a5e95231b6dc29b),
];

#[test]
fn golden_digests_without_eviction() {
    let s = quick_scenario();
    for ((choice, (label, expected)), counts) in SchedulerChoice::ALL
        .into_iter()
        .zip(NO_EVICTION)
        .zip(NO_EVICTION_WORK)
    {
        let r = run_load_balance(&s, choice);
        // Checked before the digest, so a moved digest says which count
        // moved with it.
        if std::env::var_os("PGRID_PRINT_DIGESTS").is_some() {
            println!("{label}: {:?}", work(&r));
        } else {
            assert_eq!(
                work(&r),
                counts,
                "{label}: [hops, pushes, fallbacks, events]"
            );
        }
        check(label, expected, &r);
    }
}

#[test]
fn golden_digests_with_eviction() {
    let s = quick_scenario().with_eviction(EvictionConfig::new(900.0));
    for (choice, (label, expected)) in SchedulerChoice::ALL.into_iter().zip(WITH_EVICTION) {
        let r = run_load_balance(&s, choice);
        check(label, expected, &r);
    }
}

/// Refresh-heavy digests: the AI table is refreshed 4× as often (15 s
/// period vs the default 60 s) under eviction churn, so
/// `AiTable::refresh` snapshots and marks many more times per
/// trajectory, most of them over sparse dirty sets, and rows stay
/// stale across several refreshes before a push reads them. Recorded
/// with the from-scratch rebuild *before* any incremental or
/// demand-driven path landed; the demand-driven table must reproduce
/// them bit-exactly (it builds every f64 sum by the same `absorb`
/// sequence in the same order, so any divergence is a real behavior
/// change).
const REFRESH_HEAVY: [(&str, u64); 3] = [
    ("can-het+fast-ai", 0x2178d2ea890a3142),
    ("can-hom+fast-ai", 0x05830d3374b924a9),
    ("central+fast-ai", 0x9c925b1212f5d140),
];

#[test]
fn golden_digests_refresh_heavy() {
    let mut s = quick_scenario().with_eviction(EvictionConfig::new(900.0));
    s.ai_refresh_period = 15.0;
    // Double the arrival rate so queues build up and the aggregated
    // entries carry non-trivial load (a light grid's AI is near-static
    // and would under-exercise the incremental propagation).
    s.job_gen.mean_interarrival /= 2.0;
    for (choice, (label, expected)) in SchedulerChoice::ALL.into_iter().zip(REFRESH_HEAVY) {
        let r = run_load_balance(&s, choice);
        check(label, expected, &r);
    }
}

#[test]
fn digest_is_sensitive_to_results() {
    let r = run_load_balance(&quick_scenario(), SchedulerChoice::Central);
    let mut tweaked = r.clone();
    tweaked.wait_times[0] += 1.0;
    assert_ne!(digest(&r), digest(&tweaked));
    let mut tweaked = r.clone();
    tweaked.placed_nodes[0] = NodeId(tweaked.placed_nodes[0].0.wrapping_add(1));
    assert_ne!(digest(&r), digest(&tweaked));
}
