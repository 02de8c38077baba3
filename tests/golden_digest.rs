//! Golden-digest equivalence tests: a 64-bit FNV-1a fingerprint over
//! every behavior-bearing output of the load-balance simulation
//! (per-job wait times, final placements, route-hop and push summaries,
//! churn counters), at quick scale, for all three schedulers, with and
//! without eviction. The runs without eviction also pin their work
//! counts (route hops, pushes, fallbacks, events), which name what a
//! moved digest moved. Two arms run the fault layers hard enough that
//! every one of their mechanisms fires — a crash every minute, and
//! bounded queues under crashes and eviction at triple load — and also
//! pin the recovery and overload records.
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
use p2p_ce_grid::sched::{run_load_balance_overload, OverloadConfig};

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

/// [`digest`] plus what the fault layers report: the crash-recovery
/// and overload records, drain-lost jobs and events fired.
fn fault_digest(r: &SimResult) -> u64 {
    let mut h = Fnv(digest(r));
    if let Some(rec) = &r.recovery {
        for v in [
            rec.crashes,
            rec.killed_running,
            rec.killed_queued,
            rec.requeued,
            rec.permanently_failed,
            u64::from(rec.max_attempts),
        ] {
            h.u64(v);
        }
        h.f64(rec.wasted_seconds);
    }
    if let Some(ov) = &r.overload {
        for v in [
            ov.admitted,
            ov.admission_rejects,
            ov.shed_admission,
            ov.shed_queue,
            ov.push_attempts,
            ov.max_boundary_depth,
        ] {
            h.u64(v);
        }
    }
    h.u64(r.lost_jobs);
    h.u64(r.events_fired);
    h.0
}

fn quick_scenario() -> LoadBalanceScenario {
    let mut s = default_scenario().scaled_down(10); // 100 nodes
    s.jobs = 600;
    s
}

fn check(label: &str, expected: u64, r: &SimResult) {
    check_digest(label, expected, digest(r));
}

fn check_digest(label: &str, expected: u64, got: u64) {
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

/// A crash every 60 s: every scheduler exhausts some job's retry
/// budget, so each backoff step and the retry limit are on the pinned
/// path.
const CRASH_HEAVY: [(&str, u64); 3] = [
    ("can-het+crash60", 0x94c4c00228f996ec),
    ("can-hom+crash60", 0x869c49eca5f5b68c),
    ("central+crash60", 0x960e44bac4626ee1),
];

#[test]
fn golden_digests_crash_heavy() {
    let s = quick_scenario();
    let chaos = CrashChaosConfig::new(60.0);
    for (choice, (label, expected)) in SchedulerChoice::ALL.into_iter().zip(CRASH_HEAVY) {
        let r = run_load_balance_chaos(&s, choice, &chaos);
        let rec = r.recovery.as_ref().expect("chaos run reports recovery");
        if std::env::var_os("PGRID_PRINT_DIGESTS").is_some() {
            println!("{label}: {rec:?}");
        }
        assert!(
            rec.permanently_failed > 0,
            "{label}: no job exhausted its retries"
        );
        assert_eq!(rec.max_attempts, 6, "{label}: 1 + five retries");
        check_digest(label, expected, fault_digest(&r));
    }
}

/// Three times the arrival rate into bounded queues under eviction and
/// crashes: admission rejects, queue sheds, evictions and crashes all
/// fire, so the retry delay, the resubmit delay and both outages are
/// on the pinned path.
const STRESS: [(&str, u64); 3] = [
    ("can-het+stress", 0x07bf37ae1b2a66ce),
    ("can-hom+stress", 0x0ba8332e78cd4712),
    ("central+stress", 0xb8314eb30fc22a74),
];

#[test]
fn golden_digests_stress() {
    let mut s = quick_scenario().with_eviction(EvictionConfig::new(600.0));
    s.job_gen.mean_interarrival /= 3.0;
    let chaos = CrashChaosConfig::new(300.0);
    let cfg = OverloadConfig {
        queue_slots: Some(4),
        max_queue_wait: Some(900.0),
        retry_refill: 0.01,
        // The default burst of 3 tokens.
        ..OverloadConfig::default()
    };
    for (choice, (label, expected)) in SchedulerChoice::ALL.into_iter().zip(STRESS) {
        let r = run_load_balance_overload(&s, choice, Some(&chaos), &cfg);
        let rec = r.recovery.as_ref().expect("chaos run reports recovery");
        let ov = r.overload.as_ref().expect("overload run reports stats");
        if std::env::var_os("PGRID_PRINT_DIGESTS").is_some() {
            println!("{label}: {} evictions, {rec:?}, {ov:?}", r.evictions);
        }
        assert!(
            r.evictions > 0 && r.resubmissions > 0,
            "{label}: no eviction fired"
        );
        assert!(
            rec.crashes > 0 && rec.requeued > 0,
            "{label}: no crash fired"
        );
        assert!(ov.admission_rejects > 0, "{label}: no admission reject");
        assert!(ov.shed_queue > 0, "{label}: no queue shed");
        check_digest(label, expected, fault_digest(&r));
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
