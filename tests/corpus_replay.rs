//! Regression gate over the shrunk-trace corpus.
//!
//! Every `tests/corpus/*.trace` file is a self-contained fault
//! schedule (most of them delta-debugged repros of past bugs, plus
//! hand-derived scenario re-derivations). Each must:
//!
//! * parse,
//! * replay **bit-identically** — two independent runs produce the
//!   same digest,
//! * match the `expect digest=` value recorded in the file, and
//! * report zero invariant violations on the current protocol.
//!
//! To re-record digests after an *intentional* behavior change, run
//!
//! ```text
//! PGRID_PRINT_DIGESTS=1 cargo test --test corpus_replay -- --nocapture
//! ```
//!
//! and copy the printed `expect digest=` lines into the trace files.

use pgrid::fuzz::replay_trace;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_has_at_least_three_traces() {
    assert!(
        corpus_files().len() >= 3,
        "expected >= 3 committed corpus traces, found {:?}",
        corpus_files()
    );
}

#[test]
fn every_corpus_trace_replays_bit_identically_and_clean() {
    let print = std::env::var_os("PGRID_PRINT_DIGESTS").is_some();
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable trace");
        let (schedule, first) = replay_trace(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (_, second) = replay_trace(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if print {
            println!("{name}: expect digest=0x{:016x}", first.digest);
        }
        assert_eq!(
            first.digest, second.digest,
            "{name}: two replays diverged — the case is not deterministic"
        );
        assert_eq!(first, second, "{name}: replay reports diverged");
        assert!(
            first.violations.is_empty(),
            "{name}: corpus trace violates invariants on the current protocol:\n  {}",
            first.violations.join("\n  ")
        );
        if print {
            // Re-record mode: digests were printed above; skip the
            // recorded-value comparison so every file gets printed.
            continue;
        }
        let expect = schedule
            .expect_digest
            .unwrap_or_else(|| panic!("{name}: trace has no recorded `expect digest=` line"));
        assert_eq!(
            expect, first.digest,
            "{name}: replay digest 0x{:016x} != recorded 0x{expect:016x} — \
             behavior changed; re-record with PGRID_PRINT_DIGESTS=1 if intentional",
            first.digest
        );
    }
}

#[test]
fn corpus_includes_the_rack_crash_storm() {
    let files = corpus_files();
    let storm = files
        .iter()
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .contains("rack_crash_storm")
        })
        .expect("corpus keeps the correlated owner+heir rack-crash storm");
    let text = std::fs::read_to_string(storm).unwrap();
    let (schedule, report) = replay_trace(&text).unwrap();
    assert_eq!(schedule.replication.as_deref(), Some("standby"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // The storm must actually drive the warm-standby machinery: heirs
    // promoting replicas, and the epoch fence rejecting at least one
    // stale replica from a second-choice heir whose copy is older than
    // the dead owner's last acknowledged version.
    let can_report = pgrid::can::dst::run_schedule(&schedule);
    assert!(
        can_report.counters.replica_promotions > 0,
        "storm drove no promotions: {can_report:?}"
    );
    assert!(
        can_report.counters.stale_replica_rejects > 0,
        "storm never exercised the stale-replica fence: {can_report:?}"
    );
}

/// Loads the corpus trace whose filename contains `needle`, replays
/// it, and returns the schedule plus the executor report.
fn scenario_trace(needle: &str) -> (pgrid::simcore::FaultSchedule, pgrid::can::ScheduleReport) {
    let files = corpus_files();
    let path = files
        .iter()
        .find(|p| p.file_name().unwrap().to_string_lossy().contains(needle))
        .unwrap_or_else(|| panic!("corpus keeps a {needle} trace"));
    let text = std::fs::read_to_string(path).unwrap();
    let (schedule, report) = replay_trace(&text).unwrap();
    assert!(
        schedule.macros.is_empty(),
        "{needle}: corpus traces are committed in expanded primitive form \
         so replay never depends on macro support"
    );
    assert!(
        report.violations.is_empty(),
        "{needle}: {:?}",
        report.violations
    );
    let full = pgrid::can::dst::run_schedule(&schedule);
    (schedule, full)
}

#[test]
fn corpus_includes_the_diurnal_wave() {
    let (schedule, report) = scenario_trace("diurnal-wave");
    assert_eq!(schedule.detector.as_deref(), Some("adaptive"));
    // Six primitive events: a crash near each of the three troughs and
    // a rejoin near each peak.
    assert_eq!(schedule.events.len(), 6);
    assert!(
        report.takeovers > 0,
        "the wave must crash nodes: {report:?}"
    );
    // Every departure is real — the adaptive detector must not expel a
    // single live node while riding the wave.
    assert_eq!(report.counters.live_expulsions, 0, "{report:?}");
    assert_eq!(
        report.final_nodes, schedule.nodes,
        "peaks restore the troughs"
    );
}

#[test]
fn corpus_includes_the_flash_crowd_spike() {
    let (schedule, report) = scenario_trace("flash-crowd-spike");
    // A 14-node join burst minus the 7-node departure wave: net +7.
    assert_eq!(report.final_nodes, schedule.nodes + 7, "{report:?}");
    assert!(
        report.takeovers > 0,
        "the departure wave crashes: {report:?}"
    );
}

#[test]
fn corpus_includes_the_rack_storm() {
    let (schedule, report) = scenario_trace("rack-storm");
    assert_eq!(schedule.replication.as_deref(), Some("standby"));
    // Three racks of four: every expanded event is a crash burst.
    assert_eq!(schedule.events.len(), 3);
    assert!(
        report.counters.replica_promotions > 0,
        "the storm must drive warm-replica promotions: {report:?}"
    );
}

#[test]
fn corpus_includes_the_takeover_storm() {
    let (schedule, report) = scenario_trace("takeover-storm");
    // The committed trace is the sweep's own builder (`crash-heir` wave
    // included), replicated arm, at the sweep's seed — so the builder
    // cannot drift unpinned.
    let mut built = pgrid::scenarios::takeover_storm(pgrid::experiments::TAKEOVER_SEED);
    built.replication = Some("standby".into());
    built.expect_digest = schedule.expect_digest;
    assert_eq!(schedule, built);
    assert!(
        report.counters.replica_promotions > 0,
        "second-choice heirs must still promote replicas: {report:?}"
    );
}

#[test]
fn corpus_includes_the_straggler_drag() {
    let (schedule, report) = scenario_trace("straggler-drag");
    assert_eq!(schedule.degrades.len(), 1, "one straggler link window");
    assert!(
        report.counters.frozen_drops > 0,
        "the freezes must fire: {report:?}"
    );
    // Both freezes are shorter than the fail timeout and the slow links
    // are merely slow: suspicions are fine, expulsions are not.
    assert!(report.counters.suspicions > 0, "{report:?}");
    assert_eq!(report.counters.live_expulsions, 0, "{report:?}");
}

#[test]
fn corpus_includes_the_gray_failure() {
    let (schedule, report) = scenario_trace("gray-failure");
    // The macro lowers to a loss-only and a lag-only window over the
    // same span and pair budget.
    assert_eq!(schedule.degrades.len(), 2);
    assert_eq!(schedule.degrades[0].jitter, 0.0);
    assert_eq!(schedule.degrades[1].drop, 0.0);
    assert!(report.dropped_messages > 0, "{report:?}");
    assert_eq!(report.counters.live_expulsions, 0, "{report:?}");
    assert_eq!(
        report.broken_after, 0,
        "limping links must still heal: {report:?}"
    );
}

#[test]
fn corpus_includes_the_relocated_zombie_revival() {
    let (schedule, report) = scenario_trace("relocated-zombie");
    assert_eq!(schedule.partitions.len(), 2, "two rolling windows");
    // Window 1's take-over relocates a node away from its join
    // coordinate; window 2 expels the relocated node. Its revival must
    // probe the zone it last owned (where the expulsion fence lives),
    // not the coordinate — a coordinate probe compares against the
    // absorber's unfenced region and wedges forever.
    assert!(report.counters.live_expulsions > 0, "{report:?}");
    assert_eq!(
        report.counters.revivals, report.counters.live_expulsions,
        "every expelled node revives once the partitions heal: {report:?}"
    );
    assert_eq!(report.final_nodes, schedule.nodes, "{report:?}");
}

#[test]
fn corpus_includes_the_overload_collapse() {
    let files = corpus_files();
    let path = files
        .iter()
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .contains("overload-collapse")
        })
        .expect("corpus keeps the overload-collapse congestion trace");
    let text = std::fs::read_to_string(path).unwrap();
    let (schedule, report) = replay_trace(&text).unwrap();
    assert!(
        schedule.macros.is_empty(),
        "overload-collapse: corpus traces are committed in expanded primitive form"
    );
    let rec = schedule
        .overload
        .expect("the trace arms bounded queues and the retry budget");
    assert!(
        report.violations.is_empty(),
        "overload-collapse: {:?}",
        report.violations
    );
    // The armed run must actually overflow the bounded queues — a
    // trace that never sheds exercises nothing — while the retry
    // budget keeps amplification under the configured bucket ceiling.
    let stats = report
        .overload
        .expect("armed sched phase records overload stats");
    assert!(stats.shed_total() > 0, "no sheds: {stats:?}");
    assert!(
        stats.max_boundary_depth <= rec.slots as u64,
        "bounded queue overflowed: {stats:?}"
    );
    let amp = stats.retry_amplification();
    assert!(
        amp < 1.0 + f64::from(rec.burst),
        "retry amplification {amp} at or above the budget ceiling: {stats:?}"
    );
}

#[test]
fn corpus_includes_the_seed41_rederivation() {
    let files = corpus_files();
    let seed41 = files
        .iter()
        .find(|p| p.file_name().unwrap().to_string_lossy().contains("seed41"))
        .expect("corpus keeps the historical seed-41 flash-crowd re-derivation");
    let text = std::fs::read_to_string(seed41).unwrap();
    let (schedule, _) = replay_trace(&text).unwrap();
    assert_eq!(schedule.seed, 41);
    assert_eq!(schedule.scheme, "compact");
}
