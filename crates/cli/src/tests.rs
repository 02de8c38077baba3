//! The fault suites' published bytes and exit rules: what
//! `pgrid chaos | scenarios | detector | fuzz` print and save, held to
//! pinned digests, and one broken rule per verdict.

use crate::args::Args;
use crate::{commands, report};
use pgrid::experiments::{
    self, DetectorArm, DetectorCell, OverloadDelta, PooledArm, ScenarioCell, TakeoverCell,
};
use pgrid::prelude::*;

/// Holds a published table's exact bytes — the text `--quick` prints
/// at the default seed, or the CSV it saves — to a pinned FNV-1a
/// digest. The chaos, takeover and detector CSV digests were recorded
/// from the scripted chaos runner (the `can::chaos` module) and the
/// detector sweep's private bootstrap, immediately before both were
/// replaced by `can::dst::run_schedule` / `can::dst::bootstrap`; the
/// text digests and `scenarios_resilience.csv` from the hand-written
/// `render_*` / `save_*_csv` functions, immediately before the column
/// lists replaced them. Re-record (`PGRID_PRINT_DIGESTS=1 cargo test
/// -p pgrid-cli --lib _render_and_csv -- --nocapture`) only for a
/// change that is *supposed* to alter a table, never for a refactor.
fn assert_pinned(what: &str, bytes: &str, expect: u64) {
    let mut h = pgrid::simcore::Fnv::new();
    h.write(bytes.as_bytes());
    if std::env::var_os("PGRID_PRINT_DIGESTS").is_some() {
        println!("{what}: 0x{:016x}", h.finish());
        return;
    }
    assert_eq!(
        h.finish(),
        expect,
        "{what}: a published table moved (pinned 0x{expect:016x})"
    );
}

fn a(raw: &[&str]) -> Result<Args, String> {
    Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

fn chaos_table(scale: Scale) -> Vec<experiments::ChaosRow> {
    experiments::chaos_rows(
        &pgrid::scenarios::chaos_trio(),
        &HeartbeatScheme::ALL,
        scale,
        experiments::CHAOS_SEED,
        None,
    )
}

#[test]
fn chaos_render_and_csv() {
    let reports = chaos_table(Scale::Quick);
    assert_eq!(reports.len(), 9, "3 scenarios x 3 schemes");
    let table = report::chaos(&reports);
    assert_pinned("chaos table (quick)", &table.text, 0x0a0d_378f_4e3e_bed0);
    assert!(table.text.contains("flash-crowd"));
    assert!(table.text.contains("rolling-partition"));
    assert!(table.text.contains("lossy-churn"));
    assert!(table.text.contains("Adaptive"));
    assert!(table.text.contains("relearn(hb)"));
    assert_pinned("chaos.csv (quick)", &table.csv, 0x216d_bd2a_012a_32a8);
    assert!(table.csv.starts_with("scenario,scheme,broken_peak"));
    assert!(table
        .csv
        .lines()
        .next()
        .unwrap()
        .contains("relearn_mean_hb"));
    assert_eq!(table.csv.lines().count(), 10);
    let paper = report::chaos(&chaos_table(Scale::Paper));
    assert_pinned("chaos.csv (paper)", &paper.csv, 0x3ae3_ac59_13c8_2c69);
    // Adaptive is self-healing: it must come back clean.
    for r in reports
        .iter()
        .filter(|r| r.scheme == HeartbeatScheme::Adaptive)
    {
        assert!(
            r.report.violations.is_empty(),
            "{}: {:?}",
            r.scenario,
            r.report.violations
        );
        assert_eq!(r.report.broken_after, 0, "{}", r.scenario);
    }
}

#[test]
fn scenarios_render_and_csv() {
    let specs = pgrid::scenarios::matching("");
    let cells = experiments::scenario_suite_over(Scale::Quick, experiments::SCENARIO_SEED, &specs);
    assert_eq!(cells.len(), pgrid::scenarios::REGISTRY.len());
    let table = report::scenarios(&cells);
    assert_pinned(
        "scenarios table (quick)",
        &table.text,
        0x2300_254b_b683_fbbb,
    );
    assert_pinned(
        "scenarios_resilience.csv (quick)",
        &table.csv,
        0x84f8_c5db_8abc_fcd6,
    );
}

#[test]
fn takeover_render_and_csv() {
    let cells = experiments::takeover_suite(Scale::Quick, experiments::TAKEOVER_SEED);
    assert_eq!(cells.len(), 3, "one cell per heartbeat scheme");
    let table = report::takeover(&cells);
    assert_pinned("takeover table (quick)", &table.text, 0xb74c_ab3c_a2e4_1057);
    assert!(table.text.contains("vanilla"));
    assert!(table.text.contains("replicated"));
    assert!(table.text.contains("relearn(hb)"));
    assert!(table.text.contains("pooled re-learn window"));
    assert_pinned("takeover.csv (quick)", &table.csv, 0x7d8e_3904_3a37_9459);
    assert!(table.csv.starts_with("scheme,arm,takeovers"));
    assert_eq!(table.csv.lines().count(), 1 + 2 * cells.len());
    let paper = experiments::takeover_suite(Scale::Paper, experiments::TAKEOVER_SEED);
    let paper = report::takeover(&paper);
    assert_pinned("takeover.csv (paper)", &paper.csv, 0x4059_be44_91d7_58eb);
}

#[test]
fn detector_render_and_csv() {
    let cells = experiments::detector_suite(Scale::Quick, experiments::DETECTOR_SEED);
    let table = report::detector(&cells);
    assert_pinned("detector table (quick)", &table.text, 0xb94c_170a_c821_c8de);
    assert!(table.text.contains("false pos"));
    assert!(table.text.contains("fixed"));
    assert!(table.text.contains("adaptive"));
    assert!(table
        .text
        .contains("false-positive expulsions across the sweep"));
    assert_pinned("detector.csv (quick)", &table.csv, 0xd5e3_7580_c981_5833);
    assert!(table.csv.starts_with("link_stress,freeze_s,rule"));
    assert_eq!(table.csv.lines().count(), 1 + 2 * cells.len());
}

#[test]
fn seeded_parser_is_strict() {
    // The suites' numeric flags: unknown flags, missing values and
    // garbage numbers fail fast, before anything runs.
    assert!(a(&["--seed"]).is_err());
    for bad in [
        &["--sede", "7"][..],
        &["--seed", "-1"],
        &["--budget", "0"],
        &["--budget", "inf"],
        // --seeds is fuzz-only: chaos has no sweep width.
        &["--seeds", "4"],
    ] {
        assert!(commands::chaos(a(bad).unwrap()).is_err(), "chaos {bad:?}");
    }
    for bad in [
        &["--seed", "-1"][..],
        &["--seeds", "0"],
        &["--budget", "0"],
        &["--budget", "inf"],
    ] {
        assert!(commands::fuzz(a(bad).unwrap()).is_err(), "fuzz {bad:?}");
    }
    assert!(commands::detector(a(&["--budget", "30"]).unwrap()).is_err());
}

#[test]
fn scenario_parser_list_and_render_csv() {
    assert!(commands::scenarios(a(&["--scenairo", "x"]).unwrap()).is_err());
    assert!(a(&["--scenario"]).is_err());

    // One cheap cell through text + CSV.
    let specs = pgrid::scenarios::matching("gray-failure");
    let cells = experiments::scenario_suite_over(Scale::Quick, experiments::SCENARIO_SEED, &specs);
    let table = report::scenarios(&cells);
    assert!(table.text.contains("gray-failure"));
    assert!(table.text.contains("relearn(hb)"));
    assert!(table.text.contains("ok"));
    assert!(table.csv.starts_with("scenario,scheme,broken_peak"));
    assert_eq!(table.csv.lines().count(), 1 + HeartbeatScheme::ALL.len());
}

#[test]
fn fuzz_render_covers_clean_and_failing_sweeps() {
    let mut cfg = pgrid::fuzz::FuzzConfig::new(100, 2);
    cfg.wall_budget = 600.0;
    let summary = pgrid::fuzz::fuzz_search(&cfg);
    assert!(summary.failure.is_none(), "{:#?}", summary.failure);
    let text = report::fuzz(&summary);
    assert!(text.contains("clean seeds: 2/2 requested"));
    assert!(text.contains("broken peak"));

    // A synthetic failure renders the shrink statistics.
    let shrunk = pgrid::simcore::dst::generate(100, &ScheduleBudget::smoke());
    let failing = FuzzSummary {
        runs: Vec::new(),
        failure: Some(FuzzFailure {
            seed: 9,
            violations: vec!["CAN: oops".into()],
            shrunk,
            shrunk_violations: vec!["CAN: oops".into()],
            original_events: 4,
            probes: 17,
        }),
        seeds_requested: 5,
        hit_wall_budget: false,
    };
    let text = report::fuzz(&failing);
    assert!(text.contains("FAILURE at seed 9"));
    assert!(text.contains("17 replay probes"));
    assert!(text.contains("shrunk repro still violates: CAN: oops"));
}

#[test]
fn crash_recovery_renders_all_schedulers() {
    let mut s = default_scenario().scaled_down(20);
    s.jobs = 200;
    let chaos = pgrid::sched::CrashChaosConfig::new(500.0);
    let cells: Vec<experiments::CrashRecoveryCell> = SchedulerChoice::ALL
        .into_iter()
        .map(|choice| {
            let calm = run_load_balance(&s, choice);
            let stormy = pgrid::sched::run_load_balance_chaos(&s, choice, &chaos);
            experiments::CrashRecoveryCell {
                choice,
                calm_mean_wait: calm.mean_wait(),
                chaos_mean_wait: stormy.mean_wait(),
                completed: stormy.wait_times.len(),
                stats: stormy.recovery.unwrap(),
            }
        })
        .collect();
    let text = report::crash_recovery(&cells);
    assert!(text.contains("can-het"));
    assert!(text.contains("crashes"));
    assert!(text.contains("requeued"));
}

/// A failed verdict keeps the tables for stdout, names the rule on
/// stderr, and exits non-zero.
fn assert_fails_naming(verdict: Verdict, rule: &str) {
    let err = verdict.expect_err("a broken rule must fail the suite");
    assert!(err.message.contains(rule), "{}", err.message);
    assert_ne!(err.status, 0);
    assert_eq!(err.stdout, "tables\n", "the tables are still printed");
}

type Verdict = Result<String, crate::CliError>;

fn chaos_verdict(rows: &[experiments::ChaosRow], cells: &[TakeoverCell]) -> Verdict {
    report::invariants_verdict(
        "tables\n".into(),
        experiments::chaos_violations(rows, cells),
    )
}

fn scenarios_verdict(cells: &[ScenarioCell]) -> Verdict {
    report::invariants_verdict("tables\n".into(), experiments::scenario_violations(cells))
}

fn detector_verdict(cells: &[DetectorCell]) -> Verdict {
    report::detector_verdict("tables\n".into(), experiments::detector_regressions(cells))
}

#[test]
fn chaos_verdict_fails_on_a_violation_in_either_table() {
    let clean = PooledArm::pooled(&[]);
    let cell = |replicated: PooledArm| TakeoverCell {
        scheme: HeartbeatScheme::Compact,
        vanilla: clean.clone(),
        replicated,
    };
    let ok = chaos_verdict(&[], &[cell(clean.clone())]).unwrap();
    assert_eq!(ok, "tables\ninvariants: ok (zero violations)\n");

    let mut broken = clean.clone();
    broken.violations.push("CAN: zone tiling".into());
    assert_fails_naming(
        chaos_verdict(&[], &[cell(broken)]),
        "takeover/Compact/replicated: CAN: zone tiling",
    );

    let spec = pgrid::scenarios::find("flash-crowd").unwrap();
    let mut rows = experiments::chaos_rows(
        &[spec],
        &[HeartbeatScheme::Adaptive],
        Scale::Quick,
        experiments::CHAOS_SEED,
        None,
    );
    assert!(chaos_verdict(&rows, &[]).is_ok());
    rows[0].report.violations.push("CAN: ghost owner".into());
    assert_fails_naming(
        chaos_verdict(&rows, &[]),
        "flash-crowd/Adaptive: CAN: ghost owner",
    );
}

#[test]
fn scenarios_verdict_fails_on_a_violation_or_a_lost_overload_comparison() {
    let cell = |violation: Option<&str>, controlled_goodput: f64| ScenarioCell {
        scenario: "overload-collapse",
        arms: vec![(HeartbeatScheme::Vanilla, {
            let mut arm = PooledArm::pooled(&[]);
            arm.violations.extend(violation.map(String::from));
            arm
        })],
        wait_delta: None,
        overload: Some(OverloadDelta {
            vanilla_goodput: 40.0,
            controlled_goodput,
            shed_rate: 0.3,
            retry_amplification: 1.5,
            vanilla_p99: 900.0,
            controlled_p99: 300.0,
        }),
    };
    assert!(scenarios_verdict(&[cell(None, 55.0)]).is_ok());
    assert_fails_naming(
        scenarios_verdict(&[cell(Some("SCHED: job lost"), 55.0)]),
        "overload-collapse/Vanilla: SCHED: job lost",
    );
    assert_fails_naming(
        scenarios_verdict(&[cell(None, 40.0)]),
        "overload control did not improve goodput (40.00 <= 40.00 jobs/1000s)",
    );
}

#[test]
fn detector_verdict_enforces_all_three_rules() {
    let arm = |mode, false_expulsions, live_expulsions, revivals| DetectorArm {
        mode,
        suspicions: 0,
        probe_requests: 0,
        live_expulsions,
        false_expulsions,
        revivals,
        detection_lag: None,
        broken_link_seconds: 0.0,
        stale_keepalives: 0,
    };
    // A 300 s freeze is past the 150 s fail timeout: a real failure.
    let cell = |fixed: DetectorArm, adaptive: DetectorArm| DetectorCell {
        link_stress: 0.8,
        freeze_secs: 300.0,
        fixed,
        adaptive,
    };
    let (fixed, adaptive) = (DetectorMode::Fixed, DetectorMode::Adaptive);
    let sound = cell(arm(fixed, 3, 5, 2), arm(adaptive, 1, 3, 2));
    let ok = detector_verdict(&[sound]).unwrap();
    assert!(ok.ends_with("detector claims: ok (adaptive never worse, real failures caught)\n"));

    for (broken, rule) in [
        (
            cell(arm(fixed, 1, 3, 2), arm(adaptive, 2, 4, 2)),
            "stress 0.8 freeze 300: adaptive false positives 2 exceed fixed 1",
        ),
        (
            cell(arm(fixed, 0, 2, 2), arm(adaptive, 0, 0, 0)),
            "adaptive rule missed a real failure",
        ),
        (
            cell(arm(fixed, 0, 2, 0), arm(adaptive, 0, 2, 2)),
            "fixed rule never revived the victims",
        ),
    ] {
        let verdict = detector_verdict(&[broken]);
        let err = verdict.as_ref().expect_err(rule);
        assert_eq!(err.message.lines().count(), 2, "one rule: {}", err.message);
        assert_fails_naming(verdict, rule);
    }
}
