//! The published bytes and exit rules: what the fault suites
//! (`pgrid chaos | scenarios | detector | fuzz`) and the figures
//! (`pgrid figure`) print and save, held to pinned digests, and one
//! broken rule per verdict.

use crate::args::Args;
use crate::{commands, figures, report};
use pgrid::experiments::{
    self, DetectorArm, DetectorCell, OverloadDelta, PooledArm, ScenarioCell, TakeoverCell,
};
use pgrid::prelude::*;

/// Holds a published table's exact bytes — the text `--quick` prints
/// at the default seed, or the CSV or SVG it saves — to a pinned FNV-1a
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

/// `pgrid figure NAME ARGS...` through the front end.
fn figure(name: &str, args: &[&str]) -> Result<String, crate::CliError> {
    let argv = [&["pgrid", "figure", name][..], args].concat();
    crate::dispatch(argv.iter().map(|s| s.to_string()).collect())
}

/// `pgrid figure NAME --quick` into an emptied scratch directory `dir`
/// (one per test: tests run in parallel): what it printed, and the
/// directory.
fn quick_figure(name: &str, dir: &str) -> (String, std::path::PathBuf) {
    let out = std::env::temp_dir().join("pgrid_cli_figures").join(dir);
    let _ = std::fs::remove_dir_all(&out);
    let text = figure(name, &["--quick", "--out", out.to_str().unwrap()]).unwrap();
    (text, out)
}

/// What each figure prints at `--quick`, keyed by its name (the out
/// directory replaced by `<OUT>`), and every file it writes under
/// `--out`, keyed `name/file`. Recorded from the fourteen figure
/// binaries `pgrid figure` replaced.
const FIGURE_PINS: &[(&str, u64)] = &[
    ("fig5", 0x31d0_5896_6355_746f),
    ("fig5/fig5.csv", 0x13f6_f5c1_5a58_b9f0),
    ("fig5/fig5_2.svg", 0xcd51_39e1_8420_e789),
    ("fig5/fig5_3.svg", 0x190a_b7c3_f947_5919),
    ("fig5/fig5_4.svg", 0xae4c_e55d_a0d8_736a),
    ("fig6", 0x6594_57a9_a7bd_7257),
    ("fig6/fig6.csv", 0x9a0f_5f73_2b44_0752),
    ("fig6/fig6_0.4.svg", 0x3095_e756_505f_eb44),
    ("fig6/fig6_0.6.svg", 0x904d_bb02_b424_024c),
    ("fig6/fig6_0.8.svg", 0x9252_5ec7_39c2_229d),
    ("fig7", 0xcdd1_78f3_af51_2e9d),
    ("fig7/fig7.csv", 0x16ae_09e8_7e59_d364),
    ("fig7/fig7.svg", 0x978d_8490_e4f4_131f),
    ("fig8", 0x3634_3b05_d942_6ab4),
    ("fig8/fig8.csv", 0xc9f8_7d4b_244f_ce03),
    ("fig8/fig8a.svg", 0x8ce0_1def_726e_140c),
    ("fig8/fig8b.svg", 0x7f1d_b5ec_6d74_b201),
    ("scaling_fit", 0x2ce0_3983_60ca_a3b6),
    ("ablation", 0x4a1c_e79e_6160_c3a1),
    ("sf_sweep", 0xdae2_43fa_188a_2960),
    ("lossy_network", 0x241e_f726_0ae9_2ed4),
    ("routing_under_churn", 0x1442_570d_dbb9_c059),
    ("future_gpus", 0x10c9_fad9_2c24_b99e),
    ("contention_model", 0xc362_3497_22c0_8117),
    ("confidence", 0x8273_e598_108a_2143),
    ("eviction", 0x56b4_b450_ebb1_9e19),
    ("zonemap", 0xfcc7_ecbe_257b_de56),
    ("zonemap/zonemap_16.svg", 0xf3f1_91b6_493e_14ea),
    ("zonemap/zonemap_4.svg", 0x0dda_1782_8bcd_f9d2),
    ("zonemap/zonemap_64.svg", 0x40b8_347e_d01c_99df),
    ("zonemap/zonemap_after_leave.svg", 0xdd79_e734_d284_aa25),
];

#[test]
fn figures_render_and_csv() {
    let mut published = Vec::new();
    for f in figures::REGISTRY {
        let (text, out) = quick_figure(f.name, f.name);
        published.push((
            f.name.to_string(),
            text.replace(out.to_str().unwrap(), "<OUT>"),
        ));
        let mut files: Vec<_> = std::fs::read_dir(&out).into_iter().flatten().collect();
        files.sort_by_key(|e| e.as_ref().unwrap().file_name());
        for e in files.into_iter().map(Result::unwrap) {
            let key = format!("{}/{}", f.name, e.file_name().to_str().unwrap());
            published.push((key, std::fs::read_to_string(e.path()).unwrap()));
        }
    }
    for (what, bytes) in &published {
        let pin = FIGURE_PINS.iter().find(|p| p.0 == what);
        assert_pinned(&format!("{what} (quick)"), bytes, pin.map_or(0, |p| p.1));
    }
    let written: Vec<&str> = published.iter().map(|p| p.0.as_str()).collect();
    let pinned: Vec<&str> = FIGURE_PINS.iter().map(|p| p.0).collect();
    assert_eq!(written, pinned, "every figure and file it writes, no other");
}

#[test]
fn parse_args_accepts_known_flags_and_rejects_typos() {
    use std::path::Path;
    let args = a(&["--quick", "--out", "/tmp/x"]).unwrap();
    assert_eq!(commands::scale_from(&args), Scale::Quick);
    assert_eq!(commands::out_dir_from(&args), Path::new("/tmp/x"));
    let args = a(&[]).unwrap();
    assert_eq!(commands::scale_from(&args), Scale::Paper);
    assert_eq!(commands::out_dir_from(&args), Path::new("results"));
    // A typo'd flag, a stray word or a flag no figure takes must fail
    // fast, not silently launch a paper-scale run; a missing or unknown
    // name lists the registry.
    let names: Vec<&str> = figures::REGISTRY.iter().map(|f| f.name).collect();
    let listing = format!("{} | all", names.join(" | "));
    for (name, bad) in [
        ("fig5", &["--qiuck"][..]),
        ("fig5", &["--out"]),
        ("fig5", &["extra"]),
        ("fig5", &["--quick", "extra"]),
        ("fig5", &["--quick", "--seed", "1"]),
        ("fig9", &[]),
    ] {
        let err = figure(name, bad).unwrap_err();
        assert_eq!(err.status, 1, "{bad:?}: {}", err.message);
    }
    assert!(figure("fig9", &[]).unwrap_err().message.contains(&listing));
    let err = crate::dispatch(vec!["pgrid".into(), "figure".into()]).unwrap_err();
    assert!(err.message.contains(&listing), "{}", err.message);
}

#[test]
fn wait_cell_renders_all_schemes() {
    let (text, _) = quick_figure("fig5", "wait_cell");
    assert_eq!(text.matches("--- inter-arrival (s) = ").count(), 3);
    for word in ["can-het", "can-hom", "central", "wait(s)"] {
        assert!(text.contains(word), "{word}");
    }
}

#[test]
fn wait_csv_and_svg_files_written() {
    let (_, out) = quick_figure("fig6", "wait_files");
    let csv = std::fs::read_to_string(out.join("fig6.csv")).unwrap();
    assert!(csv.starts_with("constraint_ratio,scheme,wait_s,cum_percent"));
    assert!(csv.lines().count() > 100);
    for ratio in ["0.4", "0.6", "0.8"] {
        let svg = std::fs::read_to_string(out.join(format!("fig6_{ratio}.svg"))).unwrap();
        assert!(svg.ends_with("</svg>") && svg.contains("can-hom"));
    }
}

#[test]
fn fig7_render_and_files() {
    let (text, out) = quick_figure("fig7", "fig7_files");
    assert!(text.contains("Vanilla") && text.contains("steady-state broken links"));
    assert!(out.join("fig7.csv").exists());
    let svg = std::fs::read_to_string(out.join("fig7.svg")).unwrap();
    assert!(svg.contains("Adaptive"));
}

#[test]
fn fig8_render_and_files() {
    let (text, out) = quick_figure("fig8", "fig8_files");
    assert!(text.contains("Figure 8(a)") && text.contains("Figure 8(b)"));
    for file in ["fig8.csv", "fig8a.svg", "fig8b.svg"] {
        assert!(out.join(file).exists(), "{file}");
    }
}

fn chaos_table(scale: Scale) -> Vec<experiments::ChaosRow> {
    experiments::chaos_rows(
        &pgrid::scenarios::chaos_trio(),
        &HeartbeatScheme::ALL,
        scale,
        experiments::CHAOS_SEED,
        None,
    )
    .unwrap()
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
    )
    .unwrap();
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
        counters: CanCounters {
            live_expulsions,
            false_expulsions,
            revivals,
            ..CanCounters::default()
        },
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
