//! Failure-detector comparison harness: sweeps asymmetric link stress
//! against process-freeze length and runs every cell twice — once
//! under the classic fixed timeout, once under the adaptive suspicion
//! pipeline with indirect probes — then prints the false-positive /
//! detection-latency table and writes `detector.csv`.
//!
//! Exit status encodes the headline claim: non-zero if any cell shows
//! the adaptive rule expelling *more* live non-frozen nodes than the
//! fixed rule, or a real (long-freeze) failure going undetected. CI
//! runs this report-only (`--quick`, continue-on-error), so a red exit
//! flags a regression without gating merges.
//!
//! Deterministic: the same seed always reproduces the same table.

use pgrid::experiments;
use pgrid_bench::{parse_seeded_cli, render_detector, save_detector_csv, DETECTOR_USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = parse_seeded_cli(false, DETECTOR_USAGE);
    let seed = args.seed.unwrap_or(experiments::DETECTOR_SEED);
    println!(
        "=== Failure detectors: fixed timeout vs adaptive suspicion, seed {seed} ({:?}) ===\n",
        args.scale
    );

    let cells = experiments::detector_suite(args.scale, seed);
    println!("{}", render_detector(&cells));
    let csv = args.out.join("detector.csv");
    save_detector_csv(&csv, &cells).expect("write csv");
    println!("CSV written to {}", csv.display());

    let mut regressions = Vec::new();
    for c in &cells {
        if c.adaptive.false_expulsions > c.fixed.false_expulsions {
            regressions.push(format!(
                "stress {:.1} freeze {:.0}: adaptive false positives {} exceed fixed {}",
                c.link_stress, c.freeze_secs, c.adaptive.false_expulsions, c.fixed.false_expulsions
            ));
        }
        // A freeze past the 150 s fail timeout is a real failure both
        // rules must catch (and both must revive the thawed victims).
        if c.freeze_secs > 150.0 {
            for arm in [&c.fixed, &c.adaptive] {
                if arm.live_expulsions == 0 {
                    regressions.push(format!(
                        "stress {:.1} freeze {:.0}: {} rule missed a real failure",
                        c.link_stress,
                        c.freeze_secs,
                        arm.mode.label()
                    ));
                } else if arm.revivals == 0 {
                    regressions.push(format!(
                        "stress {:.1} freeze {:.0}: {} rule never revived the victims",
                        c.link_stress,
                        c.freeze_secs,
                        arm.mode.label()
                    ));
                }
            }
        }
    }
    if regressions.is_empty() {
        println!("detector claims: ok (adaptive never worse, real failures caught)");
        ExitCode::SUCCESS
    } else {
        for r in &regressions {
            eprintln!("DETECTOR REGRESSION: {r}");
        }
        ExitCode::FAILURE
    }
}
