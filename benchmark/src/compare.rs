//! `--compare A.json B.json`: B against A, per (workload, end-to-end
//! metric), by the bounds and floors of the registry.

use crate::json::Json;
use crate::layers::{EndToEnd, END_TO_END};
use crate::stats::{median, range};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Within,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound and the floor.
    Worse,
}

/// Relative difference of `b` against `a` (positive = larger) and what
/// it means for a metric with `e`'s direction, bound and floor.
pub fn judge(e: &EndToEnd, a: f64, b: f64) -> (f64, Verdict) {
    let rel = if a != 0.0 { (b - a) / a.abs() } else { 0.0 };
    let worse_by = if e.better == "lower" { rel } else { -rel };
    let verdict = if (b - a).abs() <= e.floor || worse_by.abs() <= e.bound {
        Verdict::Within
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    (rel, verdict)
}

/// A run is noisy on a metric when its own repetitions lie further
/// apart than the metric's bound (and than its floor): its median then
/// cannot resolve a difference of the size the bound is about.
pub fn noisy(e: &EndToEnd, samples: &[f64]) -> bool {
    if samples.len() < 2 {
        return false;
    }
    let range = range(samples);
    range > e.floor && range > e.bound * median(samples).abs()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_of<'a>(results: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)
}

fn samples_of(m: &Json) -> Vec<f64> {
    m.get("samples")
        .and_then(Json::as_arr)
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("B = {} against A = {}", b_path.display(), a_path.display());
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let (mut worse, mut flagged, mut compared) = (0, 0, 0);
    for w in &crate::WORKLOADS {
        for e in &END_TO_END {
            let (Some(ma), Some(mb)) =
                (metric_of(&a, w.name, e.name), metric_of(&b, w.name, e.name))
            else {
                continue;
            };
            let (Some(va), Some(vb)) = (
                ma.get("value").and_then(Json::as_f64),
                mb.get("value").and_then(Json::as_f64),
            ) else {
                continue;
            };
            compared += 1;
            let (rel, verdict) = judge(e, va, vb);
            let is_noisy = noisy(e, &samples_of(ma)) || noisy(e, &samples_of(mb));
            let mut text = match verdict {
                Verdict::Within => "within".to_string(),
                Verdict::Better => "better".to_string(),
                Verdict::Worse => "WORSE".to_string(),
            };
            if is_noisy {
                text.push_str(", noisy");
            }
            worse += usize::from(verdict == Verdict::Worse);
            flagged += usize::from(verdict != Verdict::Within || is_noisy);
            println!(
                "{:<14} {:<12} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}%  {text}",
                w.name,
                e.name,
                rel * 100.0,
                e.bound * 100.0
            );
        }
    }
    if compared == 0 {
        eprintln!("the two files share no (workload, metric) pair");
        return ExitCode::from(2);
    }
    println!(
        "{compared} pairs compared: {worse} worse beyond the bound, {} within bounds and steady",
        compared - flagged
    );
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 % bound; the registry's own bounds are free to move.
    fn metric(better: &'static str, floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound: 0.10,
            floor,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_floor() {
        let run_s = metric("lower", 0.05);
        assert_eq!(judge(&run_s, 4.0, 4.3).1, Verdict::Within);
        assert_eq!(judge(&run_s, 4.0, 4.5).1, Verdict::Worse);
        assert_eq!(judge(&run_s, 4.0, 3.5).1, Verdict::Better);
        // 40 % slower, but under the 0.05 s floor.
        assert_eq!(judge(&run_s, 0.010, 0.014).1, Verdict::Within);

        let rate = metric("higher", 0.0);
        assert_eq!(judge(&rate, 1000.0, 880.0).1, Verdict::Worse);
        assert_eq!(judge(&rate, 1000.0, 1200.0).1, Verdict::Better);
        assert_eq!(judge(&rate, 1000.0, 950.0), (-0.05, Verdict::Within));
    }

    #[test]
    fn noisy_needs_spread_beyond_bound_and_floor() {
        let run_s = metric("lower", 0.05);
        assert!(!noisy(&run_s, &[4.0, 4.1, 4.2]));
        assert!(noisy(&run_s, &[4.0, 4.1, 4.6]));
        assert!(!noisy(&run_s, &[0.010, 0.011, 0.020]), "under the floor");
        assert!(!noisy(&run_s, &[4.0]), "one sample has no spread");
    }
}
