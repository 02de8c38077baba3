//! Shape checks for every figure of the paper's evaluation, at reduced
//! scale: these tests encode the *qualitative* claims the reproduction
//! must preserve (orderings, factors, scaling exponents). The
//! full-scale numbers live in EXPERIMENTS.md and are regenerated by
//! `pgrid figure fig5` .. `pgrid figure fig8`.

use p2p_ce_grid::experiments::{self, scaling_exponent, Scale};
use p2p_ce_grid::prelude::*;

/// Figure 5's claim: can-het stays close to central, and the gap
/// between can-het and can-hom grows as the system gets more loaded.
#[test]
fn fig5_shape_decentralized_tracks_central() {
    let cells = experiments::fig5(Scale::Quick);
    assert_eq!(cells.len(), 3);
    for cell in &cells {
        let het = &cell.results[0];
        let hom = &cell.results[1];
        let central = &cell.results[2];
        assert_eq!(het.scheduler, SchedulerChoice::CanHet);
        assert_eq!(hom.scheduler, SchedulerChoice::CanHom);
        assert_eq!(central.scheduler, SchedulerChoice::Central);
        // can-het is never dramatically worse than central, and
        // can-hom never beats can-het substantially.
        assert!(
            het.mean_wait() <= hom.mean_wait() * 1.25 + 120.0,
            "inter-arrival {}: het {} vs hom {}",
            cell.parameter,
            het.mean_wait(),
            hom.mean_wait()
        );
    }
    // The het-vs-hom gap grows under load (2s vs 4s inter-arrival).
    let heavy = &cells[0];
    let light = &cells[2];
    let gap = |c: &experiments::WaitTimeCell| c.results[1].mean_wait() - c.results[0].mean_wait();
    assert!(
        gap(heavy) > gap(light),
        "the can-hom deficit should grow with load: heavy {} vs light {}",
        gap(heavy),
        gap(light)
    );
}

/// Figure 6's claim: higher job constraint ratios hurt can-hom more
/// than can-het; at low ratios all schemes are close.
#[test]
fn fig6_shape_constraint_ratio_hurts_hom_most() {
    let cells = experiments::fig6(Scale::Quick);
    assert_eq!(cells.len(), 3);
    let hard = &cells[0]; // 80%
    let easy = &cells[2]; // 40%
    let gap = |c: &experiments::WaitTimeCell| c.results[1].mean_wait() - c.results[0].mean_wait();
    assert!(
        gap(hard) >= gap(easy) * 0.5,
        "hom deficit at 80% ({}) should not collapse vs 40% ({})",
        gap(hard),
        gap(easy)
    );
    // At the easy ratio, all three means are within a loose band.
    let means: Vec<f64> = easy.results.iter().map(|r| r.mean_wait()).collect();
    let max = means.iter().cloned().fold(f64::MIN, f64::max);
    let min = means.iter().cloned().fold(f64::MAX, f64::min).max(1.0);
    assert!(
        max / min < 25.0,
        "at a low constraint ratio the schemes should be comparable: {means:?}"
    );
}

/// Figure 7's claim: under high churn, vanilla has the fewest broken
/// links, compact the most, adaptive close to vanilla.
#[test]
fn fig7_shape_resilience_ordering() {
    let reports = experiments::fig7(Scale::Quick);
    let broken: Vec<f64> = reports.iter().map(|r| r.steady_broken_links()).collect();
    let (vanilla, compact, adaptive) = (broken[0], broken[1], broken[2]);
    assert!(compact > 0.0, "high churn must break some links");
    assert!(
        vanilla <= compact,
        "vanilla ({vanilla}) must be at least as resilient as compact ({compact})"
    );
    assert!(
        adaptive <= compact,
        "adaptive ({adaptive}) must beat compact ({compact})"
    );
    // Adaptive recovers most of the vanilla-compact gap.
    let gap = compact - vanilla;
    assert!(
        adaptive - vanilla <= 0.75 * gap + 1.0,
        "adaptive ({adaptive}) should sit much closer to vanilla ({vanilla}) than compact ({compact})"
    );
}

/// Figure 8's claims: message counts are scheme-insensitive and grow
/// with dimensions; vanilla volume grows super-linearly while
/// compact/adaptive stay near-linear and far cheaper.
#[test]
fn fig8_shape_costs() {
    let cells = experiments::fig8(Scale::Quick);
    let pick = |scheme: HeartbeatScheme, d: usize, n: usize| {
        cells
            .iter()
            .find(|c| c.scheme == scheme && c.dims == d && c.nodes == n)
            .unwrap()
    };
    let n = cells.iter().map(|c| c.nodes).min().unwrap();

    // (a) counts: similar across schemes at every dimension.
    for d in [5, 8, 11, 14] {
        let counts: Vec<f64> = HeartbeatScheme::ALL
            .iter()
            .map(|&s| pick(s, d, n).msgs_per_node_min)
            .collect();
        let max = counts.iter().cloned().fold(f64::MIN, f64::max);
        let min = counts.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 1.3,
            "d={d}: message counts should be scheme-insensitive: {counts:?}"
        );
    }
    // (a) counts grow with dimensions.
    assert!(
        pick(HeartbeatScheme::Vanilla, 14, n).msgs_per_node_min
            > pick(HeartbeatScheme::Vanilla, 5, n).msgs_per_node_min,
        "more dimensions, more neighbors, more messages"
    );

    // (b) volume: vanilla far above compact, adaptive close to compact.
    for d in [5, 8, 11, 14] {
        let v = pick(HeartbeatScheme::Vanilla, d, n).kb_per_node_min;
        let c = pick(HeartbeatScheme::Compact, d, n).kb_per_node_min;
        let a = pick(HeartbeatScheme::Adaptive, d, n).kb_per_node_min;
        assert!(v > 4.0 * c, "d={d}: vanilla {v} should dwarf compact {c}");
        assert!(
            a < 1.5 * c + 5.0,
            "d={d}: adaptive {a} should cost about compact {c}"
        );
    }

    // (b) scaling exponents: vanilla volume clearly super-linear
    // relative to compact volume. Fit on the largest population — at
    // the smallest one, high dimensions leave most zones unsplit, so
    // degrees (and vanilla's super-linear volume) saturate early.
    let n_big = cells.iter().map(|c| c.nodes).max().unwrap();
    let series = |scheme: HeartbeatScheme| -> Vec<(f64, f64)> {
        [5usize, 8, 11, 14]
            .iter()
            .map(|&d| (d as f64, pick(scheme, d, n_big).kb_per_node_min))
            .collect()
    };
    let v_exp = scaling_exponent(&series(HeartbeatScheme::Vanilla));
    let c_exp = scaling_exponent(&series(HeartbeatScheme::Compact));
    assert!(
        v_exp > c_exp + 0.3,
        "vanilla volume exponent {v_exp:.2} should exceed compact {c_exp:.2}"
    );
    assert!(
        c_exp < 1.6,
        "compact volume should stay near-linear, got d^{c_exp:.2}"
    );
}

/// Figure 8's n-insensitivity claim, loosely: going from the smaller to
/// the larger population must not blow up per-node costs.
#[test]
fn fig8_shape_population_insensitivity() {
    let cells = experiments::fig8(Scale::Quick);
    let mut sizes: Vec<usize> = cells.iter().map(|c| c.nodes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(sizes.len() >= 2);
    let (small, large) = (sizes[0], *sizes.last().unwrap());
    for scheme in HeartbeatScheme::ALL {
        for d in [5, 8, 11, 14] {
            let s = cells
                .iter()
                .find(|c| c.scheme == scheme && c.dims == d && c.nodes == small)
                .unwrap()
                .kb_per_node_min;
            let l = cells
                .iter()
                .find(|c| c.scheme == scheme && c.dims == d && c.nodes == large)
                .unwrap()
                .kb_per_node_min;
            assert!(
                l < s * 2.5 + 5.0,
                "{} d={d}: volume should be population-insensitive ({s:.1} -> {l:.1})",
                scheme.label()
            );
        }
    }
}
