//! `--selftest`: the benchmark checked against itself and against the
//! library, at 1/20 of every workload's size, in a few seconds.

use crate::sim::{run_rep, Sim};
use crate::trace::{self, Tracer};
use crate::{dst, fig5, fig7, layers};
use pgrid::can::{run_churn, uniform_coords};
use pgrid::simcore::Fnv;
use std::process::ExitCode;
use std::time::Instant;

const DIV: usize = 20;
const SEED: u64 = 2011;

/// Runs a workload untraced and then traced with probes, and checks:
/// equal digests (so two runs agree, and `TimedMatchmaker` changes
/// nothing), no failed operation (job conservation, zero oracle
/// violations, the build replay ending in the grid's zones, the sharded
/// digest equal to the sequential one), and span accounting that closes.
fn check<S: Sim>(name: &str, sims: &[S], problems: &mut Vec<String>) {
    let t0 = Instant::now();
    let plain = run_rep(sims, &Tracer::off(), false);
    let tracer = Tracer::recording();
    let traced = run_rep(sims, &tracer, true);
    let spans = tracer.into_spans();
    let before = problems.len();
    if plain.out.sim_digest() != traced.out.sim_digest() {
        problems.push(format!(
            "{name}: untraced digest {:#018x} != traced {:#018x}",
            plain.out.sim_digest(),
            traced.out.sim_digest()
        ));
    }
    for why in plain.out.failures.iter().chain(&traced.out.failures) {
        problems.push(format!("{name}: {why}"));
    }
    let gap = trace::accounting_gap(&spans);
    if gap > 0.02 {
        problems.push(format!(
            "{name}: span accounting off by {:.1} %",
            gap * 100.0
        ));
    }
    let m = layers::per_layer(&spans, &traced.out);
    println!(
        "  {name:<13} {:>7} spans, digest {:#018x}, {:.2} s: {}",
        m.get("trace.spans"),
        plain.out.sim_digest(),
        t0.elapsed().as_secs_f64(),
        if problems.len() == before {
            "ok"
        } else {
            "FAILED"
        }
    );
}

/// The benchmark's churn loop must end where `can::run_churn` ends, at
/// the default seed and at another.
fn check_churn_driver(problems: &mut Vec<String>) {
    let sims = [SEED, 41]
        .into_iter()
        .flat_map(|seed| fig7::churn(seed, DIV));
    for sim in sims {
        let theirs = run_churn(&sim.cfg, uniform_coords(sim.cfg.dims)).state_digest;
        let mut expected = Fnv::new();
        expected.write_u64(theirs);
        let ours = run_rep(std::slice::from_ref(&sim), &Tracer::off(), false);
        if ours.out.sim_digest() != expected.finish() {
            problems.push(format!(
                "{}: the benchmark's churn loop diverges from can::run_churn (state_digest {theirs:#018x})",
                sim.label()
            ));
        }
    }
    println!("  churn driver reproduces can::run_churn's state_digest: three schemes, two seeds");
}

pub fn run() -> ExitCode {
    let t0 = Instant::now();
    let mut problems = Vec::new();
    println!("selftest at 1/{DIV} scale, seed {SEED}");
    check("fig5_paper", &fig5::paper(SEED, DIV), &mut problems);
    check(
        "fig5_scale",
        &fig5::scale(SEED, crate::SCALE_NODES / DIV, crate::SCALE_JOBS / DIV),
        &mut problems,
    );
    check("fig5_sharded", &fig5::sharded(SEED, DIV), &mut problems);
    check("fig5_stress", &fig5::stress(SEED, DIV), &mut problems);
    check("fig7_churn", &fig7::churn(SEED, DIV), &mut problems);
    check("dst_armed", &dst::armed(SEED, dst::SMALL), &mut problems);
    check_churn_driver(&mut problems);
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    println!(
        "selftest {} in {:.1} s",
        if problems.is_empty() {
            "passed"
        } else {
            "FAILED"
        },
        t0.elapsed().as_secs_f64()
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
