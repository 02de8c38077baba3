//! The shape every workload shares: a workload is a list of
//! simulations, and a simulation is a timed set-up followed by a timed
//! run. One repetition runs each simulation once.

use crate::trace::Tracer;
use pgrid::simcore::Fnv;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a repetition produced besides its two timings: a digest of the
/// simulated trajectory, the operations that failed, and named counts
/// and simulated outputs for the per-layer report.
pub struct Outcome {
    digest: Fnv,
    pub failures: Vec<String>,
    pub failed_ops: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            digest: Fnv::new(),
            failures: Vec::new(),
            failed_ops: 0,
            values: BTreeMap::new(),
        }
    }
}

impl Outcome {
    pub fn fold_u64(&mut self, v: u64) {
        self.digest.write_u64(v);
    }

    pub fn fold_f64(&mut self, v: f64) {
        self.digest.write_f64(v);
    }

    pub fn sim_digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Counts `ops` failed operations under one reason.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed_ops += ops;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_default();
        *e = e.max(v);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// A span name built at run time. Workloads build a handful per
/// process, and they stay alive until it exits.
pub fn span_name(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// One simulation of a workload.
pub trait Sim {
    /// The overlay, matchmaker and inputs a run starts from.
    type Ready;

    /// Name of this simulation's root span.
    fn label(&self) -> &'static str;

    /// Fixed work units of this simulation, set by configuration.
    fn units(&self) -> u64;

    /// Inputs to ready overlay.
    fn setup(&self, t: &Tracer) -> Self::Ready;

    /// First event to drain.
    fn run(&self, ready: &mut Self::Ready, t: &Tracer, out: &mut Outcome);

    /// Short extra measurements on the same inputs, made after the
    /// timed run in the traced pass only.
    fn probe(&self, _ready: &Self::Ready, _t: &Tracer, _out: &mut Outcome) {}
}

/// One repetition: seconds summed over the workload's simulations.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub out: Outcome,
}

/// Runs every simulation once: set-up then run, each under its own span
/// beneath the simulation's root span, and (when `probes`) the probes
/// under a third child, `probe`, so they never count towards a run.
pub fn run_rep<S: Sim>(sims: &[S], t: &Tracer, probes: bool) -> Rep {
    let mut rep = Rep {
        setup_s: 0.0,
        run_s: 0.0,
        out: Outcome::default(),
    };
    for sim in sims {
        t.enter(sim.label());
        t.enter("setup");
        let t0 = Instant::now();
        let mut ready = sim.setup(t);
        rep.setup_s += t0.elapsed().as_secs_f64();
        t.exit();
        t.enter("run");
        let t0 = Instant::now();
        sim.run(&mut ready, t, &mut rep.out);
        rep.run_s += t0.elapsed().as_secs_f64();
        t.exit();
        if probes {
            t.span("probe", || sim.probe(&ready, t, &mut rep.out));
        }
        t.exit();
    }
    rep
}
