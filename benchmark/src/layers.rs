//! The metric registry — every end-to-end and per-layer metric by name,
//! unit and direction — and the per-layer values derived from a traced
//! repetition. `BENCHMARK.json` is printed from these tables
//! (`--contract`), and a unit test holds the committed file to them.
//!
//! Per-layer names are `<crate>.<module>.<fn>.<stat>`. A layer a
//! workload never enters reads 0 there, which is itself the evidence
//! that the workload bypasses it.

use crate::sim::Outcome;
use crate::stats::Percentiles;
use crate::trace::{self, Span};
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Absolute difference below which a change is never a regression.
    pub floor: f64,
}

/// A timing difference under this many seconds is never a regression;
/// it keeps millisecond-scale set-ups from flapping.
const TIMING_FLOOR_S: f64 = 0.05;

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: TIMING_FLOOR_S,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: TIMING_FLOOR_S,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "units/s",
        better: "higher",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
        floor: 0.0,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: &[Layer] = &[
    // Set-up of the fig5 workloads.
    lower("workload.generate.calls", "count"),
    lower("workload.generate.s", "s"),
    lower("sched.grid.build.calls", "count"),
    lower("sched.grid.build.s", "s"),
    lower("sched.grid.build.ns_per_node", "ns"),
    lower("can.split_tree.owner_at.s", "s"),
    lower("can.split_tree.split.s", "s"),
    lower("can.adjacency.on_split.s", "s"),
    lower("sched.grid.build.rest_s", "s"),
    lower("sched.matchmakers.new.s", "s"),
    // The fig5 event loop, from outside.
    lower("sched.matchmakers.place.calls", "count"),
    lower("sched.matchmakers.place.s", "s"),
    lower("sched.matchmakers.place.p50_us", "us"),
    lower("sched.matchmakers.place.p99_us", "us"),
    lower("sched.matchmakers.place.route_hops", "count"),
    lower("sched.matchmakers.place.pushes", "count"),
    lower("sched.matchmakers.place.fallbacks", "count"),
    lower("can.routing.route.calls", "count"),
    lower("can.routing.route.s", "s"),
    lower("can.routing.route.hops", "count"),
    lower("can.routing.route.ns_per_hop", "ns"),
    lower("sched.aggregate.refresh.calls", "count"),
    lower("sched.aggregate.refresh.s", "s"),
    lower("sched.aggregate.refresh.p50_us", "us"),
    lower("sched.aggregate.refresh.p99_us", "us"),
    lower("sched.grid_sim.run_trace.calls", "count"),
    lower("sched.grid_sim.run_trace.s", "s"),
    lower("sched.grid_sim.run_trace.events", "count"),
    lower("sched.grid_sim.run_trace.ns_per_event", "ns"),
    lower("sched.grid_sim.loop_self.s", "s"),
    lower("simcore.event.hold.ops", "count"),
    lower("simcore.event.hold.ns_per_op", "ns"),
    lower("simcore.shard.queue_hold.ns_per_op", "ns"),
    // The sharded engine.
    lower("sched.sharding.build.s", "s"),
    lower("sched.grid_sim.run_trace_sharded.s", "s"),
    higher("sched.sharding.speedup", "x"),
    // Overload control, crash recovery and eviction.
    lower("sched.grid_sim.run_overload.calls", "count"),
    lower("sched.grid_sim.run_overload.s", "s"),
    lower("sched.grid_sim.run_overload.events", "count"),
    lower("sched.overload.push_attempts", "count"),
    lower("sched.overload.admission_rejects", "count"),
    lower("sched.overload.shed_admission", "count"),
    lower("sched.overload.shed_queue", "count"),
    lower("sched.overload.max_boundary_depth", "count"),
    lower("sched.overload.retry_amp", "x"),
    lower("sched.recovery.crashes", "count"),
    lower("sched.recovery.requeued", "count"),
    lower("sched.recovery.permanently_failed", "count"),
    lower("sched.grid_sim.evictions", "count"),
    lower("sched.grid_sim.resubmissions", "count"),
    // The CAN heartbeat plane.
    lower("can.protocol.join.calls", "count"),
    lower("can.protocol.join.s", "s"),
    lower("can.protocol.join.failed", "count"),
    lower("can.protocol.advance_to.calls", "count"),
    lower("can.protocol.advance_to.s", "s"),
    lower("can.protocol.advance_to.p99_ms", "ms"),
    lower("can.protocol.advance_to.s.vanilla", "s"),
    lower("can.protocol.advance_to.s.compact", "s"),
    lower("can.protocol.advance_to.s.adaptive", "s"),
    lower("can.protocol.delivered", "count"),
    lower("can.protocol.ns_per_delivered", "ns"),
    lower("can.protocol.dropped", "count"),
    lower("can.protocol.repairs", "count"),
    lower("can.protocol.full_update_rounds", "count"),
    lower("can.protocol.gap_probes", "count"),
    lower("can.protocol.leave.calls", "count"),
    lower("can.protocol.leave.s", "s"),
    lower("can.protocol.broken_links.calls", "count"),
    lower("can.protocol.broken_links.s", "s"),
    lower("can.protocol.state_digest.s", "s"),
    // The DST plane.
    lower("core.scenarios.compile.calls", "count"),
    lower("core.scenarios.compile.s", "s"),
    lower("can.dst.bootstrap.calls", "count"),
    lower("can.dst.bootstrap.s", "s"),
    lower("can.dst.run_schedule.calls", "count"),
    lower("can.dst.run_schedule.s", "s"),
    lower("can.dst.run_schedule.p99_ms", "ms"),
    lower("core.fuzz.run_case.calls", "count"),
    lower("core.fuzz.run_case.s", "s"),
    lower("core.fuzz.sched_phase.s", "s"),
    lower("can.dst.violations", "count"),
    lower("can.dst.broken_peak", "count"),
    lower("can.oracles.step_violations.calls", "count"),
    lower("can.oracles.step_violations.s", "s"),
    lower("can.oracles.step_violations.ms_per_call", "ms"),
    // Simulated outputs: exact, and equal between two commits unless a
    // change says otherwise. The direction is the model's, not a goal.
    lower("model.mean_wait_s.can-het", "s"),
    lower("model.mean_wait_s.can-hom", "s"),
    lower("model.mean_wait_s.central", "s"),
    lower("model.p99_wait_s.can-het", "s"),
    lower("model.makespan_s", "s"),
    lower("model.steady_broken_links.vanilla", "count"),
    lower("model.steady_broken_links.compact", "count"),
    lower("model.steady_broken_links.adaptive", "count"),
    lower("model.msgs_per_node_min.vanilla", "1/min"),
    lower("model.msgs_per_node_min.compact", "1/min"),
    lower("model.msgs_per_node_min.adaptive", "1/min"),
    lower("model.kb_per_node_min.vanilla", "kB/min"),
    lower("model.kb_per_node_min.compact", "kB/min"),
    lower("model.kb_per_node_min.adaptive", "kB/min"),
    higher("model.goodput_jobs_per_ks", "jobs/ks"),
    lower("model.shed_share", "ratio"),
    // The measurement itself.
    lower("trace.spans", "count"),
    lower("trace.overhead_share", "ratio"),
    lower("host.cpu_s", "s"),
    lower("host.runqueue_wait_s", "s"),
];

/// Per-layer values by registered name; unset names read 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|l| l.name == name),
            "`{name}` is not a registered per-layer metric"
        );
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        self.values
            .insert(name, if v.is_finite() { v + 0.0 } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Outcome values that are per-layer metrics under their own name.
const COUNTS: &[&str] = &[
    "can.split_tree.owner_at.s",
    "can.split_tree.split.s",
    "can.adjacency.on_split.s",
    "sched.matchmakers.place.route_hops",
    "sched.matchmakers.place.pushes",
    "sched.matchmakers.place.fallbacks",
    "can.routing.route.calls",
    "can.routing.route.s",
    "can.routing.route.hops",
    "simcore.event.hold.ops",
    "sched.grid_sim.run_overload.events",
    "sched.overload.push_attempts",
    "sched.overload.admission_rejects",
    "sched.overload.shed_admission",
    "sched.overload.shed_queue",
    "sched.overload.max_boundary_depth",
    "sched.recovery.crashes",
    "sched.recovery.requeued",
    "sched.recovery.permanently_failed",
    "sched.grid_sim.evictions",
    "sched.grid_sim.resubmissions",
    "can.protocol.join.failed",
    "can.protocol.delivered",
    "can.protocol.dropped",
    "can.protocol.repairs",
    "can.protocol.full_update_rounds",
    "can.protocol.gap_probes",
    "core.fuzz.sched_phase.s",
    "can.dst.violations",
    "can.dst.broken_peak",
    "model.p99_wait_s.can-het",
    "model.makespan_s",
    "model.steady_broken_links.vanilla",
    "model.steady_broken_links.compact",
    "model.steady_broken_links.adaptive",
    "model.msgs_per_node_min.vanilla",
    "model.msgs_per_node_min.compact",
    "model.msgs_per_node_min.adaptive",
    "model.kb_per_node_min.vanilla",
    "model.kb_per_node_min.compact",
    "model.kb_per_node_min.adaptive",
];

/// Span names whose calls and busy seconds are metrics `<name>.calls`
/// and `<name>.s`; `None` where the registry has no such stat.
const TIMED: &[(&str, Option<&str>, &str)] = &[
    (
        "workload.generate",
        Some("workload.generate.calls"),
        "workload.generate.s",
    ),
    (
        "sched.grid.build",
        Some("sched.grid.build.calls"),
        "sched.grid.build.s",
    ),
    ("sched.matchmakers.new", None, "sched.matchmakers.new.s"),
    (
        "sched.matchmakers.place",
        Some("sched.matchmakers.place.calls"),
        "sched.matchmakers.place.s",
    ),
    (
        "sched.grid_sim.run_trace",
        Some("sched.grid_sim.run_trace.calls"),
        "sched.grid_sim.run_trace.s",
    ),
    ("sched.sharding.build", None, "sched.sharding.build.s"),
    (
        "sched.grid_sim.run_trace_sharded",
        None,
        "sched.grid_sim.run_trace_sharded.s",
    ),
    (
        "sched.grid_sim.run_overload",
        Some("sched.grid_sim.run_overload.calls"),
        "sched.grid_sim.run_overload.s",
    ),
    (
        "can.protocol.join",
        Some("can.protocol.join.calls"),
        "can.protocol.join.s",
    ),
    (
        "can.protocol.advance_to",
        Some("can.protocol.advance_to.calls"),
        "can.protocol.advance_to.s",
    ),
    (
        "can.protocol.leave",
        Some("can.protocol.leave.calls"),
        "can.protocol.leave.s",
    ),
    (
        "can.protocol.broken_links",
        Some("can.protocol.broken_links.calls"),
        "can.protocol.broken_links.s",
    ),
    (
        "can.protocol.state_digest",
        None,
        "can.protocol.state_digest.s",
    ),
    (
        "core.scenarios.compile",
        Some("core.scenarios.compile.calls"),
        "core.scenarios.compile.s",
    ),
    (
        "can.dst.bootstrap",
        Some("can.dst.bootstrap.calls"),
        "can.dst.bootstrap.s",
    ),
    (
        "can.dst.run_schedule",
        Some("can.dst.run_schedule.calls"),
        "can.dst.run_schedule.s",
    ),
    (
        "core.fuzz.run_case",
        Some("core.fuzz.run_case.calls"),
        "core.fuzz.run_case.s",
    ),
    (
        "can.oracles.step_violations",
        Some("can.oracles.step_violations.calls"),
        "can.oracles.step_violations.s",
    ),
];

const REFRESH_SPANS: [&str; 2] = [
    "sched.aggregate.refresh",
    "sched.aggregate.refresh_threaded",
];

/// Spans that only ever appear inside a probe; every other metric
/// counts the spans outside probes, so that a probe which re-enters a
/// layer (the sequential arm of `fig5_sharded` places every job again)
/// adds nothing to that layer's numbers.
const PROBE_SPANS: [&str; 3] = [
    "sched.sharding.build",
    "can.dst.run_schedule",
    "can.oracles.step_violations",
];

/// Derives every per-layer metric of one traced repetition from its
/// spans and its outcome. `trace.overhead_share` and `host.*` are the
/// caller's to set.
pub fn per_layer(spans: &[Span], out: &Outcome) -> Layers {
    let in_probe = trace::under(spans, "probe");
    let totals = trace::totals_by_name(spans, |i| {
        in_probe[i] == PROBE_SPANS.contains(&spans[i].name)
    });
    let calls = |n: &str| totals.get(n).map_or(0.0, |t| t.calls as f64);
    let secs = |n: &str| totals.get(n).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let self_secs = |n: &str| totals.get(n).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let durations = |n: &str| trace::durations(spans, n, |i| !in_probe[i]);
    let mut m = Layers::default();

    for &name in COUNTS {
        m.set(name, out.value(name));
    }
    for &(span, calls_name, secs_name) in TIMED {
        if let Some(calls_name) = calls_name {
            m.set(calls_name, calls(span));
        }
        m.set(secs_name, secs(span));
    }

    // Build, and what its three per-join calls leave for the rest.
    let build_s = secs("sched.grid.build");
    m.set(
        "sched.grid.build.ns_per_node",
        ratio(build_s * 1e9, out.value("nodes.built")),
    );
    let replayed = out.value("can.split_tree.owner_at.s")
        + out.value("can.split_tree.split.s")
        + out.value("can.adjacency.on_split.s");
    if replayed > 0.0 {
        m.set("sched.grid.build.rest_s", (build_s - replayed).max(0.0));
    }

    // Per-call timings.
    if let Some(p) = Percentiles::of(&durations("sched.matchmakers.place")) {
        m.set("sched.matchmakers.place.p50_us", p.p50 / 1e3);
        m.set(
            "sched.matchmakers.place.p99_us",
            p.p99().unwrap_or(0.0) / 1e3,
        );
    }
    let refresh: Vec<f64> = REFRESH_SPANS.iter().flat_map(|n| durations(n)).collect();
    m.set("sched.aggregate.refresh.calls", refresh.len() as f64);
    m.set(
        "sched.aggregate.refresh.s",
        refresh.iter().sum::<f64>() / 1e9,
    );
    if let Some(p) = Percentiles::of(&refresh) {
        m.set("sched.aggregate.refresh.p50_us", p.p50 / 1e3);
        m.set(
            "sched.aggregate.refresh.p99_us",
            p.p99().unwrap_or(0.0) / 1e3,
        );
    }
    if let Some(p) = Percentiles::of(&durations("can.protocol.advance_to")) {
        m.set(
            "can.protocol.advance_to.p99_ms",
            p.p99().unwrap_or(0.0) / 1e6,
        );
    }
    let schedules = trace::durations(spans, "can.dst.run_schedule", |_| true);
    if let Some(p) = Percentiles::of(&schedules) {
        m.set("can.dst.run_schedule.p99_ms", p.p99().unwrap_or(0.0) / 1e6);
    }

    m.set(
        "can.routing.route.ns_per_hop",
        ratio(
            out.value("can.routing.route.s") * 1e9,
            out.value("can.routing.route.hops"),
        ),
    );
    let events = out.value("events.run_trace");
    m.set("sched.grid_sim.run_trace.events", events);
    m.set(
        "sched.grid_sim.run_trace.ns_per_event",
        ratio(secs("sched.grid_sim.run_trace") * 1e9, events),
    );
    // What the loop spends outside the matchmaker: event queue, node
    // runtimes, ledger.
    m.set(
        "sched.grid_sim.loop_self.s",
        self_secs("sched.grid_sim.run_trace") + self_secs("sched.grid_sim.run_trace_sharded"),
    );
    m.set(
        "simcore.event.hold.ns_per_op",
        ratio(
            out.value("simcore.event.hold.s") * 1e9,
            out.value("simcore.event.hold.ops"),
        ),
    );
    m.set(
        "simcore.shard.queue_hold.ns_per_op",
        ratio(
            out.value("simcore.shard.queue_hold.s") * 1e9,
            out.value("simcore.shard.queue_hold.ops"),
        ),
    );
    // Sequential over sharded on the same inputs: `fig5_sharded`'s probe
    // runs the sequential arm.
    let sequential_arm_ns: f64 =
        trace::durations(spans, "sched.grid_sim.run_trace", |i| in_probe[i])
            .iter()
            .sum();
    m.set(
        "sched.sharding.speedup",
        ratio(
            sequential_arm_ns / 1e9,
            secs("sched.grid_sim.run_trace_sharded"),
        ),
    );
    m.set(
        "sched.overload.retry_amp",
        ratio(
            out.value("sched.overload.push_attempts"),
            out.value("overload.chains"),
        ),
    );

    // Heartbeat plane: run time by scheme, and time per delivery.
    let root = trace::roots(spans);
    for (suffix, name) in [
        ("/vanilla", "can.protocol.advance_to.s.vanilla"),
        ("/compact", "can.protocol.advance_to.s.compact"),
        ("/adaptive", "can.protocol.advance_to.s.adaptive"),
    ] {
        let ns: u64 = spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.name == "can.protocol.advance_to"
                    && spans[root[*i] as usize].name.ends_with(suffix)
            })
            .map(|(_, s)| s.dur_ns())
            .sum();
        m.set(name, ns as f64 / 1e9);
    }
    m.set(
        "can.protocol.ns_per_delivered",
        ratio(
            secs("can.protocol.advance_to") * 1e9,
            out.value("can.protocol.delivered"),
        ),
    );

    // DST plane.
    m.set(
        "can.oracles.step_violations.ms_per_call",
        ratio(
            secs("can.oracles.step_violations") * 1e3,
            calls("can.oracles.step_violations"),
        ),
    );

    // Simulated outputs.
    for (name, sum, n) in [
        (
            "model.mean_wait_s.can-het",
            "wait_sum.can-het",
            "wait_n.can-het",
        ),
        (
            "model.mean_wait_s.can-hom",
            "wait_sum.can-hom",
            "wait_n.can-hom",
        ),
        (
            "model.mean_wait_s.central",
            "wait_sum.central",
            "wait_n.central",
        ),
    ] {
        m.set(name, ratio(out.value(sum), out.value(n)));
    }
    m.set(
        "model.goodput_jobs_per_ks",
        ratio(
            1000.0 * out.value("jobs.completed"),
            out.value("model.makespan_s"),
        ),
    );
    m.set(
        "model.shed_share",
        ratio(out.value("jobs.shed"), out.value("jobs.submitted")),
    );
    m.set("trace.spans", spans.len() as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)));
        for (name, unit) in all {
            assert!(ok(name, "_.-", 64), "name `{name}`");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, "_/%.-", 16), "unit `{unit}` of `{name}`");
            assert!(seen.insert(name), "`{name}` is registered twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
    }

    #[test]
    fn every_derived_name_is_registered() {
        // `Layers::set` panics on a name the registry lacks; an empty
        // trace drives every `set` call in `per_layer`.
        let m = per_layer(&[], &Outcome::default());
        assert_eq!(m.get("trace.spans"), 0.0);
    }

    #[test]
    fn derived_metrics_follow_their_definitions() {
        let s = |parent, name, start_ns, end_ns| Span {
            parent,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            s(trace::NO_PARENT, "fig7_churn/compact", 0, 10_000),
            s(0, "can.protocol.advance_to", 1_000, 4_000),
            s(0, "can.protocol.advance_to", 5_000, 6_000),
            s(trace::NO_PARENT, "fig5_paper/x", 10_000, 30_000),
            s(3, "sched.grid_sim.run_trace", 10_000, 30_000),
            s(4, "sched.matchmakers.place", 11_000, 16_000),
            s(4, "sched.aggregate.refresh", 16_000, 19_000),
        ];
        let mut out = Outcome::default();
        out.add("can.protocol.delivered", 8.0);
        out.add("events.run_trace", 4.0);
        let m = per_layer(&spans, &out);
        assert_eq!(m.get("can.protocol.advance_to.calls"), 2.0);
        assert_eq!(m.get("can.protocol.advance_to.s"), 4e-6);
        assert_eq!(m.get("can.protocol.advance_to.s.compact"), 4e-6);
        assert_eq!(m.get("can.protocol.advance_to.s.vanilla"), 0.0);
        assert_eq!(m.get("can.protocol.ns_per_delivered"), 500.0);
        assert_eq!(m.get("sched.grid_sim.run_trace.ns_per_event"), 5_000.0);
        assert_eq!(m.get("sched.grid_sim.loop_self.s"), 12e-6);
        assert_eq!(m.get("sched.aggregate.refresh.calls"), 1.0);
        assert_eq!(m.get("trace.spans"), 7.0);
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            crate::contract(),
            "regenerate with `benchmark/run.sh --contract > BENCHMARK.json`"
        );
    }
}
