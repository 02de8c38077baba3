//! Named adversarial scenario library: curated, deterministic
//! `FaultSchedule`s with workload shaping, compiled from the macro
//! grammar in `pgrid_simcore::dst`.
//!
//! Every committed DST trace used to be fuzzer-shrunk noise; this
//! module supplies *designed* adversaries — diurnal desktop-grid
//! availability waves, flash crowds, rack-correlated crash storms,
//! slow-node stragglers, asymmetric gray failures — each a named
//! [`ScenarioSpec`] that compiles deterministically (same seed → byte
//! identical trace text) into a schedule the executor
//! (`pgrid_can::dst::run_schedule`) checks against every oracle at
//! every heartbeat boundary.
//!
//! The registry is also where the scripted chaos trio lives
//! ([`CHAOS_TRIO`]): the chaos tables pick those three entries by name
//! and run the very schedules the scenario library runs, detector off.
//! The take-over sweep's storm is a schedule builder beside the
//! registry ([`takeover_storm`]).

use crate::simcore::dst::{FaultSchedule, OverloadRecord, ScheduleMacro};
use crate::simcore::fault::{ClassFaults, FaultEvent, MsgClass, NodeFault};
use crate::workload::ArrivalShape;

/// One named adversarial scenario.
///
/// `compile` is the determinism contract: calling it twice with the
/// same seed yields identical schedules (and therefore byte-identical
/// `to_text()` traces), and distinct seeds perturb only RNG-derived
/// expansion times — never the macro structure, which is fixed by the
/// spec itself.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Registry key (also the `--scenario` filter target).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub summary: &'static str,
    /// Builds the (macro-bearing) schedule for a seed.
    build: fn(u64) -> FaultSchedule,
}

impl ScenarioSpec {
    /// Compiles the scenario at `seed` into a validated schedule, in
    /// macro form (the executor expands it; use
    /// [`FaultSchedule::expand`] for the primitive form a corpus trace
    /// pins).
    pub fn compile(&self, seed: u64) -> FaultSchedule {
        let s = (self.build)(seed);
        s.validate()
            .unwrap_or_else(|e| panic!("scenario `{}` compiled invalid: {e}", self.name));
        s
    }

    /// [`Self::compile`] with the heartbeat scheme overridden — the
    /// scheme-vs-scheme resilience table's entry point. The override
    /// cannot perturb expansion (macro timing draws depend only on the
    /// seed).
    pub fn compile_for(&self, scheme: &str, seed: u64) -> FaultSchedule {
        let mut s = self.compile(seed);
        s.scheme = scheme.to_string();
        s
    }

    /// The arrival-rate shaping this scenario applies to the workload
    /// layer (`None` when no macro carries a rate window).
    pub fn arrival_shape(&self, seed: u64) -> Option<ArrivalShape> {
        let windows = self.compile(seed).arrival_windows();
        (!windows.is_empty()).then(|| ArrivalShape::new(windows))
    }
}

/// Shared skeleton: the fault tables' canonical phase geometry (60 s
/// heartbeats, 150 s timeout, 900 s fault phase, 20-period recovery)
/// over a 48-node, 3-dimensional CAN.
pub(crate) fn base(seed: u64) -> FaultSchedule {
    FaultSchedule {
        seed,
        scheme: "adaptive".into(),
        dims: 3,
        nodes: 48,
        settle_time: 120.0,
        heartbeat_period: 60.0,
        fail_timeout: 150.0,
        fault_duration: 900.0,
        recovery_periods: 20.0,
        graceful_fraction: 0.5,
        churn_gap: None,
        class_faults: Vec::new(),
        partitions: Vec::new(),
        degrades: Vec::new(),
        events: Vec::new(),
        macros: Vec::new(),
        detector: Some("adaptive".into()),
        replication: None,
        sched_crash_interval: None,
        overload: None,
        expect_digest: None,
    }
}

fn diurnal_wave(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    // Three availability cycles: five nodes shut down near each trough
    // and return near each peak. The adaptive detector must ride the
    // wave without expelling anyone who is merely *about* to leave.
    s.macros = vec![ScheduleMacro::Wave {
        period: 280.0,
        amplitude: 5,
        cycles: 3,
        from: 30.0,
    }];
    s
}

fn flash_crowd_spike(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    // Release-day flash crowd: a 14-node join burst with submissions
    // running 2.5x for five minutes; half the crowd churns away when
    // the window closes.
    s.macros = vec![ScheduleMacro::Spike {
        at: 120.0,
        joins: 14,
        rate: 2.5,
        duration: 300.0,
    }];
    s
}

fn rack_storm(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    // Three correlated four-node bursts, warm-standby armed — the
    // macro generalization of the hand-written rack-crash-storm trace.
    s.replication = Some("standby".into());
    s.churn_gap = Some(45.0);
    s.macros = vec![ScheduleMacro::RackStorm {
        at: 60.0,
        racks: 3,
        size: 4,
        gap: 240.0,
    }];
    s
}

fn straggler_drag(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    // Four persistently slow links plus two mid-window single-node
    // freezes shorter than the fail timeout: stragglers to tolerate,
    // not expel.
    s.macros = vec![ScheduleMacro::Straggler {
        pairs: 4,
        drop: 0.45,
        jitter: 30.0,
        freezes: 2,
        freeze_secs: 120.0,
        from: 60.0,
        until: 780.0,
    }];
    s
}

fn gray_failure(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    // Asymmetric partial degrade: the same pair budget is lossy in one
    // window and laggy in the other, so links limp instead of dying —
    // the shape a fixed timeout either over- or under-reacts to.
    s.macros = vec![ScheduleMacro::GrayFail {
        pairs: 5,
        drop: 0.3,
        delay: 35.0,
        from: 60.0,
        until: 780.0,
    }];
    s
}

fn overload_collapse(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    // Congestion collapse: sustained arrivals above capacity layered on
    // a rack-correlated crash storm — the storm removes capacity while
    // the offered load stays up, so unbounded queues would grow without
    // limit and naive retries would amplify into a storm of their own.
    // Bounded queues (4 waiting slots, 900 s max wait) plus a 3-token
    // retry budget per job keep the backlog finite; the bounded-queues
    // and no-retry-storm oracles audit exactly that.
    s.replication = Some("standby".into());
    s.churn_gap = Some(45.0);
    s.macros = vec![
        ScheduleMacro::RackStorm {
            at: 60.0,
            racks: 2,
            size: 4,
            gap: 300.0,
        },
        ScheduleMacro::Spike {
            at: 120.0,
            joins: 6,
            rate: 3.0,
            duration: 600.0,
        },
    ];
    s.sched_crash_interval = Some(450.0);
    s.overload = Some(OverloadRecord {
        slots: 4,
        wait: 900.0,
        burst: 3,
        refill: 0.01,
    });
    s
}

// --- the scripted chaos trio ([`CHAOS_TRIO`]) ---------------------------
//
// Hand-written points of the schedule space that predate the macro
// DSL: primitive records only.

fn flash_crowd(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    s.events = vec![
        FaultEvent {
            at: 60.0,
            fault: NodeFault::Crash { count: 11 },
        },
        FaultEvent {
            at: 360.0,
            fault: NodeFault::Rejoin { count: 6 },
        },
    ];
    s
}

fn rolling_partition(seed: u64) -> FaultSchedule {
    use crate::simcore::dst::PartitionWindow;
    let mut s = base(seed);
    s.partitions = vec![
        PartitionWindow {
            fraction: 0.2,
            from: 0.0,
            until: 400.0,
        },
        PartitionWindow {
            fraction: 0.2,
            from: 450.0,
            until: 850.0,
        },
    ];
    s
}

fn lossy_churn(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    s.class_faults = MsgClass::ALL
        .iter()
        .map(|&c| {
            (
                c,
                ClassFaults {
                    drop: 0.2,
                    ..ClassFaults::IDEAL
                },
            )
        })
        .collect();
    s.churn_gap = Some(s.heartbeat_period / 6.0);
    s.events = vec![FaultEvent {
        at: 300.0,
        fault: NodeFault::Freeze {
            count: 4,
            duration: 250.0,
        },
    }];
    s
}

/// The **take-over storm** behind the warm-standby sweep
/// (`experiments::takeover_suite`): two crash waves bracketing a
/// correlated owner+heir wave, under 30 % heartbeat loss so cached
/// payloads go stale, with join/leave churn every third of a period
/// keeping the victims' neighborhoods moving — the case acked replica
/// deltas are built to survive. Detector off, replication off; the
/// sweep sets each arm's `scheme` and `replication` itself.
///
/// A builder, not a [`REGISTRY`] entry: the registry is the detector-on
/// adversary library every consumer enumerates whole (the scenario
/// table, the `dst_armed` benchmark workload), and the storm is one
/// experiment's fixed workload with its own seeds and arms.
pub fn takeover_storm(seed: u64) -> FaultSchedule {
    let mut s = base(seed);
    s.nodes = 60;
    s.settle_time = 300.0;
    s.detector = None;
    s.class_faults = vec![(
        MsgClass::Heartbeat,
        ClassFaults {
            drop: 0.3,
            ..ClassFaults::IDEAL
        },
    )];
    s.churn_gap = Some(s.heartbeat_period / 3.0);
    s.events = vec![
        FaultEvent {
            at: 60.0,
            fault: NodeFault::Crash { count: 5 },
        },
        FaultEvent {
            at: 330.0,
            fault: NodeFault::CrashWithHeir { count: 3 },
        },
        FaultEvent {
            at: 600.0,
            fault: NodeFault::Crash { count: 3 },
        },
    ];
    s
}

/// The scenario registry, in table order. The first three entries are
/// the scripted chaos trio ([`CHAOS_TRIO`]); the rest are the
/// macro-built adversary families.
pub static REGISTRY: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "flash-crowd",
        summary: "~18% of members crash at once, partial rejoin wave later",
        build: flash_crowd,
    },
    ScenarioSpec {
        name: "rolling-partition",
        summary: "two successive windows each isolate a fifth of the members",
        build: rolling_partition,
    },
    ScenarioSpec {
        name: "lossy-churn",
        summary: "20% uniform loss, heavy join/leave churn, a 250s freeze",
        build: lossy_churn,
    },
    ScenarioSpec {
        name: "diurnal-wave",
        summary: "3 availability cycles: 5 nodes leave per trough, return per peak",
        build: diurnal_wave,
    },
    ScenarioSpec {
        name: "flash-crowd-spike",
        summary: "14-node join burst with 2.5x submission rate for 300s",
        build: flash_crowd_spike,
    },
    ScenarioSpec {
        name: "rack-storm",
        summary: "3 correlated 4-node crash bursts, warm-standby armed",
        build: rack_storm,
    },
    ScenarioSpec {
        name: "straggler-drag",
        summary: "4 slow links + 2 sub-timeout freezes the detector must tolerate",
        build: straggler_drag,
    },
    ScenarioSpec {
        name: "gray-failure",
        summary: "5 links simultaneously lossy and laggy — limping, not dead",
        build: gray_failure,
    },
    ScenarioSpec {
        name: "overload-collapse",
        summary: "3x sustained arrivals over a rack storm, bounded queues armed",
        build: overload_collapse,
    },
];

/// Registry entries whose name contains `filter` (every entry when
/// `filter` is empty). An unmatched filter returns an empty slice —
/// callers treat that as a usage error, like perf's `--cell`.
pub fn matching(filter: &str) -> Vec<&'static ScenarioSpec> {
    REGISTRY
        .iter()
        .filter(|s| s.name.contains(filter))
        .collect()
}

/// The entry named exactly `name`.
pub fn find(name: &str) -> Option<&'static ScenarioSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// One line per registry entry, for the `--list` flags; the
/// [`CHAOS_TRIO`] entries are marked.
pub fn listing() -> String {
    let mut out = String::from("registered scenarios:\n");
    for spec in REGISTRY {
        let mark = if CHAOS_TRIO.contains(&spec.name) {
            "  [chaos]"
        } else {
            ""
        };
        out.push_str(&format!("  {:<18} {}{mark}\n", spec.name, spec.summary));
    }
    out
}

/// Registry names of the scripted chaos trio, in chaos-table order.
pub const CHAOS_TRIO: [&str; 3] = ["flash-crowd", "rolling-partition", "lossy-churn"];

/// The [`CHAOS_TRIO`] entries — what `pgrid chaos` runs through
/// `experiments::chaos_rows`.
pub fn chaos_trio() -> Vec<&'static ScenarioSpec> {
    CHAOS_TRIO
        .iter()
        .map(|name| find(name).expect("the chaos trio is registered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_five_macro_scenarios() {
        let macro_built = REGISTRY
            .iter()
            .filter(|s| !s.compile(1).macros.is_empty())
            .count();
        assert!(macro_built >= 5, "only {macro_built} macro scenarios");
        assert!(REGISTRY.len() >= 8);
    }

    #[test]
    fn names_are_unique_and_kebab() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate scenario names");
        for name in names {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{name} is not kebab-case"
            );
        }
    }

    #[test]
    fn every_scenario_compiles_deterministically() {
        for spec in REGISTRY {
            for seed in [1u64, 45, 1000] {
                let a = spec.compile(seed).to_text();
                let b = spec.compile(seed).to_text();
                assert_eq!(a, b, "{}: compile must be deterministic", spec.name);
                let parsed = FaultSchedule::parse(&a).expect("compiled trace parses");
                assert_eq!(parsed.to_text(), a, "{}: round trip", spec.name);
            }
        }
    }

    #[test]
    fn chaos_trio_matches_the_legacy_list() {
        let names: Vec<&str> = chaos_trio().iter().map(|s| s.name).collect();
        assert_eq!(names, ["flash-crowd", "rolling-partition", "lossy-churn"]);
    }

    #[test]
    fn matching_is_a_substring_filter() {
        assert_eq!(matching("").len(), REGISTRY.len());
        assert!(matching("storm").iter().any(|s| s.name == "rack-storm"));
        assert!(matching("no-such-scenario").is_empty());
        // "flash-crowd" matches both the legacy crash crowd and the
        // join-burst spike — substring, not exact.
        assert_eq!(matching("flash-crowd").len(), 2);
    }

    #[test]
    fn spike_carries_an_arrival_shape_and_others_do_not() {
        let spike = find("flash-crowd-spike").unwrap();
        let shape = spike.arrival_shape(7).expect("spike shapes arrivals");
        assert_eq!(shape.multiplier_at(121.0), 2.5);
        assert_eq!(shape.multiplier_at(500.0), 1.0);
        assert!(find("diurnal-wave").unwrap().arrival_shape(7).is_none());
    }

    #[test]
    fn overload_collapse_arms_bounded_queues_and_retry_budget() {
        let spec = find("overload-collapse").unwrap();
        let s = spec.compile(3);
        let o = s.overload.expect("overload record armed");
        assert!(o.slots >= 1 && o.burst >= 1);
        assert!(s.sched_crash_interval.is_some(), "storms the sched layer");
        assert!(!s.macros.is_empty(), "layered on a macro storm");
        // Arming survives macro expansion and the text round trip.
        let expanded = s.expand();
        assert_eq!(expanded.overload, s.overload);
        let parsed = FaultSchedule::parse(&s.to_text()).unwrap();
        assert_eq!(parsed.overload, s.overload);
        // Every other registry entry stays disarmed so historical
        // digests cannot move.
        for other in REGISTRY.iter().filter(|r| r.name != spec.name) {
            assert!(other.compile(3).overload.is_none(), "{}", other.name);
        }
    }

    #[test]
    fn scheme_override_leaves_expansion_untouched() {
        let spec = find("rack-storm").unwrap();
        let a = spec.compile_for("vanilla", 9).expand();
        let b = spec.compile_for("compact", 9).expand();
        assert_eq!(a.events, b.events, "scheme must not perturb expansion");
    }
}
