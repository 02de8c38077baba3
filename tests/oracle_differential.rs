//! The per-boundary ground-truth checks against their all-pairs
//! references, over the benchmark's `dst_armed` matrix.
//!
//! Every registry scenario under every heartbeat scheme runs through
//! `fuzz::run_case` on the benchmark's 256-node, d = 5 overlay. In a
//! **debug build** each of its heartbeat boundaries compares the fast
//! checks with the all-pairs ones: `oracles::step_violations` asserts
//! that a tree whose leaves match their split history has no
//! overlapping pair and that every reverse-edge lookup agrees with the
//! sorted neighbor list, and `CanSim::check_invariants` asserts that
//! the tree-driven adjacency verdict equals
//! `same_as(Adjacency::recompute(..))` (DESIGN.md §8, invariant O1).
//! Those are `debug_assert!`s: in a `--release` build this file is a
//! plain clean-run and determinism test, not a differential.
//!
//! The planted-fault half — a checker that only ever sees green runs
//! proves nothing — is `can::oracles::tests` (sabotage hooks, strings
//! pinned).

use pgrid::fuzz::run_case;
use pgrid::scenarios;
use pgrid::simcore::rng::sub_seed;

/// The benchmark's overlay, which is also about the largest that keeps
/// this file under ~30 s in a debug build on a slow runner (12 s here;
/// the all-pairs references grow with the square of the population).
const NODES: usize = 256;
const DIMS: usize = 5;

#[test]
fn every_armed_scenario_is_clean_and_replays_to_one_digest() {
    let mut cases = 0u64;
    for spec in scenarios::matching("") {
        for scheme in ["vanilla", "compact", "adaptive"] {
            let mut schedule = spec.compile_for(scheme, sub_seed(2011, cases));
            schedule.nodes = NODES;
            schedule.dims = DIMS;
            cases += 1;
            let first = run_case(&schedule);
            assert_eq!(
                first.violations,
                Vec::<String>::new(),
                "{}/{scheme}",
                spec.name
            );
            assert_eq!(
                first.digest,
                run_case(&schedule).digest,
                "{}/{scheme} does not replay",
                spec.name
            );
        }
    }
    assert_eq!(cases, 27, "nine scenarios under three schemes");
}
