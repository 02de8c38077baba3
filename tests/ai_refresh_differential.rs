//! Differential harness for the demand-driven `AiTable`.
//!
//! Drives a long random job stream (placements, completions, volunteer
//! evictions, restores) through a static grid and compares the table
//! that `refresh` only *marks* — rows recomputed by whichever read
//! needs them — against a from-scratch rebuild on a shadow table, both
//! the per-CE and pooled groupings, the pressure bound armed and
//! disarmed, bit-exact (`f64::to_bits`). Three read patterns: every row
//! after every refresh; a random subset, the rest left stale across
//! refreshes; and nothing for `k` refreshes, then everything. Any
//! divergence means the marking skipped a row it shouldn't have, a row
//! was declared fresh before its outward rows were, or the recompute
//! deviated from the scratch build's `absorb` order.

use p2p_ce_grid::prelude::*;

/// Bit-exact entry comparison (the differential oracle).
fn entries_same(a: &AiEntry, b: &AiEntry) -> bool {
    a.nodes == b.nodes
        && a.free_nodes == b.free_nodes
        && a.pressured == b.pressured
        && a.cores.to_bits() == b.cores.to_bits()
        && a.required_cores.to_bits() == b.required_cores.to_bits()
}

/// Reads row `(node, dim)` of `lazy` through the demand-driven path
/// and asserts every slot equals the scratch shadow's, bit for bit.
fn assert_row_identical(
    lazy: &mut AiTable,
    scr: &mut AiTable,
    grid: &StaticGrid,
    (node, dim): (NodeId, usize),
    label: &str,
) {
    for s in 0..lazy.slot_types().len() {
        let a = lazy.entry_at(grid, node, dim, s);
        let b = scr.entry_at(grid, node, dim, s);
        assert!(
            entries_same(&a, &b),
            "{label}: node {node} dim {dim} slot {s}: lazy {a:?} != scratch {b:?}"
        );
    }
}

/// [`assert_row_identical`] on every `(node, dim)` row.
fn assert_tables_identical(lazy: &mut AiTable, scr: &mut AiTable, grid: &StaticGrid, label: &str) {
    assert_eq!(lazy.slot_types(), scr.slot_types());
    for i in 0..grid.len() as u32 {
        for d in 0..lazy.dims() {
            assert_row_identical(lazy, scr, grid, (NodeId(i), d), label);
        }
    }
}

struct Harness {
    grid: StaticGrid,
    stream: JobStream,
    /// `(node, job)` pairs currently *running* (started, not merely
    /// queued) — the only jobs `NodeRuntime::finish` accepts.
    running: Vec<(NodeId, JobId)>,
    evicted: Vec<NodeId>,
    rng: SimRng,
}

impl Harness {
    fn new(n: usize, seed: u64) -> Self {
        let layout = DimensionLayout::with_dims(11);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(2), n, seed);
        let jobcfg = JobGenConfig::paper_defaults(2, 0.6, 3.0);
        let stream = JobStream::with_population(jobcfg, seed, pop.clone());
        let grid = StaticGrid::build(layout, pop, seed);
        Harness {
            grid,
            stream,
            running: Vec::new(),
            evicted: Vec::new(),
            rng: SimRng::seed_from_u64(seed ^ 0xD1FF),
        }
    }

    /// Applies one random load-mutating event; returns a short label.
    fn step(&mut self) -> &'static str {
        let n = self.grid.len();
        match self.rng.below(10) {
            // Evictions and restores are rarer than job churn, like in
            // the simulator's eviction model.
            0 => {
                let victim = NodeId(self.rng.below(n) as u32);
                self.grid.evict_node(victim);
                self.running.retain(|&(node, _)| node != victim);
                if !self.evicted.contains(&victim) {
                    self.evicted.push(victim);
                }
                "evict"
            }
            1 => {
                if let Some(&back) = self.evicted.last() {
                    self.evicted.pop();
                    self.grid.restore_node(back);
                    let started = self.grid.with_runtime_mut(back, |rt| rt.start_ready());
                    self.running
                        .extend(started.into_iter().map(|s| (back, s.job.id)));
                }
                "restore"
            }
            2..=3 => {
                // Complete a random running job.
                if !self.running.is_empty() {
                    let k = self.rng.below(self.running.len());
                    let (node, jid) = self.running.swap_remove(k);
                    let started = self.grid.with_runtime_mut(node, |rt| {
                        rt.finish(jid);
                        rt.start_ready()
                    });
                    self.running
                        .extend(started.into_iter().map(|s| (node, s.job.id)));
                }
                "complete"
            }
            _ => {
                // Place a job on a random satisfying node (the stream
                // only emits jobs satisfiable by someone in the
                // population).
                let (_, job) = self.stream.next_job();
                let target = (0..32)
                    .map(|_| NodeId(self.rng.below(n) as u32))
                    .find(|&t| job.satisfied_by(&self.grid.runtime(t).spec));
                if let Some(target) = target {
                    let started = self.grid.with_runtime_mut(target, |rt| {
                        rt.enqueue(job, 0.0);
                        rt.start_ready()
                    });
                    self.running
                        .extend(started.into_iter().map(|s| (target, s.job.id)));
                }
                "place"
            }
        }
    }
}

/// The headline test: 450 events, a refresh + full differential check
/// after every single one, for both groupings at once.
#[test]
fn incremental_refresh_is_bit_identical_to_scratch_after_every_event() {
    let n = 140;
    let mut h = Harness::new(n, 4242);
    let mut inc_per = AiTable::new(&h.grid, AiGrouping::PerCe);
    let mut scr_per = AiTable::new(&h.grid, AiGrouping::PerCe);
    let mut inc_pool = AiTable::new(&h.grid, AiGrouping::Pooled);
    let mut scr_pool = AiTable::new(&h.grid, AiGrouping::Pooled);
    for event in 0..450 {
        let label = format!("{} event {event}", h.step());
        let now = event as f64;
        inc_per.refresh(&h.grid, now);
        scr_per.refresh_scratch(&h.grid, now);
        inc_pool.refresh(&h.grid, now);
        scr_pool.refresh_scratch(&h.grid, now);
        assert_tables_identical(&mut inc_per, &mut scr_per, &h.grid, &label);
        assert_tables_identical(&mut inc_pool, &mut scr_pool, &h.grid, &label);
    }
    h.grid.check_invariants();
    assert!(
        h.grid.load_clock() > 400,
        "the stream must actually have mutated load state"
    );
}

/// Batched variant: several events accumulate in the dirty set before
/// each refresh, so the marking regularly starts from multiple changed
/// locals with overlapping inward closures.
#[test]
fn incremental_refresh_survives_batched_churn() {
    let n = 100;
    let mut h = Harness::new(n, 777);
    let mut inc = AiTable::new(&h.grid, AiGrouping::PerCe);
    let mut scr = AiTable::new(&h.grid, AiGrouping::PerCe);
    let mut event = 0;
    for round in 0..110 {
        let batch = 1 + (round % 7);
        for _ in 0..batch {
            h.step();
            event += 1;
        }
        let now = event as f64;
        inc.refresh(&h.grid, now);
        scr.refresh_scratch(&h.grid, now);
        assert_tables_identical(
            &mut inc,
            &mut scr,
            &h.grid,
            &format!("batched event {event}"),
        );
    }
    assert!(event >= 400, "batched stream should cover 400+ events");
}

/// What a round of [`drive_partial_reads`] reads after its refresh.
#[derive(Clone, Copy)]
enum Reads {
    /// A random subset of rows, of a size redrawn every round from
    /// nothing to about a tenth of the table — what a period's pushes
    /// do. Every 12th round reads everything.
    Subset,
    /// Nothing for `k - 1` refreshes, then everything.
    EveryKth(usize),
}

/// Batched churn with only part of the table read between refreshes,
/// so rows stay stale across several refreshes, are marked again while
/// stale, and are materialized from a snapshot several refreshes newer
/// than the one that staled them. Returns the largest `pressured`
/// count any row read carried.
fn drive_partial_reads(grouping: AiGrouping, bound: Option<usize>, reads: Reads, seed: u64) -> u64 {
    let n = 90;
    let mut h = Harness::new(n, seed);
    let mut lazy = AiTable::new(&h.grid, grouping);
    let mut scr = AiTable::new(&h.grid, grouping);
    lazy.set_pressure_bound(bound);
    scr.set_pressure_bound(bound);
    let dims = lazy.dims();
    let mut pick = SimRng::seed_from_u64(seed ^ 0x5EAD);
    let mut max_pressured = 0;
    for round in 1..=72usize {
        for _ in 0..1 + round % 7 {
            h.step();
        }
        let now = round as f64;
        lazy.refresh(&h.grid, now);
        scr.refresh_scratch(&h.grid, now);
        let label = format!("{grouping:?} bound {bound:?} round {round}");
        let everything = match reads {
            Reads::Subset => round % 12 == 0,
            Reads::EveryKth(k) => round % k == 0,
        };
        if everything {
            assert_tables_identical(&mut lazy, &mut scr, &h.grid, &label);
            for i in 0..n as u32 {
                let e = lazy.entry_at(&h.grid, NodeId(i), round % dims, 0);
                max_pressured = max_pressured.max(e.pressured);
            }
        } else if matches!(reads, Reads::Subset) {
            for _ in 0..pick.below(n * dims / 10) {
                let row = (NodeId(pick.below(n) as u32), pick.below(dims));
                assert_row_identical(&mut lazy, &mut scr, &h.grid, row, &label);
            }
        }
    }
    max_pressured
}

#[test]
fn refresh_with_a_subset_read_matches_scratch() {
    for grouping in [AiGrouping::PerCe, AiGrouping::Pooled] {
        assert_eq!(drive_partial_reads(grouping, None, Reads::Subset, 31), 0);
        let pressured = drive_partial_reads(grouping, Some(1), Reads::Subset, 31);
        assert!(pressured > 0, "{grouping:?}: the armed stream never queued");
    }
}

#[test]
fn refresh_with_nothing_read_for_k_periods_matches_scratch() {
    for grouping in [AiGrouping::PerCe, AiGrouping::Pooled] {
        for k in [2, 5, 9] {
            assert_eq!(
                drive_partial_reads(grouping, None, Reads::EveryKth(k), 53),
                0
            );
            drive_partial_reads(grouping, Some(1), Reads::EveryKth(k), 53);
        }
    }
}

/// The snapshot contract: what `beyond` may observe is fixed at
/// `refresh`. Rows are materialized long after the grid has moved on,
/// and must still equal the shadow built at the refresh — so
/// materialization reads the snapshotted locals, never live runtimes.
#[test]
fn refresh_snapshot_is_what_later_reads_see() {
    for (grouping, bound) in [
        (AiGrouping::PerCe, None),
        (AiGrouping::PerCe, Some(1)),
        (AiGrouping::Pooled, None),
        (AiGrouping::Pooled, Some(1)),
    ] {
        let n = 120;
        let mut h = Harness::new(n, 909);
        let mut lazy = AiTable::new(&h.grid, grouping);
        let mut shadow = AiTable::new(&h.grid, grouping);
        lazy.set_pressure_bound(bound);
        shadow.set_pressure_bound(bound);
        for round in 0..12 {
            for _ in 0..25 {
                h.step();
            }
            let now = round as f64;
            lazy.refresh(&h.grid, now);
            shadow.refresh_scratch(&h.grid, now);
            // Half the rounds read a few rows first, so the late reads
            // meet fresh and stale rows mixed.
            if round % 2 == 0 {
                for i in (0..n as u32).step_by(7) {
                    lazy.beyond(&h.grid, NodeId(i), round % lazy.dims(), CeType::CPU);
                }
            }
            // The grid moves on — enqueue, finish, evict, restore —
            // with no refresh.
            let clock = h.grid.load_clock();
            for _ in 0..40 {
                h.step();
            }
            assert!(h.grid.load_clock() > clock, "the grid must have moved");
            let label = format!("{grouping:?} bound {bound:?} round {round}");
            assert_tables_identical(&mut lazy, &mut shadow, &h.grid, &label);
            // `local_bits` is the same snapshot.
            for i in 0..n as u32 {
                assert_eq!(lazy.local_bits(NodeId(i)), shadow.local_bits(NodeId(i)));
            }
        }
    }
}
