//! Property-based tests (proptest) on the core data structures and
//! cross-crate invariants.

use p2p_ce_grid::can::adjacency::Adjacency;
use p2p_ce_grid::can::geom::Zone;
use p2p_ce_grid::can::split_tree::SplitTree;
use p2p_ce_grid::prelude::*;
use p2p_ce_grid::sched::{
    bounded_queue_violation, retry_storm_violation, run_load_balance_overload, AiGrouping, AiTable,
    OverloadConfig, StaticGrid, TokenBucket,
};
use p2p_ce_grid::simcore::shard::{RegionPartition, ShardAssignment};
use proptest::prelude::*;

fn unit_point(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..0.999, dims)
}

proptest! {
    /// Splitting a zone partitions it: every point lands in exactly one
    /// half, and volumes add up.
    #[test]
    fn zone_split_partitions(
        p in unit_point(4),
        dim in 0usize..4,
        at in 0.05f64..0.95,
    ) {
        let z = Zone::unit(4);
        let (lo, hi) = z.split(dim, at);
        prop_assert!((lo.volume() + hi.volume() - z.volume()).abs() < 1e-12);
        prop_assert_eq!(lo.contains(&p) as u8 + hi.contains(&p) as u8, 1);
        prop_assert_eq!(lo.merge(&hi), Some(z));
    }

    /// Zone abutment is symmetric and never holds for overlapping or
    /// identical zones.
    #[test]
    fn zone_abutment_symmetry(
        a_lo in unit_point(3),
        b_lo in unit_point(3),
        side in 0.05f64..0.4,
    ) {
        let mk = |lo: &[f64]| {
            Zone::from_bounds(
                lo.to_vec(),
                lo.iter().map(|x| x + side).collect(),
            )
        };
        let a = mk(&a_lo);
        let b = mk(&b_lo);
        prop_assert_eq!(a.abuts(&b), b.abuts(&a));
        prop_assert!(!a.abuts(&a), "a zone never abuts itself");
    }

    /// The split tree keeps zones partitioning the space and ownership
    /// lookups consistent through arbitrary join/leave sequences, and
    /// after every step its abutting-pair traversal is exactly the
    /// neighbor relation recomputed from the zones.
    #[test]
    fn split_tree_partition_under_churn(ops in prop::collection::vec((unit_point(3), any::<bool>()), 1..60)) {
        let mut tree = SplitTree::new(3, NodeId(0));
        let mut coords = vec![(NodeId(0), vec![0.01, 0.01, 0.01])];
        let mut next = 1u32;
        for (p, join) in ops {
            if join || tree.len() <= 1 {
                let host = tree.owner_at(&p).unwrap();
                let hc = coords.iter().find(|(n, _)| *n == host).unwrap().1.clone();
                let zone = tree.zone(host).clone();
                let plane = if zone.contains(&hc) {
                    p2p_ce_grid::can::split_tree::choose_split_plane(&zone, &hc, &p)
                } else {
                    Some(p2p_ce_grid::can::split_tree::choose_split_plane_free(&zone))
                };
                if let Some((dim, at)) = plane {
                    let id = NodeId(next);
                    next += 1;
                    tree.split(host, &hc, id, &p, dim, at);
                    coords.push((id, p));
                }
            } else {
                let victim = tree.members().min().unwrap();
                tree.remove(victim);
                coords.retain(|(n, _)| *n != victim);
            }
            tree.check_invariants();
            let reference = Adjacency::recompute(tree.members(), |n| tree.zone(n));
            let mut pairs = Vec::new();
            let mut mislabeled = None;
            tree.for_each_abutting_pair(|low, high, dim| {
                if tree.zone(low).abut_dim(tree.zone(high)) != Some((dim, 1)) {
                    mislabeled = Some((low, high, dim));
                }
                pairs.push((low, high));
            });
            prop_assert_eq!(mislabeled, None);
            pairs.sort_unstable();
            prop_assert!(pairs.windows(2).all(|w| w[0] != w[1]), "pair emitted twice");
            prop_assert!(pairs.iter().all(|&(a, b)| reference.are_neighbors(a, b)));
            prop_assert_eq!(2 * pairs.len(), reference.directed_edges());
        }
        // Ownership is total: every probe point has exactly one owner.
        let probe = vec![0.37, 0.91, 0.12];
        prop_assert!(tree.owner_at(&probe).is_some());
    }

    /// A generated job is satisfied by a node if and only if the
    /// node's coordinate dominates the job's coordinate on every real
    /// dimension (the CAN-routing correctness property of §II-B).
    #[test]
    fn satisfaction_matches_coordinate_dominance(node_seed in 0u64..5000, job_seed in 0u64..5000) {
        let layout = DimensionLayout::with_dims(11);
        let mut nrng = SimRng::seed_from_u64(node_seed);
        let mut jrng = SimRng::seed_from_u64(job_seed);
        let node = NodeGenConfig::paper_defaults(2).sample(&mut nrng);
        let job = JobGenConfig::paper_defaults(2, 0.7, 3.0).sample(JobId(0), &mut jrng);
        let nc = layout.node_coord(&node, 0.5);
        let jc = layout.job_coord(&job, 0.5);
        let dominates = (0..layout.dims())
            .filter(|&d| d != DimensionLayout::VIRTUAL_DIM)
            .all(|d| nc[d] >= jc[d]);
        prop_assert_eq!(
            job.satisfied_by(&node),
            dominates,
            "node {:?} vs job {:?}",
            node,
            job
        );
    }

    /// Event queue pops are globally time-ordered regardless of the
    /// scheduling order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(*t, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// CDF quantile and fraction_at are inverse-consistent.
    #[test]
    fn cdf_quantile_consistency(samples in prop::collection::vec(0.0f64..1e5, 1..200), q in 0.01f64..1.0) {
        let cdf = Cdf::new(samples);
        let x = cdf.quantile(q);
        prop_assert!(cdf.fraction_at(x) >= q - 1e-9);
    }

    /// A retry token bucket never holds more than its burst capacity
    /// and never grants more takes than burst + refill x elapsed time,
    /// whatever the spacing of the attempts.
    #[test]
    fn token_bucket_never_exceeds_burst(
        burst in 1u32..10,
        refill in 0.0f64..2.0,
        deltas in prop::collection::vec(0.0f64..100.0, 1..60),
    ) {
        let mut tb = TokenBucket::new(burst, refill);
        let mut now = 0.0;
        let mut takes = 0u32;
        for d in deltas {
            now += d;
            if tb.try_take(now) {
                takes += 1;
            }
            prop_assert!(tb.available() <= f64::from(burst) + 1e-9);
        }
        prop_assert!(
            f64::from(takes) <= f64::from(burst) + refill * now + 1.0,
            "{takes} takes with burst {burst}, refill {refill}, elapsed {now}"
        );
    }

    /// The zone-region shard partitioner is an exact cover of the unit
    /// torus: the regions tile `[0,1)^d` (volumes sum to one and every
    /// point lies in exactly one region, agreeing with `shard_of`), and
    /// repartitioning after churn never orphans or double-assigns a
    /// surviving node.
    #[test]
    fn region_partition_is_an_exact_cover(
        dims in 1usize..6,
        shards in 1usize..17,
        points in prop::collection::vec(unit_point(5), 1..40),
        survivors in prop::collection::vec(any::<bool>(), 40),
    ) {
        let part = RegionPartition::new(dims, shards);
        let total: f64 = part.regions().iter().map(|r| r.volume()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "regions must tile the torus, got volume {total}");
        for p in &points {
            let p = &p[..dims];
            let owner = part.shard_of(p);
            let hits = part.regions().iter().filter(|r| r.contains(p)).count();
            prop_assert_eq!(hits, 1, "point {:?} lies in {} regions", p, hits);
            prop_assert!(
                part.regions()[owner].contains(p),
                "shard_of disagrees with region membership for {:?}", p
            );
        }
        // Churn repartitioning: the node set before and after a crash
        // wave maps onto the same fixed tiling; both assignments must
        // place every (surviving) node in exactly one member list,
        // consistent with lane_of.
        let coords: Vec<&[f64]> = points.iter().map(|p| &p[..dims]).collect();
        let alive: Vec<&[f64]> = coords
            .iter()
            .zip(&survivors)
            .filter(|(_, keep)| **keep)
            .map(|(c, _)| *c)
            .collect();
        for set in [&coords[..], &alive[..]] {
            let asg = ShardAssignment::from_fn(shards, set.len(), |i| part.shard_of(set[i]));
            let mut seen = vec![0usize; set.len()];
            for (s, members) in asg.members.iter().enumerate() {
                for &i in members {
                    seen[i] += 1;
                    prop_assert_eq!(asg.lane_of[i], s, "member list and lane_of disagree");
                }
            }
            prop_assert!(
                seen.iter().all(|&c| c == 1),
                "a node was orphaned or double-assigned: {:?}", seen
            );
        }
    }

    /// Summary::merge is equivalent to sequential accumulation.
    #[test]
    fn summary_merge_associative(xs in prop::collection::vec(-1e3f64..1e3, 2..100), split in 1usize..99) {
        let split = split.min(xs.len() - 1);
        let whole = Summary::from_iter(xs.iter().copied());
        let mut a = Summary::from_iter(xs[..split].iter().copied());
        let b = Summary::from_iter(xs[split..].iter().copied());
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any generated population builds a valid static grid whose zones
    /// partition the space and contain their owners' coordinates, and
    /// routing always finds the owner.
    #[test]
    fn static_grid_builds_from_any_population(seed in 0u64..1000, n in 10usize..80) {
        let layout = DimensionLayout::with_dims(8);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(1), n, seed);
        let grid = StaticGrid::build(layout, pop, seed);
        grid.check_invariants();
        let mut rng = SimRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..5 {
            let p: Vec<f64> = (0..8).map(|_| rng.unit() * 0.99).collect();
            let r = grid.route_to(NodeId(0), &p);
            prop_assert_eq!(r.owner, grid.owner_at(&p));
        }
    }

    /// After a randomized crash episode the self-healing (adaptive)
    /// scheme restores every node's boundary coverage and all
    /// ground-truth links within a bounded number of heartbeat
    /// periods — the schedule executor's oracles must report a clean
    /// run for any fault seed.
    #[test]
    fn adaptive_recovers_full_coverage_after_random_crashes(
        seed in 0u64..500,
        crashes in 3u32..12,
        rejoins in 0u32..6,
    ) {
        use p2p_ce_grid::simcore::fault::{FaultEvent, NodeFault};
        // The registry's flash crowd with drawn wave sizes, detector off.
        let mut s = scenarios::find("flash-crowd")
            .expect("registered scenario")
            .compile_for("adaptive", seed);
        s.nodes = 36;
        s.detector = None;
        s.events = vec![FaultEvent {
            at: 60.0,
            fault: NodeFault::Crash { count: crashes as usize },
        }];
        // `validate` rejects an empty wave; a zero draw is no event.
        if rejoins > 0 {
            s.events.push(FaultEvent {
                at: 400.0,
                fault: NodeFault::Rejoin { count: rejoins as usize },
            });
        }
        s.validate().expect("drawn schedule is valid");
        let report = run_schedule(&s);
        prop_assert!(
            report.violations.is_empty(),
            "seed {}: {:?}", seed, report.violations
        );
        prop_assert_eq!(report.broken_after, 0);
        prop_assert_eq!(report.gaps_after, 0);
        // Recovery must happen within the harness's bounded recovery
        // window (recovery_periods heartbeat periods).
        prop_assert!(report.recovery_time.is_some());
    }

    /// Every registered scenario compiles deterministically: the same
    /// (name, seed) pair yields byte-identical trace text (before and
    /// after macro expansion), and distinct seeds perturb only the
    /// RNG-derived expansion times — never the macro structure, the
    /// primitive event kinds/counts, or the degrade windows.
    #[test]
    fn scenario_compilation_is_deterministic_and_structurally_stable(
        idx in 0usize..64,
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
    ) {
        use p2p_ce_grid::scenarios::REGISTRY;
        let spec = &REGISTRY[idx % REGISTRY.len()];
        let a1 = spec.compile(seed_a);
        let a2 = spec.compile(seed_a);
        prop_assert_eq!(a1.to_text(), a2.to_text(), "{}: compile must be pure", spec.name);
        prop_assert_eq!(
            a1.expand().to_text(),
            a2.expand().to_text(),
            "{}: expansion must be pure", spec.name
        );
        let b = spec.compile(seed_b);
        prop_assert_eq!(&a1.macros, &b.macros, "{}: macro structure is seed-invariant", spec.name);
        let ea = a1.expand();
        let eb = b.expand();
        prop_assert_eq!(ea.events.len(), eb.events.len(), "{}", spec.name);
        for (x, y) in ea.events.iter().zip(&eb.events) {
            // Only the firing times may differ between seeds.
            prop_assert_eq!(&x.fault, &y.fault, "{}: event kinds/counts are structural", spec.name);
        }
        prop_assert_eq!(&ea.degrades, &eb.degrades, "{}: degrade windows are structural", spec.name);
    }

    /// Shed decisions are deterministic for a fixed seed, jobs stay
    /// conserved under admission control, and both overload oracles
    /// hold for any (slots, burst) bound at 4x offered load.
    #[test]
    fn overload_shedding_is_deterministic_and_conserves_jobs(
        seed in 0u64..500,
        slots in 1usize..6,
        burst in 1u32..5,
    ) {
        let mut s = default_scenario().scaled_down(20); // 50 nodes
        s.jobs = 300;
        s.seed = seed;
        let over = s.clone().with_interarrival(s.job_gen.mean_interarrival / 4.0);
        let cfg = OverloadConfig {
            queue_slots: Some(slots),
            max_queue_wait: Some(600.0),
            retry_burst: burst,
            ..OverloadConfig::default()
        };
        let a = run_load_balance_overload(&over, SchedulerChoice::CanHet, None, &cfg);
        let b = run_load_balance_overload(&over, SchedulerChoice::CanHet, None, &cfg);
        let sa = a.overload.clone().expect("armed run reports stats");
        let sb = b.overload.clone().expect("armed run reports stats");
        prop_assert_eq!(&sa, &sb, "shed decisions must replay identically");
        prop_assert_eq!(a.wait_times.len(), b.wait_times.len());
        prop_assert_eq!(
            a.wait_times.len() as u64 + sa.shed_total() + a.lost_jobs,
            over.jobs as u64,
            "every job completes, sheds, or is accounted lost"
        );
        prop_assert!(bounded_queue_violation(&sa, &cfg).is_none());
        prop_assert!(retry_storm_violation(&sa, &cfg, a.makespan).is_none());
    }

    /// Incremental AiTable refresh stays bit-identical to a scratch
    /// rebuild with the queue-pressure bit armed, through arbitrary
    /// queue churn.
    #[test]
    fn pressure_armed_incremental_refresh_matches_scratch(
        seed in 0u64..500,
        bound in 1usize..5,
        n in 20usize..60,
    ) {
        let layout = DimensionLayout::with_dims(8);
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(1), n, seed);
        let mut stream = JobStream::with_population(
            JobGenConfig::paper_defaults(1, 0.6, 3.0),
            seed,
            pop.clone(),
        );
        let mut grid = StaticGrid::build(layout, pop, seed);
        let mut inc = AiTable::new(&grid, AiGrouping::PerCe);
        let mut scr = AiTable::new(&grid, AiGrouping::PerCe);
        inc.set_pressure_bound(Some(bound));
        scr.set_pressure_bound(Some(bound));
        let mut rng = SimRng::seed_from_u64(seed ^ 0x77);
        for round in 0..6u64 {
            for _ in 0..8 {
                let (_, job) = stream.next_job();
                let target = (0..16)
                    .map(|_| NodeId(rng.below(n) as u32))
                    .find(|&t| job.satisfied_by(&grid.runtime(t).spec));
                if let Some(t) = target {
                    grid.with_runtime_mut(t, |rt| {
                        rt.enqueue(job, round as f64);
                        rt.start_ready()
                    });
                }
            }
            let now = round as f64;
            inc.refresh(&grid, now);
            scr.refresh_scratch(&grid, now);
            for i in 0..n {
                let id = NodeId(i as u32);
                prop_assert_eq!(
                    inc.local_bits(id),
                    scr.local_bits(id),
                    "round {}: node {} bits diverged", round, i
                );
            }
        }
    }

    /// Under randomized fail-stop node crashes, no job is ever lost or
    /// double-completed: every submitted job either completes exactly
    /// once or is explicitly accounted as permanently failed after
    /// bounded retries. (The conservation ledger inside the simulator
    /// panics on any violation; the counts must also reconcile.)
    #[test]
    fn crash_recovery_conserves_every_job(
        seed in 0u64..1000,
        mean_interval in 200.0f64..2000.0,
    ) {
        let mut s = default_scenario().scaled_down(20); // 50 nodes
        s.jobs = 300;
        s.seed = seed;
        let chaos = CrashChaosConfig::new(mean_interval);
        let r = run_load_balance_chaos(&s, SchedulerChoice::CanHet, &chaos);
        let rec = r.recovery.as_ref().expect("chaos run reports stats");
        prop_assert_eq!(
            r.wait_times.len() as u64 + rec.permanently_failed,
            s.jobs as u64,
            "every job completes once or is accounted failed"
        );
        prop_assert!(r.wait_times.iter().all(|w| w.is_finite() && *w >= 0.0));
        prop_assert!(rec.requeued >= rec.jobs_lost().saturating_sub(rec.permanently_failed));
    }
}
