//! Golden digests of `StaticGrid::build`'s frozen topology: a 64-bit
//! FNV-1a fingerprint over every node's sorted neighbor slice (a sorted
//! copy of `neighbors`, which promises the set, not an order), every
//! `(dim, dir)` face bucket, its zone bounds and its coordinate.
//!
//! Recorded on the incremental `Adjacency::on_split` build, *before*
//! the neighbour tables were derived from the split tree in one
//! traversal; any construction algorithm must reproduce these bit for
//! bit (same RNG draws, same retries, same zones, same CSR order), so
//! the constants are never re-recorded for a refactor of `build`.
//!
//! To re-record after a change that is *supposed* to move the topology:
//! `PGRID_PRINT_DIGESTS=1 cargo test --test grid_csr_digest -- --nocapture`

use p2p_ce_grid::prelude::*;

fn write_ids(h: &mut Fnv, ids: &[NodeId]) {
    h.write_usize(ids.len());
    for n in ids {
        h.write_u64(n.0 as u64);
    }
}

fn digest(g: &StaticGrid) -> u64 {
    let dims = g.layout().dims();
    let mut h = Fnv::new();
    h.write_usize(g.len());
    for i in 0..g.len() as u32 {
        let id = NodeId(i);
        let mut sorted = g.neighbors(id).to_vec();
        sorted.sort_unstable();
        write_ids(&mut h, &sorted);
        for d in 0..dims {
            for dir in [1i8, -1] {
                write_ids(&mut h, g.face_neighbors(id, d, dir));
            }
        }
        let z = g.zone(id);
        for d in 0..dims {
            h.write_f64(z.lo(d));
            h.write_f64(z.hi(d));
        }
        for &c in g.coord(id) {
            h.write_f64(c);
        }
    }
    h.finish()
}

fn check(label: &str, expected: u64, g: &StaticGrid) {
    let got = digest(g);
    if std::env::var_os("PGRID_PRINT_DIGESTS").is_some() {
        println!("(\"{label}\", 0x{got:016x}),");
        return;
    }
    assert_eq!(
        got, expected,
        "{label}: CSR digest 0x{got:016x} != recorded 0x{expected:016x} — \
         StaticGrid::build produced a different topology; see file header"
    );
}

const SEED: u64 = 2011;

/// `(dims, gpu slots of the population, n, digest)`.
const GENERATED: [(usize, u8, usize, u64); 6] = [
    (5, 0, 200, 0xcaf00de86806a012),
    (5, 0, 1000, 0xd6ba1ecad5c653d3),
    (5, 0, 8192, 0x5888a8dea38f470b),
    (11, 2, 200, 0x7f64ebf562807c91),
    (11, 2, 1000, 0x06e330730974397f),
    (11, 2, 8192, 0x8fbd6e42ea840431),
];

#[test]
fn generated_populations_build_the_recorded_topology() {
    for (dims, slots, n, expected) in GENERATED {
        let pop = generate_nodes(&NodeGenConfig::paper_defaults(slots), n, SEED);
        let g = StaticGrid::build(DimensionLayout::with_dims(dims), pop, SEED);
        check(&format!("{dims}d/n{n}"), expected, &g);
    }
}

/// Fifty byte-identical nodes can only separate along the virtual
/// dimension, so every split plane and every touching face is that one
/// dimension's — the degenerate end of the split tree's shape range.
#[test]
fn identical_population_builds_the_recorded_topology() {
    let pop = vec![NodeSpec::cpu_only(2.0, 8.0, 4, 100.0); 50];
    let g = StaticGrid::build(DimensionLayout::with_dims(5), pop, 7);
    check("5d/identical50", 0x8e652cc001f20e09, &g);
}
