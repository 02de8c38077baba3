//! Hyper-rectangular zone geometry for the d-dimensional CAN.
//!
//! The CAN maps the entire d-dimensional unit space onto zones, one per
//! node: "A node occupies a hyper-rectangular zone that does not
//! overlap with any other node's zone, and the entire multi-dimensional
//! space is covered by the zones for all nodes currently in the system"
//! (paper §II-A).

use std::fmt;
use std::sync::Arc;

/// A point in the d-dimensional CAN space. Coordinates live in `[0,1)`.
pub type Point = Vec<f64>;

/// A half-open hyper-rectangle `[lo, hi)` in the unit space.
///
/// ```
/// use pgrid_can::geom::Zone;
/// let unit = Zone::unit(2);
/// let (left, right) = unit.split(0, 0.5);
/// assert!(left.abuts(&right));
/// assert!(left.contains(&[0.25, 0.9]));
/// assert_eq!(left.merge(&right), Some(unit));
/// ```
///
/// Cloning shares the bounds (one immutable allocation, reference
/// counted), so tables, payloads and messages hand zones around at the
/// cost of a counter; [`Zone::split`] and [`Zone::merge`] build new
/// ones.
#[derive(Clone)]
pub struct Zone {
    /// `lo` then `hi`, `dims` values each.
    bounds: Arc<[f64]>,
}

/// Equal bounds; two handles on one allocation are equal without a
/// comparison, which is what a steady-state heartbeat re-announces.
impl PartialEq for Zone {
    fn eq(&self, other: &Zone) -> bool {
        Arc::ptr_eq(&self.bounds, &other.bounds) || self.bounds == other.bounds
    }
}

impl fmt::Debug for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Zone[")?;
        for i in 0..self.dims() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{:.3}..{:.3}", self.lo(i), self.hi(i))?;
        }
        write!(f, "]")
    }
}

impl Zone {
    /// The whole unit space `[0,1)^d`.
    pub fn unit(dims: usize) -> Self {
        assert!(dims > 0);
        let mut bounds = vec![0.0; 2 * dims];
        bounds[dims..].fill(1.0);
        Zone {
            bounds: bounds.into(),
        }
    }

    /// A zone from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds have mismatched lengths or any `lo >= hi`.
    pub fn from_bounds(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound length mismatch");
        assert!(!lo.is_empty());
        for i in 0..lo.len() {
            assert!(
                lo[i] < hi[i],
                "degenerate zone in dim {i}: [{}, {})",
                lo[i],
                hi[i]
            );
        }
        let mut bounds = lo;
        bounds.extend_from_slice(&hi);
        Zone {
            bounds: bounds.into(),
        }
    }

    /// A copy of this zone with one bound replaced (`slot` indexes the
    /// `lo`-then-`hi` layout).
    fn with_bound(&self, slot: usize, value: f64) -> Zone {
        let mut bounds: Arc<[f64]> = Arc::from(&self.bounds[..]);
        Arc::get_mut(&mut bounds).expect("freshly built, unshared")[slot] = value;
        Zone { bounds }
    }

    /// The lower bounds, then the upper bounds: what `==` compares.
    #[inline]
    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The lower and the upper bounds, one slice each.
    #[inline]
    fn lo_hi(&self) -> (&[f64], &[f64]) {
        self.bounds.split_at(self.dims())
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.bounds.len() / 2
    }

    /// Lower bound along `dim`.
    #[inline]
    pub fn lo(&self, dim: usize) -> f64 {
        self.lo_hi().0[dim]
    }

    /// Upper bound along `dim`.
    #[inline]
    pub fn hi(&self, dim: usize) -> f64 {
        self.lo_hi().1[dim]
    }

    /// Side length along `dim`.
    #[inline]
    pub fn side(&self, dim: usize) -> f64 {
        self.hi(dim) - self.lo(dim)
    }

    /// Hyper-volume of the zone.
    pub fn volume(&self) -> f64 {
        (0..self.dims()).map(|d| self.side(d)).product()
    }

    /// Whether `p` lies inside the half-open box.
    pub fn contains(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        let (lo, hi) = self.lo_hi();
        (0..lo.len()).all(|d| lo[d] <= p[d] && p[d] < hi[d])
    }

    /// Splits the zone at `at` along `dim` into (lower, upper) halves.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < at < hi` along that dimension.
    pub fn split(&self, dim: usize, at: f64) -> (Zone, Zone) {
        assert!(
            self.lo(dim) < at && at < self.hi(dim),
            "split point {at} outside ({}, {}) in dim {dim}",
            self.lo(dim),
            self.hi(dim)
        );
        (
            self.with_bound(self.dims() + dim, at),
            self.with_bound(dim, at),
        )
    }

    /// Merges two zones that partition a box along one dimension back
    /// into that box. Returns `None` if they are not such a pair.
    pub fn merge(&self, other: &Zone) -> Option<Zone> {
        if self.dims() != other.dims() {
            return None;
        }
        let (lo, hi) = self.lo_hi();
        let (olo, ohi) = other.lo_hi();
        let mut join_dim = None;
        for d in 0..lo.len() {
            if lo[d] == olo[d] && hi[d] == ohi[d] {
                continue;
            }
            if join_dim.is_some() {
                return None; // differ in more than one dim
            }
            if hi[d] == olo[d] || ohi[d] == lo[d] {
                join_dim = Some(d);
            } else {
                return None;
            }
        }
        let d = join_dim?;
        // The pair touches along `d`, so one of the two bounds is
        // already the merged one and only the other moves.
        Some(if hi[d] == olo[d] {
            self.with_bound(lo.len() + d, ohi[d])
        } else {
            self.with_bound(d, olo[d])
        })
    }

    /// Whether the zones share a (d-1)-dimensional face: they touch
    /// along exactly one dimension and their projections *overlap with
    /// positive measure* in every other dimension. This is the CAN
    /// neighbor relation ("nodes whose zones abut its own").
    pub fn abuts(&self, other: &Zone) -> bool {
        self.abut_dim(other).is_some()
    }

    /// If the zones abut, the dimension along which they touch and the
    /// direction (`+1` if `other` is on the high side of `self`).
    pub fn abut_dim(&self, other: &Zone) -> Option<(usize, i8)> {
        debug_assert_eq!(self.dims(), other.dims());
        let (lo, hi) = self.lo_hi();
        let (olo, ohi) = other.lo_hi();
        let mut touch: Option<(usize, i8)> = None;
        for d in 0..lo.len() {
            let overlap = hi[d].min(ohi[d]) - lo[d].max(olo[d]);
            if overlap > 0.0 {
                continue; // positive overlap in this dim
            }
            if overlap < 0.0 {
                return None; // gap: cannot abut
            }
            // overlap == 0: they touch in this dim.
            if touch.is_some() {
                return None; // touching in 2+ dims is a corner, not a face
            }
            let dir = if hi[d] == olo[d] { 1 } else { -1 };
            touch = Some((d, dir));
        }
        touch
    }

    /// Minimum Euclidean distance from the zone to a point (0 if the
    /// point is inside). Used by greedy CAN routing.
    #[allow(clippy::needless_range_loop)] // d indexes three slices at once
    pub fn distance_to(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dims());
        let (lo, hi) = self.lo_hi();
        let mut sum = 0.0;
        for d in 0..lo.len() {
            let gap = if p[d] < lo[d] {
                lo[d] - p[d]
            } else if p[d] >= hi[d] {
                p[d] - hi[d]
            } else {
                0.0
            };
            sum += gap * gap;
        }
        sum.sqrt()
    }

    /// The zone's center point.
    pub fn center(&self) -> Point {
        (0..self.dims())
            .map(|d| 0.5 * (self.lo(d) + self.hi(d)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(lo: &[f64], hi: &[f64]) -> Zone {
        Zone::from_bounds(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn unit_zone_covers_unit_space() {
        let u = Zone::unit(3);
        assert!(u.contains(&[0.0, 0.0, 0.0]));
        assert!(u.contains(&[0.999, 0.5, 0.0]));
        assert!(!u.contains(&[1.0, 0.5, 0.5]));
        assert_eq!(u.volume(), 1.0);
    }

    #[test]
    fn split_partitions_volume() {
        let u = Zone::unit(2);
        let (a, b) = u.split(0, 0.3);
        assert!((a.volume() + b.volume() - 1.0).abs() < 1e-12);
        assert_eq!(a.hi(0), 0.3);
        assert_eq!(b.lo(0), 0.3);
        assert!(a.contains(&[0.29, 0.5]));
        assert!(!a.contains(&[0.3, 0.5]));
        assert!(b.contains(&[0.3, 0.5]));
    }

    #[test]
    #[should_panic(expected = "split point")]
    fn split_outside_bounds_panics() {
        Zone::unit(2).split(0, 1.5);
    }

    #[test]
    fn merge_inverts_split() {
        let u = Zone::unit(4);
        let (a, b) = u.split(2, 0.6);
        assert_eq!(a.merge(&b), Some(u.clone()));
        assert_eq!(b.merge(&a), Some(u));
    }

    #[test]
    fn merge_rejects_non_siblings() {
        let u = Zone::unit(2);
        let (a, b) = u.split(0, 0.5);
        let (a1, _a2) = a.split(1, 0.5);
        // a1 and b differ in two dims' bounds.
        assert_eq!(a1.merge(&b), None);
        // Non-touching zones.
        let c = z(&[0.0, 0.0], &[0.2, 1.0]);
        let d = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert_eq!(c.merge(&d), None);
    }

    #[test]
    fn face_neighbors_abut() {
        let a = z(&[0.0, 0.0], &[0.5, 1.0]);
        let b = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert!(a.abuts(&b));
        assert_eq!(a.abut_dim(&b), Some((0, 1)));
        assert_eq!(b.abut_dim(&a), Some((0, -1)));
    }

    #[test]
    fn partial_face_overlap_still_abuts() {
        let a = z(&[0.0, 0.0], &[0.5, 0.6]);
        let b = z(&[0.5, 0.4], &[1.0, 1.0]);
        assert!(a.abuts(&b)); // y-projections overlap on (0.4, 0.6)
    }

    #[test]
    fn corner_touching_is_not_abutting() {
        let a = z(&[0.0, 0.0], &[0.5, 0.5]);
        let b = z(&[0.5, 0.5], &[1.0, 1.0]);
        assert!(!a.abuts(&b)); // touch only at the corner point
    }

    #[test]
    fn edge_touching_zones_in_3d() {
        // Touch along x, overlap in y, only touch (measure 0) in z:
        // an edge contact, not a face — not neighbors.
        let a = z(&[0.0, 0.0, 0.0], &[0.5, 1.0, 0.5]);
        let b = z(&[0.5, 0.0, 0.5], &[1.0, 1.0, 1.0]);
        assert!(!a.abuts(&b));
    }

    #[test]
    fn disjoint_zones_do_not_abut() {
        let a = z(&[0.0, 0.0], &[0.3, 1.0]);
        let b = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert!(!a.abuts(&b));
    }

    #[test]
    fn overlapping_zones_do_not_abut() {
        let a = z(&[0.0, 0.0], &[0.6, 1.0]);
        let b = z(&[0.5, 0.0], &[1.0, 1.0]);
        assert!(!a.abuts(&b));
    }

    #[test]
    fn distance_to_point() {
        let a = z(&[0.0, 0.0], &[0.5, 0.5]);
        assert_eq!(a.distance_to(&[0.25, 0.25]), 0.0);
        assert!((a.distance_to(&[1.0, 0.25]) - 0.5).abs() < 1e-12);
        let d = a.distance_to(&[0.8, 0.9]);
        assert!((d - (0.3f64 * 0.3 + 0.4 * 0.4).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn center_is_midpoint() {
        let a = z(&[0.2, 0.4], &[0.4, 1.0]);
        let c = a.center();
        assert!((c[0] - 0.3).abs() < 1e-12);
        assert!((c[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_zone_rejected() {
        z(&[0.5, 0.0], &[0.5, 1.0]);
    }
}
