//! Hash maps keyed by [`NodeId`] for the heartbeat delivery path.
//!
//! Node ids are dense small integers the simulator assigns itself, so
//! the keyed SipHash of `std`'s default hasher buys nothing here and
//! costs two to three hashes per delivered message. One multiply and
//! one shift spread sequential ids over both the bucket index (low
//! bits) and the control tag (top bits) hashbrown reads.
//!
//! Iteration order follows the hash, as it always has: every site that
//! iterates one of these maps sorts what it collects or folds it with
//! an order-free operation.

use pgrid_types::NodeId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map from node id, on the multiply-shift hasher.
pub(crate) type IdMap<V> = HashMap<NodeId, V, BuildHasherDefault<IdHasher>>;

/// A set of node ids, on the multiply-shift hasher.
pub(crate) type IdSet = HashSet<NodeId, BuildHasherDefault<IdHasher>>;

/// Multiply-shift hashing of one `u32` (Fibonacci constant).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("NodeId hashes as one u32");
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_spread_over_buckets_and_tags() {
        let mut buckets = HashSet::new();
        let mut tags = HashSet::new();
        for id in 0..1024u32 {
            let mut h = IdHasher::default();
            std::hash::Hash::hash(&NodeId(id), &mut h);
            buckets.insert(h.finish() & 1023);
            tags.insert(h.finish() >> 57);
        }
        assert!(buckets.len() > 600, "{} of 1024 buckets", buckets.len());
        assert_eq!(tags.len(), 128, "every 7-bit control tag is drawn");
    }
}
