//! Probes of the event queues: the classic hold model.
//!
//! A queue is filled to a fixed pending-set size; one *hold* pops the
//! earliest event and schedules a new one a random increment later, so
//! the size never changes. Time per hold at the size a workload's loop
//! really runs at is what an event-queue change could save per event.

use crate::sim::Outcome;
use pgrid::simcore::shard::ShardedQueue;
use pgrid::simcore::{EventQueue, SimRng};
use std::time::Instant;

/// Holds timed per queue.
const HOLD_OPS: usize = 200_000;

#[derive(Debug, PartialEq)]
pub struct Hold {
    pub ops: usize,
    pub seconds: f64,
    /// Pending events when the holds ended; equals the size asked for.
    pub pending_after: usize,
    /// Every pop was at or after the one before it.
    pub monotone: bool,
}

/// Times `ops` holds on a queue of `pending` events. `pop` returns the
/// firing time of the earliest event and `push` schedules one; all
/// random draws are made before the clock starts.
fn hold<Q>(
    queue: &mut Q,
    pending: usize,
    ops: usize,
    seed: u64,
    mut push: impl FnMut(&mut Q, usize, f64),
    mut pop: impl FnMut(&mut Q) -> f64,
    len: impl Fn(&Q) -> usize,
) -> Hold {
    let mut rng = SimRng::sub_stream(seed, 0x401D);
    for i in 0..pending {
        push(queue, i, rng.exponential(1.0));
    }
    let increments: Vec<f64> = (0..ops).map(|_| rng.exponential(1.0)).collect();
    let mut monotone = true;
    let mut last = 0.0f64;
    let t0 = Instant::now();
    for (i, inc) in increments.iter().enumerate() {
        let now = pop(queue);
        monotone &= now >= last;
        last = now;
        push(queue, i, now + inc);
    }
    let seconds = t0.elapsed().as_secs_f64();
    Hold {
        ops,
        seconds,
        pending_after: len(queue),
        monotone,
    }
}

pub fn hold_event_queue(pending: usize, ops: usize, seed: u64) -> Hold {
    hold(
        &mut EventQueue::<u32>::new(),
        pending,
        ops,
        seed,
        |q, i, t| q.schedule(t, i as u32),
        |q| q.pop().expect("the hold model never drains").0,
        EventQueue::len,
    )
}

/// The same holds on a [`ShardedQueue`], events dealt round-robin over
/// `lanes` lanes, so every pop pays the K-way merge.
pub fn hold_sharded_queue(pending: usize, lanes: usize, ops: usize, seed: u64) -> Hold {
    hold(
        &mut ShardedQueue::<u32>::new(lanes),
        pending,
        ops,
        seed,
        |q, i, t| q.schedule(i % lanes, t, i as u32),
        |q| q.pop().expect("the hold model never drains").0,
        ShardedQueue::len,
    )
}

/// Runs both hold probes at `pending` events and records time per hold.
pub fn hold_model(pending: usize, lanes: usize, seed: u64, out: &mut Outcome) {
    let plain = hold_event_queue(pending, HOLD_OPS, seed);
    let sharded = hold_sharded_queue(pending, lanes, HOLD_OPS, seed);
    out.add("simcore.event.hold.ops", plain.ops as f64);
    out.add("simcore.event.hold.s", plain.seconds);
    out.add("simcore.shard.queue_hold.ops", sharded.ops as f64);
    out.add("simcore.shard.queue_hold.s", sharded.seconds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_keep_the_pending_set_and_pop_in_time_order() {
        for hold in [
            hold_event_queue(500, 4_000, 7),
            hold_sharded_queue(500, 3, 4_000, 7),
        ] {
            assert_eq!(hold.ops, 4_000);
            assert_eq!(hold.pending_after, 500);
            assert!(hold.monotone);
            assert!(hold.seconds > 0.0);
        }
    }
}
