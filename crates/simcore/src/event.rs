//! Time-ordered event queue with deterministic tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time, in seconds since simulation start.
pub type SimTime = f64;

/// One scheduled entry: fires at `time`; `seq` breaks ties FIFO.
pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event,
        // and among equal times the smallest sequence number (FIFO).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue.
///
/// ```
/// use pgrid_simcore::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(5.0, "later");
/// q.schedule(1.0, "sooner");
/// assert_eq!(q.pop(), Some((1.0, "sooner")));
/// assert_eq!(q.now(), 1.0);
/// ```
///
/// Events fire in non-decreasing time order; events scheduled for the
/// same instant fire in the order they were scheduled. The queue tracks
/// the current simulation time ([`EventQueue::now`]), which advances
/// monotonically as events are popped.
///
/// # Panics
///
/// Scheduling an event with a non-finite time, or earlier than the
/// current time, panics: such bugs must not silently reorder a
/// simulation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
            popped: 0,
        }
    }

    /// Current simulation time: the firing time of the most recently
    /// popped event (0 before any event fires).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events fired so far.
    #[inline]
    pub fn fired(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        assert!(
            time >= self.now,
            "cannot schedule into the past: t={time} < now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Firing time of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the next event, advancing the simulation clock to its
    /// firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        self.popped += 1;
        Some((e.time, e.event))
    }

    /// Drops all pending events (the clock is unchanged).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(2.5, ());
        q.schedule(7.0, ());
        q.pop();
        assert_eq!(q.now(), 2.5);
        q.pop();
        assert_eq!(q.now(), 7.0);
        assert_eq!(q.fired(), 2);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10.0, ());
        q.pop();
        q.schedule(5.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn scheduling_nan_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(4.0, 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(2.0, 2);
        q.schedule(3.0, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }
}
