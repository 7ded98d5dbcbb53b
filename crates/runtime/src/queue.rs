//! The slab-backed event queue both event loops schedule on: the sim's one
//! global queue and each live node's [`SyncEngine`](crate::engine) queue.
//!
//! Entries are ordered by `(key, seq)` — the caller's key, then a sequence
//! number the queue assigns in push order, so equal keys pop first-in
//! first-out and every run pops in the same order. Payloads live in a slab
//! whose dispatched slots are recycled through a free list: storage is
//! bounded by the number of *live* (pushed, not yet popped) events instead
//! of every event ever pushed. The heap entry carries the slot index last;
//! `seq` is unique, so a recycled index never changes the pop order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(crate) struct EventQueue<K: Ord + Copy, E> {
    heap: BinaryHeap<Reverse<(K, u64, usize)>>,
    slab: Vec<Option<E>>,
    free: Vec<usize>,
    seq: u64,
}

impl<K: Ord + Copy, E> EventQueue<K, E> {
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), slab: Vec::new(), free: Vec::new(), seq: 0 }
    }

    pub fn push(&mut self, key: K, ev: E) {
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(ev);
                i
            }
            None => {
                self.slab.push(Some(ev));
                self.slab.len() - 1
            }
        };
        self.heap.push(Reverse((key, self.seq, idx)));
        self.seq += 1;
    }

    /// The smallest key, without popping it.
    pub fn peek(&self) -> Option<K> {
        self.heap.peek().map(|Reverse((k, ..))| *k)
    }

    /// Pop the smallest entry; its slab slot is free again on return.
    pub fn pop(&mut self) -> Option<(K, E)> {
        let Reverse((key, _, idx)) = self.heap.pop()?;
        let ev = self.slab[idx].take().expect("event payload");
        self.free.push(idx);
        Some((key, ev))
    }

    /// High-water mark of simultaneously live events: the slab's length.
    pub fn high_water(&self) -> u64 {
        self.slab.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_pop_in_push_order_and_slots_recycle() {
        let mut q = EventQueue::new();
        for (k, v) in [(5u64, 'a'), (1, 'b'), (5, 'c'), (1, 'd')] {
            q.push(k, v);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 'b'), (1, 'd'), (5, 'a'), (5, 'c')]);
        for round in 0..100u64 {
            q.push(round, 'x');
            q.push(round, 'y');
            assert_eq!(q.pop(), Some((round, 'x')));
            assert_eq!(q.pop(), Some((round, 'y')));
        }
        assert_eq!(q.high_water(), 4, "recycled slots must bound the slab");
    }
}
