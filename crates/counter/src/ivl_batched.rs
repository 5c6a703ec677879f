//! Algorithm 2 on real threads: the wait-free IVL batched counter.
//!
//! Each slot is one cache-padded atomic; `update_slot` performs a
//! single store of the slot's new cumulative sum (the owner is the
//! only writer, so it may read its own slot without synchronization
//! concerns), and `read` sums the slots in index order. No
//! compare-and-swap, no contention between updaters — the same
//! structure the paper recommends for distributed/NUMA counters
//! (§6.1).
//!
//! Not linearizable: a read overlapping updates on slots it has
//! already passed misses them while seeing later ones (Figure 2). IVL
//! (Lemma 10): each slot read returns a value the slot held at some
//! instant inside the read, slots are monotone, so the sum is bounded
//! by the counter's value at the read's start and end.

use crate::SharedBatchedCounter;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The IVL batched counter (paper Algorithm 2).
#[derive(Debug)]
pub struct IvlBatchedCounter {
    slots: Vec<CachePadded<AtomicU64>>,
    handles_taken: AtomicBool,
}

impl IvlBatchedCounter {
    /// Creates a counter with `n` single-writer slots.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one slot");
        IvlBatchedCounter {
            slots: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            handles_taken: AtomicBool::new(false),
        }
    }

    /// The current value of one slot (the owner's cumulative updates).
    pub fn slot_value(&self, slot: usize) -> u64 {
        self.slots[slot].load(Ordering::Acquire)
    }

    /// Takes one [`UpdaterHandle`] per slot — the type-safe way to
    /// distribute the single-writer slots across threads (each handle
    /// owns its slot, so two writers on one slot cannot be expressed).
    /// The handle keeps the slot's running sum locally and issues a
    /// single store per update, like the pseudocode's `v[i] ← v[i]+v`.
    ///
    /// # Panics
    ///
    /// Panics if called twice: a second set of handles would alias
    /// the writers.
    pub fn handles(&self) -> Vec<UpdaterHandle<'_>> {
        assert!(
            !self.handles_taken.swap(true, Ordering::AcqRel),
            "handles() may only be called once"
        );
        self.slots
            .iter()
            .map(|slot| UpdaterHandle {
                slot,
                local: slot.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// An owning single-writer updater for one slot of an
/// [`IvlBatchedCounter`].
#[derive(Debug)]
pub struct UpdaterHandle<'a> {
    slot: &'a CachePadded<AtomicU64>,
    /// Local mirror of the slot (this handle is the only writer).
    local: u64,
}

impl UpdaterHandle<'_> {
    /// `v[i] ← v[i] + v`: one store.
    pub fn update(&mut self, v: u64) {
        self.local += v;
        self.slot.store(self.local, Ordering::Release);
    }

    /// The slot's current value (== everything this handle wrote).
    pub fn local_total(&self) -> u64 {
        self.local
    }
}

impl SharedBatchedCounter for IvlBatchedCounter {
    fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// `v[i] ← v[i] + v`, saturating at `u64::MAX`: one load of the own
    /// slot (no other writer exists) and one store. O(1), wait-free.
    fn update_slot(&self, slot: usize, v: u64) {
        let cell = &self.slots[slot];
        let current = cell.load(Ordering::Relaxed);
        cell.store(current.saturating_add(v), Ordering::Release);
    }

    /// Sums the slots in index order. O(n), wait-free. The result is
    /// an *intermediate value*: at least the counter's value when the
    /// read started, at most its value (including pending updates)
    /// when it returns.
    fn read(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .fold(0, u64::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_spec::ivl::check_ivl_monotone;
    use ivl_spec::specs::BatchedCounterSpec;

    #[test]
    fn sequential_sum() {
        let c = IvlBatchedCounter::new(3);
        c.update_slot(0, 5);
        c.update_slot(1, 7);
        c.update_slot(0, 1);
        assert_eq!(c.read(), 13);
        assert_eq!(c.slot_value(0), 6);
    }

    #[test]
    fn concurrent_total_is_exact_after_quiescence() {
        let n = 8;
        let c = IvlBatchedCounter::new(n);
        crossbeam::scope(|s| {
            for slot in 0..n {
                let c = &c;
                s.spawn(move |_| {
                    for k in 0..10_000u64 {
                        c.update_slot(slot, k % 3);
                    }
                });
            }
        })
        .unwrap();
        let expected: u64 = (0..10_000u64).map(|k| k % 3).sum::<u64>() * n as u64;
        assert_eq!(c.read(), expected);
    }

    #[test]
    fn concurrent_reads_are_monotone_and_bounded() {
        // A reader polling concurrently with updaters must see a
        // non-decreasing sequence bounded by the final total
        // (each slot is monotone, and summation order is fixed).
        let n = 4;
        let c = IvlBatchedCounter::new(n);
        let per_thread = 20_000u64;
        crossbeam::scope(|s| {
            for slot in 0..n {
                let c = &c;
                s.spawn(move |_| {
                    for _ in 0..per_thread {
                        c.update_slot(slot, 1);
                    }
                });
            }
            let c = &c;
            s.spawn(move |_| {
                let mut last = 0;
                loop {
                    let v = c.read();
                    assert!(v >= last, "read went backwards: {v} < {last}");
                    last = v;
                    if v == per_thread * n as u64 {
                        break;
                    }
                    std::hint::spin_loop();
                }
            });
        })
        .unwrap();
        assert_eq!(c.read(), per_thread * n as u64);
    }

    #[test]
    fn handles_distribute_slots_safely() {
        let c = IvlBatchedCounter::new(4);
        let handles = c.handles();
        assert_eq!(handles.len(), 4);
        crossbeam::scope(|s| {
            for mut h in handles {
                s.spawn(move |_| {
                    for _ in 0..10_000 {
                        h.update(2);
                    }
                    assert_eq!(h.local_total(), 20_000);
                });
            }
        })
        .unwrap();
        assert_eq!(c.read(), 80_000);
    }

    #[test]
    #[should_panic(expected = "only be called once")]
    fn second_handles_call_rejected() {
        let c = IvlBatchedCounter::new(2);
        let _a = c.handles();
        let _b = c.handles();
    }

    #[test]
    fn recorded_histories_are_ivl() {
        use crate::RecordedCounter;
        for round in 0..5 {
            let c = RecordedCounter::new(IvlBatchedCounter::new(4));
            crossbeam::scope(|s| {
                for slot in 0..3 {
                    let c = &c;
                    s.spawn(move |_| {
                        for _ in 0..200 {
                            c.update(slot, slot as u64 + 1);
                        }
                    });
                }
                let c = &c;
                s.spawn(move |_| {
                    for _ in 0..100 {
                        c.read_from(3);
                    }
                });
            })
            .unwrap();
            let h = c.finish();
            assert!(
                check_ivl_monotone(&BatchedCounterSpec, &h).is_ivl(),
                "round {round}: recorded history violates IVL"
            );
        }
    }
}
