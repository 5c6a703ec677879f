//! A concurrent min register — toward the paper's future-work
//! priority queues.
//!
//! The conclusion of the paper asks how IVL extends to priority queues,
//! whose returns are "semi-quantitative" (a quantitative priority plus
//! a non-quantitative item). The purely quantitative core of
//! `peek-min` is a **min register**: `insert(k)` lowers the stored
//! minimum, `min()` reads it. It is a commutative, uniformly *antitone*
//! object, so the generalized interval checker
//! ([`ivl_spec::check_ivl_monotone`], which sorts the two extremal
//! endpoints) applies: a concurrent `min()` may return any value
//! between the minimum over *all inserts not after it* and the minimum
//! over *exactly the inserts preceding it*.
//!
//! The lock-free implementation is a single `fetch_min`.

use std::sync::atomic::{AtomicU64, Ordering};

/// A shared min register (`u64::MAX` when empty).
///
/// # Examples
///
/// ```
/// use ivl_concurrent::ConcurrentMinRegister;
///
/// let r = ConcurrentMinRegister::new();
/// crossbeam::scope(|s| {
///     s.spawn(|_| r.insert(40));
///     s.spawn(|_| r.insert(7));
/// })
/// .unwrap();
/// assert_eq!(r.min(), 7);
/// ```
///
/// The register keeps no update epoch beside its value: the minimum is
/// the whole state, so a served object uses it as its own epoch. A
/// counter bumped after the `fetch_min` could lag a lowering whose
/// insert was already acknowledged.
#[derive(Debug)]
pub struct ConcurrentMinRegister {
    value: AtomicU64,
}

impl Default for ConcurrentMinRegister {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentMinRegister {
    /// Creates an empty register.
    pub fn new() -> Self {
        ConcurrentMinRegister {
            value: AtomicU64::new(u64::MAX),
        }
    }

    /// Lowers the stored minimum to at most `key`. Wait-free, one
    /// atomic `fetch_min`.
    pub fn insert(&self, key: u64) {
        self.value.fetch_min(key, Ordering::AcqRel);
    }

    /// The least key inserted so far (`u64::MAX` when none).
    pub fn min(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_spec::history::{ObjectId, ProcessId};
    use ivl_spec::ivl::check_ivl_monotone;
    use ivl_spec::record::Recorder;
    use ivl_spec::specs::MinRegisterSpec;

    #[test]
    fn sequential_minimum() {
        let r = ConcurrentMinRegister::new();
        assert_eq!(r.min(), u64::MAX);
        r.insert(9);
        r.insert(4);
        r.insert(7);
        assert_eq!(r.min(), 4);
    }

    #[test]
    fn concurrent_minimum_is_exact_at_quiescence() {
        let r = ConcurrentMinRegister::new();
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move |_| {
                    for k in 0..10_000u64 {
                        r.insert(1_000_000 - (t * 10_000 + k));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(r.min(), 1_000_000 - 39_999);
    }

    #[test]
    fn reads_are_antitone_over_time() {
        let r = ConcurrentMinRegister::new();
        crossbeam::scope(|s| {
            let r = &r;
            let w = s.spawn(move |_| {
                for k in (0..100_000u64).rev() {
                    r.insert(k);
                }
            });
            s.spawn(move |_| {
                let mut last = u64::MAX;
                for _ in 0..50_000 {
                    let v = r.min();
                    assert!(v <= last, "minimum increased: {v} > {last}");
                    last = v;
                }
            });
            w.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn recorded_histories_are_ivl_antitone() {
        // The generalized (endpoint-sorting) interval checker accepts
        // concurrent min-register histories — the antitone mirror of
        // Lemma 10.
        for round in 0..5 {
            let r = ConcurrentMinRegister::new();
            let rec = Recorder::<u64, (), u64>::new();
            crossbeam::scope(|s| {
                for t in 0..3u32 {
                    let r = &r;
                    let rec = &rec;
                    s.spawn(move |_| {
                        for k in 0..300u64 {
                            let key = (t as u64 * 37 + k * 13) % 10_000;
                            let id = rec.invoke_update(ProcessId(t), ObjectId(0), key);
                            r.insert(key);
                            rec.respond_update(id);
                        }
                    });
                }
                let r = &r;
                let rec = &rec;
                s.spawn(move |_| {
                    for _ in 0..200 {
                        let id = rec.invoke_query(ProcessId(9), ObjectId(0), ());
                        let v = r.min();
                        rec.respond_query(id, v);
                    }
                });
            })
            .unwrap();
            let h = rec.finish();
            assert!(
                check_ivl_monotone(&MinRegisterSpec, &h).is_ivl(),
                "round {round}: concurrent min register violated IVL"
            );
        }
    }
}
