//! Shared benchmark utilities: multi-threaded throughput drivers used
//! by the Criterion benches, and the scoped worker spawner the
//! `loadgen` scenario driver runs its connections on.
//!
//! Every driver funnels through [`timed_scope`]: build one closure per
//! worker, run them all inside a crossbeam scope, time the batch. The
//! specialized entry points below only differ in which closures they
//! build.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ivl_concurrent::{ConcurrentSketch, SketchHandle};
use ivl_counter::SharedBatchedCounter;
use ivl_sketch::stream::ZipfStream;
use std::time::{Duration, Instant};

/// A boxed worker for [`timed_scope`].
pub type Worker<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Runs every worker on its own scoped thread and returns the
/// wall-clock duration from first spawn to last join — the one spawn
/// loop shared by all batch drivers.
///
/// # Panics
///
/// Re-raises the first worker panic.
pub fn timed_scope(workers: Vec<Worker<'_>>) -> Duration {
    let start = Instant::now();
    crossbeam::scope(|s| {
        for w in workers {
            s.spawn(move |_| w());
        }
    })
    .unwrap();
    start.elapsed()
}

/// Runs `threads` updaters each performing `ops_per_thread` counter
/// updates; returns the wall-clock duration of the whole batch.
pub fn counter_update_batch<C: SharedBatchedCounter>(
    counter: &C,
    threads: usize,
    ops_per_thread: u64,
    value: u64,
) -> Duration {
    timed_scope(
        (0..threads)
            .map(|slot| -> Worker<'_> {
                Box::new(move || {
                    for _ in 0..ops_per_thread {
                        counter.update_slot(slot, value);
                    }
                })
            })
            .collect(),
    )
}

/// Like [`counter_update_batch`] with one extra thread issuing
/// `reads` reads concurrently; returns total duration.
pub fn counter_mixed_batch<C: SharedBatchedCounter>(
    counter: &C,
    threads: usize,
    ops_per_thread: u64,
    reads: u64,
) -> Duration {
    let mut workers: Vec<Worker<'_>> = (0..threads)
        .map(|slot| -> Worker<'_> {
            Box::new(move || {
                for _ in 0..ops_per_thread {
                    counter.update_slot(slot, 1);
                }
            })
        })
        .collect();
    workers.push(Box::new(move || {
        for _ in 0..reads {
            std::hint::black_box(counter.read());
        }
    }));
    timed_scope(workers)
}

/// One ingest worker: drives `ops` Zipf items through a sketch handle.
fn ingest_worker<S: ConcurrentSketch>(
    sketch: &S,
    ops: u64,
    alphabet: usize,
    seed: u64,
) -> Worker<'_> {
    let mut handle = sketch.handle();
    let mut stream = ZipfStream::new(alphabet, 1.1, seed);
    Box::new(move || {
        for _ in 0..ops {
            handle.update(stream.next_item());
        }
        handle.flush();
    })
}

/// Runs `threads` ingest threads pushing Zipf items into a concurrent
/// sketch; returns the wall-clock duration.
pub fn sketch_update_batch<S: ConcurrentSketch>(
    sketch: &S,
    threads: usize,
    ops_per_thread: u64,
    alphabet: usize,
    seed: u64,
) -> Duration {
    timed_scope(
        (0..threads)
            .map(|t| ingest_worker(sketch, ops_per_thread, alphabet, seed ^ (t as u64)))
            .collect(),
    )
}

/// Ingest plus a concurrent query thread issuing `queries` point
/// queries; returns total duration.
pub fn sketch_mixed_batch<S: ConcurrentSketch>(
    sketch: &S,
    threads: usize,
    ops_per_thread: u64,
    queries: u64,
    alphabet: usize,
    seed: u64,
) -> Duration {
    let mut workers: Vec<Worker<'_>> = (0..threads)
        .map(|t| ingest_worker(sketch, ops_per_thread, alphabet, seed ^ (t as u64)))
        .collect();
    let sketch = &sketch;
    let mut qstream = ZipfStream::new(alphabet, 1.1, seed ^ 0xabcdef);
    workers.push(Box::new(move || {
        for _ in 0..queries {
            std::hint::black_box(sketch.query(qstream.next_item()));
        }
    }));
    timed_scope(workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_counter::IvlBatchedCounter;

    #[test]
    fn timed_scope_runs_every_worker() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits = AtomicU64::new(0);
        let workers: Vec<Worker<'_>> = (0..5)
            .map(|_| -> Worker<'_> {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        timed_scope(workers);
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn batch_drivers_apply_all_updates() {
        let c = IvlBatchedCounter::new(4);
        counter_update_batch(&c, 4, 1_000, 2);
        assert_eq!(c.read(), 8_000);
        counter_mixed_batch(&c, 4, 1_000, 100);
        assert_eq!(c.read(), 12_000);
    }
}
