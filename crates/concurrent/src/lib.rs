//! Concurrent sketches: the paper's §5 parallelization of CountMin, the
//! structure the service serves, and the baselines they are compared
//! against.
//!
//! **Served structure.** [`sharded`] — [`ShardedPcm`]: one single-writer
//! sub-matrix per [`ShardLease`], summed at query time, with a touch log
//! per shard for delta snapshots. Its write path is [`batch`]: a
//! [`BatchScratch`] absorbs frames (and, kept across frames, is the
//! write buffer of Lemma 10) and one row-major sweep adds the coalesced
//! entries into the leased cells. `ivl-service`, `ivl-replica` and
//! `ivl-merge` build on this and on the lock-free objects below.
//!
//! **Reproduction objects and baselines** (the paper's constructions and
//! the alternatives it argues against; benches, proptests and the
//! experiment tables use them, and `ivl_lint`'s `baselines-boundary`
//! check keeps the serving crates from naming them):
//!
//! * [`pcm`] — `PCM(c̄)` ([`Pcm`]): the straightforward parallelization
//!   of Algorithm 1 with per-counter atomic increments. **IVL but not
//!   linearizable** (Lemma 7, Example 9); by Theorem 6 it inherits the
//!   sequential CountMin (ε,δ) bound in the `v_min`/`v_max` sense
//!   (Corollary 8).
//! * [`buffered`] — [`BufferedPcm`]: the batched-counter construction
//!   (Algorithm 2, Lemma 10) applied to CountMin — the same write
//!   buffer over `Pcm`'s `fetch_add`. Deferred visibility is bounded:
//!   the IVL envelope widens by at most `n·b`, and the serving layer
//!   reports exactly that widening.
//! * [`locked`] — linearizable baselines ([`MutexCountMin`],
//!   [`SnapshotCountMin`]): a global-mutex CountMin and a snapshot
//!   CountMin (queries exclude updates and read a quiescent matrix —
//!   the "take a snapshot of the matrix" cost the paper attributes to
//!   the framework of Rinberg et al. \[32\]).
//! * [`delegation`] — [`DelegatedCountMin`]: a buffered,
//!   delegation-style sketch in the spirit of Stylianopoulos et al.
//!   \[33\]: updates park in thread-local buffers and flush in batches.
//!   Fast, but an update can *complete* while still invisible **with no
//!   advertised bound**, so its histories violate even IVL's lower
//!   linearization — the workspace's concrete instance of "regular-like
//!   semantics do not imply IVL" (§3.4). [`buffered`] is the honest
//!   version of the same trick.
//! * [`inc_dec`] — the §3.4 non-monotone counterexample object
//!   (increment/decrement counter) with a per-slot "regular-like"
//!   implementation that violates IVL and a fetch-add implementation
//!   that is linearizable.
//!
//! **Lock-free objects**, served as they are: [`morris_conc`] /
//! [`hll_conc`] — concurrent Morris and HyperLogLog, monotone
//! quantitative objects (max-register cores) parallelized with
//! CAS/fetch-max, whose recorded histories are checked IVL with the
//! interval fast path — plus [`min_register`] and [`rank_conc`].
//! [`recorded`] is a recording wrapper producing
//! [`ivl_spec::History`] values from real concurrent runs, and all the
//! CountMin variants keep their cells in one padded [`arena`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod batch;
pub mod buffered;
pub mod delegation;
pub mod hll_conc;
pub mod inc_dec;
pub mod locked;
pub mod min_register;
pub mod morris_conc;
pub mod pcm;
pub mod rank_conc;
pub mod recorded;
pub mod sharded;

pub use arena::CellArena;
pub use batch::BatchScratch;
pub use buffered::BufferedPcm;
pub use delegation::DelegatedCountMin;
pub use hll_conc::ConcurrentHll;
pub use inc_dec::{LinearizableIncDec, RegularIncDec};
pub use locked::{MutexCountMin, SnapshotCountMin};
pub use min_register::ConcurrentMinRegister;
pub use morris_conc::ConcurrentMorris;
pub use pcm::Pcm;
pub use rank_conc::ConcurrentHistogram;
pub use recorded::RecordedSketch;
pub use sharded::{ShardLease, ShardedPcm};

/// A concurrent point-frequency sketch usable through per-thread
/// handles.
///
/// `query` takes `&self` and may run concurrently with updates;
/// implementations differ in what guarantee the returned estimate
/// carries (IVL for [`Pcm`], linearizability for the locked sketches,
/// bounded staleness only for [`DelegatedCountMin`]).
pub trait ConcurrentSketch: Send + Sync {
    /// The per-thread updater handle.
    type Handle<'a>: SketchHandle + Send
    where
        Self: 'a;

    /// Creates an updater handle for one thread.
    fn handle(&self) -> Self::Handle<'_>;

    /// Estimates the frequency of `item`.
    fn query(&self, item: u64) -> u64;
}

/// A per-thread updater for a [`ConcurrentSketch`].
pub trait SketchHandle {
    /// Processes one occurrence of `item`.
    fn update(&mut self, item: u64);

    /// Makes all buffered updates visible (no-op for unbuffered
    /// sketches). Called when a thread finishes its stream.
    fn flush(&mut self) {}
}
