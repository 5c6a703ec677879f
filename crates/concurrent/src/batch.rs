//! The CountMin write path: a per-writer scratch that coalesces pending
//! `(key, weight)` updates and memoizes their row-major columns, and the
//! one row-major sweep that adds them into cells.
//!
//! A wire batch (`BATCH2`) arrives as `(key, weight)` pairs. Absorbing
//! it into the scratch coalesces duplicate keys (one table probe per
//! item) and hashes each *distinct* key once — one mod-p reduction plus
//! one per-row hash per deduplicated key (the split
//! [`PairwiseHash::hash_row_batch`] makes, inlined so columns land
//! straight in the matrix) instead of that work per occurrence. The
//! memoized columns land **row-major** (`cols[row * stride + e]`), so
//! the sweep walks one sketch row at a time: all of row 0's cell
//! touches, then row 1's, which keeps each row's [`CellArena`] lines
//! hot instead of cycling through `depth` distant lines per item. Its
//! callers differ only in the cell add: the leased shard's
//! single-writer store ([`ShardLease::sweep`]) and `Pcm`'s `fetch_add`
//! (`Pcm::update_batch` and `BufferedPcm`'s flush).
//!
//! The coalescing table is open-addressed with linear probing over
//! `u32` entry indices, twice the scratch's capacity in slots: 32 KiB
//! at a 4096-item frame, which stays in L1. A probe confirms a key
//! against the entry's own `keys[e]`, and a key's home slot is one
//! Fibonacci multiply. Both were measured, not argued: inline
//! `(u64, u32)` slots (128 KiB, no dependent load) and the SplitMix
//! finalizer as the slot hash were each slower on full frames
//! (EXPERIMENTS E24, DESIGN §13.2).
//!
//! The scratch is also the write buffer — the batched counter of
//! Algorithm 2 with batch bound `b` ([`buffer`](BatchScratch::buffer)).
//! Entries stay live across frames until the pending weight reaches
//! `b`; `b = 0` sweeps after every frame, which is the strict path.
//!
//! Correctness is unchanged from the per-item path: cell adds commute,
//! so adding a key's coalesced weight once per row equals adding its
//! occurrences one at a time; the proptests in
//! `crates/concurrent/tests/batch_props.rs` pin cell-identical state
//! against the sequential `CountMin`. A concurrent query may observe any
//! prefix of the row-major sweep, which is exactly the intermediate-value
//! freedom IVL already grants the per-item loop (Lemma 7's argument does
//! not count how many updates a writer applies between two cell reads).
//! What a sweep defers is bounded by `b` per writer, which the serving
//! layer's advertised `lag = shards·b` accounts for (DESIGN §9, §13).
//!
//! [`ShardLease::sweep`]: crate::ShardLease::sweep

use crate::arena::CellArena;
use ivl_sketch::hash::{FastMod, PairwiseHash};
use std::sync::atomic::{AtomicU64, Ordering};

/// How many entries ahead of the write cursor the sweep warms: one
/// relaxed load of the upcoming cell pulls its cache line while the
/// current add retires. Far enough to cover a memory round-trip at a
/// few cells per line, near enough that the line is still resident when
/// the cursor arrives (16 measured best across a 1–16 sweep on the dev
/// box; the win appears once the hot cell set outgrows L1, and the load
/// costs ~2 ns/cell when it doesn't).
const PREFETCH_DIST: usize = 16;

/// Free-slot marker in the coalescing table (a scratch holds at most
/// its capacity ≪ `u32::MAX` distinct keys).
const EMPTY: u32 = u32::MAX;

/// A key's home slot in a table of `2^(64 − shift)` slots: Fibonacci
/// hashing, one multiply by `2^64/φ` keeping the top bits. Only
/// placement in the *local* table depends on it, never sketch
/// contents, so it needs no drawn randomness.
#[inline]
fn home(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Reusable write scratch: a coalescing table over pending updates plus
/// the row-major column matrix for their distinct keys.
///
/// One `BatchScratch` lives per writer (per connection thread or per
/// reactor) and is reused frame after frame; all growth happens on the
/// first frame larger than any seen before, and only while the scratch
/// is empty, so the steady state is allocation-free. None of this state
/// is shared — the scratch is plain memory owned by its writer; only the
/// sweep's cell adds touch atomics.
/// Every per-entry array is pre-sized to `cap` and written by index
/// under one local cursor (`len`), not `Vec::push` — in the hot loop a
/// push's length/capacity bookkeeping lives in the struct that `&mut
/// self` points to, so the compiler must assume every heap store may
/// alias it and reload lengths and data pointers after each write.
/// Disjoint `&mut` slices borrowed once per frame carry a no-alias
/// guarantee, which keeps the probe loop in registers.
#[derive(Debug)]
pub struct BatchScratch {
    depth: usize,
    /// Most distinct keys the scratch holds without regrowing.
    cap: usize,
    /// Live distinct keys (`entries` below).
    len: usize,
    /// Open-addressed key → entry table of `u32` entry indices, a probe
    /// confirming its key against `keys[e]`; [`EMPTY`] marks a free
    /// slot. Twice `cap` slots of 4 bytes: 32 KiB at a 4096-item frame,
    /// which fits L1.
    slots: Vec<u32>,
    mask: usize,
    /// `64 − log2(slots.len())`, the [`home`] shift.
    shift: u32,
    /// Distinct keys in first-seen order (first `len` live).
    keys: Vec<u64>,
    /// Coalesced weight per distinct key (first `len` live).
    counts: Vec<u64>,
    /// Table slot each entry landed in — the slots to clear on reset
    /// (exactly one per entry, so no separate dirty list is needed).
    slot_of: Vec<u32>,
    /// Row-major memoized columns: entry `e`'s column in `row` lives
    /// at `cols[row * cap + e]`.
    cols: Vec<u32>,
    /// Per-row strength-reduced `% w` magics, rebuilt (without
    /// allocating — capacity is reserved for `depth` rows) whenever
    /// the hash family changes.
    divs: Vec<FastMod>,
    /// Weight absorbed since the last clear, a weight-0 item counting
    /// 1 (so degenerate streams still reach the bound).
    pending: u64,
}

impl BatchScratch {
    /// Creates a scratch for a depth-`depth` sketch, pre-sized for
    /// frames of up to `max_items` pairs (larger frames regrow once).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0.
    pub fn with_capacity(depth: usize, max_items: usize) -> Self {
        assert!(depth > 0, "need at least one row");
        let mut scratch = BatchScratch {
            depth,
            cap: 0,
            len: 0,
            slots: Vec::new(),
            mask: 0,
            shift: 0,
            keys: Vec::new(),
            counts: Vec::new(),
            slot_of: Vec::new(),
            cols: Vec::new(),
            divs: Vec::with_capacity(depth),
            pending: 0,
        };
        scratch.grow(max_items.max(1));
        scratch
    }

    /// Creates a scratch pre-sized for modest frames (64 pairs).
    pub fn new(depth: usize) -> Self {
        Self::with_capacity(depth, 64)
    }

    /// Resizes every component for `max_items` distinct keys.
    fn grow(&mut self, max_items: usize) {
        self.cap = max_items.next_power_of_two();
        let slots = self.cap * 2;
        self.slots = vec![EMPTY; slots];
        self.mask = slots - 1;
        self.shift = 64 - slots.trailing_zeros();
        self.keys = vec![0; self.cap];
        self.counts = vec![0; self.cap];
        self.slot_of = vec![0; self.cap];
        self.cols = vec![0; self.cap * self.depth];
    }

    /// Keeps the per-row `% w` magics in sync with the hash family.
    /// Steady state is one equality sweep; a rebuild reuses the
    /// reserved capacity, so no allocation either way.
    fn sync_divs(&mut self, hashes: &[PairwiseHash]) {
        let stale = self.divs.len() != hashes.len()
            || self
                .divs
                .iter()
                .zip(hashes)
                .any(|(d, h)| d.divisor() != h.range());
        if stale {
            self.divs.clear();
            self.divs
                .extend(hashes.iter().map(|h| FastMod::new(h.range())));
        }
    }

    /// Empties the scratch (resetting only the dirtied table slots) and
    /// returns the pending weight it held.
    pub fn clear(&mut self) -> u64 {
        for &i in &self.slot_of[..self.len] {
            self.slots[i as usize] = EMPTY;
        }
        self.len = 0;
        std::mem::take(&mut self.pending)
    }

    /// Folds `items` into the live entries: one table probe per pair,
    /// and a key is hashed at the probe that first sees it, so one pass
    /// fills both the entries and the column matrix (repeats fold their
    /// weight in without re-hashing). Returns the number of distinct
    /// keys now live.
    ///
    /// # Panics
    ///
    /// Panics if the frame might not fit while entries are live: the
    /// scratch regrows only when empty, so a writer sweeps first (as
    /// [`buffer`](Self::buffer) does).
    pub fn absorb(&mut self, hashes: &[PairwiseHash], items: &[(u64, u64)]) -> usize {
        debug_assert_eq!(hashes.len(), self.depth, "scratch depth mismatch");
        self.sync_divs(hashes);
        if self.len + items.len() > self.cap {
            assert_eq!(
                self.len, 0,
                "regrowing would drop live entries; sweep first"
            );
            self.grow(items.len());
        }
        let (cap, mask, shift) = (self.cap, self.mask, self.shift);
        let slots = &mut self.slots[..];
        let keys = &mut self.keys[..cap];
        let counts = &mut self.counts[..];
        let slot_of = &mut self.slot_of[..];
        let cols = &mut self.cols[..];
        let divs = &self.divs[..];
        let mut len = self.len;
        let mut pending = self.pending;
        for &(key, weight) in items {
            let mut i = home(key, shift);
            let e = loop {
                let e = slots[i];
                // One merged exit test (`|`, not `||`): "stop here" is
                // taken on nearly every first probe, so the only branch
                // in the loop predicts well. A free slot reads the
                // (live or stale, never out-of-range) key `cap − 1`
                // instead of branching around the compare; the stop is
                // still fresh, and whether it was a free slot or a
                // duplicate is resolved *below* by selects, not by a
                // second (data-random) branch.
                if (e == EMPTY) | (keys[e as usize & (cap - 1)] == key) {
                    break e;
                }
                i = (i + 1) & mask;
            };
            let fresh = e == EMPTY;
            let idx = if fresh { len } else { e as usize };
            // Unconditional writes: on a duplicate these rewrite the
            // entry's own key/slot with identical values, which lets
            // the compiler lower the fresh/dup split to conditional
            // moves instead of a 30-70 random branch.
            slots[i] = idx as u32;
            keys[idx] = key;
            slot_of[idx] = i as u32;
            counts[idx] = if fresh {
                weight
            } else {
                counts[idx].saturating_add(weight)
            };
            pending = pending.saturating_add(weight.max(1));
            // Only the hashing itself stays behind a branch — it is
            // heavy enough (one reduction + `depth` row hashes) that a
            // mispredict is noise next to doing it redundantly.
            if fresh {
                let xr = PairwiseHash::reduce(key);
                for (row, (h, d)) in hashes.iter().zip(divs).enumerate() {
                    cols[row * cap + len] = h.hash_reduced_fast(xr, d) as u32;
                }
            }
            len += fresh as usize;
        }
        self.len = len;
        self.pending = pending;
        len
    }

    /// [`clear`](Self::clear), then [`absorb`](Self::absorb) one frame.
    /// Returns the number of distinct keys.
    pub fn prepare(&mut self, hashes: &[PairwiseHash], items: &[(u64, u64)]) -> usize {
        self.clear();
        self.absorb(hashes, items)
    }

    /// Absorbs one frame as a write buffer of batch bound `b`
    /// (Algorithm 2, Lemma 10): `sweep` — which must add the live
    /// entries into the shared cells and [`clear`](Self::clear) the
    /// scratch — runs before the frame if it might not fit (so the
    /// scratch never regrows under live entries), and after it once the
    /// pending weight reaches `max(b, 1)`. On return the scratch holds
    /// less than `max(b, 1)` pending weight; `b = 0` sweeps every
    /// non-empty frame.
    pub fn buffer(
        &mut self,
        hashes: &[PairwiseHash],
        items: &[(u64, u64)],
        b: u64,
        mut sweep: impl FnMut(&mut Self),
    ) {
        if !self.is_empty() && self.len + items.len() > self.cap {
            sweep(self);
        }
        self.absorb(hashes, items);
        if self.pending >= b.max(1) {
            sweep(self);
        }
    }

    /// The one loop that adds coalesced entries into cells: row-major,
    /// `add(cell, weight)` once per live entry per row, with the cell
    /// [`PREFETCH_DIST`] entries ahead of the cursor warmed by a
    /// discarded relaxed load (split off the tail, so the hot loop
    /// carries no bounds branch), then `row_done(row, cols)` with the
    /// row's columns. Leaves the entries live.
    #[inline]
    pub(crate) fn sweep(
        &self,
        arena: &CellArena,
        add: impl Fn(&AtomicU64, u64),
        mut row_done: impl FnMut(usize, &[u32]),
    ) {
        let n = self.len;
        let counts = &self.counts[..n];
        let warm = n.saturating_sub(PREFETCH_DIST);
        for row in 0..self.depth {
            let cells = arena.row_cells(row);
            let cols = self.row_cols(row);
            for e in 0..warm {
                let _ = cells
                    .cell(cols[e + PREFETCH_DIST] as usize)
                    .load(Ordering::Relaxed);
                add(cells.cell(cols[e] as usize), counts[e]);
            }
            for e in warm..n {
                add(cells.cell(cols[e] as usize), counts[e]);
            }
            row_done(row, cols);
        }
    }

    /// Number of live distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Weight absorbed since the last clear, each weight-0 item
    /// counting 1 — the unflushed weight Lemma 10 bounds.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// `row`'s memoized columns, entry-indexed.
    pub fn row_cols(&self, row: usize) -> &[u32] {
        &self.cols[row * self.cap..row * self.cap + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_sketch::CoinFlips;
    use std::collections::HashMap;

    fn hashes(depth: usize, w: u64) -> Vec<PairwiseHash> {
        let mut coins = CoinFlips::from_seed(11);
        (0..depth)
            .map(|_| PairwiseHash::draw(&mut coins, w))
            .collect()
    }

    /// The live `(key, weight)` entries in first-seen order.
    fn entries(s: &BatchScratch) -> Vec<(u64, u64)> {
        (0..s.len).map(|e| (s.keys[e], s.counts[e])).collect()
    }

    #[test]
    fn coalesce_sums_duplicate_keys_in_first_seen_order() {
        let hs = hashes(3, 32);
        let mut s = BatchScratch::new(3);
        assert_eq!(
            s.prepare(&hs, &[(7, 1), (9, 2), (7, 3), (11, 1), (9, 1)]),
            3
        );
        assert_eq!(entries(&s), [(7, 4), (9, 3), (11, 1)]);
    }

    #[test]
    fn two_absorbs_equal_one_prepare_of_the_concatenated_frames() {
        let hs = hashes(4, 64);
        let (a, b) = ([(1u64, 2u64), (5, 1), (1, 1)], [(5, 3), (8, 0), (1, 4)]);
        let mut two = BatchScratch::new(4);
        two.absorb(&hs, &a);
        assert_eq!(two.absorb(&hs, &b), 3);
        let mut one = BatchScratch::new(4);
        one.prepare(&hs, &[a, b].concat());
        assert_eq!(entries(&two), entries(&one));
        assert_eq!(two.pending(), one.pending());
        for row in 0..4 {
            assert_eq!(two.row_cols(row), one.row_cols(row));
        }
    }

    #[test]
    fn reuse_across_frames_leaves_no_residue() {
        let hs = hashes(2, 32);
        let mut s = BatchScratch::new(2);
        s.prepare(&hs, &[(1, 1), (2, 2), (1, 1)]);
        assert_eq!(s.clear(), 4, "clear hands back the pending weight");
        assert!(s.is_empty());
        assert_eq!(s.pending(), 0);
        assert!(s.slots.iter().all(|&e| e == EMPTY), "a slot stayed dirty");
        // Keys seen before the clear start fresh entries.
        s.absorb(&hs, &[(2, 5)]);
        assert_eq!(entries(&s), [(2, 5)]);
        s.prepare(&hs, &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn pending_counts_a_weight_zero_item_as_one() {
        let hs = hashes(2, 32);
        let mut s = BatchScratch::new(2);
        s.absorb(&hs, &[(3, 0), (3, 0), (4, 5)]);
        assert_eq!(s.pending(), 7);
        assert_eq!(entries(&s), [(3, 0), (4, 5)]);
    }

    #[test]
    fn buffer_sweeps_at_the_bound_and_before_a_frame_that_might_not_fit() {
        let hs = hashes(2, 32);
        let mut s = BatchScratch::with_capacity(2, 4);
        let swept = std::cell::RefCell::new(Vec::new());
        let sweep = |s: &mut BatchScratch| swept.borrow_mut().push(s.clear());
        s.buffer(&hs, &[(1, 1), (2, 1), (1, 1)], 5, sweep);
        assert_eq!(s.pending(), 3, "under the bound: still buffered");
        // Two live entries + three items > capacity 4: sweep first.
        s.buffer(&hs, &[(3, 0), (4, 0), (5, 0)], 5, sweep);
        s.buffer(&hs, &[(3, 2)], 5, sweep);
        assert_eq!(*swept.borrow(), [3, 5], "room, then bound");
        assert!(s.is_empty());
        // b = 0 sweeps every non-empty frame, and only those.
        s.buffer(&hs, &[(9, 0)], 0, sweep);
        s.buffer(&hs, &[], 0, sweep);
        assert_eq!(*swept.borrow(), [3, 5, 1]);
    }

    #[test]
    fn row_cols_match_direct_hashing() {
        let depth = 4;
        let hs = hashes(depth, 64);
        let mut s = BatchScratch::new(depth);
        let frame = [(0u64, 1u64), (42, 1), (u64::MAX, 1), (42, 1)];
        let n = s.prepare(&hs, &frame);
        assert_eq!(n, 3);
        for (e, key) in [0u64, 42, u64::MAX].into_iter().enumerate() {
            for (row, h) in hs.iter().enumerate() {
                assert_eq!(
                    s.row_cols(row)[e] as usize,
                    h.hash(key),
                    "key {key} row {row}"
                );
            }
        }
    }

    /// Coalesced entries must equal a `HashMap` fold of the frame, in
    /// first-seen order, with every distinct key's columns memoized.
    fn assert_matches_reference(s: &BatchScratch, hs: &[PairwiseHash], frame: &[(u64, u64)]) {
        let mut want: HashMap<u64, u64> = HashMap::new();
        let mut order = Vec::new();
        for &(k, w) in frame {
            *want.entry(k).or_insert_with(|| {
                order.push(k);
                0
            }) += w;
        }
        let want: Vec<(u64, u64)> = order.iter().map(|k| (*k, want[k])).collect();
        assert_eq!(entries(s), want);
        for (row, h) in hs.iter().enumerate() {
            let direct: Vec<u32> = order.iter().map(|&k| h.hash(k) as u32).collect();
            assert_eq!(s.row_cols(row), direct, "row {row}");
        }
    }

    /// Keys chosen to share one probe run that starts two slots before
    /// the table's end, so it wraps to slot 0: every probe past the
    /// first confirms (and rejects) a live key, and the run crosses
    /// the mask.
    #[test]
    fn one_wrapping_probe_run_coalesces_like_a_hash_map() {
        let hs = hashes(3, 64);
        let mut s = BatchScratch::with_capacity(3, 64);
        let last = s.mask;
        let run: Vec<u64> = (0u64..)
            .filter(|&k| home(k, s.shift) >= last - 1)
            .take(12)
            .collect();
        let frame: Vec<(u64, u64)> = run
            .iter()
            .chain(run.iter().rev())
            .chain(&run[..5])
            .enumerate()
            .map(|(i, &k)| (k, i as u64 % 4))
            .collect();
        s.prepare(&hs, &frame);
        assert_matches_reference(&s, &hs, &frame);
        let used: Vec<usize> = s.slot_of[..s.len].iter().map(|&i| i as usize).collect();
        assert!(
            used.contains(&last) && used.contains(&0),
            "the run must wrap"
        );
        s.clear();
        assert!(s.slots.iter().all(|&e| e == EMPTY), "a slot stayed dirty");
    }

    /// A frame of `MAX_BATCH_ITEMS`-many distinct keys loads the table
    /// to its full capacity (half its slots).
    #[test]
    fn an_all_distinct_full_capacity_frame_coalesces_like_a_hash_map() {
        const FRAME: u64 = 4096;
        let hs = hashes(5, 27_183);
        let mut s = BatchScratch::with_capacity(5, FRAME as usize);
        let frame: Vec<(u64, u64)> = (0..FRAME)
            // An odd multiplier is a bijection: 4096 distinct keys.
            .map(|i| (i.wrapping_mul(0xD6E8_FEB8_6659_FD93), i + 1))
            .collect();
        assert_eq!(s.prepare(&hs, &frame), FRAME as usize);
        assert_eq!(s.cap, FRAME as usize, "no regrowth at capacity");
        assert_matches_reference(&s, &hs, &frame);
        s.clear();
        assert!(s.slots.iter().all(|&e| e == EMPTY), "a slot stayed dirty");
    }

    #[test]
    fn frames_larger_than_capacity_regrow() {
        let hs = hashes(2, 32);
        let mut s = BatchScratch::with_capacity(2, 4);
        let frame: Vec<(u64, u64)> = (0..500).map(|k| (k, 1)).collect();
        assert_eq!(s.prepare(&hs, &frame), 500);
        assert_eq!(s.row_cols(0).len(), 500);
        let more: Vec<(u64, u64)> = (0..1_000).map(|k| (k, 1)).collect();
        let grown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.absorb(&hs, &more)));
        assert!(grown.is_err(), "regrew under live entries");
    }
}
