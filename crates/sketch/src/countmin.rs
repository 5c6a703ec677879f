//! The CountMin sketch (Cormode & Muthukrishnan, J. Algorithms 2005) —
//! Algorithm 1 of the paper.
//!
//! A `d × w` matrix of counters and `d` pairwise-independent hash
//! functions. `update(a)` increments `c[i][h_i(a)]` for every row `i`;
//! `query(a)` returns `min_i c[i][h_i(a)]`.
//!
//! **Error bound** (the sequential (ε,δ) analysis that Theorem 6
//! transfers to IVL parallelizations): with `w = ⌈e/α⌉` and
//! `d = ⌈ln(1/δ)⌉`, a query after `n` updates returns `f̂_a` with
//!
//! ```text
//! f_a ≤ f̂_a ≤ f_a + αn      with probability ≥ 1 − δ .
//! ```
//!
//! The lower bound `f_a ≤ f̂_a` holds *always* (counters only grow and
//! every occurrence of `a` lands in `a`'s cells).

use crate::coins::CoinFlips;
use crate::hash::PairwiseHash;
use crate::FrequencySketch;

/// Dimension parameters of a CountMin sketch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CountMinParams {
    /// Number of counters per row.
    pub width: usize,
    /// Number of rows (hash functions).
    pub depth: usize,
}

impl CountMinParams {
    /// Dimensions for relative error `α` (the paper's ε is `αn`) with
    /// failure probability `δ`: `w = ⌈e/α⌉`, `d = ⌈ln(1/δ)⌉`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1` and `0 < delta < 1`.
    pub fn for_bounds(alpha: f64, delta: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        CountMinParams {
            width: (std::f64::consts::E / alpha).ceil() as usize,
            depth: (1.0 / delta).ln().ceil().max(1.0) as usize,
        }
    }

    /// The relative error factor `α = e/w` these dimensions provide.
    pub fn alpha(&self) -> f64 {
        std::f64::consts::E / self.width as f64
    }

    /// The failure probability `δ = e^-d` these dimensions provide.
    pub fn delta(&self) -> f64 {
        (-(self.depth as f64)).exp()
    }

    /// Draws the `depth` row hashes `coins` fix at these dimensions,
    /// one row after another — the coin flips `c̄` of a `CM(c̄)`, with
    /// no cells. Every construction of a CountMin's hashes goes through
    /// here, so equal coins give equal hashes whatever is built on them.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn draw_hashes(&self, coins: &mut CoinFlips) -> Vec<PairwiseHash> {
        assert!(
            self.width > 0 && self.depth > 0,
            "dimensions must be positive"
        );
        (0..self.depth)
            .map(|_| PairwiseHash::draw(coins, self.width as u64))
            .collect()
    }
}

/// The sequential CountMin sketch `CM(c̄)`.
///
/// Constructing the sketch from a [`CoinFlips`] value samples the hash
/// functions, fixing the deterministic algorithm `CM(c̄)` of the
/// paper's §5.
///
/// # Examples
///
/// ```
/// use ivl_sketch::{CoinFlips, CountMin, FrequencySketch};
///
/// let mut coins = CoinFlips::from_seed(42);
/// // 1% relative error with 99% confidence.
/// let mut cm = CountMin::for_bounds(0.01, 0.01, &mut coins);
/// for _ in 0..500 {
///     cm.update(7);
/// }
/// let est = cm.estimate(7);
/// assert!(est >= 500); // CountMin never under-estimates
/// assert!(est as f64 <= 500.0 + cm.epsilon());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct CountMin {
    params: CountMinParams,
    hashes: Vec<PairwiseHash>,
    cells: Vec<u64>,
    stream_len: u64,
}

impl CountMin {
    /// Creates a sketch with explicit dimensions, drawing hash
    /// functions from `coins`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0.
    pub fn new(params: CountMinParams, coins: &mut CoinFlips) -> Self {
        Self::with_hashes(params, params.draw_hashes(coins))
    }

    /// An empty sketch over row hashes already drawn (by
    /// [`CountMinParams::draw_hashes`]).
    ///
    /// # Panics
    ///
    /// Panics unless there is one hash per row.
    pub fn with_hashes(params: CountMinParams, hashes: Vec<PairwiseHash>) -> Self {
        assert_eq!(hashes.len(), params.depth, "one hash per row");
        CountMin {
            params,
            hashes,
            cells: vec![0; params.width * params.depth],
            stream_len: 0,
        }
    }

    /// Creates a sketch sized for relative error `alpha` and failure
    /// probability `delta`.
    pub fn for_bounds(alpha: f64, delta: f64, coins: &mut CoinFlips) -> Self {
        Self::new(CountMinParams::for_bounds(alpha, delta), coins)
    }

    /// The sketch dimensions.
    pub fn params(&self) -> CountMinParams {
        self.params
    }

    /// The flat index of row `i`, column `h_i(item)`.
    #[inline]
    pub fn cell_index(&self, row: usize, item: u64) -> usize {
        row * self.params.width + self.hashes[row].hash(item)
    }

    /// Read-only view of the counter matrix (row-major).
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// The sampled hash functions (shared with concurrent
    /// parallelizations so `PCM(c̄)` and `CM(c̄)` are the same
    /// deterministic algorithm).
    pub fn hashes(&self) -> &[PairwiseHash] {
        &self.hashes
    }

    /// The additive error bound `ε = αn` for the current stream length.
    pub fn epsilon(&self) -> f64 {
        self.params.alpha() * self.stream_len as f64
    }

    /// Processes `count` occurrences of `item` in one batched update —
    /// the "batched updates" of the paper's abstract. Equivalent to
    /// `count` unit updates (cells are additive).
    pub fn update_by(&mut self, item: u64, count: u64) {
        for row in 0..self.params.depth {
            let idx = self.cell_index(row, item);
            self.cells[idx] += count;
        }
        self.stream_len += count;
    }

    /// Estimates the inner product `Σ_a f_a · g_a` of this sketch's
    /// stream with another's (join-size estimation, Cormode &
    /// Muthukrishnan §4.3): per row, the dot product of the two rows;
    /// the estimate is the row minimum. Never under-estimates, and
    /// over-estimates by at most `α·n₁·n₂` with probability `1 − δ`.
    ///
    /// # Panics
    ///
    /// Panics if the sketches have different dimensions or coins.
    pub fn inner_product(&self, other: &CountMin) -> u64 {
        assert_eq!(self.params, other.params, "dimension mismatch");
        assert_eq!(self.hashes, other.hashes, "sketches use different coins");
        let w = self.params.width;
        (0..self.params.depth)
            .map(|row| {
                (0..w)
                    .map(|col| self.cells[row * w + col] * other.cells[row * w + col])
                    .sum::<u64>()
            })
            .min()
            .expect("depth >= 1")
    }

    /// Merges another sketch built with the **same coins** (cell-wise
    /// sum) — the mergeable-summaries property \[1\]: the merged
    /// sketch equals the sketch of the concatenated streams, so the
    /// (ε,δ) analysis applies to the union.
    ///
    /// # Panics
    ///
    /// Panics if dimensions or hash functions differ.
    pub fn merge(&mut self, other: &CountMin) {
        assert_eq!(self.params, other.params, "dimension mismatch");
        assert_eq!(self.hashes, other.hashes, "sketches use different coins");
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
        self.stream_len += other.stream_len;
    }
}

/// CountMin with *conservative update* (Estan & Varghese): an update
/// increments only the cells currently equal to the row minimum,
/// raising them to `min + 1`. Point estimates keep the one-sided
/// guarantee `f_a ≤ f̂_a` and are never larger than plain CountMin's —
/// a strictly better sequential estimator.
///
/// Cells still only grow, so the object stays **monotone** in the
/// paper's sense; but unlike plain CountMin, an update *reads* cells
/// to decide what to write, so the straightforward parallelization is
/// not a per-cell-atomic one-liner (an interleaved conservative update
/// can skip a cell another thread is about to lower the min of). The
/// crate therefore ships it sequentially only — a concrete instance of
/// the paper's closing question about which sketches parallelize
/// under IVL.
#[derive(Clone, PartialEq, Debug)]
pub struct CountMinConservative {
    inner: CountMin,
}

impl CountMinConservative {
    /// Creates a conservative-update sketch with the given dimensions.
    pub fn new(params: CountMinParams, coins: &mut CoinFlips) -> Self {
        CountMinConservative {
            inner: CountMin::new(params, coins),
        }
    }

    /// Creates a sketch sized for relative error `alpha` and failure
    /// probability `delta`.
    pub fn for_bounds(alpha: f64, delta: f64, coins: &mut CoinFlips) -> Self {
        CountMinConservative {
            inner: CountMin::for_bounds(alpha, delta, coins),
        }
    }

    /// The sketch dimensions.
    pub fn params(&self) -> CountMinParams {
        self.inner.params()
    }
}

impl FrequencySketch for CountMinConservative {
    fn update(&mut self, item: u64) {
        let depth = self.inner.params.depth;
        let indices: Vec<usize> = (0..depth).map(|r| self.inner.cell_index(r, item)).collect();
        let min = indices
            .iter()
            .map(|&i| self.inner.cells[i])
            .min()
            .expect("depth >= 1");
        for &i in &indices {
            if self.inner.cells[i] == min {
                self.inner.cells[i] = min + 1;
            }
        }
        self.inner.stream_len += 1;
    }

    fn estimate(&self, item: u64) -> u64 {
        self.inner.estimate(item)
    }

    fn stream_len(&self) -> u64 {
        self.inner.stream_len
    }
}

impl FrequencySketch for CountMin {
    fn update(&mut self, item: u64) {
        for row in 0..self.params.depth {
            let idx = self.cell_index(row, item);
            self.cells[idx] += 1;
        }
        self.stream_len += 1;
    }

    fn estimate(&self, item: u64) -> u64 {
        (0..self.params.depth)
            .map(|row| self.cells[self.cell_index(row, item)])
            .min()
            .expect("depth >= 1")
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ZipfStream;
    use std::collections::HashMap;

    fn coins(seed: u64) -> CoinFlips {
        CoinFlips::from_seed(seed)
    }

    #[test]
    fn params_match_formulas() {
        let p = CountMinParams::for_bounds(0.01, 0.01);
        assert_eq!(p.width, 272); // ceil(e / 0.01)
        assert_eq!(p.depth, 5); // ceil(ln 100) = ceil(4.6)
        assert!(p.alpha() <= 0.01 + 1e-9);
        assert!(p.delta() <= 0.01 + 1e-9);
    }

    #[test]
    fn never_underestimates() {
        let mut cm = CountMin::for_bounds(0.05, 0.05, &mut coins(1));
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut stream = ZipfStream::new(1000, 1.2, 77);
        for _ in 0..20_000 {
            let a = stream.next_item();
            cm.update(a);
            *truth.entry(a).or_default() += 1;
        }
        for (&a, &f) in &truth {
            assert!(cm.estimate(a) >= f, "item {a}: {} < {f}", cm.estimate(a));
        }
    }

    #[test]
    fn overestimate_within_alpha_n_whp() {
        // Empirical check of the (ε,δ) bound: failures over many items
        // must be ≤ δ-ish.
        let alpha = 0.01;
        let delta = 0.02;
        let mut cm = CountMin::for_bounds(alpha, delta, &mut coins(2));
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut stream = ZipfStream::new(5_000, 1.1, 5);
        let n = 50_000u64;
        for _ in 0..n {
            let a = stream.next_item();
            cm.update(a);
            *truth.entry(a).or_default() += 1;
        }
        let eps = (alpha * n as f64).ceil() as u64;
        let failures = truth
            .iter()
            .filter(|(&a, &f)| cm.estimate(a) > f + eps)
            .count();
        let rate = failures as f64 / truth.len() as f64;
        assert!(rate <= delta * 2.0, "failure rate {rate} >> delta {delta}");
    }

    #[test]
    fn exact_when_width_exceeds_alphabet() {
        // With no collisions possible (huge width, distinct cells),
        // estimates may still collide by hashing; but a width much
        // larger than the alphabet makes collisions unlikely across
        // all rows simultaneously - the min over 6 rows is exact here.
        let mut cm = CountMin::new(
            CountMinParams {
                width: 4096,
                depth: 6,
            },
            &mut coins(3),
        );
        for a in 0..16u64 {
            for _ in 0..=a {
                cm.update(a);
            }
        }
        for a in 0..16u64 {
            assert_eq!(cm.estimate(a), a + 1);
        }
    }

    #[test]
    fn same_coins_same_sketch() {
        let mut a = CountMin::for_bounds(0.1, 0.1, &mut coins(9));
        let mut b = CountMin::for_bounds(0.1, 0.1, &mut coins(9));
        for x in 0..1000u64 {
            a.update(x % 37);
            b.update(x % 37);
        }
        assert_eq!(a, b, "CM(c̄) is deterministic given c̄");
    }

    #[test]
    fn stream_len_and_epsilon_track_updates() {
        let mut cm = CountMin::for_bounds(0.1, 0.1, &mut coins(4));
        assert_eq!(cm.stream_len(), 0);
        for _ in 0..100 {
            cm.update(1);
        }
        assert_eq!(cm.stream_len(), 100);
        assert!((cm.epsilon() - cm.params().alpha() * 100.0).abs() < 1e-12);
    }

    #[test]
    fn unqueried_item_estimate_bounded_by_stream() {
        let mut cm = CountMin::for_bounds(0.1, 0.1, &mut coins(5));
        for _ in 0..50 {
            cm.update(42);
        }
        // Some never-updated item: estimate is whatever collided, at
        // most the whole stream.
        assert!(cm.estimate(777) <= 50);
    }

    #[test]
    fn update_by_equals_repeated_updates() {
        let mut a = CountMin::for_bounds(0.1, 0.1, &mut coins(6));
        let mut b = CountMin::for_bounds(0.1, 0.1, &mut coins(6));
        a.update_by(9, 37);
        a.update_by(2, 5);
        for _ in 0..37 {
            b.update(9);
        }
        for _ in 0..5 {
            b.update(2);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let mk = || CountMin::for_bounds(0.05, 0.05, &mut coins(7));
        let mut left = mk();
        let mut right = mk();
        let mut whole = mk();
        let mut s1 = ZipfStream::new(300, 1.2, 1);
        let mut s2 = ZipfStream::new(300, 1.2, 2);
        for _ in 0..5_000 {
            let a = s1.next_item();
            left.update(a);
            whole.update(a);
            let b = s2.next_item();
            right.update(b);
            whole.update(b);
        }
        left.merge(&right);
        assert_eq!(left, whole, "merge must equal the union stream");
    }

    #[test]
    #[should_panic(expected = "different coins")]
    fn merge_rejects_mismatched_coins() {
        let mut a = CountMin::for_bounds(0.1, 0.1, &mut coins(8));
        let b = CountMin::for_bounds(0.1, 0.1, &mut coins(9));
        a.merge(&b);
    }

    #[test]
    fn inner_product_never_underestimates() {
        let mk = || CountMin::for_bounds(0.02, 0.02, &mut coins(12));
        let mut a = mk();
        let mut b = mk();
        let mut fa: HashMap<u64, u64> = HashMap::new();
        let mut fb: HashMap<u64, u64> = HashMap::new();
        let mut s1 = ZipfStream::new(200, 1.3, 1);
        let mut s2 = ZipfStream::new(200, 1.3, 2);
        for _ in 0..5_000 {
            let x = s1.next_item();
            a.update(x);
            *fa.entry(x).or_default() += 1;
            let y = s2.next_item();
            b.update(y);
            *fb.entry(y).or_default() += 1;
        }
        let truth: u64 = fa
            .iter()
            .map(|(k, &va)| va * fb.get(k).copied().unwrap_or(0))
            .sum();
        let est = a.inner_product(&b);
        assert!(est >= truth, "{est} < {truth}");
        // Over-estimate bounded by α·n₁·n₂ whp; allow generous slack.
        let bound = (0.02 * 5_000.0 * 5_000.0) as u64;
        assert!(est <= truth + 3 * bound, "{est} vs {truth} + {bound}");
    }

    #[test]
    fn inner_product_with_self_bounds_second_moment() {
        let mut a = CountMin::for_bounds(0.05, 0.05, &mut coins(13));
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for x in 0..1_000u64 {
            let item = x % 10;
            a.update(item);
            *truth.entry(item).or_default() += 1;
        }
        let f2: u64 = truth.values().map(|&f| f * f).sum();
        assert!(a.inner_product(&a) >= f2);
    }

    #[test]
    fn conservative_never_underestimates_and_beats_plain() {
        let params = CountMinParams {
            width: 32,
            depth: 4,
        };
        let mut plain = CountMin::new(params, &mut coins(10));
        let mut cu = CountMinConservative::new(params, &mut coins(10));
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut stream = ZipfStream::new(500, 1.1, 3);
        for _ in 0..20_000 {
            let a = stream.next_item();
            plain.update(a);
            cu.update(a);
            *truth.entry(a).or_default() += 1;
        }
        for (&a, &ft) in &truth {
            assert!(cu.estimate(a) >= ft, "CU underestimated item {a}");
            assert!(
                cu.estimate(a) <= plain.estimate(a),
                "CU must never exceed plain CountMin (item {a})"
            );
        }
        // And on a skewed stream it is strictly better somewhere.
        let strictly_better = truth.keys().any(|&a| cu.estimate(a) < plain.estimate(a));
        assert!(strictly_better, "expected CU to win on some item");
    }

    #[test]
    fn conservative_estimates_are_monotone_over_time() {
        let mut cu =
            CountMinConservative::new(CountMinParams { width: 8, depth: 2 }, &mut coins(11));
        let mut last = 0;
        for k in 0..2_000u64 {
            cu.update(k % 17);
            let est = cu.estimate(3);
            assert!(est >= last, "estimate regressed");
            last = est;
        }
    }
}
