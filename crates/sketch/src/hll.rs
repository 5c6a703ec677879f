//! HyperLogLog distinct counting (Flajolet et al. 2007; engineering
//! per Heule et al. \[18\]).
//!
//! `m = 2^b` registers; each item is hashed to 64 well-mixed bits, the
//! first `b` select a register and the register keeps the **maximum**
//! number of leading zeros (+1) of the remaining bits. The estimate is
//! the bias-corrected harmonic mean `α_m · m² / Σ 2^{−M[j]}`, with the
//! standard linear-counting correction for small cardinalities.
//! Standard error is `≈ 1.04/√m`.
//!
//! Registers are **max-registers**: state only grows, and the estimate
//! is a monotone function of the register vector — the second monotone
//! quantitative object family of the workspace (`ivl-concurrent`
//! parallelizes it with CAS-max and checks IVL via the interval fast
//! path).
//!
//! Every estimate — of this sketch, of the concurrent one, of a merged
//! replica state — goes through one [`RegisterSummary`]: one pass over
//! the register bytes, no copy of the sketch.

use crate::coins::CoinFlips;
use crate::hash::MixHash;

/// What a query reads from a register vector, gathered in one pass.
///
/// The pass builds the rank histogram `counts[r]` (how many registers
/// hold rank `r`) and folds it into the register count, the zero count
/// `counts[0]`, the register sum `Σ r·counts[r]` and the harmonic sum
/// `Σ 2^−r` as the exact 64-bit fixed-point integer
/// `Σ counts[r]·2^(64−r)`, converted to `f64` once. The sum is exact for
/// every rank [`HyperLogLog::route`] produces (at most 61); ranks above
/// 64 count as 64 in it.
///
/// # Examples
///
/// ```
/// use ivl_sketch::hll::RegisterSummary;
///
/// let s = RegisterSummary::from_ranks([0u8, 1, 3, 3]);
/// assert_eq!((s.registers(), s.register_sum()), (4, 7));
/// // 2^0 + 2^-1 + 2 * 2^-3, scaled by 2^64.
/// assert_eq!(s.inverse_sum_fixed(), (7u128 << 64) / 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegisterSummary {
    registers: u64,
    zeros: u64,
    register_sum: u64,
    inverse_sum_fixed: u128,
}

impl RegisterSummary {
    /// Summarizes a register vector in one pass.
    pub fn from_ranks(ranks: impl IntoIterator<Item = u8>) -> Self {
        // Four interleaved histograms, so that a run of equal ranks (a
        // young sketch is mostly zeros) does not serialize on one
        // counter: this halves the pass on such a sketch.
        let mut lanes = [[0u32; 256]; 4];
        let mut ranks = ranks.into_iter();
        'fill: loop {
            for lane in &mut lanes {
                let Some(r) = ranks.next() else {
                    break 'fill;
                };
                lane[r as usize] += 1;
            }
        }
        let count = |r: usize| lanes.iter().map(|lane| lane[r] as u64).sum::<u64>();
        let mut summary = RegisterSummary {
            registers: 0,
            zeros: count(0),
            register_sum: 0,
            inverse_sum_fixed: 0,
        };
        for r in 0..256 {
            let c = count(r);
            summary.registers += c;
            summary.register_sum += r as u64 * c;
            summary.inverse_sum_fixed += (c as u128) << (64 - r.min(64));
        }
        summary
    }

    /// Number of registers `m`.
    pub fn registers(&self) -> u64 {
        self.registers
    }

    /// The sum of all registers — a strictly monotone integer
    /// functional of the vector, so two vectors of one growing sketch
    /// with equal sums are equal.
    pub fn register_sum(&self) -> u64 {
        self.register_sum
    }

    /// `Σ 2^(64 − r)`: the harmonic sum `Σ 2^−r` in 64-bit fixed point.
    pub fn inverse_sum_fixed(&self) -> u128 {
        self.inverse_sum_fixed
    }

    /// The bias-corrected cardinality estimate, with the linear-counting
    /// correction for small cardinalities.
    pub fn estimate(&self) -> f64 {
        let m = self.registers as f64;
        // 2^-64 is exact, so this is the correctly rounded Σ 2^-r.
        let sum = self.inverse_sum_fixed as f64 * (1.0 / 18_446_744_073_709_551_616.0);
        let raw = alpha(self.registers) * m * m / sum;
        if raw <= 2.5 * m && self.zeros > 0 {
            // Small-range (linear counting) correction.
            return m * (m / self.zeros as f64).ln();
        }
        raw
    }

    /// The standard error `1.04/√m` of the estimate.
    pub fn standard_error(&self) -> f64 {
        1.04 / (self.registers as f64).sqrt()
    }
}

/// Bias-correction constant `α_m` for `m` registers.
fn alpha(m: u64) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// A HyperLogLog sketch with `2^precision` registers.
///
/// # Examples
///
/// ```
/// use ivl_sketch::{CoinFlips, HyperLogLog};
///
/// let mut coins = CoinFlips::from_seed(7);
/// let mut hll = HyperLogLog::new(12, &mut coins);
/// for x in 0..10_000u64 {
///     hll.update(x);
///     hll.update(x); // duplicates don't inflate the estimate
/// }
/// let est = hll.estimate();
/// assert!((est - 10_000.0).abs() / 10_000.0 < 4.0 * hll.standard_error());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct HyperLogLog {
    precision: u32,
    registers: Vec<u8>,
    hash: MixHash,
}

impl HyperLogLog {
    /// Creates a sketch with `2^precision` registers (`4 ≤ precision ≤
    /// 16`), drawing its hash from `coins`.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `[4, 16]`.
    pub fn new(precision: u32, coins: &mut CoinFlips) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "precision must be in [4, 16]"
        );
        HyperLogLog {
            precision,
            registers: vec![0; 1 << precision],
            hash: MixHash::draw(coins),
        }
    }

    /// Number of registers `m`.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// The register index and rank contribution of `item` — exposed so
    /// the concurrent parallelization applies *the same deterministic
    /// mapping* (same coin flips ⇒ same algorithm).
    pub fn route(&self, item: u64) -> (usize, u8) {
        let h = self.hash.hash(item);
        let idx = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Rank: leading zeros of the remaining bits + 1, capped.
        let rank = (rest.leading_zeros() + 1).min(64 - self.precision + 1) as u8;
        (idx, rank)
    }

    /// Observes `item`.
    pub fn update(&mut self, item: u64) {
        let (idx, rank) = self.route(item);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimates the number of distinct items observed.
    pub fn estimate(&self) -> f64 {
        RegisterSummary::from_ranks(self.registers.iter().copied()).estimate()
    }

    /// The standard error `1.04/√m` of the estimate.
    pub fn standard_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// Read-only register view.
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Merges another sketch built with the *same coins* (register-wise
    /// max) — the mergeability property of \[1\].
    ///
    /// # Panics
    ///
    /// Panics if the sketches have different precision or hashes.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        assert_eq!(self.hash, other.hash, "sketches use different coins");
        self.merge_registers(&other.registers);
    }

    /// Merges a raw register vector (register-wise max), e.g. a state
    /// loaded from a concurrent sketch or shipped by a replica.
    ///
    /// # Panics
    ///
    /// Panics if `regs` has a different length.
    pub fn merge_registers(&mut self, regs: &[u8]) {
        assert_eq!(regs.len(), self.registers.len(), "register count mismatch");
        for (a, &b) in self.registers.iter_mut().zip(regs) {
            *a = (*a).max(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_within_a_few_standard_errors() {
        let mut coins = CoinFlips::from_seed(1);
        let mut hll = HyperLogLog::new(12, &mut coins);
        let n = 100_000u64;
        for x in 0..n {
            hll.update(x);
        }
        let est = hll.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(
            rel < 4.0 * hll.standard_error(),
            "estimate {est} vs {n}: rel err {rel}"
        );
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut coins = CoinFlips::from_seed(2);
        let mut hll = HyperLogLog::new(10, &mut coins);
        for _ in 0..100 {
            for x in 0..500u64 {
                hll.update(x);
            }
        }
        let est = hll.estimate();
        assert!((est - 500.0).abs() / 500.0 < 0.15, "est {est}");
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut coins = CoinFlips::from_seed(3);
        let mut hll = HyperLogLog::new(12, &mut coins);
        for x in 0..10u64 {
            hll.update(x);
        }
        let est = hll.estimate();
        assert!((est - 10.0).abs() <= 2.0, "small-range est {est}");
    }

    #[test]
    fn registers_are_monotone() {
        let mut coins = CoinFlips::from_seed(4);
        let mut hll = HyperLogLog::new(8, &mut coins);
        let mut prev = hll.registers().to_vec();
        for x in 0..10_000u64 {
            hll.update(x);
            for (a, b) in hll.registers().iter().zip(&prev) {
                assert!(a >= b, "register decreased");
            }
            prev = hll.registers().to_vec();
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut coins = CoinFlips::from_seed(5);
        let proto = HyperLogLog::new(10, &mut coins);
        let mut a = proto.clone();
        let mut b = proto.clone();
        let mut u = proto.clone();
        for x in 0..3000u64 {
            a.update(x);
            u.update(x);
        }
        for x in 2000..6000u64 {
            b.update(x);
            u.update(x);
        }
        a.merge(&b);
        assert_eq!(a, u, "merge must equal processing the union");
    }

    #[test]
    #[should_panic(expected = "different coins")]
    fn merge_rejects_mismatched_coins() {
        let mut c1 = CoinFlips::from_seed(6);
        let mut c2 = CoinFlips::from_seed(7);
        let mut a = HyperLogLog::new(8, &mut c1);
        let b = HyperLogLog::new(8, &mut c2);
        a.merge(&b);
    }

    #[test]
    fn route_is_stable() {
        let mut coins = CoinFlips::from_seed(8);
        let hll = HyperLogLog::new(8, &mut coins);
        let (i1, r1) = hll.route(12345);
        let (i2, r2) = hll.route(12345);
        assert_eq!((i1, r1), (i2, r2));
        assert!(i1 < hll.num_registers());
        assert!(r1 >= 1);
    }
}
