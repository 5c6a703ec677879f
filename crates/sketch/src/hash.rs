//! Carter–Wegman universal hashing over the Mersenne prime `2^61 − 1`.
//!
//! CountMin's analysis needs each row's hash drawn from a *pairwise
//! independent* family. The classic construction is `h(x) = ((a·x + b)
//! mod p) mod w` with `p` prime and `a ∈ [1, p)`, `b ∈ [0, p)` drawn
//! from the coin flips. Using the Mersenne prime `p = 2^61 − 1` lets
//! the `mod p` reduction be two shifts and an add.
//!
//! [`SignHash`] extends the family with a pairwise-independent ±1 sign
//! (for CountSketch) by taking one extra output bit.

use crate::coins::CoinFlips;

/// The Mersenne prime `2^61 − 1`.
pub const MERSENNE_61: u64 = (1 << 61) - 1;

/// Reduces a 128-bit product modulo `2^61 − 1`, exactly for every
/// `x < 2^122` (which covers `a·xr + b ≤ p·(p − 1)` for `a, xr, b < p`).
#[inline]
fn mod_mersenne61(x: u128) -> u64 {
    debug_assert!(x >> 122 == 0, "input beyond the two-fold range");
    // x = hi·2^61 + lo and 2^61 ≡ 1 (mod p). The first fold leaves
    // s < 2^62, the second s ≤ 2^61 = p + 1, so one conditional
    // subtract finishes — no loop, no data-dependent branch.
    let s = ((x as u64) & MERSENNE_61) + (x >> 61) as u64;
    let s = (s & MERSENNE_61) + (s >> 61);
    if s >= MERSENNE_61 {
        s - MERSENNE_61
    } else {
        s
    }
}

/// A pairwise-independent hash `x ↦ ((a·x + b) mod p) mod w` into
/// `[0, w)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    w: u64,
}

impl PairwiseHash {
    /// Draws a hash into `[0, w)` from the coin flips.
    ///
    /// # Panics
    ///
    /// Panics if `w` is 0.
    pub fn draw(coins: &mut CoinFlips, w: u64) -> Self {
        assert!(w > 0, "range must be positive");
        let a = 1 + coins.next_below(MERSENNE_61 - 1); // a ∈ [1, p)
        let b = coins.next_below(MERSENNE_61); // b ∈ [0, p)
        PairwiseHash { a, b, w }
    }

    /// Hashes `x` into `[0, w)`.
    #[inline]
    pub fn hash(&self, x: u64) -> usize {
        self.hash_reduced(Self::reduce(x))
    }

    /// Reduces an input modulo the prime, once, for reuse across many
    /// rows via [`hash_reduced`](Self::hash_reduced).
    #[inline]
    pub fn reduce(x: u64) -> u64 {
        x % MERSENNE_61
    }

    /// Hashes an already-reduced input (`xr = x mod p`, from
    /// [`reduce`](Self::reduce)) into `[0, w)`. Equal to
    /// `self.hash(x)` for every `x` with `x mod p == xr`.
    #[inline]
    pub fn hash_reduced(&self, xr: u64) -> usize {
        debug_assert!(xr < MERSENNE_61, "input must be pre-reduced");
        let ax = (self.a as u128) * (xr as u128) + self.b as u128;
        (mod_mersenne61(ax) % self.w) as usize
    }

    /// Computes every row's bucket for `x` in one pass: the `mod p`
    /// reduction of `x` happens once instead of once per row. Clears
    /// and refills `out`, so callers can reuse one scratch buffer
    /// across a whole batch of items without reallocating.
    pub fn hash_row_batch(hashes: &[PairwiseHash], x: u64, out: &mut Vec<usize>) {
        let xr = Self::reduce(x);
        out.clear();
        out.extend(hashes.iter().map(|h| h.hash_reduced(xr)));
    }

    /// The range bound `w`.
    pub fn range(&self) -> u64 {
        self.w
    }

    /// [`hash_reduced`](Self::hash_reduced) with the final `% w`
    /// strength-reduced through a precomputed [`FastMod`]: identical
    /// output (the batch-kernel proptests and [`FastMod`]'s own tests
    /// pin this), no hardware divide on the hot path.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `wmod` was not built for this
    /// hash's `w`.
    #[inline]
    pub fn hash_reduced_fast(&self, xr: u64, wmod: &FastMod) -> usize {
        debug_assert!(xr < MERSENNE_61, "input must be pre-reduced");
        debug_assert_eq!(wmod.divisor(), self.w, "FastMod divisor mismatch");
        let ax = (self.a as u128) * (xr as u128) + self.b as u128;
        wmod.rem(mod_mersenne61(ax)) as usize
    }
}

/// Exact strength-reduced `x % w` for a fixed divisor: a 64-bit
/// Barrett reduction. The magic `m = ⌊(2^64 − 1) / w⌋` is precomputed
/// once; a remainder is then one widening multiply (the quotient
/// estimate `q = ⌊m·x / 2^64⌋`), one low multiply (`r = x − q·w`) and
/// one conditional subtract instead of a hardware divide.
///
/// Exact for every `x: u64` and `w ≥ 1`: writing `x = Q·w + R`,
/// `m ≥ (2^64 − w)/w` gives `m·x / 2^64 ≥ x/w − x/2^64 > Q − 1`, and
/// `m < 2^64/w` gives `m·x / 2^64 < x/w`, so `q ∈ {Q − 1, Q}` and
/// `r ∈ [0, 2w)`; `r ≤ x` never overflows, even for `w > 2^63`.
#[derive(Clone, Copy, Debug)]
pub struct FastMod {
    w: u64,
    m: u64,
}

impl FastMod {
    /// Precomputes the magic for divisor `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is 0.
    pub fn new(w: u64) -> Self {
        assert!(w > 0, "divisor must be positive");
        FastMod { w, m: u64::MAX / w }
    }

    /// The divisor this magic was built for.
    pub fn divisor(&self) -> u64 {
        self.w
    }

    /// `x % w`, exactly.
    #[inline]
    pub fn rem(&self, x: u64) -> u64 {
        let q = ((self.m as u128 * x as u128) >> 64) as u64;
        let r = x - q * self.w;
        if r >= self.w {
            r - self.w
        } else {
            r
        }
    }
}

/// A pairwise-independent ±1 sign hash (one bit of a fresh
/// [`PairwiseHash`] with range 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SignHash {
    inner: PairwiseHash,
}

impl SignHash {
    /// Draws a sign hash from the coin flips.
    pub fn draw(coins: &mut CoinFlips) -> Self {
        SignHash {
            inner: PairwiseHash::draw(coins, 2),
        }
    }

    /// Returns `+1` or `-1`.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        if self.inner.hash(x) == 0 {
            1
        } else {
            -1
        }
    }
}

/// A 64-bit mixing hash (SplitMix64 finalizer) for uses that need a
/// well-scrambled full-width value, e.g. HyperLogLog's bit patterns.
/// Seeded per-sketch from the coin flips.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MixHash {
    seed: u64,
}

impl MixHash {
    /// Draws a mixing hash from the coin flips.
    pub fn draw(coins: &mut CoinFlips) -> Self {
        MixHash {
            seed: coins.next_u64() | 1,
        }
    }

    /// Scrambles `x` to 64 well-mixed bits.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let mut z = x.wrapping_mul(self.seed).wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mersenne_reduction_matches_naive() {
        for x in [
            0u128,
            1,
            MERSENNE_61 as u128,
            u64::MAX as u128,
            u128::MAX >> 6,
        ] {
            assert_eq!(mod_mersenne61(x), (x % MERSENNE_61 as u128) as u64, "x={x}");
        }
    }

    /// The edges of the fold's real inputs, `a·xr + b` with every
    /// operand in `[0, p)`: all three at `p − 1` (the largest input,
    /// `p·(p − 1)`), exact multiples of `p` (which must fold to 0, not
    /// to `p`), and their neighbours.
    #[test]
    fn mersenne_reduction_is_exact_at_the_edges_of_its_inputs() {
        let p = MERSENNE_61 as u128;
        let mut inputs = vec![(p - 1) * (p - 1) + (p - 1), (p - 1) * (p - 1), p - 1, p + 1];
        for k in [1, 2, 3, 1 << 30, p - 2, p - 1] {
            inputs.extend([k * p - 1, k * p, k * p + 1]);
        }
        for a in [1, 2, p - 2, p - 1] {
            for xr in [0, 1, p - 2, p - 1] {
                for b in [0, 1, p - 1] {
                    inputs.push(a * xr + b);
                }
            }
        }
        for x in inputs {
            assert_eq!(mod_mersenne61(x), (x % p) as u64, "x={x}");
        }
    }

    #[test]
    fn hash_stays_in_range() {
        let mut coins = CoinFlips::from_seed(1);
        let h = PairwiseHash::draw(&mut coins, 100);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < 100);
        }
    }

    #[test]
    fn hash_is_deterministic_per_coins() {
        let h1 = PairwiseHash::draw(&mut CoinFlips::from_seed(9), 64);
        let h2 = PairwiseHash::draw(&mut CoinFlips::from_seed(9), 64);
        for x in 0..1000u64 {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
    }

    #[test]
    fn hash_spreads_roughly_uniformly() {
        let mut coins = CoinFlips::from_seed(2);
        let w = 16u64;
        let h = PairwiseHash::draw(&mut coins, w);
        let mut buckets = vec![0u32; w as usize];
        for x in 0..16_000u64 {
            buckets[h.hash(x)] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            assert!((500..1500).contains(&c), "bucket {i} holds {c}");
        }
    }

    #[test]
    fn signs_are_balanced() {
        let mut coins = CoinFlips::from_seed(3);
        let s = SignHash::draw(&mut coins);
        let pos = (0..10_000u64).filter(|&x| s.sign(x) == 1).count();
        assert!((4000..6000).contains(&pos), "got {pos} positive signs");
    }

    #[test]
    fn fastmod_matches_hardware_remainder() {
        let divisors = [
            1u64,
            2,
            3,
            7,
            16,
            61,
            544,
            2719,
            27_183,
            65_536,
            (1 << 31) - 1,
            u32::MAX as u64,
            1 << 32,
            MERSENNE_61,
            (1 << 63) + 1,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        // Deterministic xorshift64* covers x across the whole u64 range.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut samples = vec![0u64, 1, 2, u64::MAX, u64::MAX - 1, MERSENNE_61];
        for _ in 0..4_000 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            samples.push(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
        }
        for &w in &divisors {
            let f = FastMod::new(w);
            assert_eq!(f.divisor(), w);
            for &s in &samples {
                assert_eq!(f.rem(s), s % w, "x={s} w={w}");
            }
            // Boundary values around the divisor, the largest reduced
            // hash input and the top of the range.
            let edges = [
                0,
                w - 1,
                w,
                w.saturating_add(1),
                w.saturating_mul(2).saturating_sub(1),
                MERSENNE_61 - 1,
                u64::MAX - 1,
                u64::MAX,
            ];
            for s in edges {
                assert_eq!(f.rem(s), s % w, "x={s} w={w}");
            }
        }
    }

    /// Seeded property: the strength-reduced row hash equals the
    /// divide-based one over random draws of `(a, b, w)` — `w` from
    /// 1 up to the whole `u64` range — and random reduced inputs.
    #[test]
    fn hash_reduced_fast_matches_hash_reduced_over_random_draws() {
        let mut coins = CoinFlips::from_seed(31);
        for _ in 0..2_000 {
            let w = (coins.next_u64() >> coins.next_below(64)).max(1);
            let h = PairwiseHash::draw(&mut coins, w);
            let f = FastMod::new(w);
            for _ in 0..16 {
                let xr = PairwiseHash::reduce(coins.next_u64());
                assert_eq!(
                    h.hash_reduced_fast(xr, &f),
                    h.hash_reduced(xr),
                    "{h:?} xr={xr}"
                );
            }
            for xr in [0, 1, MERSENNE_61 - 1] {
                assert_eq!(
                    h.hash_reduced_fast(xr, &f),
                    h.hash_reduced(xr),
                    "{h:?} xr={xr}"
                );
            }
        }
    }

    #[test]
    fn hash_reduced_fast_matches_hash_reduced() {
        let mut coins = CoinFlips::from_seed(8);
        for w in [1u64, 2, 63, 64, 2719, 100_003] {
            let h = PairwiseHash::draw(&mut coins, w);
            let f = FastMod::new(w);
            for x in [0u64, 1, 7, 12345, MERSENNE_61 - 1, u64::MAX / 3] {
                let xr = PairwiseHash::reduce(x);
                assert_eq!(
                    h.hash_reduced_fast(xr, &f),
                    h.hash_reduced(xr),
                    "x={x} w={w}"
                );
            }
        }
    }

    #[test]
    fn mix_hash_changes_all_bit_positions() {
        let mut coins = CoinFlips::from_seed(4);
        let m = MixHash::draw(&mut coins);
        let mut seen_diff = 0u64;
        for x in 0..64u64 {
            seen_diff |= m.hash(x) ^ m.hash(x + 1);
        }
        assert_eq!(
            seen_diff.count_ones(),
            64,
            "every bit should flip somewhere"
        );
    }

    #[test]
    fn row_batch_matches_per_row_hashing() {
        let mut coins = CoinFlips::from_seed(6);
        let hashes: Vec<PairwiseHash> =
            (0..5).map(|_| PairwiseHash::draw(&mut coins, 64)).collect();
        let mut scratch = Vec::new();
        for x in [0, 1, 12345, MERSENNE_61 - 1, MERSENNE_61, u64::MAX] {
            PairwiseHash::hash_row_batch(&hashes, x, &mut scratch);
            let per_row: Vec<usize> = hashes.iter().map(|h| h.hash(x)).collect();
            assert_eq!(scratch, per_row, "x={x}");
        }
    }

    #[test]
    fn reduced_hash_matches_full_hash() {
        let mut coins = CoinFlips::from_seed(7);
        let h = PairwiseHash::draw(&mut coins, 100);
        for x in [0u64, 5, MERSENNE_61 - 1, MERSENNE_61 + 3, u64::MAX] {
            assert_eq!(h.hash_reduced(PairwiseHash::reduce(x)), h.hash(x), "x={x}");
        }
    }

    #[test]
    fn pairwise_collision_rate_near_1_over_w() {
        // Empirical collision probability across random pairs should be
        // ~1/w for a universal family.
        let mut coins = CoinFlips::from_seed(5);
        let w = 64u64;
        let trials = 200;
        let mut collisions = 0;
        for _ in 0..trials {
            let h = PairwiseHash::draw(&mut coins, w);
            let x = coins.next_u64() % 1_000_000;
            let y = x + 1 + coins.next_below(1_000_000);
            if h.hash(x) == h.hash(y) {
                collisions += 1;
            }
        }
        // Expected ~ trials / w ≈ 3.1; allow generous slack.
        assert!(collisions <= 15, "too many collisions: {collisions}");
    }
}
