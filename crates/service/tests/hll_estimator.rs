//! One estimator behind every HLL read. The sequential sketch, the
//! concurrent sketch and the served cardinality envelope all estimate
//! through `RegisterSummary`: a rank histogram whose harmonic sum
//! `Σ 2^−r` is an exact 64-bit fixed-point integer, rounded to `f64`
//! once. These properties pin it against the formula it replaced — the
//! `Σ 2f64.powi(−r)` sum, rounded at every add — over register vectors
//! at every precision the sketch allows.

use ivl_concurrent::ConcurrentHll;
use ivl_service::ErrorEnvelope;
use ivl_sketch::hll::{HyperLogLog, RegisterSummary};
use ivl_sketch::CoinFlips;
use proptest::prelude::*;

const PRECISIONS: [u32; 4] = [4, 8, 12, 16];

/// A register vector at precision `p`: ranks in `0..=max_rank`, about
/// `zero_share` percent of them forced to 0 (a young sketch).
fn registers(p: u32, seed: u64, max_rank: u8, zero_share: u64) -> Vec<u8> {
    let mut x = seed;
    let mut next = move || {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..1usize << p)
        .map(|_| {
            let r = next();
            if r % 100 < zero_share {
                0
            } else {
                ((r >> 8) % (max_rank as u64 + 1)) as u8
            }
        })
        .collect()
}

/// `Σ 2^−r` as the estimator used to compute it: one rounding per add.
fn powi_sum(registers: &[u8]) -> f64 {
    registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum()
}

/// The estimate as the estimator used to compute it.
fn powi_estimate(registers: &[u8]) -> f64 {
    let m = registers.len() as f64;
    let alpha = match registers.len() {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m),
    };
    let raw = alpha * m * m / powi_sum(registers);
    let zeros = registers.iter().filter(|&&r| r == 0).count();
    if raw <= 2.5 * m && zeros > 0 {
        return m * (m / zeros as f64).ln();
    }
    raw
}

/// Distance in units in the last place between two positive floats.
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

/// The estimate of `registers` through each read path: the sequential
/// sketch, the concurrent sketch, and the served envelope. Also checks
/// that the envelope counts the registers it estimates.
fn estimates(p: u32, registers: &[u8]) -> [f64; 3] {
    let mut seq = HyperLogLog::new(p, &mut CoinFlips::from_seed(1));
    seq.merge_registers(registers);
    let conc = ConcurrentHll::new(p, &mut CoinFlips::from_seed(1));
    conc.absorb(registers);
    let summary = RegisterSummary::from_ranks(registers.iter().copied());
    let ErrorEnvelope::Cardinality {
        estimate,
        rel_std_err,
        registers: m,
        register_sum,
        ..
    } = ErrorEnvelope::cardinality(&summary, 0)
    else {
        unreachable!("an HLL summary serves a cardinality envelope");
    };
    assert_eq!(m, registers.len() as u64);
    assert_eq!(register_sum, registers.iter().map(|&r| r as u64).sum());
    assert_eq!(rel_std_err, seq.standard_error());
    [seq.estimate(), conc.estimate(), estimate]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Where the old sum was exact it is reproduced bit for bit. With
    /// every rank at most `53 − p`, each partial sum is below `2^p` on a
    /// `2^−(53−p)` grid, which fits in a 53-bit mantissa, so the powi
    /// sum rounded nothing; 41 (`53 − 12`) covers the served precision
    /// and every rank a sketch reaches before ~10^15 distinct items.
    #[test]
    fn every_path_equals_the_powi_formula_where_it_was_exact(
        which in 0usize..4,
        seed in any::<u64>(),
        zero_share in 0u64..101,
    ) {
        let p = PRECISIONS[which];
        let regs = registers(p, seed, 41.min(53 - p) as u8, zero_share);
        let want = powi_estimate(&regs);
        for got in estimates(p, &regs) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// At every rank a sketch can hold (up to `64 − p + 1`) the sum is
    /// the exact one rounded once: it equals a per-register fixed-point
    /// sum, and the powi sum stays inside the error bound of its m
    /// roundings, 2m ulps (it drifts by hundreds of ulps at p = 16, so
    /// "within one ulp" is not a property the old formula has). The
    /// three paths agree bit for bit.
    #[test]
    fn every_path_is_the_exact_sum_rounded_once(
        which in 0usize..4,
        seed in any::<u64>(),
        zero_share in 0u64..101,
    ) {
        let p = PRECISIONS[which];
        let regs = registers(p, seed, (64 - p + 1) as u8, zero_share);
        let summary = RegisterSummary::from_ranks(regs.iter().copied());
        let exact: u128 = regs.iter().map(|&r| 1u128 << (64 - r as u32)).sum();
        prop_assert_eq!(summary.inverse_sum_fixed(), exact);
        let sum = exact as f64 * 2f64.powi(-64);
        prop_assert!(ulps(sum, powi_sum(&regs)) <= 2 * regs.len() as u64);
        let [seq, conc, envelope] = estimates(p, &regs);
        prop_assert_eq!(seq.to_bits(), conc.to_bits());
        prop_assert_eq!(seq.to_bits(), envelope.to_bits());
    }
}

#[test]
fn sketches_built_by_updates_estimate_as_before() {
    // Real states, from a few items to far past the linear-counting
    // range, at the served precision and the extremes.
    for p in PRECISIONS {
        let mut hll = HyperLogLog::new(p, &mut CoinFlips::from_seed(p as u64));
        for n in 0..200_000u64 {
            hll.update(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if n.is_power_of_two() {
                assert_eq!(
                    hll.estimate().to_bits(),
                    powi_estimate(hll.registers()).to_bits()
                );
            }
        }
    }
}
