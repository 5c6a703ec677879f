//! A concurrent HyperLogLog: registers as `AtomicU8` with `fetch_max`.
//!
//! HyperLogLog's registers are max-registers — monotone quantitative
//! objects — so the lock-free parallelization (`fetch_max` per
//! update, plain loads per query) is IVL: a query's estimate is
//! bounded between the estimate at its start and the estimate with
//! every overlapping update applied. [`ConcurrentHll::indicator`]
//! exposes a *strictly monotone integer* functional of the register
//! vector used by the formal IVL checks (the corrected estimate of
//! [`ConcurrentHll::estimate`] is monotone too, but float-valued and
//! piecewise, so tests quantize via the indicator instead).

use ivl_sketch::hll::{HyperLogLog, RegisterSummary};
use ivl_sketch::CoinFlips;
use std::sync::atomic::{AtomicU8, Ordering};

/// A shared HyperLogLog sketch.
///
/// The registers are the whole state, with no epoch beside them: their
/// sum ([`RegisterSummary::register_sum`]) is strictly monotone in the
/// vector, so a reader that loaded the same sum twice loaded the same
/// registers — which is what a served `Unchanged` reply rests on.
#[derive(Debug)]
pub struct ConcurrentHll {
    /// A sequential prototype holding the routing hash (same coins ⇒
    /// same deterministic algorithm as the sequential sketch).
    proto: HyperLogLog,
    registers: Vec<AtomicU8>,
}

impl ConcurrentHll {
    /// Creates a sketch with `2^precision` registers, drawing the hash
    /// from `coins`.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `[4, 16]`.
    pub fn new(precision: u32, coins: &mut CoinFlips) -> Self {
        let proto = HyperLogLog::new(precision, coins);
        let m = proto.num_registers();
        ConcurrentHll {
            proto,
            registers: (0..m).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Observes `item`: one `fetch_max` on its register.
    pub fn update(&self, item: u64) {
        let (idx, rank) = self.proto.route(item);
        self.registers[idx].fetch_max(rank, Ordering::AcqRel);
    }

    /// Absorbs a peer's full register vector — the HLL absorb path of
    /// replication catch-up: register-wise `fetch_max`, i.e. exactly
    /// the union-merge the sequential sketch performs, applied with
    /// the same monotone-merge discipline as [`update`](Self::update).
    ///
    /// # Panics
    ///
    /// Panics if `registers.len()` differs from the register count —
    /// callers gate peer precision (and hash fingerprints) first.
    pub fn absorb(&self, registers: &[u8]) {
        assert_eq!(
            registers.len(),
            self.registers.len(),
            "peer register vector must match this sketch's precision"
        );
        for (reg, &rank) in self.registers.iter().zip(registers) {
            if rank != 0 {
                reg.fetch_max(rank, Ordering::AcqRel);
            }
        }
    }

    /// Loads the register vector.
    pub fn registers_snapshot(&self) -> Vec<u8> {
        self.registers
            .iter()
            .map(|r| r.load(Ordering::Acquire))
            .collect()
    }

    /// One pass over the registers (`Acquire` each, no copy): the
    /// summary every query of this sketch reads.
    pub fn summary(&self) -> RegisterSummary {
        RegisterSummary::from_ranks(self.registers.iter().map(|r| r.load(Ordering::Acquire)))
    }

    /// The corrected cardinality estimate (same estimator as the
    /// sequential sketch, evaluated on the loaded registers).
    pub fn estimate(&self) -> f64 {
        self.summary().estimate()
    }

    /// A strictly monotone integer functional of the register vector:
    /// `Σ_j (2^R − 2^(R − M[j]))` with `R = 64`, i.e. larger registers
    /// ⇒ strictly larger indicator. Used as the query value in formal
    /// IVL checks (the paper's quantitative-object query must be
    /// totally ordered; monotone in every register).
    pub fn indicator(&self) -> u128 {
        let summary = self.summary();
        ((summary.registers() as u128) << 64) - summary.inverse_sum_fixed()
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// The routing prototype (for building matched sequential
    /// sketches in tests).
    pub fn prototype(&self) -> &HyperLogLog {
        &self.proto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_equals_sequential_at_quiescence() {
        let mut coins = CoinFlips::from_seed(1);
        let conc = ConcurrentHll::new(10, &mut coins);
        let mut seq = conc.prototype().clone();
        let n = 50_000u64;
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let conc = &conc;
                s.spawn(move |_| {
                    for x in (t * n / 4)..((t + 1) * n / 4) {
                        conc.update(x);
                    }
                });
            }
        })
        .unwrap();
        for x in 0..n {
            seq.update(x);
        }
        assert_eq!(conc.registers_snapshot(), seq.registers().to_vec());
        assert_eq!(conc.estimate(), seq.estimate());
    }

    #[test]
    fn estimate_reasonable_under_concurrency() {
        let mut coins = CoinFlips::from_seed(2);
        let hll = ConcurrentHll::new(12, &mut coins);
        let n = 80_000u64;
        crossbeam::scope(|s| {
            for t in 0..8u64 {
                let hll = &hll;
                s.spawn(move |_| {
                    for x in (t * n / 8)..((t + 1) * n / 8) {
                        hll.update(x);
                    }
                });
            }
        })
        .unwrap();
        let est = hll.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.1, "estimate {est} vs {n}");
    }

    #[test]
    fn indicator_is_monotone_under_concurrent_reads() {
        let mut coins = CoinFlips::from_seed(3);
        let hll = ConcurrentHll::new(8, &mut coins);
        crossbeam::scope(|s| {
            let hll = &hll;
            let w = s.spawn(move |_| {
                for x in 0..200_000u64 {
                    hll.update(x);
                }
            });
            s.spawn(move |_| {
                let mut last = 0u128;
                for _ in 0..20_000 {
                    let v = hll.indicator();
                    assert!(v >= last, "indicator regressed");
                    last = v;
                }
            });
            w.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn duplicates_do_not_move_indicator() {
        let mut coins = CoinFlips::from_seed(4);
        let hll = ConcurrentHll::new(8, &mut coins);
        for x in 0..100u64 {
            hll.update(x);
        }
        let before = hll.indicator();
        for x in 0..100u64 {
            hll.update(x);
        }
        assert_eq!(hll.indicator(), before);
    }

    #[test]
    fn absorb_takes_register_max_and_a_repeat_changes_nothing() {
        let mut coins = CoinFlips::from_seed(6);
        let a = ConcurrentHll::new(8, &mut coins);
        let mut peer_coins = CoinFlips::from_seed(6);
        let b = ConcurrentHll::new(8, &mut peer_coins);
        let mut union = a.prototype().clone();
        for x in 0..500u64 {
            a.update(x);
            union.update(x);
        }
        for x in 300..900u64 {
            b.update(x);
            union.update(x);
        }
        // The union via absorb equals the sequential sketch of the union.
        a.absorb(&b.registers_snapshot());
        assert_eq!(a.registers_snapshot(), union.registers().to_vec());
        assert_eq!(a.estimate(), union.estimate());
        // Absorbing the same peer again raises nothing.
        let sum = a.summary().register_sum();
        a.absorb(&b.registers_snapshot());
        assert_eq!(a.registers_snapshot(), union.registers().to_vec());
        assert_eq!(a.summary().register_sum(), sum);
    }

    #[test]
    fn register_sum_moves_only_on_raising_updates() {
        let mut coins = CoinFlips::from_seed(5);
        let hll = ConcurrentHll::new(8, &mut coins);
        assert_eq!(hll.summary().register_sum(), 0);
        for x in 0..100u64 {
            hll.update(x);
        }
        let summary = hll.summary();
        assert!(summary.register_sum() > 0, "raising updates move the sum");
        // Duplicates raise nothing: the sum, and so the summary, stay.
        for x in 0..100u64 {
            hll.update(x);
        }
        assert_eq!(hll.summary(), summary);
        // The summary is the one of the loaded registers, and the
        // indicator is its fixed-point complement.
        let snap = hll.registers_snapshot();
        assert_eq!(RegisterSummary::from_ranks(snap.iter().copied()), summary);
        let indicator: u128 = snap
            .iter()
            .map(|&m| (1u128 << 64) - (1u128 << (64 - m as u32)))
            .sum();
        assert_eq!(hll.indicator(), indicator);
    }
}
