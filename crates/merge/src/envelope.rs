//! The IVL error envelope attached to every query answer: the
//! kind-tagged [`ErrorEnvelope`], its wire body, and its composition
//! law across replicas. Each kind's envelope shape, codec and compose
//! rule live in that kind's file under [`crate::kinds`]; this enum is
//! their wire vocabulary and forwards every operation to them.
//!
//! [`ErrorEnvelope::encode_into`] writes the kind-tagged body the
//! `ENVELOPE2` and `SNAPSHOT_DELTA` frames carry: one tag byte (the
//! kind's [`ObjectKind`] tag), then the kind's fields. The wire layer
//! only frames it.

pub use crate::kinds::Envelope;
use crate::kinds::{self, Kind};
use crate::{for_kind, take_u8, MergePolicy, ObjectKind};
use std::fmt;

/// The per-kind error envelope attached to every query response.
///
/// Each registered object kind answers queries with its own guarantee
/// form: the CountMin keeps the Theorem 6 [`Envelope`] unchanged; the
/// HLL, Morris, and min-register objects carry the bound shapes their
/// estimators actually admit. Every variant exposes `observed` — the
/// object's acknowledged update weight, itself an IVL read — and a
/// monotone `value()` used when recording histories, so each
/// projection stays checkable against a sequential spec (Theorem 1
/// locality, per object).
#[derive(Clone, Debug, PartialEq)]
pub enum ErrorEnvelope {
    /// CountMin frequency estimate with the (ε,δ) Theorem 6 bound.
    Frequency(Envelope),
    /// HLL cardinality estimate. `rel_std_err` is the estimator's
    /// relative standard error (`≈ 1.04/√registers`); `register_sum`
    /// is the monotone register-sum indicator the verdict checks.
    Cardinality {
        /// Bias-corrected cardinality estimate.
        estimate: f64,
        /// Relative standard error of the estimator.
        rel_std_err: f64,
        /// Number of registers backing the estimate.
        registers: u64,
        /// Sum of all register values at the served snapshot — the
        /// monotone functional recorded for IVL checking.
        register_sum: u64,
        /// Acknowledged update weight at the served snapshot.
        observed: u64,
    },
    /// Morris approximate count. The estimate derives from the
    /// monotone `exponent` via `((1+a)^x − 1)/a`; the coin flips live
    /// server-side, so the recorded checkable value is `observed`.
    ApproxCount {
        /// Unbiased count estimate derived from the exponent.
        estimate: f64,
        /// The counter's accuracy parameter `a`.
        a: f64,
        /// The monotone Morris exponent at the served snapshot.
        exponent: u32,
        /// Acknowledged update weight at the served snapshot.
        observed: u64,
    },
    /// Minimum key inserted so far (`u64::MAX` when empty) — exact
    /// but antitone, checked by the endpoint-sorting interval checker.
    Minimum {
        /// Smallest inserted key, `u64::MAX` when none.
        minimum: u64,
        /// Acknowledged update weight at the served snapshot.
        observed: u64,
    },
}

impl ErrorEnvelope {
    /// The kind whose answers carry this envelope.
    pub fn kind(&self) -> ObjectKind {
        match self {
            ErrorEnvelope::Frequency(_) => ObjectKind::CountMin,
            ErrorEnvelope::Cardinality { .. } => ObjectKind::Hll,
            ErrorEnvelope::ApproxCount { .. } => ObjectKind::Morris,
            ErrorEnvelope::Minimum { .. } => ObjectKind::MinRegister,
        }
    }

    /// The object's acknowledged update weight at the served snapshot
    /// (the CountMin's `stream_len`).
    pub fn observed(&self) -> u64 {
        for_kind!(self.kind(), K => K::observed(self))
    }

    /// The value recorded into query histories: a monotone (or, for
    /// the min register, antitone) integer functional of the object's
    /// update set, so every projection is checkable by the interval
    /// checker. Frequency → estimate, cardinality → register sum,
    /// approximate count → acknowledged weight (the exponent's coin
    /// flips live server-side, so the weight counter is the checkable
    /// functional), minimum → the minimum.
    pub fn value(&self) -> u64 {
        for_kind!(self.kind(), K => K::value(self))
    }

    /// Widens the envelope for weight a merged read may not see
    /// (`unseen`) and may count twice (`doubt`); only the frequency
    /// envelope carries such terms.
    pub fn widen(&mut self, unseen: u64, doubt: u64) {
        for_kind!(self.kind(), K => K::widen(self, unseen, doubt))
    }

    /// Appends the kind-tagged body: one tag byte, then the variant's
    /// fields in declaration order.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.kind().to_u8());
        for_kind!(self.kind(), K => K::encode_envelope(self, out))
    }

    /// Decodes a kind-tagged body from the front of `body`, consuming
    /// exactly the encoded bytes.
    pub fn decode_from(body: &mut &[u8]) -> Result<Self, &'static str> {
        let kind = ObjectKind::from_u8(take_u8(body)?).ok_or("unknown envelope kind tag")?;
        for_kind!(kind, K => K::decode_envelope(body))
    }

    /// Composes per-replica envelopes into one envelope covering what
    /// the merged state covers — the replication layer's merged answer
    /// ships this instead of inventing a bound. `policy` is the law the
    /// replicas' states merged under: [`MergePolicy::Add`] for
    /// *partitioned* (disjoint) substreams, [`MergePolicy::Join`] for
    /// *mirrored* copies of one stream. Each kind's [`Kind::compose`]
    /// states why its rule is sound under both; `observed` follows the
    /// law everywhere ([`MergePolicy::fold`]).
    ///
    /// Every sum saturates at `u64::MAX`. The parts are decoded from
    /// replica frames without validation, and a wrapped sum would
    /// narrow the envelope into one that lies; a saturated one only
    /// stops saying anything.
    ///
    /// # Errors
    ///
    /// [`ComposeError::Empty`] on an empty slice,
    /// [`ComposeError::KindMismatch`] when parts are different
    /// envelope kinds, [`ComposeError::ParamMismatch`] when parts
    /// disagree on a parameter that must be shared (key, alpha,
    /// register count, `a`).
    pub fn compose(
        parts: &[ErrorEnvelope],
        policy: MergePolicy,
    ) -> Result<ErrorEnvelope, ComposeError> {
        let kind = parts.first().ok_or(ComposeError::Empty)?.kind();
        if parts.iter().any(|part| part.kind() != kind) {
            return Err(ComposeError::KindMismatch);
        }
        for_kind!(kind, K => kinds::compose::<K>(parts, policy))
    }
}

/// One line per envelope: the served value and every term of its
/// bound, as a client shows it to an operator.
impl fmt::Display for ErrorEnvelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for_kind!(self.kind(), K => K::fmt_envelope(self, f))
    }
}

/// Why [`ErrorEnvelope::compose`] refused a part list.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ComposeError {
    /// No parts were given; there is no neutral envelope to return.
    Empty,
    /// Parts are different envelope kinds — their guarantees do not
    /// share a value domain.
    KindMismatch,
    /// Parts disagree on the named parameter that composition needs
    /// shared (same key, same sketch coins/dimensions).
    ParamMismatch(&'static str),
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::Empty => write!(f, "cannot compose an empty envelope list"),
            ComposeError::KindMismatch => write!(f, "cannot compose envelopes of different kinds"),
            ComposeError::ParamMismatch(which) => {
                write!(f, "cannot compose envelopes with mismatched {which}")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SHORT_BODY;

    #[test]
    fn epsilon_is_ceil_alpha_n() {
        let e = Envelope::new(1, 10, 1_000, 0.005, 0.01, 0);
        assert_eq!(e.epsilon, 5);
        let e = Envelope::new(1, 10, 1_001, 0.005, 0.01, 0);
        assert_eq!(e.epsilon, 6); // 5.005 rounds up
        let e = Envelope::new(1, 10, 0, 0.005, 0.01, 0);
        assert_eq!(e.epsilon, 0);
    }

    #[test]
    fn covers_matches_theorem6_window() {
        let e = Envelope::new(1, 10, 1_000, 0.005, 0.01, 0); // epsilon 5
        assert!(e.covers(10, 10)); // exact
        assert!(e.covers(5, 5)); // within +epsilon of f_end
        assert!(e.covers(10, 20)); // concurrent updates still arriving
        assert!(!e.covers(11, 20)); // would underestimate a completed update
        assert!(!e.covers(0, 4)); // overestimates beyond epsilon
    }

    #[test]
    fn lag_widens_only_the_lower_guarantee() {
        // Same parameters as above but lag 4: a completed update may
        // still be buffered, so f_start up to estimate + lag is fine.
        let e = Envelope::new(1, 10, 1_000, 0.005, 0.01, 4); // epsilon 5
        assert!(e.covers(14, 14)); // within the widened window
        assert!(!e.covers(15, 20)); // beyond estimate + lag
        assert!(!e.covers(0, 4)); // epsilon side is unchanged
        assert_eq!(e.upper_bound(), 14);
        assert_eq!(e.lower_bound(), 5); // lower bound is lag-independent
    }

    #[test]
    fn zero_lag_recovers_strict_upper_bound() {
        let strict = Envelope::new(1, 10, 1_000, 0.005, 0.01, 0);
        assert_eq!(strict.upper_bound(), strict.estimate);
    }

    #[test]
    fn bounds_are_ordered_and_saturating() {
        let e = Envelope::new(1, 3, 10_000, 0.005, 0.01, 0); // epsilon 50 > estimate
        assert_eq!(e.lower_bound(), 0);
        assert!(e.lower_bound() <= e.upper_bound());
    }

    #[test]
    fn error_envelope_exposes_observed_value_and_frequency() {
        let freq = ErrorEnvelope::Frequency(Envelope::new(7, 12, 1_000, 0.005, 0.01, 0));
        assert_eq!(freq.observed(), 1_000);
        assert_eq!(freq.value(), 12);
        assert_eq!(freq.frequency().unwrap().key, 7);

        let card = ErrorEnvelope::Cardinality {
            estimate: 99.5,
            rel_std_err: 0.016,
            registers: 4096,
            register_sum: 88,
            observed: 120,
        };
        assert_eq!((card.observed(), card.value()), (120, 88));
        assert!(card.frequency().is_none());

        let approx = ErrorEnvelope::ApproxCount {
            estimate: 30.0,
            a: 0.5,
            exponent: 9,
            observed: 31,
        };
        assert_eq!((approx.observed(), approx.value()), (31, 31));

        let min = ErrorEnvelope::Minimum {
            minimum: 4,
            observed: 17,
        };
        assert_eq!((min.observed(), min.value()), (17, 4));
    }

    #[test]
    fn compose_frequency_sums_terms_and_caps_delta() {
        let a = ErrorEnvelope::Frequency(Envelope::new(7, 12, 1_000, 0.005, 0.6, 2));
        let b = ErrorEnvelope::Frequency(Envelope::new(7, 5, 401, 0.005, 0.6, 1));
        let parts = [a, b];
        let ErrorEnvelope::Frequency(c) = ErrorEnvelope::compose(&parts, MergePolicy::Add).unwrap()
        else {
            panic!("kind preserved");
        };
        assert_eq!(c.key, 7);
        assert_eq!(c.estimate, 17);
        assert_eq!(c.epsilon, 5 + 3); // ⌈0.005·1000⌉ + ⌈0.005·401⌉
        assert_eq!(c.stream_len, 1_401);
        assert_eq!(c.lag, 3);
        assert_eq!(c.delta, 1.0); // union bound capped
                                  // Mirrored copies share one (ε,δ) event: every term is the max,
                                  // and ε is the one a single sketch of the longest copy states.
        let ErrorEnvelope::Frequency(m) =
            ErrorEnvelope::compose(&parts, MergePolicy::Join).unwrap()
        else {
            panic!("kind preserved");
        };
        assert_eq!(m, Envelope::new(7, 12, 1_000, 0.005, 0.6, 2));
        assert_eq!(m.epsilon, 5); // ⌈0.005·max(1000, 401)⌉
    }

    #[test]
    fn compose_of_one_is_identity() {
        for env in [
            ErrorEnvelope::Frequency(Envelope::new(3, 9, 100, 0.01, 0.05, 0)),
            ErrorEnvelope::Cardinality {
                estimate: 90.0,
                rel_std_err: 0.016,
                registers: 4096,
                register_sum: 80,
                observed: 100,
            },
            ErrorEnvelope::ApproxCount {
                estimate: 30.0,
                a: 0.5,
                exponent: 9,
                observed: 31,
            },
            ErrorEnvelope::Minimum {
                minimum: 9,
                observed: 4,
            },
        ] {
            for policy in [MergePolicy::Add, MergePolicy::Join] {
                assert_eq!(
                    ErrorEnvelope::compose(std::slice::from_ref(&env), policy).unwrap(),
                    env
                );
            }
        }
    }

    #[test]
    fn compose_cardinality_maxes_monotone_parts_and_sums_observed() {
        let a = ErrorEnvelope::Cardinality {
            estimate: 90.0,
            rel_std_err: 0.016,
            registers: 4096,
            register_sum: 80,
            observed: 100,
        };
        let b = ErrorEnvelope::Cardinality {
            estimate: 120.0,
            rel_std_err: 0.016,
            registers: 4096,
            register_sum: 95,
            observed: 140,
        };
        // Register maxima are the same under both laws; only the
        // acknowledged weight tells disjoint substreams from copies.
        for (policy, want_observed) in [(MergePolicy::Add, 240), (MergePolicy::Join, 140)] {
            let c = ErrorEnvelope::compose(&[a.clone(), b.clone()], policy).unwrap();
            let ErrorEnvelope::Cardinality {
                estimate,
                register_sum,
                observed,
                ..
            } = c
            else {
                panic!("kind preserved");
            };
            assert_eq!(estimate, 120.0);
            assert_eq!(register_sum, 95);
            assert_eq!(observed, want_observed);
        }
    }

    #[test]
    fn compose_approx_count_sums_estimates() {
        let a = ErrorEnvelope::ApproxCount {
            estimate: 30.0,
            a: 0.5,
            exponent: 9,
            observed: 31,
        };
        let b = ErrorEnvelope::ApproxCount {
            estimate: 12.0,
            a: 0.5,
            exponent: 7,
            observed: 13,
        };
        let parts = [a.clone(), b];
        let c = ErrorEnvelope::compose(&parts, MergePolicy::Add).unwrap();
        assert_eq!(
            c,
            ErrorEnvelope::ApproxCount {
                estimate: 42.0,
                a: 0.5,
                exponent: 9,
                observed: 44,
            }
        );
        // Mirrored: the largest copy, max exponent, max weight.
        assert_eq!(
            ErrorEnvelope::compose(&parts, MergePolicy::Join).unwrap(),
            a
        );
    }

    #[test]
    fn compose_minimum_takes_the_min() {
        let a = ErrorEnvelope::Minimum {
            minimum: 9,
            observed: 4,
        };
        let b = ErrorEnvelope::Minimum {
            minimum: 3,
            observed: 6,
        };
        let parts = [a, b];
        assert_eq!(
            ErrorEnvelope::compose(&parts, MergePolicy::Add).unwrap(),
            ErrorEnvelope::Minimum {
                minimum: 3,
                observed: 10,
            }
        );
        assert_eq!(
            ErrorEnvelope::compose(&parts, MergePolicy::Join).unwrap(),
            ErrorEnvelope::Minimum {
                minimum: 3,
                observed: 6,
            }
        );
    }

    #[test]
    fn compose_rejects_empty_mixed_kinds_and_mismatched_params() {
        for policy in [MergePolicy::Add, MergePolicy::Join] {
            assert_eq!(
                ErrorEnvelope::compose(&[], policy),
                Err(ComposeError::Empty)
            );
            let freq = ErrorEnvelope::Frequency(Envelope::new(1, 1, 10, 0.005, 0.01, 0));
            let min = ErrorEnvelope::Minimum {
                minimum: 1,
                observed: 1,
            };
            assert_eq!(
                ErrorEnvelope::compose(&[freq.clone(), min.clone()], policy),
                Err(ComposeError::KindMismatch)
            );
            assert_eq!(
                ErrorEnvelope::compose(&[min, freq.clone()], policy),
                Err(ComposeError::KindMismatch)
            );
            let other_key = ErrorEnvelope::Frequency(Envelope::new(2, 1, 10, 0.005, 0.01, 0));
            assert_eq!(
                ErrorEnvelope::compose(&[freq.clone(), other_key], policy),
                Err(ComposeError::ParamMismatch("key"))
            );
            let other_alpha = ErrorEnvelope::Frequency(Envelope::new(1, 1, 10, 0.01, 0.01, 0));
            assert_eq!(
                ErrorEnvelope::compose(&[freq, other_alpha], policy),
                Err(ComposeError::ParamMismatch("alpha"))
            );
            let card = |regs: u64| ErrorEnvelope::Cardinality {
                estimate: 1.0,
                rel_std_err: 1.04 / (regs as f64).sqrt(),
                registers: regs,
                register_sum: 1,
                observed: 1,
            };
            assert_eq!(
                ErrorEnvelope::compose(&[card(4096), card(1024)], policy),
                Err(ComposeError::ParamMismatch("registers"))
            );
            let approx = |a: f64| ErrorEnvelope::ApproxCount {
                estimate: 1.0,
                a,
                exponent: 1,
                observed: 1,
            };
            assert_eq!(
                ErrorEnvelope::compose(&[approx(0.5), approx(0.25)], policy),
                Err(ComposeError::ParamMismatch("a"))
            );
        }
    }

    #[test]
    fn compose_saturates_instead_of_wrapping() {
        // A replica frame claiming near-`u64::MAX` weight must pin the
        // composed envelope at its widest, never wrap it narrow.
        let huge = Envelope {
            lag: u64::MAX - 1,
            ..Envelope::new(1, u64::MAX - 1, u64::MAX - 1, 0.005, 0.01, 0)
        };
        let small = Envelope::new(1, 5, 5, 0.005, 0.01, 5);
        let ErrorEnvelope::Frequency(c) = ErrorEnvelope::compose(
            &[
                ErrorEnvelope::Frequency(huge),
                ErrorEnvelope::Frequency(small),
            ],
            MergePolicy::Add,
        )
        .unwrap() else {
            panic!("kind preserved");
        };
        assert_eq!(c.stream_len, u64::MAX, "not 3");
        assert_eq!(c.lag, u64::MAX);
        assert_eq!(c.estimate, u64::MAX);
        assert_eq!(c.epsilon, huge.epsilon.saturating_add(small.epsilon));
        assert_eq!(c.upper_bound(), u64::MAX);
        assert!(c.covers(u64::MAX, u64::MAX));
        for (big, five) in [
            (
                ErrorEnvelope::Cardinality {
                    estimate: 1.0,
                    rel_std_err: 0.016,
                    registers: 4096,
                    register_sum: 1,
                    observed: u64::MAX - 1,
                },
                ErrorEnvelope::Cardinality {
                    estimate: 1.0,
                    rel_std_err: 0.016,
                    registers: 4096,
                    register_sum: 1,
                    observed: 5,
                },
            ),
            (
                ErrorEnvelope::approx_count(0.5, 3, u64::MAX - 1),
                ErrorEnvelope::approx_count(0.5, 3, 5),
            ),
            (
                ErrorEnvelope::Minimum {
                    minimum: 1,
                    observed: u64::MAX - 1,
                },
                ErrorEnvelope::Minimum {
                    minimum: 1,
                    observed: 5,
                },
            ),
        ] {
            let c = ErrorEnvelope::compose(&[big, five], MergePolicy::Add).unwrap();
            assert_eq!(c.observed(), u64::MAX);
        }
    }

    fn every_kind() -> [ErrorEnvelope; 4] {
        [
            ErrorEnvelope::Frequency(Envelope::new(7, 12, 1_000, 0.005, 0.01, 3)),
            ErrorEnvelope::Cardinality {
                estimate: 99.5,
                rel_std_err: 0.016,
                registers: 4096,
                register_sum: 88,
                observed: 120,
            },
            ErrorEnvelope::approx_count(0.5, 9, 31),
            ErrorEnvelope::Minimum {
                minimum: 4,
                observed: 17,
            },
        ]
    }

    #[test]
    fn tagged_bodies_roundtrip_and_consume_exactly_the_body() {
        for env in every_kind() {
            let mut buf = Vec::new();
            env.encode_into(&mut buf);
            buf.extend_from_slice(b"trailer");
            let mut body = buf.as_slice();
            assert_eq!(ErrorEnvelope::decode_from(&mut body).unwrap(), env);
            assert_eq!(body, b"trailer");
        }
        // The untagged frequency body is the tagged one minus its tag.
        let ErrorEnvelope::Frequency(freq) = every_kind()[0] else {
            unreachable!("listed first");
        };
        let (mut tagged, mut untagged) = (Vec::new(), Vec::new());
        ErrorEnvelope::Frequency(freq).encode_into(&mut tagged);
        freq.encode_into(&mut untagged);
        assert_eq!(tagged[1..], untagged[..]);
        assert_eq!(Envelope::decode_from(&mut untagged.as_slice()), Ok(freq));
    }

    #[test]
    fn decode_refuses_unknown_tags_and_short_bodies() {
        assert_eq!(
            ErrorEnvelope::decode_from(&mut [0x7f_u8].as_slice()),
            Err("unknown envelope kind tag")
        );
        assert_eq!(
            ErrorEnvelope::decode_from(&mut [].as_slice()),
            Err(SHORT_BODY)
        );
        for env in every_kind() {
            let mut buf = Vec::new();
            env.encode_into(&mut buf);
            buf.pop();
            assert_eq!(
                ErrorEnvelope::decode_from(&mut buf.as_slice()),
                Err(SHORT_BODY)
            );
        }
    }

    #[test]
    fn display_is_one_line_per_kind() {
        let lines = every_kind().map(|env| env.to_string());
        assert_eq!(
            lines[0],
            "frequency of key 7: estimate 12 (true frequency in [7, 15] w.p. >= 0.990; \
             epsilon 5 = ceil(0.0050 * 1000), write-buffer lag 3)"
        );
        assert!(lines[1].starts_with("cardinality: estimate 99.5"));
        assert!(lines[2].starts_with("approximate count: estimate"));
        assert_eq!(lines[3], "minimum: 4 (observed weight 17)");
        let empty = ErrorEnvelope::Minimum {
            minimum: u64::MAX,
            observed: 0,
        };
        assert_eq!(empty.to_string(), "minimum: empty (observed weight 0)");
        assert!(lines.iter().all(|line| !line.contains('\n')));
    }
}
