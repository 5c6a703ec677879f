//! The IVL error envelope attached to every query answer: its shapes,
//! its wire body, and its composition law across replicas.
//!
//! The server's sketch is the sharded `PCM(c̄)` — IVL but not
//! linearizable. Theorem 6 is what makes a *served* estimate
//! meaningful despite concurrency: an IVL implementation of a
//! sequential (ε,δ)-bounded object is itself (ε,δ)-bounded, with the
//! sequential error bound read against `v_min` (the object's value
//! over completed updates when the query starts) and `v_max` (its
//! value over invoked updates when the query ends). For CountMin that
//! instantiates to
//!
//! * `estimate ≥ f_start` always — CountMin never underestimates, and
//!   by IVL the estimate dominates some state containing every update
//!   completed before the query began;
//! * `estimate ≤ f_end + ε` with probability at least `1 − δ`, where
//!   `ε = α·n` and `n` is the total stream weight at the query's end.
//!
//! With write buffering enabled (Lemma 10's batched-counter
//! construction, DESIGN §9) the server additionally widens the
//! envelope by a deterministic `lag ≤ n_writers·b`: an acknowledged
//! update may sit invisible in a writer's local buffer, so the lower
//! guarantee relaxes to `estimate ≥ f_start − lag`, equivalently
//! `f_start ≤ estimate + lag`. Queries on an unbuffered server carry
//! `lag = 0` and recover the strict envelope exactly.
//!
//! The envelope ships `(estimate, ε, δ, n, lag)` so the client can
//! reconstruct exactly that guarantee without knowing the sketch's
//! dimensions.
//!
//! The byte layout lives here too, next to the state codec and on the
//! same readers: [`ErrorEnvelope::encode_into`] writes the kind-tagged
//! body the `ENVELOPE2` and `SNAPSHOT_DELTA` frames carry.
//! The wire layer only frames it.

use crate::{take_u32, take_u64, take_u8, MergePolicy};
use ivl_sketch::hll::RegisterSummary;
use std::fmt;

/// Kind tags of the kind-tagged envelope body, one per [`ErrorEnvelope`]
/// variant.
const ENV_FREQUENCY: u8 = 0;
const ENV_CARDINALITY: u8 = 1;
const ENV_APPROX_COUNT: u8 = 2;
const ENV_MINIMUM: u8 = 3;

fn take_f64(body: &mut &[u8]) -> Result<f64, &'static str> {
    take_u64(body).map(f64::from_bits)
}

fn put_u64s(out: &mut Vec<u8>, words: &[u64]) {
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// A frequency estimate together with its Theorem 6 (ε,δ) bound,
/// widened by the deferred-visibility `lag` when write buffering is
/// enabled (Lemma 10, DESIGN §9).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// The queried item.
    pub key: u64,
    /// The served point estimate.
    pub estimate: u64,
    /// Absolute error bound `⌈α·n⌉` at the query's stream length.
    pub epsilon: u64,
    /// Failure probability of the upper bound.
    pub delta: f64,
    /// Total stream weight observed by the server (an IVL read of the
    /// ingest counter, so itself an intermediate value).
    pub stream_len: u64,
    /// The sketch's relative-error parameter `α` (`ε = α·n`).
    pub alpha: f64,
    /// Deferred-visibility bound: at most this much acknowledged
    /// weight may still be invisible in writer-local buffers
    /// (`n_writers·b`; 0 when write buffering is off).
    pub lag: u64,
}

impl Envelope {
    /// Builds the envelope for `estimate` of `key` at stream length
    /// `stream_len`, under sketch parameters `(alpha, delta)`, with a
    /// deferred-visibility bound of `lag` (0 when the server applies
    /// every update before acknowledging it).
    pub fn new(key: u64, estimate: u64, stream_len: u64, alpha: f64, delta: f64, lag: u64) -> Self {
        Envelope {
            key,
            estimate,
            epsilon: (alpha * stream_len as f64).ceil() as u64,
            delta,
            stream_len,
            alpha,
            lag,
        }
    }

    /// Smallest true frequency compatible with the envelope's upper
    /// bound: `max(0, estimate − ε)`.
    pub fn lower_bound(&self) -> u64 {
        self.estimate.saturating_sub(self.epsilon)
    }

    /// Largest completed frequency compatible with the envelope:
    /// `estimate + lag`. Without buffering this is the estimate itself
    /// — CountMin never underestimates; with buffering, up to `lag`
    /// acknowledged weight may still be pending in writer buffers.
    pub fn upper_bound(&self) -> u64 {
        self.estimate.saturating_add(self.lag)
    }

    /// The Theorem 6 check for a concurrent query: `f_start` is the
    /// key's true frequency over updates *completed* before the query
    /// was invoked, `f_end` over updates *invoked* before it returned.
    /// Deterministically `estimate ≥ f_start − lag` (Lemma 10 widens
    /// the lower guarantee by the buffered weight; `lag = 0` recovers
    /// `estimate ≥ f_start`); with probability `1 − δ`,
    /// `estimate ≤ f_end + ε`. Returns whether the served envelope
    /// satisfies both.
    pub fn covers(&self, f_start: u64, f_end: u64) -> bool {
        f_start <= self.upper_bound() && self.estimate <= f_end.saturating_add(self.epsilon)
    }

    /// Appends the frequency fields (little-endian; the floats as
    /// IEEE-754 bit patterns): what follows the frequency tag in a
    /// kind-tagged body.
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64s(
            out,
            &[
                self.key,
                self.estimate,
                self.epsilon,
                self.stream_len,
                self.alpha.to_bits(),
                self.delta.to_bits(),
                self.lag,
            ],
        );
    }

    /// Decodes the frequency fields from the front of `body`, consuming
    /// exactly the encoded bytes.
    fn decode_from(body: &mut &[u8]) -> Result<Self, &'static str> {
        Ok(Envelope {
            key: take_u64(body)?,
            estimate: take_u64(body)?,
            epsilon: take_u64(body)?,
            stream_len: take_u64(body)?,
            alpha: take_f64(body)?,
            delta: take_f64(body)?,
            lag: take_u64(body)?,
        })
    }
}

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
    /// The object's acknowledged update weight at the served snapshot
    /// (the CountMin's `stream_len`).
    pub fn observed(&self) -> u64 {
        match self {
            ErrorEnvelope::Frequency(env) => env.stream_len,
            ErrorEnvelope::Cardinality { observed, .. }
            | ErrorEnvelope::ApproxCount { observed, .. }
            | ErrorEnvelope::Minimum { observed, .. } => *observed,
        }
    }

    /// The value recorded into query histories: a monotone (or, for
    /// the min register, antitone) integer functional of the object's
    /// update set, so every projection is checkable by the interval
    /// checker. Frequency → estimate, cardinality → register sum,
    /// approximate count → acknowledged weight (the exponent's coin
    /// flips live server-side, so the weight counter is the checkable
    /// functional), minimum → the minimum.
    pub fn value(&self) -> u64 {
        match self {
            ErrorEnvelope::Frequency(env) => env.estimate,
            ErrorEnvelope::Cardinality { register_sum, .. } => *register_sum,
            ErrorEnvelope::ApproxCount { observed, .. } => *observed,
            ErrorEnvelope::Minimum { minimum, .. } => *minimum,
        }
    }

    /// The Theorem 6 frequency envelope, when this is one.
    pub fn frequency(&self) -> Option<&Envelope> {
        match self {
            ErrorEnvelope::Frequency(env) => Some(env),
            _ => None,
        }
    }

    /// The cardinality envelope of an HLL whose registers `summary`
    /// summarizes: their estimate and standard error, plus their sum —
    /// the monotone indicator the verdict checks.
    pub fn cardinality(summary: &RegisterSummary, observed: u64) -> ErrorEnvelope {
        ErrorEnvelope::Cardinality {
            estimate: summary.estimate(),
            rel_std_err: summary.standard_error(),
            registers: summary.registers(),
            register_sum: summary.register_sum(),
            observed,
        }
    }

    /// The approximate-count envelope of a Morris counter with accuracy
    /// parameter `a` at `exponent`: the unbiased estimate
    /// `((1+a)^x − 1)/a`.
    pub fn approx_count(a: f64, exponent: u32, observed: u64) -> ErrorEnvelope {
        ErrorEnvelope::ApproxCount {
            estimate: ((1.0 + a).powi(exponent as i32) - 1.0) / a,
            a,
            exponent,
            observed,
        }
    }

    /// Appends the kind-tagged body: one tag byte, then the variant's
    /// fields in declaration order.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ErrorEnvelope::Frequency(env) => {
                out.push(ENV_FREQUENCY);
                env.encode_into(out);
            }
            ErrorEnvelope::Cardinality {
                estimate,
                rel_std_err,
                registers,
                register_sum,
                observed,
            } => {
                out.push(ENV_CARDINALITY);
                put_u64s(
                    out,
                    &[
                        estimate.to_bits(),
                        rel_std_err.to_bits(),
                        *registers,
                        *register_sum,
                        *observed,
                    ],
                );
            }
            ErrorEnvelope::ApproxCount {
                estimate,
                a,
                exponent,
                observed,
            } => {
                out.push(ENV_APPROX_COUNT);
                put_u64s(out, &[estimate.to_bits(), a.to_bits()]);
                out.extend_from_slice(&exponent.to_le_bytes());
                put_u64s(out, &[*observed]);
            }
            ErrorEnvelope::Minimum { minimum, observed } => {
                out.push(ENV_MINIMUM);
                put_u64s(out, &[*minimum, *observed]);
            }
        }
    }

    /// Decodes a kind-tagged body from the front of `body`, consuming
    /// exactly the encoded bytes.
    pub fn decode_from(body: &mut &[u8]) -> Result<Self, &'static str> {
        Ok(match take_u8(body)? {
            ENV_FREQUENCY => ErrorEnvelope::Frequency(Envelope::decode_from(body)?),
            ENV_CARDINALITY => ErrorEnvelope::Cardinality {
                estimate: take_f64(body)?,
                rel_std_err: take_f64(body)?,
                registers: take_u64(body)?,
                register_sum: take_u64(body)?,
                observed: take_u64(body)?,
            },
            ENV_APPROX_COUNT => ErrorEnvelope::ApproxCount {
                estimate: take_f64(body)?,
                a: take_f64(body)?,
                exponent: take_u32(body)?,
                observed: take_u64(body)?,
            },
            ENV_MINIMUM => ErrorEnvelope::Minimum {
                minimum: take_u64(body)?,
                observed: take_u64(body)?,
            },
            _ => return Err("unknown envelope kind tag"),
        })
    }

    /// Composes per-replica envelopes into one envelope covering what
    /// the merged state covers — the replication layer's merged answer
    /// ships this instead of inventing a bound. `policy` is the law the
    /// replicas' states merged under: [`MergePolicy::Add`] for
    /// *partitioned* (disjoint) substreams, [`MergePolicy::Join`] for
    /// *mirrored* copies of one stream.
    ///
    /// Soundness per kind, with every part's guarantee over its own
    /// substream (`Add`) or copy (`Join`):
    ///
    /// * **Frequency** — `Add`: merged CountMin cells are cell-wise
    ///   sums, so the merged estimate is at most the sum of part
    ///   estimates and at least the union frequency. Summing `epsilon`
    ///   terms is the union bound over the parts' (ε,δ) events
    ///   (`⌈αΣnᵢ⌉ ≤ Σ⌈αnᵢ⌉`), `delta` adds (capped at 1), and
    ///   `stream_len`/`lag` add because the substreams and writer sets
    ///   are disjoint. `Join`: merged cells are cell-wise maxima of
    ///   copies that share their hash functions, so they never pass
    ///   the cells of one sketch over the whole stream — the parts
    ///   share one (ε,δ) event, and every term takes its max
    ///   (`ε = max ⌈αnᵢ⌉ = ⌈α·max nᵢ⌉`). Parts must agree on `key` and
    ///   `alpha`.
    /// * **Cardinality** — register-wise max merging only grows
    ///   registers, so the max of part `register_sum`s (and of the
    ///   monotone-in-registers raw estimates) lower-bounds the merged
    ///   sketch under either law; the caller re-estimates from merged
    ///   registers for the served value. Parts must agree on
    ///   `registers` (same precision) and `rel_std_err`.
    /// * **ApproxCount** — `Add`: estimates add (each part counted a
    ///   disjoint substream); `Join`: the largest copy's estimate. The
    ///   composed `exponent` keeps the max as the monotone indicator
    ///   under both. Parts must agree on `a`.
    /// * **Minimum** — the minimum of the union (or of the common
    ///   stream) is the min of part minima, exactly, under both.
    ///
    /// `observed` follows the law: acknowledged weight sums over
    /// disjoint substreams and takes the max over copies.
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
        let (first, rest) = parts.split_first().ok_or(ComposeError::Empty)?;
        // The law's fold of one additive term.
        let law = |acc: u64, v: u64| match policy {
            MergePolicy::Add => acc.saturating_add(v),
            MergePolicy::Join => acc.max(v),
        };
        rest.iter().try_fold(first.clone(), |acc, part| {
            Ok(match (acc, part) {
                (ErrorEnvelope::Frequency(acc), ErrorEnvelope::Frequency(env)) => {
                    if env.key != acc.key {
                        return Err(ComposeError::ParamMismatch("key"));
                    }
                    if env.alpha != acc.alpha {
                        return Err(ComposeError::ParamMismatch("alpha"));
                    }
                    ErrorEnvelope::Frequency(Envelope {
                        estimate: law(acc.estimate, env.estimate),
                        epsilon: law(acc.epsilon, env.epsilon),
                        delta: match policy {
                            MergePolicy::Add => (acc.delta + env.delta).min(1.0),
                            MergePolicy::Join => acc.delta.max(env.delta),
                        },
                        stream_len: law(acc.stream_len, env.stream_len),
                        lag: law(acc.lag, env.lag),
                        ..acc
                    })
                }
                (
                    ErrorEnvelope::Cardinality {
                        estimate,
                        rel_std_err,
                        registers,
                        register_sum,
                        observed,
                    },
                    ErrorEnvelope::Cardinality {
                        estimate: part_estimate,
                        rel_std_err: part_rse,
                        registers: part_registers,
                        register_sum: part_sum,
                        observed: part_observed,
                    },
                ) => {
                    if *part_registers != registers {
                        return Err(ComposeError::ParamMismatch("registers"));
                    }
                    if *part_rse != rel_std_err {
                        return Err(ComposeError::ParamMismatch("rel_std_err"));
                    }
                    ErrorEnvelope::Cardinality {
                        estimate: estimate.max(*part_estimate),
                        rel_std_err,
                        registers,
                        register_sum: register_sum.max(*part_sum),
                        observed: law(observed, *part_observed),
                    }
                }
                (
                    ErrorEnvelope::ApproxCount {
                        estimate,
                        a,
                        exponent,
                        observed,
                    },
                    ErrorEnvelope::ApproxCount {
                        estimate: part_estimate,
                        a: part_a,
                        exponent: part_exponent,
                        observed: part_observed,
                    },
                ) => {
                    if *part_a != a {
                        return Err(ComposeError::ParamMismatch("a"));
                    }
                    ErrorEnvelope::ApproxCount {
                        estimate: match policy {
                            MergePolicy::Add => estimate + part_estimate,
                            MergePolicy::Join => estimate.max(*part_estimate),
                        },
                        a,
                        exponent: exponent.max(*part_exponent),
                        observed: law(observed, *part_observed),
                    }
                }
                (
                    ErrorEnvelope::Minimum { minimum, observed },
                    ErrorEnvelope::Minimum {
                        minimum: part_minimum,
                        observed: part_observed,
                    },
                ) => ErrorEnvelope::Minimum {
                    minimum: minimum.min(*part_minimum),
                    observed: law(observed, *part_observed),
                },
                _ => return Err(ComposeError::KindMismatch),
            })
        })
    }
}

/// One line per envelope: the served value and every term of its
/// bound, as a client shows it to an operator.
impl fmt::Display for ErrorEnvelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorEnvelope::Frequency(env) => write!(
                f,
                "frequency of key {}: estimate {} (true frequency in [{}, {}] w.p. >= {:.3}; \
                 epsilon {} = ceil({:.4} * {}), write-buffer lag {})",
                env.key,
                env.estimate,
                env.lower_bound(),
                env.upper_bound(),
                1.0 - env.delta,
                env.epsilon,
                env.alpha,
                env.stream_len,
                env.lag
            ),
            ErrorEnvelope::Cardinality {
                estimate,
                rel_std_err,
                registers,
                register_sum,
                observed,
            } => write!(
                f,
                "cardinality: estimate {estimate:.1} (rel std err {rel_std_err:.4}, \
                 {registers} registers, register sum {register_sum}, observed weight {observed})"
            ),
            ErrorEnvelope::ApproxCount {
                estimate,
                a,
                exponent,
                observed,
            } => write!(
                f,
                "approximate count: estimate {estimate:.1} (a {a}, exponent {exponent}, \
                 acknowledged weight {observed})"
            ),
            ErrorEnvelope::Minimum {
                minimum: u64::MAX,
                observed,
            } => write!(f, "minimum: empty (observed weight {observed})"),
            ErrorEnvelope::Minimum { minimum, observed } => {
                write!(f, "minimum: {minimum} (observed weight {observed})")
            }
        }
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
