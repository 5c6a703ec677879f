//! The correctness gate: after the measured window the system is
//! quiescent, so every acknowledged update must be visible and every
//! answer's envelope must cover the exact count the benchmark kept.

use crate::sut::Freq;

/// What the gate saw, for the run's detail line.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GateReport {
    pub keys_checked: usize,
    /// Sampled keys whose estimate exceeded `f + epsilon`: allowed for
    /// at most a `delta` share of them.
    pub epsilon_misses: usize,
    pub epsilon_misses_allowed: usize,
}

/// Checks the quiescent system against the exact ledger.
///
/// * `observed`: per object, `(what the system reports, exact
///   acknowledged weight)`; they must be equal.
/// * `keys`: per sampled key, `(exact count, served envelope)`. The
///   deterministic side (`f <= estimate + lag`) must hold for every
///   key; the probabilistic side (`estimate <= f + epsilon`) may fail
///   for at most a `delta` share; and every envelope must state the
///   exact stream length.
pub fn check(observed: &[(u64, u64)], keys: &[(u64, Freq)]) -> Result<GateReport, String> {
    for (object, &(reported, exact)) in observed.iter().enumerate() {
        if reported != exact {
            return Err(format!(
                "object {object} reports stream_len/observed {reported}, acknowledged weight is {exact}"
            ));
        }
    }
    let mut misses = 0;
    let mut delta: f64 = 0.0;
    for &(f, env) in keys {
        let (covers_low, covers_high) = env.sides(f);
        if !covers_low {
            return Err(format!(
                "envelope undercounts: exact {f} > estimate {} + lag {}",
                env.estimate, env.lag
            ));
        }
        if env.stream_len != observed[0].1 {
            return Err(format!(
                "envelope states stream_len {}, acknowledged weight is {}",
                env.stream_len, observed[0].1
            ));
        }
        misses += usize::from(!covers_high);
        delta = delta.max(env.delta);
    }
    let allowed = (delta * keys.len() as f64).ceil() as usize;
    if misses > allowed {
        return Err(format!(
            "{misses} of {} sampled keys exceed f + epsilon; delta = {delta} allows {allowed}",
            keys.len()
        ));
    }
    Ok(GateReport {
        keys_checked: keys.len(),
        epsilon_misses: misses,
        epsilon_misses_allowed: allowed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(estimate: u64, epsilon: u64) -> Freq {
        Freq {
            estimate,
            epsilon,
            lag: 0,
            stream_len: 1000,
            delta: 0.01,
        }
    }

    /// 200 keys with exact count 10, served with estimate 12.
    fn keys(epsilon: u64) -> Vec<(u64, Freq)> {
        (0..200).map(|_| (10, env(12, epsilon))).collect()
    }

    #[test]
    fn honest_answers_pass() {
        let report = check(&[(1000, 1000), (7, 7)], &keys(5)).unwrap();
        assert_eq!(report.keys_checked, 200);
        assert_eq!(report.epsilon_misses, 0);
        assert_eq!(report.epsilon_misses_allowed, 2);
    }

    #[test]
    fn a_narrowed_envelope_fails() {
        // epsilon cut from 5 to 1: estimate 12 > 10 + 1 on every key.
        let err = check(&[(1000, 1000)], &keys(1)).unwrap_err();
        assert!(err.contains("exceed f + epsilon"), "{err}");
        // A delta share of such keys is tolerated, one more is not.
        let mut some = keys(5);
        some[0].1.epsilon = 1;
        some[1].1.epsilon = 1;
        assert_eq!(check(&[(1000, 1000)], &some).unwrap().epsilon_misses, 2);
        some[2].1.epsilon = 1;
        assert!(check(&[(1000, 1000)], &some).is_err());
    }

    #[test]
    fn an_undercount_fails_whatever_delta_says() {
        let mut k = keys(5);
        k[17] = (13, env(12, 5));
        let err = check(&[(1000, 1000)], &k).unwrap_err();
        assert!(err.contains("undercounts"), "{err}");
    }

    #[test]
    fn a_wrong_stream_len_fails() {
        let err = check(&[(999, 1000)], &keys(5)).unwrap_err();
        assert!(err.contains("object 0 reports"), "{err}");
        let err = check(&[(1000, 1000), (5, 6)], &keys(5)).unwrap_err();
        assert!(err.contains("object 1 reports"), "{err}");
        let mut k = keys(5);
        k[3].1.stream_len = 999;
        let err = check(&[(1000, 1000)], &k).unwrap_err();
        assert!(err.contains("envelope states stream_len"), "{err}");
    }
}
