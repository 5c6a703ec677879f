//! Percentile and slice arithmetic. Every reported timing goes through
//! these functions, and the self-tests pin them on known samples.

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule, so a
/// reported percentile is always a value that was measured.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1] as f64)
}

/// Median of `values` with midpoint interpolation (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), which the benchmark's acceptance rule is stated
/// in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a bound is judged against.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Latencies of one kind of operation from one client thread, in
/// completion order, with the index at which each one-second slice of
/// the measured window begins. One flat, pre-sized buffer: nothing is
/// reallocated while the window runs, so the recorder adds four bytes
/// per sample to the process's peak memory and no allocator noise.
#[derive(Clone, Debug, Default)]
pub struct SlicedSamples {
    samples: Vec<u32>,
    /// `starts[i]` is where slice `i` begins; slices are contiguous.
    starts: Vec<usize>,
    slices: usize,
}

/// A tail is only taken over groups of at least this many samples, so
/// that a p99 always has ten samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 1000;

/// A median is only taken over groups of at least this many samples.
pub const MIN_MEDIAN_SAMPLES: usize = 200;

/// Room reserved (not touched) per recorder: more than any workload
/// completes in the longest window.
const RESERVED_SAMPLES: usize = 1 << 23;

impl SlicedSamples {
    pub fn new(slices: usize) -> Self {
        SlicedSamples {
            samples: Vec::with_capacity(RESERVED_SAMPLES),
            starts: Vec::with_capacity(slices),
            slices,
        }
    }

    /// Records one latency (ns, saturating at `u32::MAX` ≈ 4.3 s) in
    /// the slice its completion fell in. Slices never go backwards: a
    /// thread's completions are in time order.
    pub fn push(&mut self, slice: usize, latency_ns: u64) {
        debug_assert!(slice < self.slices && slice + 1 >= self.starts.len());
        while self.starts.len() <= slice {
            self.starts.push(self.samples.len());
        }
        self.samples.push(latency_ns.min(u32::MAX as u64) as u32);
    }

    /// The samples of slice `i` (empty when nothing completed in it).
    fn slice(&self, i: usize) -> &[u32] {
        let start = self.starts.get(i).copied().unwrap_or(self.samples.len());
        let end = self
            .starts
            .get(i + 1)
            .copied()
            .unwrap_or(self.samples.len());
        &self.samples[start..end]
    }

    /// Merges recorders of the same window, slice by slice.
    pub fn merged(parts: &[&SlicedSamples]) -> SlicedSamples {
        let slices = parts.iter().map(|p| p.slices).max().unwrap_or(0);
        let mut out = SlicedSamples {
            samples: Vec::with_capacity(parts.iter().map(|p| p.samples.len()).sum()),
            starts: Vec::with_capacity(slices),
            slices,
        };
        for i in 0..slices {
            out.starts.push(out.samples.len());
            for p in parts {
                out.samples.extend_from_slice(p.slice(i));
            }
        }
        out
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile over the whole window.
    pub fn whole(&self, q: f64) -> Option<f64> {
        let mut all = self.samples.clone();
        all.sort_unstable();
        percentile_sorted(&all, q)
    }

    /// Consecutive slices grouped until every group holds at least
    /// `min_samples` (one group per slice when the rate allows, the
    /// whole window when even that falls short), each group sorted.
    fn groups(&self, min_samples: usize) -> Vec<Vec<u32>> {
        let count = (self.count() / min_samples.max(1)).clamp(1, self.slices.max(1));
        let per_group = self.slices.max(1).div_ceil(count);
        (0..self.slices)
            .step_by(per_group)
            .map(|first| {
                let mut group: Vec<u32> = (first..(first + per_group).min(self.slices))
                    .flat_map(|i| self.slice(i))
                    .copied()
                    .collect();
                group.sort_unstable();
                group
            })
            .filter(|g| !g.is_empty())
            .collect()
    }

    /// The `q`-quantile of every group of at least `min_samples`, in
    /// time order.
    pub fn per_group(&self, min_samples: usize, q: f64) -> Vec<f64> {
        self.groups(min_samples)
            .iter()
            .filter_map(|g| percentile_sorted(g, q))
            .collect()
    }

    /// The best-slice rule for medians: the lowest group median, and
    /// the number of groups. Interference from outside the process — a
    /// neighbour on the core's sibling thread, a host clocking down —
    /// slows whole seconds by half and never speeds one up, while a
    /// slower system is slower in every second, its best included.
    pub fn best_median(&self) -> Option<(f64, usize)> {
        let medians = self.per_group(MIN_MEDIAN_SAMPLES, 0.5);
        medians
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .map(|best| (best, medians.len()))
    }

    /// The slice-median rule for tails: consecutive slices are grouped
    /// until every group holds at least [`MIN_TAIL_SAMPLES`] samples
    /// (one group per slice when the rate allows, one group for the
    /// whole window when it does not), the `q`-quantile is taken per
    /// group, and the median of the groups is reported — one disturbed
    /// second moves one group, not the result. Returns the value and
    /// the number of groups.
    pub fn slice_median(&self, q: f64) -> Option<(f64, usize)> {
        let tails = self.per_group(MIN_TAIL_SAMPLES, q);
        median(&tails).map(|m| (m, tails.len()))
    }
}

/// Work completed in one slice by one thread, as a rate: the units
/// completed after the slice's first completion, over the time from
/// that first completion to the last. (A count over the nominal second
/// would read the schedule back on an open loop; the interval between
/// completions is what was measured.)
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SliceRate {
    first_ns: Option<u64>,
    last_ns: u64,
    units: u64,
    units_after_first: u64,
}

impl SliceRate {
    /// Records `units` of work completed at `at_ns`.
    pub fn add(&mut self, at_ns: u64, units: u64) {
        if self.first_ns.is_none() {
            self.first_ns = Some(at_ns);
        } else {
            self.units_after_first += units;
        }
        self.last_ns = at_ns;
        self.units += units;
    }

    /// Units per second; a slice with fewer than two completions falls
    /// back to its count over the nominal second.
    pub fn per_second(&self) -> f64 {
        match self.first_ns {
            Some(first) if self.last_ns > first => {
                self.units_after_first as f64 * 1e9 / (self.last_ns - first) as f64
            }
            _ => self.units as f64,
        }
    }
}

/// Coefficient of variation (standard deviation over mean) of
/// per-slice rates; 0 for no rates or a zero mean.
pub fn variation(per_slice: &[f64]) -> f64 {
    if per_slice.is_empty() {
        return 0.0;
    }
    let n = per_slice.len() as f64;
    let mean = per_slice.iter().sum::<f64>() / n;
    let var = per_slice.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n;
    if mean > 0.0 {
        var.sqrt() / mean
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), Some(50.0));
        assert_eq!(percentile_sorted(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile_sorted(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&[7], 0.99), Some(7.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(quartile_spread(&v), Some(1.0));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn slice_median_ignores_one_disturbed_slice() {
        // Three slices of 1000 samples; the middle one has a tail ten
        // times as slow. The whole-window p99 sees it, the slice median
        // does not.
        let mut s = SlicedSamples::new(3);
        for slice in 0..3 {
            for i in 0..1000u64 {
                let base = 100 + i % 50;
                let slow = slice == 1 && i % 20 == 0;
                s.push(slice, if slow { base * 10 } else { base });
            }
        }
        let (tail, groups) = s.slice_median(0.99).unwrap();
        assert_eq!(groups, 3);
        assert!(tail < 200.0, "slice-median p99 {tail}");
        assert!(s.whole(0.99).unwrap() > 1000.0);
        assert_eq!(s.count(), 3000);
    }

    #[test]
    fn slow_streams_fall_back_to_wider_groups() {
        // 100 samples per slice over 15 slices: 1500 samples make one
        // group of the whole window, not fifteen starved ones.
        let mut s = SlicedSamples::new(15);
        for slice in 0..15 {
            for i in 0..100u64 {
                s.push(slice, 1 + i);
            }
        }
        let (tail, groups) = s.slice_median(0.99).unwrap();
        assert_eq!(groups, 1);
        assert_eq!(tail, 99.0);
        assert_eq!(s.whole(0.5), Some(50.0));
        assert!(SlicedSamples::new(4).slice_median(0.99).is_none());
        assert!(SlicedSamples::new(4).best_median().is_none());

        // Two threads' recorders merge slice by slice; a slice nothing
        // completed in stays empty.
        let mut a = SlicedSamples::new(3);
        a.push(0, 5);
        a.push(2, 7);
        let mut b = SlicedSamples::new(3);
        b.push(1, 6);
        b.push(2, 8);
        let m = SlicedSamples::merged(&[&a, &b]);
        assert_eq!(
            (m.slice(0), m.slice(1), m.slice(2)),
            (&[5][..], &[6][..], &[7, 8][..])
        );
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn best_median_is_the_undisturbed_slice() {
        // Six slices of 300 samples; four of them run 1.5x slow, as when
        // a neighbour takes the core's sibling thread.
        let mut s = SlicedSamples::new(6);
        for slice in 0..6 {
            let scale = if slice == 1 || slice == 4 { 100 } else { 150 };
            for i in 0..300u64 {
                s.push(slice, scale + i % 3);
            }
        }
        assert_eq!(s.best_median(), Some((101.0, 6)));
        assert_eq!(s.whole(0.5), Some(150.0));
        // A slow stream groups slices until a median means something:
        // 100 samples a slice make three groups of two slices.
        let mut t = SlicedSamples::new(6);
        for slice in 0..6 {
            for i in 0..100u64 {
                t.push(slice, if slice < 2 { 10 } else { 20 } + i % 2);
            }
        }
        assert_eq!(t.best_median(), Some((10.0, 3)));
    }

    #[test]
    fn slice_rate_is_work_over_the_interval_between_completions() {
        let mut r = SliceRate::default();
        assert_eq!(r.per_second(), 0.0);
        r.add(1_000, 32);
        assert_eq!(r.per_second(), 32.0, "one completion: the count");
        r.add(500_001_000, 32);
        r.add(1_000_001_000, 32);
        // 64 items in the second after the first completion.
        assert_eq!(r.per_second(), 64.0);
    }

    #[test]
    fn variation_is_deviation_over_mean() {
        assert_eq!(variation(&[10.0, 10.0, 10.0, 10.0]), 0.0);
        assert!((variation(&[8.0, 12.0]) - 0.2).abs() < 1e-12);
        assert_eq!(variation(&[]), 0.0);
    }
}
