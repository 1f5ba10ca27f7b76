//! Order statistics over raw samples. Percentiles are exact nearest-rank
//! (no histogram buckets), so a reported p99 is a latency some result
//! actually had.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `p` percent of the samples are `<=` it.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the middle two when even).
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

/// Latency samples of one phase, in arrival order, as nanoseconds
/// saturated into `u32` (4.29 s; a phase whose latencies reach that has
/// already failed its backlog check). Preallocated by the caller so the
/// drainer never reallocates mid-phase on the expected volume.
///
/// The drainer cuts the phase into equal time slices with [`mark`]; a
/// percentile is reported as the median over the slices of the slice's
/// exact percentile, so one scheduling hiccup moves one slice, not the
/// metric.
///
/// [`mark`]: Samples::mark
pub struct Samples {
    ns: Vec<u32>,
    /// Index of the first sample of each slice after the first.
    marks: Vec<usize>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
            marks: Vec::with_capacity(16),
        }
    }

    pub fn record(&mut self, latency_ns: i64) {
        self.ns.push(latency_ns.clamp(0, u32::MAX as i64) as u32);
    }

    /// End the current time slice.
    pub fn mark(&mut self) {
        self.marks.push(self.ns.len());
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Forget the samples, keep the allocation.
    pub fn clear(&mut self) {
        self.ns.clear();
        self.marks.clear();
    }

    /// The closed slices (what follows the last mark is the drain tail
    /// after the offered window, and is left out). Without marks the
    /// whole phase is one slice.
    fn slices(&self) -> Vec<&[u32]> {
        if self.marks.is_empty() {
            return vec![&self.ns];
        }
        let mut from = 0;
        self.marks
            .iter()
            .map(|&to| {
                let s = &self.ns[from..to];
                from = to;
                s
            })
            .collect()
    }

    /// Exact nearest-rank percentile of every non-empty slice, in ms.
    pub fn slice_percentiles_ms(&self, p: f64) -> Vec<f64> {
        self.slices()
            .into_iter()
            .filter_map(|s| {
                let mut v = s.to_vec();
                v.sort_unstable();
                nearest_rank(&v, p).map(|ns| ns as f64 / 1e6)
            })
            .collect()
    }

    /// Median over the slices of the slice's nearest-rank percentile.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        median(&self.slice_percentiles_ms(p))
    }

    /// Median latency of the first and of the second half of the phase
    /// (by arrival order): a growing backlog shows as the second
    /// exceeding the first.
    pub fn half_medians_ms(&self) -> Option<(f64, f64)> {
        let (a, b) = self.ns.split_at(self.ns.len() / 2);
        let med = |s: &[u32]| {
            let mut v = s.to_vec();
            v.sort_unstable();
            nearest_rank(&v, 50.0).map(|ns| ns as f64 / 1e6)
        };
        Some((med(a)?, med(b)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50));
        assert_eq!(nearest_rank(&v, 99.0), Some(99));
        assert_eq!(nearest_rank(&v, 100.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        // 5 samples: p50 is the 3rd, p99 the 5th (ceil(4.95)).
        let v = [10u32, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&v, 50.0), Some(30));
        assert_eq!(nearest_rank(&v, 99.0), Some(50));
        assert_eq!(nearest_rank(&v, 20.0), Some(10));
        assert_eq!(nearest_rank(&v, 20.1), Some(20));
        assert_eq!(nearest_rank::<u32>(&[], 50.0), None);
    }

    #[test]
    fn samples_saturate_and_split() {
        let mut s = Samples::with_capacity(4);
        for ns in [1_000_000, 2_000_000, 9_000_000, -5] {
            s.record(ns);
        }
        s.record(i64::MAX);
        assert_eq!(s.len(), 5);
        assert_eq!(s.percentile_ms(50.0), Some(2.0));
        assert_eq!(s.percentile_ms(100.0), Some(u32::MAX as f64 / 1e6));
        let (a, b) = s.half_medians_ms().unwrap();
        assert_eq!(a, 1.0);
        assert_eq!(b, 9.0);
    }

    #[test]
    fn percentile_is_the_median_over_slices() {
        let mut s = Samples::with_capacity(16);
        // Three closed slices with p100 of 1, 50 (a hiccup) and 2 ms,
        // then a drain tail that is left out.
        for slice in [
            [1_000_000, 500_000],
            [50_000_000, 1_000_000],
            [2_000_000, 900_000],
        ] {
            for ns in slice {
                s.record(ns);
            }
            s.mark();
        }
        s.record(999_000_000);
        assert_eq!(s.slice_percentiles_ms(100.0), vec![1.0, 50.0, 2.0]);
        assert_eq!(s.percentile_ms(100.0), Some(2.0));
        assert_eq!(s.len(), 7);
        s.clear();
        assert_eq!(s.percentile_ms(50.0), None);
    }
}
