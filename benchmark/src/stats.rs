//! Order statistics: medians over passes, and a nanosecond latency
//! histogram whose quantiles resolve below the clock's 1 ns grain.

/// Median of a non-empty slice (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// (max − min) ÷ median.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// The percentiles a report may quote, ascending, each with the share of
/// samples beyond it in parts per 10 000 (kept integral so the ten-sample
/// rule below is exact).
pub const PERCENTILES: [(f64, u64); 6] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (95.0, 500),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// The highest of [`PERCENTILES`] that still has at least ten samples
/// beyond it, or `None` when even the median does not (fewer than 20
/// samples). A percentile with fewer samples above it is a statement
/// about a handful of outliers, not about the distribution.
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(_, beyond)| samples.saturating_mul(*beyond) >= 10 * 10_000)
        .map(|(p, _)| *p)
}

/// Exact-count histogram of latencies in whole nanoseconds. Values below
/// [`LatencyHist::EXACT`] are counted per nanosecond; the rare larger ones
/// (preemptions) are kept verbatim.
pub struct LatencyHist {
    counts: Vec<u32>,
    big: Vec<u64>,
    total: u64,
}

impl LatencyHist {
    pub const EXACT: usize = 1 << 16;

    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; Self::EXACT],
            big: Vec::new(),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.total += 1;
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.big.push(ns),
        }
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.big.extend_from_slice(&other.big);
        self.total += other.total;
    }

    pub fn samples(&self) -> u64 {
        self.total
    }

    /// The `pct`-th percentile in nanoseconds. The clock reads whole
    /// nanoseconds, so a sample `v` stands for the interval `[v, v+1)`;
    /// the quantile interpolates inside the bin it lands in by the share
    /// of that bin's samples below the rank (the grouped-data quantile).
    pub fn percentile(&mut self, pct: f64) -> f64 {
        assert!(self.total > 0, "percentile of an empty histogram");
        let rank = (pct / 100.0 * self.total as f64).min((self.total - 1) as f64);
        let mut below = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c as u64) as f64 > rank {
                return ns as f64 + (rank - below as f64) / c as f64;
            }
            below += c as u64;
        }
        self.big.sort_unstable();
        self.big[(rank as u64 - below) as usize] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
    }

    #[test]
    fn percentile_selection_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(u32::MAX as u64), Some(99.99));
    }

    #[test]
    fn histogram_percentiles_interpolate_inside_a_bin() {
        let mut h = LatencyHist::new();
        for _ in 0..50 {
            h.record(100);
        }
        for _ in 0..50 {
            h.record(200);
        }
        assert_eq!(h.samples(), 100);
        // Rank 25 of 100 is half-way through the fifty samples at 100 ns.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(h.percentile(25.0), 100.5));
        assert!(close(h.percentile(50.0), 200.0));
        assert!(close(h.percentile(99.0), 200.98));
    }

    #[test]
    fn histogram_keeps_values_beyond_the_exact_range() {
        let mut h = LatencyHist::new();
        let mut other = LatencyHist::new();
        for i in 0..90 {
            h.record(10 + i % 3);
        }
        for i in 0..10 {
            other.record(1_000_000 + i);
        }
        h.merge(&other);
        assert_eq!(h.samples(), 100);
        assert_eq!(h.percentile(95.0), 1_000_005.0);
        assert!(h.percentile(50.0) < 13.0);
    }
}
