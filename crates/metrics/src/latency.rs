/// Streaming latency statistics: count, sum, extrema and a log₂ histogram
/// (bucket `i` holds latencies in `[2^i, 2^(i+1))`), giving approximate
/// percentiles without storing samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 40],
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStats {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        LatencyStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 40],
        }
    }

    /// Serializes the collector into `enc` (for checkpointing).
    pub fn save_state(&self, enc: &mut checkpoint::Enc) {
        enc.u64(self.count);
        enc.u64(self.sum);
        enc.u64(self.min);
        enc.u64(self.max);
        for &b in &self.buckets {
            enc.u64(b);
        }
    }

    /// Reads a collector serialized with [`LatencyStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream.
    pub fn restore_state(
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<Self, checkpoint::CheckpointError> {
        let count = dec.u64()?;
        let sum = dec.u64()?;
        let min = dec.u64()?;
        let max = dec.u64()?;
        let mut buckets = [0u64; 40];
        for b in &mut buckets {
            *b = dec.u64()?;
        }
        Ok(LatencyStats {
            count,
            sum,
            min,
            max,
            buckets,
        })
    }

    /// Records one latency sample (in cycles).
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
        let bucket = (64 - latency.leading_zeros()).min(39) as usize;
        self.buckets[bucket] += 1;
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or `None` with no samples.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest sample, or `None` with no samples.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` with no samples.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate `p`-th percentile (`0.0..=1.0`): the upper edge of the
    /// histogram bucket containing it, or `None` with no samples.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (p * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some((1u64 << i).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_none() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.percentile(0.5), None);
    }

    #[test]
    fn mean_min_max() {
        let mut s = LatencyStats::new();
        for l in [5u64, 10, 15, 100] {
            s.record(l);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), Some(32.5));
        assert_eq!(s.min(), Some(5));
        assert_eq!(s.max(), Some(100));
    }

    #[test]
    fn percentile_is_monotone_and_bounded() {
        let mut s = LatencyStats::new();
        for l in 1..=1000u64 {
            s.record(l);
        }
        let p50 = s.percentile(0.5).unwrap();
        let p99 = s.percentile(0.99).unwrap();
        assert!(p50 <= p99);
        assert!((256..=1024).contains(&p50), "p50 bucket edge: {p50}");
        assert!(p99 <= 1000);
    }

    #[test]
    fn zero_latency_is_representable() {
        let mut s = LatencyStats::new();
        s.record(0);
        assert_eq!(s.mean(), Some(0.0));
        assert_eq!(s.percentile(1.0), Some(0));
    }
}
