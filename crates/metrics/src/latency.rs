/// Streaming latency statistics: the sample count and the sum, which is
/// all an average latency needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
}

impl LatencyStats {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Serializes the collector into `enc` (for checkpointing).
    pub fn save_state(&self, enc: &mut checkpoint::Enc) {
        enc.varint(self.count);
        enc.varint(self.sum);
    }

    /// Reads a collector serialized with [`LatencyStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream.
    pub fn restore_state(
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<Self, checkpoint::CheckpointError> {
        Ok(LatencyStats {
            count: dec.varint()?,
            sum: dec.varint()?,
        })
    }

    /// Records one latency sample (in cycles).
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_none() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn mean_of_the_samples() {
        let mut s = LatencyStats::new();
        for l in [5u64, 10, 15, 100] {
            s.record(l);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), Some(32.5));
    }

    #[test]
    fn zero_latency_is_representable() {
        let mut s = LatencyStats::new();
        s.record(0);
        assert_eq!(s.mean(), Some(0.0));
    }

    #[test]
    fn state_round_trips_as_two_varints() {
        let mut s = LatencyStats::new();
        for l in [3u64, 300, 30_000] {
            s.record(l);
        }
        let mut enc = checkpoint::Enc::new();
        s.save_state(&mut enc);
        let bytes = enc.into_vec();
        assert_eq!(
            bytes.len(),
            1 + 3,
            "count 3 in one byte, sum 30 303 in three"
        );
        let mut dec = checkpoint::Dec::new(&bytes);
        assert_eq!(LatencyStats::restore_state(&mut dec).unwrap(), s);
        dec.finish().unwrap();
    }
}
