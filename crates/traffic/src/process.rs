use crate::TrafficError;

/// A packet generation process for one node (open loop).
///
/// At most one packet is generated per node per cycle, as in flexsim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Process {
    /// Generate a packet each cycle with independent probability `rate`
    /// (packets/node/cycle). Run as the equivalent geometric inter-arrival
    /// gaps: one draw per packet, not one per cycle.
    Bernoulli {
        /// Packets per node per cycle, in `[0, 1]`.
        rate: f64,
    },
    /// Generate one packet every `interval` cycles (the paper's "packet
    /// regeneration interval"). Each node gets a random phase offset so the
    /// fleet does not generate in lockstep.
    Periodic {
        /// Cycles between consecutive packet generations.
        interval: u64,
    },
    /// Generate nothing (idle phase).
    Silent,
}

impl Process {
    /// A Bernoulli process at `rate` packets/node/cycle.
    #[must_use]
    pub fn bernoulli(rate: f64) -> Self {
        Process::Bernoulli { rate }
    }

    /// A periodic process with the given regeneration interval.
    #[must_use]
    pub fn periodic(interval: u64) -> Self {
        Process::Periodic { interval }
    }

    /// The mean offered load of this process in packets/node/cycle.
    ///
    /// ```
    /// use traffic::Process;
    /// assert!((Process::periodic(100).offered_rate() - 0.01).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn offered_rate(&self) -> f64 {
        match self {
            Process::Bernoulli { rate } => *rate,
            Process::Periodic { interval } => 1.0 / (*interval as f64),
            Process::Silent => 0.0,
        }
    }

    /// Validates process parameters.
    ///
    /// # Errors
    ///
    /// Rejects Bernoulli rates outside `[0, 1]` (or NaN) and zero intervals.
    pub fn validate(&self) -> Result<(), TrafficError> {
        match self {
            Process::Bernoulli { rate } => {
                if rate.is_finite() && (0.0..=1.0).contains(rate) {
                    Ok(())
                } else {
                    Err(TrafficError::BadRate { rate: *rate })
                }
            }
            Process::Periodic { interval } => {
                if *interval == 0 {
                    Err(TrafficError::ZeroInterval)
                } else {
                    Ok(())
                }
            }
            Process::Silent => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_rates() {
        assert_eq!(Process::bernoulli(0.02).offered_rate(), 0.02);
        assert_eq!(Process::periodic(15).offered_rate(), 1.0 / 15.0);
        assert_eq!(Process::Silent.offered_rate(), 0.0);
    }

    #[test]
    fn validation() {
        assert!(Process::bernoulli(0.5).validate().is_ok());
        assert!(Process::bernoulli(-0.1).validate().is_err());
        assert!(Process::bernoulli(1.5).validate().is_err());
        assert!(Process::bernoulli(f64::NAN).validate().is_err());
        assert!(Process::periodic(1).validate().is_ok());
        assert!(Process::periodic(0).validate().is_err());
        assert!(Process::Silent.validate().is_ok());
    }
}
