use crate::{Law, SidebandDriven};
use sideband::SidebandConfig;

/// Configuration of the fixed-threshold throttle.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticConfig {
    /// The fixed threshold, in full buffers.
    pub threshold: u32,
    /// Side-band gather network parameters.
    pub sideband: SidebandConfig,
}

/// Globally informed throttling with a **fixed** threshold — the
/// "Static Threshold" configurations of Figure 5.
///
/// Identical to [`SelfTuned`](crate::SelfTuned) in how it observes the
/// network (side-band snapshots + linear extrapolation) and in how it gates
/// injection, but the threshold never moves. The paper uses thresholds of
/// 250 (8% occupancy, good for uniform random) and 50 (1.6%, good for
/// butterfly) to show that no single static value suits all communication
/// patterns.
pub type StaticThreshold = SidebandDriven<StaticLaw>;

/// The degenerate law behind [`StaticThreshold`]: no state, no decisions,
/// no watchdog and no codec (its checkpoint is the scaffold's).
#[derive(Debug, Clone, Default)]
pub struct StaticLaw;

impl Law for StaticLaw {
    type Config = StaticConfig;
    const NAME: &'static str = "static";

    fn sideband_config(cfg: &StaticConfig) -> &SidebandConfig {
        &cfg.sideband
    }

    fn threshold(&self, cfg: &StaticConfig) -> f64 {
        f64::from(cfg.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaffold::tests::{flood, small_sideband};
    use crate::Controller;
    use wormsim::{DeadlockMode, NetConfig, Network};

    fn small(threshold: u32) -> StaticThreshold {
        StaticThreshold::new(StaticConfig {
            threshold,
            sideband: small_sideband(),
        })
    }

    #[test]
    fn gates_when_estimate_exceeds_threshold() {
        let mut ctl = small(2);
        let net = flood(&mut ctl, 5_000);
        assert!(
            net.counters().throttled_injections > 0,
            "threshold of 2 full buffers must trip under flood"
        );
    }

    #[test]
    fn never_throttles_an_idle_network() {
        let cfg = NetConfig::small(DeadlockMode::Avoidance);
        let mut net = Network::new(cfg).unwrap();
        let mut ctl = small(50);
        let mut source = |_now: u64, _node: usize| None;
        for _ in 0..2_000 {
            net.cycle(&mut source, &mut ctl);
        }
        assert!(!ctl.throttling());
        assert_eq!(net.counters().throttled_injections, 0);
    }
}
