use crate::{Action, Law, Period, SidebandDriven};
use checkpoint::{CheckpointError, Dec, Enc};
use sideband::SidebandConfig;

/// Configuration of the AIMD injection-threshold controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdConfig {
    /// Side-band gather network parameters (defines the gather period `g`).
    pub sideband: SidebandConfig,
    /// Tuning period, in gathers (3, matching the self-tuner's clock).
    pub tune_gathers: u32,
    /// Additive raise per uncongested period, as a fraction of all VC
    /// buffers (1%).
    pub additive_frac: f64,
    /// Multiplicative threshold cut on a congested period (0.5).
    pub cut_factor: f64,
    /// A period counts as *congested* when its throughput falls below this
    /// fraction of the previous period's (75%, the paper's drop test).
    pub drop_fraction: f64,
    /// Initial threshold as a fraction of all VC buffers (1%).
    pub initial_threshold_frac: f64,
    /// Staleness watchdog horizon, in gathers (0 disables it; see
    /// [`crate::TuneConfig::watchdog_gathers`]).
    pub watchdog_gathers: u32,
}

impl AimdConfig {
    /// Defaults matching the self-tuner's clock and step sizes on the
    /// paper's network.
    #[must_use]
    pub fn paper() -> Self {
        AimdConfig {
            sideband: SidebandConfig::paper(),
            tune_gathers: 3,
            additive_frac: 0.01,
            cut_factor: 0.5,
            drop_fraction: 0.75,
            initial_threshold_frac: 0.01,
            watchdog_gathers: 8,
        }
    }
}

/// **AIMD** on the injection threshold: the classic additive-increase /
/// multiplicative-decrease rule (Chiu & Jain) transplanted from window-based
/// transport onto the paper's globally informed source throttle.
///
/// Each tuning period the controller raises the full-buffer threshold by a
/// fixed step when throughput held up (probing for bandwidth) and cuts it
/// multiplicatively when throughput dropped (backing off hard). Same
/// side-band census, same gate as [`crate::SelfTuned`] — only the threshold
/// update rule differs, which is exactly the comparison the controller zoo
/// exists to make.
pub type AimdControl = SidebandDriven<AimdLaw>;

/// The AIMD control law behind [`AimdControl`].
#[derive(Debug, Clone, Default)]
pub struct AimdLaw {
    total_buffers: f64,
    threshold: f64,
    add: f64,
}

impl Law for AimdLaw {
    type Config = AimdConfig;
    const NAME: &'static str = "aimd";

    fn sideband_config(cfg: &AimdConfig) -> &SidebandConfig {
        &cfg.sideband
    }

    fn watchdog_gathers(cfg: &AimdConfig) -> u32 {
        cfg.watchdog_gathers
    }

    fn period_gathers(cfg: &AimdConfig) -> u32 {
        cfg.tune_gathers
    }

    fn size(&mut self, cfg: &AimdConfig, total_buffers: f64) {
        self.total_buffers = total_buffers;
        self.threshold = cfg.initial_threshold_frac * total_buffers;
        self.add = cfg.additive_frac * total_buffers;
    }

    fn threshold(&self, _cfg: &AimdConfig) -> f64 {
        self.threshold
    }

    /// Additive raise when throughput held up, multiplicative cut when it
    /// dropped.
    fn on_period(&mut self, cfg: &AimdConfig, p: &Period) -> Option<Action> {
        let action = if p.dropped(cfg.drop_fraction) {
            self.threshold *= cfg.cut_factor;
            Action::Cut
        } else {
            self.threshold += self.add;
            Action::Raise
        };
        self.threshold = self.threshold.clamp(self.add, self.total_buffers);
        Some(action)
    }

    fn on_trip(&mut self, last_good: f64) {
        self.threshold = last_good;
    }

    fn save(&self, enc: &mut Enc) {
        enc.f64(self.threshold);
    }

    fn restore(&mut self, _cfg: &AimdConfig, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        self.threshold = dec.f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AimdConfig {
        AimdConfig::paper()
    }

    fn state(total: f64) -> AimdLaw {
        let mut law = AimdLaw::default();
        law.size(&cfg(), total);
        law
    }

    /// A period delivering `delivered` flits after one that delivered
    /// `prev`.
    fn period(delivered: u64, prev: Option<u64>) -> Period {
        Period {
            delivered,
            prev_delivered: prev,
            gathers: 1,
            ..Period::default()
        }
    }

    #[test]
    fn paper_constants() {
        let st = state(3072.0);
        assert!((st.add - 30.72).abs() < 1e-9, "1% of 3072");
        assert!((st.threshold - 30.72).abs() < 1e-9);
    }

    /// The congestion predicate is strict: only a fall *below* 75% of the
    /// previous period cuts; at exactly 75% the period still raises.
    #[test]
    fn cut_boundary_is_strict() {
        for (tput, expects_cut) in [(750u64, false), (749, true)] {
            let c = cfg();
            let mut st = state(3072.0);
            st.threshold = 1000.0;
            let action = st.on_period(&c, &period(tput, Some(1000)));
            if expects_cut {
                assert_eq!(st.threshold, 500.0, "tput={tput}: multiplicative cut");
                assert_eq!(action, Some(Action::Cut));
            } else {
                assert!(
                    (st.threshold - (1000.0 + st.add)).abs() < 1e-9,
                    "tput={tput}: additive raise"
                );
                assert_eq!(action, Some(Action::Raise));
            }
        }
    }

    /// A cut is exactly multiplicative (threshold × cut_factor), never a
    /// fixed step.
    #[test]
    fn cut_is_exactly_multiplicative() {
        let c = cfg();
        let mut st = state(3072.0);
        st.threshold = 2048.0;
        st.on_period(&c, &period(0, Some(1000)));
        assert_eq!(st.threshold, 1024.0);
        st.on_period(&c, &period(0, Some(0))); // 0 == 0.75·0: not a further drop → raise
        assert!((st.threshold - (1024.0 + st.add)).abs() < 1e-9);
    }

    /// The very first period has no predecessor to drop from: AIMD probes
    /// upward.
    #[test]
    fn first_period_raises() {
        let c = cfg();
        let mut st = state(3072.0);
        let before = st.threshold;
        let action = st.on_period(&c, &period(0, None));
        assert!((st.threshold - before - st.add).abs() < 1e-9);
        assert_eq!(action, Some(Action::Raise));
    }

    #[test]
    fn threshold_clamped_to_valid_range() {
        let c = cfg();
        let mut st = state(3072.0);
        st.threshold = st.add; // at the floor
        st.on_period(&c, &period(0, Some(1000)));
        assert_eq!(st.threshold, st.add, "floor holds under repeated cuts");
        st.threshold = 3072.0;
        st.on_period(&c, &period(1, Some(1)));
        assert_eq!(st.threshold, 3072.0, "ceiling holds under repeated raises");
    }
}
