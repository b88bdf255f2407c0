use crate::{
    AimdConfig, AimdControl, AloControl, BbrConfig, BbrControl, Controller, ControllerCounters,
    DecBitConfig, DecBitControl, SelfTuned, StaticConfig, StaticThreshold, TuneConfig,
};
use faults::FaultPlan;
use sideband::{Sideband, SidebandConfig};
use wormsim::{CongestionControl, Network, NoControl};

/// A congestion-control scheme selector: the paper's configurations plus
/// the rival controllers of the zoo.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// No congestion control (the paper's `Base`).
    Base,
    /// The At-Least-One local baseline.
    Alo,
    /// Globally informed throttling with a fixed threshold (Figure 5).
    Static {
        /// Threshold in full buffers.
        threshold: u32,
        /// Side-band parameters.
        sideband: SidebandConfig,
    },
    /// The paper's self-tuned scheme.
    Tuned(TuneConfig),
    /// Additive-increase / multiplicative-decrease on the threshold.
    Aimd(AimdConfig),
    /// DEC-bit-style windowed congestion-bit feedback.
    DecBit(DecBitConfig),
    /// BBR-flavored delivery-rate operating point.
    Bbr(BbrConfig),
}

impl Scheme {
    /// The self-tuned scheme with the paper's parameters.
    #[must_use]
    pub fn tuned_paper() -> Self {
        Scheme::Tuned(TuneConfig::paper())
    }

    /// Resolves a scheme by its registry name on the given side-band
    /// configuration: `base`, `alo`, `tune`, `aimd`, `decbit`, `bbr`, or
    /// `static-<threshold>` (e.g. `static-250`). Returns `None` for an
    /// unknown name.
    #[must_use]
    pub fn by_name(name: &str, sideband: &SidebandConfig) -> Option<Self> {
        match name {
            "base" => Some(Scheme::Base),
            "alo" => Some(Scheme::Alo),
            "tune" => Some(Scheme::Tuned(TuneConfig {
                sideband: sideband.clone(),
                ..TuneConfig::paper()
            })),
            "aimd" => Some(Scheme::Aimd(AimdConfig {
                sideband: sideband.clone(),
                ..AimdConfig::paper()
            })),
            "decbit" => Some(Scheme::DecBit(DecBitConfig {
                sideband: sideband.clone(),
                ..DecBitConfig::paper()
            })),
            "bbr" => Some(Scheme::Bbr(BbrConfig {
                sideband: sideband.clone(),
                ..BbrConfig::paper()
            })),
            _ => {
                let threshold = name.strip_prefix("static-")?.parse().ok()?;
                Some(Scheme::Static {
                    threshold,
                    sideband: sideband.clone(),
                })
            }
        }
    }

    /// The registry's adaptive-roster names (everything `by_name` resolves
    /// except the parameterized `static-<threshold>` family), in display
    /// order.
    #[must_use]
    pub fn registry_names() -> &'static [&'static str] {
        &["base", "alo", "tune", "aimd", "decbit", "bbr"]
    }

    /// Label used in experiment tables (e.g. `static-250`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Scheme::Base => "base".to_owned(),
            Scheme::Alo => "alo".to_owned(),
            Scheme::Static { threshold, .. } => format!("static-{threshold}"),
            Scheme::Tuned(_) => "tune".to_owned(),
            Scheme::Aimd(_) => "aimd".to_owned(),
            Scheme::DecBit(_) => "decbit".to_owned(),
            Scheme::Bbr(_) => "bbr".to_owned(),
        }
    }

    /// Instantiates the controller.
    #[must_use]
    pub fn build(&self) -> Control {
        match self {
            Scheme::Base => Control::Base(NoControl),
            Scheme::Alo => Control::Alo(AloControl::new()),
            Scheme::Static {
                threshold,
                sideband,
            } => Control::Static(StaticThreshold::new(StaticConfig {
                threshold: *threshold,
                sideband: sideband.clone(),
            })),
            Scheme::Tuned(cfg) => Control::Tuned(SelfTuned::new(cfg.clone())),
            Scheme::Aimd(cfg) => Control::Aimd(AimdControl::new(cfg.clone())),
            Scheme::DecBit(cfg) => Control::DecBit(DecBitControl::new(cfg.clone())),
            Scheme::Bbr(cfg) => Control::Bbr(BbrControl::new(cfg.clone())),
        }
    }
}

/// A constructed congestion controller (closed set, so simulations can still
/// reach scheme-specific state such as the self-tuner's threshold).
// One Control exists per simulation (never arrays of them), so the size
// spread between `Base` and the stateful controllers costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Control {
    /// No control.
    Base(NoControl),
    /// At-Least-One baseline.
    Alo(AloControl),
    /// Fixed global threshold.
    Static(StaticThreshold),
    /// The paper's self-tuned controller.
    Tuned(SelfTuned),
    /// AIMD rival.
    Aimd(AimdControl),
    /// DEC-bit rival.
    DecBit(DecBitControl),
    /// BBR-flavored rival.
    Bbr(BbrControl),
}

/// Applies one expression to whichever controller this `Control` holds.
/// Every [`CongestionControl`] and [`Controller`] hook dispatches through
/// this, so registering a controller means adding one enum variant and one
/// macro arm-list entry (DESIGN.md §6 has the whole recipe).
macro_rules! for_each_control {
    ($self:expr, $c:pat => $body:expr) => {
        match $self {
            Control::Base($c) => $body,
            Control::Alo($c) => $body,
            Control::Static($c) => $body,
            Control::Tuned($c) => $body,
            Control::Aimd($c) => $body,
            Control::DecBit($c) => $body,
            Control::Bbr($c) => $body,
        }
    };
}

impl Control {
    /// The self-tuned controller, if that is what this is.
    #[must_use]
    pub fn as_tuned(&self) -> Option<&SelfTuned> {
        match self {
            Control::Tuned(t) => Some(t),
            _ => None,
        }
    }

    fn variant_tag(&self) -> u8 {
        match self {
            Control::Base(_) => 0,
            Control::Alo(_) => 1,
            Control::Static(_) => 2,
            Control::Tuned(_) => 3,
            Control::Aimd(_) => 4,
            Control::DecBit(_) => 5,
            Control::Bbr(_) => 6,
        }
    }
}

impl CongestionControl for Control {
    fn on_cycle(&mut self, now: u64, net: &Network) {
        for_each_control!(self, c => c.on_cycle(now, net));
    }

    fn allow_injection(&mut self, now: u64, node: usize, dst: usize, net: &Network) -> bool {
        for_each_control!(self, c => c.allow_injection(now, node, dst, net))
    }

    fn throttled_recently(&self) -> bool {
        for_each_control!(self, c => c.throttled_recently())
    }

    fn next_wakeup(&self, now: u64) -> u64 {
        // The side-band schemes gather/distribute on fixed per-cycle
        // pipelines, so they keep the conservative default (no skip);
        // `Base`/`Alo` return `u64::MAX` and fast-forward freely.
        for_each_control!(self, c => c.next_wakeup(now))
    }

    fn name(&self) -> &'static str {
        for_each_control!(self, c => c.name())
    }
}

impl Controller for Control {
    fn observe_census(&mut self, now: u64, census: u32, delivered_cum: u64) {
        for_each_control!(self, c => Controller::observe_census(c, now, census, delivered_cum));
    }

    fn throttling(&self) -> bool {
        for_each_control!(self, c => Controller::throttling(c))
    }

    fn threshold(&self) -> Option<f64> {
        for_each_control!(self, c => Controller::threshold(c))
    }

    /// A no-op for the locally informed schemes (`Base`, `Alo`), which have
    /// no side-band to fault.
    fn set_faults(&mut self, plan: FaultPlan) {
        for_each_control!(self, c => Controller::set_faults(c, plan));
    }

    fn sideband(&self) -> Option<&Sideband> {
        for_each_control!(self, c => Controller::sideband(c))
    }

    fn watchdog_active(&self) -> bool {
        for_each_control!(self, c => Controller::watchdog_active(c))
    }

    fn counters(&self) -> ControllerCounters {
        for_each_control!(self, c => Controller::counters(c))
    }

    /// The stream records the variant so a restore into a controller built
    /// from a different [`Scheme`] fails loudly rather than silently
    /// misreading.
    fn save_state(&self, enc: &mut checkpoint::Enc) {
        enc.u8(self.variant_tag());
        for_each_control!(self, c => Controller::save_state(c, enc));
    }

    /// Also fails with [`checkpoint::CheckpointError::Corrupt`] if the
    /// recorded variant does not match this controller.
    fn restore_state(
        &mut self,
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<(), checkpoint::CheckpointError> {
        if dec.u8()? != self.variant_tag() {
            return Err(checkpoint::CheckpointError::Corrupt(
                "controller variant does not match the scheme",
            ));
        }
        for_each_control!(self, c => Controller::restore_state(c, dec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Scheme::Base.label(), "base");
        assert_eq!(Scheme::Alo.label(), "alo");
        assert_eq!(
            Scheme::Static {
                threshold: 250,
                sideband: SidebandConfig::paper()
            }
            .label(),
            "static-250"
        );
        assert_eq!(Scheme::tuned_paper().label(), "tune");
        assert_eq!(Scheme::Aimd(AimdConfig::paper()).label(), "aimd");
        assert_eq!(Scheme::DecBit(DecBitConfig::paper()).label(), "decbit");
        assert_eq!(Scheme::Bbr(BbrConfig::paper()).label(), "bbr");
    }

    #[test]
    fn build_produces_matching_controllers() {
        assert!(matches!(Scheme::Base.build(), Control::Base(_)));
        assert!(matches!(Scheme::Alo.build(), Control::Alo(_)));
        let tuned = Scheme::tuned_paper().build();
        assert!(tuned.as_tuned().is_some());
        assert_eq!(tuned.name(), "tune");
        assert!(Scheme::Base.build().as_tuned().is_none());
        assert!(matches!(
            Scheme::Aimd(AimdConfig::paper()).build(),
            Control::Aimd(_)
        ));
        assert!(matches!(
            Scheme::DecBit(DecBitConfig::paper()).build(),
            Control::DecBit(_)
        ));
        assert!(matches!(
            Scheme::Bbr(BbrConfig::paper()).build(),
            Control::Bbr(_)
        ));
    }

    #[test]
    fn by_name_round_trips_every_registry_name() {
        let sb = SidebandConfig {
            radix: 8,
            ..SidebandConfig::paper()
        };
        for &name in Scheme::registry_names() {
            let scheme = Scheme::by_name(name, &sb)
                .unwrap_or_else(|| panic!("registry name {name} must resolve"));
            assert_eq!(scheme.label(), name);
            assert_eq!(scheme.build().name(), name);
        }
    }

    #[test]
    fn by_name_parses_static_thresholds_and_rejects_junk() {
        let sb = SidebandConfig::paper();
        assert_eq!(
            Scheme::by_name("static-250", &sb),
            Some(Scheme::Static {
                threshold: 250,
                sideband: sb.clone()
            })
        );
        assert_eq!(Scheme::by_name("static-", &sb), None);
        assert_eq!(Scheme::by_name("static-x", &sb), None);
        assert_eq!(Scheme::by_name("cubic", &sb), None);
        assert_eq!(Scheme::by_name("", &sb), None);
    }

    #[test]
    fn by_name_installs_the_given_sideband() {
        let sb = SidebandConfig {
            radix: 8,
            ..SidebandConfig::paper()
        };
        for &name in Scheme::registry_names() {
            let ctl = Scheme::by_name(name, &sb).unwrap().build();
            match Controller::sideband(&ctl) {
                Some(got) => assert_eq!(got.config(), &sb, "{name} must run on it"),
                None => assert!(
                    matches!(ctl, Control::Base(_) | Control::Alo(_)),
                    "{name} has a side-band"
                ),
            }
        }
    }

    /// Every variant's checkpoint stream is tagged: restoring one scheme's
    /// stream into another must fail loudly.
    #[test]
    fn cross_scheme_restore_fails_loudly() {
        let sb = SidebandConfig {
            radix: 8,
            ..SidebandConfig::paper()
        };
        let names = Scheme::registry_names();
        for &a in names {
            let mut enc = checkpoint::Enc::new();
            Scheme::by_name(a, &sb)
                .unwrap()
                .build()
                .save_state(&mut enc);
            let bytes = enc.into_vec();
            for &b in names {
                let mut ctl = Scheme::by_name(b, &sb).unwrap().build();
                let mut dec = checkpoint::Dec::new(&bytes);
                let result = ctl.restore_state(&mut dec);
                if a == b {
                    assert!(result.is_ok(), "{a} -> {b}");
                } else {
                    assert!(result.is_err(), "{a} -> {b} must be rejected");
                }
            }
        }
    }
}
