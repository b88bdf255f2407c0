use crate::scaffold::INITIAL_THRESHOLD_FRAC;
use crate::{Action, Law, Period, SidebandDriven};
use checkpoint::{CheckpointError, Dec, Enc};
use sideband::SidebandConfig;
use wormsim::NetConfig;

/// The paper's tuning decision table (Table 1): decrement is
/// [`Action::Cut`], increment [`Action::Raise`], no change
/// [`Action::Hold`].
///
/// | drop in BW? | throttling? | action    |
/// |-------------|-------------|-----------|
/// | yes         | yes         | decrement |
/// | yes         | no          | decrement |
/// | no          | yes         | increment |
/// | no          | no          | no change |
///
/// ```
/// use stcc::{decide, Action};
/// assert_eq!(decide(true, true), Action::Cut);
/// assert_eq!(decide(true, false), Action::Cut);
/// assert_eq!(decide(false, true), Action::Raise);
/// assert_eq!(decide(false, false), Action::Hold);
/// ```
#[must_use]
pub fn decide(bandwidth_drop: bool, throttling: bool) -> Action {
    match (bandwidth_drop, throttling) {
        (true, _) => Action::Cut,
        (false, true) => Action::Raise,
        (false, false) => Action::Hold,
    }
}

/// Configuration of the self-tuned controller (§4 defaults in
/// [`TuneConfig::paper`]): the settings the ablations and Figure 4 vary.
/// The law's other constants are fixed by the paper and live on
/// [`TuneLaw`] and in the scaffold.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneConfig {
    /// Side-band gather network parameters (defines the gather period `g`).
    pub sideband: SidebandConfig,
    /// Tuning period, in gathers (3 in the paper: 96 cycles at `g = 32`).
    pub tune_gathers: u32,
    /// Threshold increment as a fraction of all VC buffers (1%).
    pub increment_frac: f64,
    /// Threshold decrement as a fraction of all VC buffers (4%).
    pub decrement_frac: f64,
    /// Enable the local-maximum-avoidance mechanism of §4.2 (disable to
    /// reproduce the "hill climbing only" curves of Figure 4).
    pub avoid_local_maxima: bool,
}

impl TuneConfig {
    /// The paper's configuration for its 16-ary 2-cube.
    #[must_use]
    pub fn paper() -> Self {
        TuneConfig {
            sideband: SidebandConfig::paper(),
            tune_gathers: 3,
            increment_frac: 0.01,
            decrement_frac: 0.04,
            avoid_local_maxima: true,
        }
    }

    /// The paper's parameters with the side-band sized for `net`: its
    /// radix, dimension count and VC count, which set the gather period and
    /// the census range.
    #[must_use]
    pub fn for_net(net: &NetConfig) -> Self {
        TuneConfig {
            sideband: SidebandConfig {
                radix: net.radix,
                dimensions: net.dimensions,
                vcs: net.vcs,
                ..SidebandConfig::paper()
            },
            ..TuneConfig::paper()
        }
    }

    /// The tuning period in cycles.
    #[must_use]
    pub fn tune_period(&self) -> u64 {
        u64::from(self.tune_gathers) * self.sideband.gather_period()
    }
}

/// The paper's self-tuned, globally informed source throttle: the
/// [`TuneLaw`] hill-climb behind the shared side-band scaffold.
pub type SelfTuned = SidebandDriven<TuneLaw>;

/// The paper's control law (§4): once per tuning period, Table 1 moves one
/// threshold on global throughput feedback, and the local-maximum-avoidance
/// rule of §4.2 restores the conditions of the best period seen.
#[derive(Debug, Clone, Default)]
pub struct TuneLaw {
    total_buffers: f64,
    threshold: f64,
    inc: f64,
    dec: f64,
    // -- local-maximum avoidance (§4.2) --
    max_tput: u64,
    n_max: f64,
    t_max: f64,
    consecutive_resets: u32,
}

impl TuneLaw {
    /// The local-maximum-avoidance reset fires when a period's throughput
    /// falls *significantly* below the best period seen — below this
    /// fraction of it (50%; period-to-period noise must not trigger it).
    const RESET_FRACTION: f64 = 0.5;
    /// Forget the remembered maximum after this many consecutive resets
    /// (`r = 5`).
    const MAX_STALE_RESETS: u32 = 5;
}

impl Law for TuneLaw {
    type Config = TuneConfig;
    const NAME: &'static str = "tune";
    const WATCHDOG_GATHERS: u32 = 8;

    fn sideband_config(cfg: &TuneConfig) -> &SidebandConfig {
        &cfg.sideband
    }

    fn period_gathers(cfg: &TuneConfig) -> u32 {
        cfg.tune_gathers
    }

    fn size(&mut self, cfg: &TuneConfig, total_buffers: f64) {
        self.total_buffers = total_buffers;
        self.threshold = INITIAL_THRESHOLD_FRAC * total_buffers;
        self.inc = cfg.increment_frac * total_buffers;
        self.dec = cfg.decrement_frac * total_buffers;
    }

    fn threshold(&self, _cfg: &TuneConfig) -> f64 {
        self.threshold
    }

    /// One tuning decision.
    fn on_period(&mut self, cfg: &TuneConfig, p: &Period) -> Option<Action> {
        let tput = p.delivered;
        // Track the conditions of the best period seen (§4.2).
        if tput > self.max_tput {
            self.max_tput = tput;
            self.n_max = p.census_sum as f64 / f64::from(p.gathers);
            self.t_max = self.threshold;
        }

        let significant_drop_below_max = cfg.avoid_local_maxima
            && self.max_tput > 0
            && (tput as f64) < Self::RESET_FRACTION * self.max_tput as f64;
        let drop = p.dropped();

        let action = if significant_drop_below_max {
            // Recreate the conditions of the best period. If even that value
            // keeps failing for `r` consecutive periods, the remembered max
            // is stale (e.g. the communication pattern changed): forget it.
            // A reset period during which throughput is still *recovering*
            // (rising period over period) does not count as failing — a
            // deeply saturated network takes more than one period to drain
            // even at the right threshold.
            // Never raise the threshold on a reset, and keep honoring the
            // decision table's first row ("a drop in bandwidth always
            // decrements") so a knot that the anchor itself cannot clear
            // still ratchets the threshold downwards.
            self.threshold = self.threshold.min(self.t_max.min(self.n_max));
            self.consecutive_resets += 1;
            if self.consecutive_resets >= Self::MAX_STALE_RESETS {
                self.max_tput = 0;
                self.consecutive_resets = 0;
            }
            Action::Reset { cut: drop }
        } else {
            self.consecutive_resets = 0;
            // "Currently throttling" = the gate was closed for most of the
            // period; a few throttled cycles at the stability boundary do
            // not count (otherwise the optimistic increment ratchets the
            // threshold into saturation).
            decide(drop, p.throttling())
        };
        match action {
            Action::Cut | Action::Reset { cut: true } => self.threshold -= self.dec,
            Action::Raise => self.threshold += self.inc,
            Action::Hold | Action::Reset { cut: false } => {}
        }
        self.threshold = self.threshold.clamp(self.inc, self.total_buffers);
        Some(action)
    }

    fn on_trip(&mut self, last_good: f64) {
        self.threshold = last_good;
    }

    fn save(&self, enc: &mut Enc) {
        enc.f64(self.threshold);
        enc.u64(self.max_tput);
        enc.f64(self.n_max);
        enc.f64(self.t_max);
        enc.u32(self.consecutive_resets);
    }

    fn restore(&mut self, _cfg: &TuneConfig, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        self.threshold = dec.f64()?;
        self.max_tput = dec.u64()?;
        self.n_max = dec.f64()?;
        self.t_max = dec.f64()?;
        self.consecutive_resets = dec.u32()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TuneConfig {
        TuneConfig::paper()
    }

    fn state(total: f64) -> TuneLaw {
        let mut law = TuneLaw::default();
        law.size(&cfg(), total);
        law
    }

    /// A one-gather, 96-cycle period delivering `delivered` flits after one
    /// that delivered `prev`, at census `census`, with the gate closed for
    /// `closed` of its cycles.
    fn period(delivered: u64, prev: Option<u64>, census: u64, closed: u64) -> Period {
        Period {
            delivered,
            prev_delivered: prev,
            census_sum: census,
            gathers: 1,
            closed_cycles: closed,
            cycles: 96,
        }
    }

    #[test]
    fn paper_constants() {
        let c = cfg();
        assert_eq!(c.tune_period(), 96);
        let st = state(3072.0);
        // 1% of 3072 = 30.72, 4% = 122.88 (the paper rounds to 30 / 122).
        assert!((st.inc - 30.72).abs() < 1e-9);
        assert!((st.dec - 122.88).abs() < 1e-9);
        assert!((st.threshold - 30.72).abs() < 1e-9);
    }

    #[test]
    fn decision_table_matches_table_1() {
        assert_eq!(decide(true, true), Action::Cut);
        assert_eq!(decide(true, false), Action::Cut);
        assert_eq!(decide(false, true), Action::Raise);
        assert_eq!(decide(false, false), Action::Hold);
    }

    /// All four Table 1 rows exercised through the law itself on the
    /// paper's 3072-buffer network: the threshold must move by exactly
    /// ±1% / ±4% of 3072 (30.72 / 122.88 full buffers) per row.
    #[test]
    fn tune_applies_exact_table_1_deltas() {
        const INC: f64 = 0.01 * 3072.0; // 30.72
        const DEC: f64 = 0.04 * 3072.0; // 122.88
        let rows: [(bool, bool, f64); 4] = [
            (true, true, -DEC),  // drop + throttling  -> decrement
            (true, false, -DEC), // drop, no throttling -> decrement
            (false, true, INC),  // no drop, throttling -> increment
            (false, false, 0.0), // steady, open gate   -> no change
        ];
        for (drop, throttling, delta) in rows {
            let c = cfg();
            let mut st = state(3072.0);
            st.threshold = 1000.0;
            let prev = 1000u64;
            // 74% of the previous period is a drop; 100% is not.
            let tput = if drop { prev * 74 / 100 } else { prev };
            // Keep the avoidance path quiet: the remembered max equals the
            // period, so the reset condition can't fire.
            st.max_tput = tput;
            let closed = if throttling { 96 } else { 0 };
            st.on_period(&c, &period(tput, Some(prev), 100, closed));
            assert!(
                (st.threshold - (1000.0 + delta)).abs() < 1e-9,
                "row (drop={drop}, throttling={throttling}): expected delta {delta}, \
                 got {}",
                st.threshold - 1000.0
            );
        }
    }

    /// The bandwidth-drop predicate is strict: only a fall *below* 75% of
    /// the previous period counts (at exactly 75% the row is "no drop").
    #[test]
    fn drop_boundary_is_strict() {
        for (tput, is_drop) in [(750u64, false), (749, true)] {
            let c = cfg();
            let mut st = state(3072.0);
            st.threshold = 1000.0;
            st.max_tput = 1000;
            st.n_max = 2000.0; // anchor above threshold: reset can't lower it
            st.t_max = 2000.0;
            st.on_period(&c, &period(tput, Some(1000), 100, 0));
            let moved = (st.threshold - 1000.0).abs() > 1e-9;
            assert_eq!(moved, is_drop, "tput={tput}: drop must be strict <");
        }
    }

    /// The throttling predicate needs the gate closed for at least half
    /// the period's cycles.
    #[test]
    fn throttling_needs_majority_of_period() {
        for (throttled, expects_increment) in [(48u64, true), (47, false)] {
            let c = cfg();
            let mut st = state(3072.0);
            st.threshold = 1000.0;
            st.max_tput = 1000;
            st.on_period(&c, &period(1000, Some(1000), 100, throttled));
            let incremented = st.threshold > 1000.0;
            assert_eq!(
                incremented, expects_increment,
                "throttled {throttled}/96 cycles"
            );
        }
    }

    /// The local-maximum-avoidance trigger is strict: a period at exactly
    /// `RESET_FRACTION` of the remembered max does not reset; one flit
    /// less does.
    #[test]
    fn reset_trigger_boundary_is_strict() {
        for (tput, expects_reset) in [(500u64, false), (499, true)] {
            let c = cfg();
            let mut st = state(3072.0);
            st.threshold = 900.0;
            st.max_tput = 1000;
            st.t_max = 500.0;
            st.n_max = 400.0;
            // No prev period: the decision table sees "no drop" either way.
            let action = st.on_period(&c, &period(tput, None, 100, 0));
            let reset = action == Some(Action::Reset { cut: false });
            assert_eq!(reset, expects_reset, "tput={tput}");
            if expects_reset {
                assert_eq!(st.threshold, 400.0, "reset to min(t_max, n_max)");
            }
        }
    }

    #[test]
    fn increment_when_throttling_without_drop() {
        let c = cfg();
        let mut st = state(3072.0);
        let before = st.threshold;
        st.on_period(&c, &period(1000, Some(1000), 100, 96));
        assert!((st.threshold - before - st.inc).abs() < 1e-9);
    }

    #[test]
    fn decrement_on_bandwidth_drop() {
        let c = cfg();
        let mut st = state(3072.0);
        st.threshold = 500.0;
        // No remembered max yet; 700 < 75% of 1000, but not < 50% (no reset).
        st.max_tput = 0;
        st.on_period(&c, &period(700, Some(1000), 100, 0));
        assert!((st.threshold - (500.0 - st.dec)).abs() < 1e-9);
    }

    #[test]
    fn no_change_when_stable_and_unthrottled() {
        let c = cfg();
        let mut st = state(3072.0);
        // Keep the max consistent so the reset path stays quiet.
        st.max_tput = 1000;
        let before = st.threshold;
        st.on_period(&c, &period(1000, Some(1000), 100, 0));
        assert_eq!(st.threshold, before);
    }

    #[test]
    fn reset_restores_min_of_tmax_nmax() {
        let c = cfg();
        let mut st = state(3072.0);
        st.max_tput = 1000;
        st.t_max = 500.0;
        st.n_max = 260.0;
        st.threshold = 900.0;
        // Far below the remembered max.
        let action = st.on_period(&c, &period(300, None, 100, 0));
        assert_eq!(st.threshold, 260.0, "min(t_max, n_max)");
        assert!(st.threshold <= 900.0, "resets never raise the threshold");
        assert_eq!(st.consecutive_resets, 1);
        assert_eq!(action, Some(Action::Reset { cut: false }));
    }

    #[test]
    fn stale_max_forgotten_after_r_resets() {
        let c = cfg();
        let mut st = state(3072.0);
        st.max_tput = 10_000;
        st.t_max = 500.0;
        st.n_max = 400.0;
        for i in 1..=TuneLaw::MAX_STALE_RESETS {
            st.on_period(&c, &period(100, (i > 1).then_some(100), 100, 0));
            if i < TuneLaw::MAX_STALE_RESETS {
                assert_eq!(st.consecutive_resets, i);
                assert_eq!(st.max_tput, 10_000);
            }
        }
        assert_eq!(st.max_tput, 0, "max recomputed from scratch");
        assert_eq!(st.consecutive_resets, 0);
    }

    #[test]
    fn new_maximum_interrupts_reset_streak() {
        let c = cfg();
        let mut st = state(3072.0);
        st.max_tput = 1000;
        st.t_max = 500.0;
        st.n_max = 400.0;
        st.on_period(&c, &period(100, None, 50, 0));
        assert_eq!(st.consecutive_resets, 1);
        // A record-breaking period updates the max and avoids the reset.
        st.on_period(&c, &period(2000, Some(100), 220, 0));
        assert_eq!(st.consecutive_resets, 0);
        assert_eq!(st.max_tput, 2000);
        assert_eq!(st.n_max, 220.0);
    }

    #[test]
    fn threshold_clamped_to_valid_range() {
        let c = cfg();
        let mut st = state(3072.0);
        st.threshold = st.inc; // already at the floor
        st.max_tput = 0;
        // A catastrophic drop.
        st.on_period(&c, &period(0, Some(1000), 0, 0));
        assert_eq!(st.threshold, st.inc, "floor holds");
        st.threshold = 3072.0;
        st.max_tput = 1;
        st.on_period(&c, &period(1, Some(1), 0, 96));
        assert_eq!(st.threshold, 3072.0, "ceiling holds");
    }

    // -- staleness watchdog (graceful degradation) --

    use crate::scaffold::tests::{flood, small_sideband};
    use crate::Controller;
    use faults::{FaultPlan, SidebandFaults};

    #[test]
    fn watchdog_rearms_when_data_returns() {
        // Every gather is delayed by up to 50 gather periods: long silences
        // trip the watchdog, and each late arrival then re-arms it.
        let sideband = small_sideband();
        let period = sideband.gather_period();
        let mut ctl = SelfTuned::new(TuneConfig {
            sideband,
            ..TuneConfig::paper()
        });
        ctl.set_faults(FaultPlan::sideband_only(
            5,
            SidebandFaults {
                delay_rate: 1.0,
                max_delay: 50 * period,
                ..SidebandFaults::none()
            },
        ));
        flood(&mut ctl, 20_000);
        let c = ctl.counters();
        assert!(c.watchdog_trips >= 1, "long delays look like outages");
        assert!(
            c.watchdog_rearms >= 1,
            "late aggregates must re-arm the watchdog ({} trips, {} re-arms)",
            c.watchdog_trips,
            c.watchdog_rearms
        );
        assert!(c.watchdog_rearms <= c.watchdog_trips);
    }

    #[test]
    fn disabling_avoidance_skips_resets() {
        let mut c = cfg();
        c.avoid_local_maxima = false;
        let mut st = state(3072.0);
        st.max_tput = 10_000;
        st.t_max = 100.0;
        st.n_max = 100.0;
        let before = st.threshold;
        // Below max but not a 25% period drop.
        let action = st.on_period(&c, &period(900, Some(1000), 50, 0));
        assert_eq!(st.threshold, before, "hill-climbing only: no reset");
        assert_eq!(action, Some(Action::Hold));
    }
}
