use crate::{ControllerCounters, Law, SidebandDriven};
use checkpoint::{CheckpointError, Dec, Enc};
use sideband::{SidebandConfig, Snapshot};

/// The action the tuning decision table prescribes for one tuning period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneAction {
    /// Lower the threshold by the decrement step.
    Decrement,
    /// Raise the threshold by the increment step.
    Increment,
    /// Leave the threshold unchanged.
    NoChange,
}

/// The paper's tuning decision table (Table 1).
///
/// | drop in BW? | throttling? | action    |
/// |-------------|-------------|-----------|
/// | yes         | yes         | decrement |
/// | yes         | no          | decrement |
/// | no          | yes         | increment |
/// | no          | no          | no change |
///
/// ```
/// use stcc::{decide, TuneAction};
/// assert_eq!(decide(true, true), TuneAction::Decrement);
/// assert_eq!(decide(true, false), TuneAction::Decrement);
/// assert_eq!(decide(false, true), TuneAction::Increment);
/// assert_eq!(decide(false, false), TuneAction::NoChange);
/// ```
#[must_use]
pub fn decide(bandwidth_drop: bool, throttling: bool) -> TuneAction {
    match (bandwidth_drop, throttling) {
        (true, _) => TuneAction::Decrement,
        (false, true) => TuneAction::Increment,
        (false, false) => TuneAction::NoChange,
    }
}

/// Configuration of the self-tuned controller (§4 defaults in
/// [`TuneConfig::paper`]).
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
    /// A period counts as a *bandwidth drop* when its throughput falls below
    /// this fraction of the previous period's (75%).
    pub drop_fraction: f64,
    /// The local-maximum-avoidance reset fires when a period's throughput
    /// falls *significantly* below the best period seen — below this
    /// fraction of it (50%; period-to-period noise must not trigger it).
    pub reset_fraction: f64,
    /// Forget the remembered maximum after this many consecutive resets
    /// (`r = 5`).
    pub max_stale_resets: u32,
    /// Initial threshold as a fraction of all VC buffers (1%): tuning
    /// starts from the safe (over-throttled) side and climbs.
    pub initial_threshold_frac: f64,
    /// Enable the local-maximum-avoidance mechanism of §4.2 (disable to
    /// reproduce the "hill climbing only" curves of Figure 4).
    pub avoid_local_maxima: bool,
    /// Staleness watchdog: after this many consecutive missed gathers the
    /// controller freezes tuning, restores the last-known-good threshold
    /// and stops throttling on the stale estimate, re-arming on the next
    /// valid aggregate (0 disables the watchdog).
    pub watchdog_gathers: u32,
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
            drop_fraction: 0.75,
            reset_fraction: 0.5,
            max_stale_resets: 5,
            initial_threshold_frac: 0.01,
            avoid_local_maxima: true,
            watchdog_gathers: 8,
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
    /// Visible gather windows accumulated into the current tuning period.
    snaps_in_period: u32,
    period_tput: u64,
    /// Sum of the period's snapshot full-buffer counts (for the period
    /// average that `N_max` remembers).
    period_full_sum: f64,
    prev_period_tput: Option<u64>,
    throttled_cycles_this_period: u64,
    cycles_this_period: u64,
    // -- local-maximum avoidance (§4.2) --
    max_tput: u64,
    n_max: f64,
    t_max: f64,
    consecutive_resets: u32,
    // -- instrumentation --
    tune_events: u64,
    increments: u64,
    decrements: u64,
    resets: u64,
}

impl TuneLaw {
    /// One tuning decision (runs once per tuning period).
    /// `period_full_buffers` is the period-average full-buffer count.
    fn tune(&mut self, cfg: &TuneConfig, period_full_buffers: f64) {
        let tput = self.period_tput;
        self.tune_events += 1;

        // Track the conditions of the best period seen (§4.2).
        if tput > self.max_tput {
            self.max_tput = tput;
            self.n_max = period_full_buffers;
            self.t_max = self.threshold;
        }

        let significant_drop_below_max = cfg.avoid_local_maxima
            && self.max_tput > 0
            && (tput as f64) < cfg.reset_fraction * self.max_tput as f64;
        let drop = self
            .prev_period_tput
            .is_some_and(|prev| (tput as f64) < cfg.drop_fraction * prev as f64);

        if significant_drop_below_max {
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
            if drop {
                self.threshold -= self.dec;
                self.decrements += 1;
            }
            self.resets += 1;
            self.consecutive_resets += 1;
            if self.consecutive_resets >= cfg.max_stale_resets {
                self.max_tput = 0;
                self.consecutive_resets = 0;
            }
        } else {
            self.consecutive_resets = 0;
            // "Currently throttling" = the gate was closed for most of the
            // period; a few throttled cycles at the stability boundary do
            // not count (otherwise the optimistic increment ratchets the
            // threshold into saturation).
            let throttling = self.cycles_this_period > 0
                && self.throttled_cycles_this_period * 2 >= self.cycles_this_period;
            match decide(drop, throttling) {
                TuneAction::Decrement => {
                    self.threshold -= self.dec;
                    self.decrements += 1;
                }
                TuneAction::Increment => {
                    self.threshold += self.inc;
                    self.increments += 1;
                }
                TuneAction::NoChange => {}
            }
        }
        self.threshold = self.threshold.clamp(self.inc, self.total_buffers);
        self.prev_period_tput = Some(tput);
        self.reset_period();
    }

    /// Clears the per-tuning-period accumulators.
    fn reset_period(&mut self) {
        self.period_tput = 0;
        self.period_full_sum = 0.0;
        self.snaps_in_period = 0;
        self.throttled_cycles_this_period = 0;
        self.cycles_this_period = 0;
    }
}

impl Law for TuneLaw {
    type Config = TuneConfig;
    const NAME: &'static str = "tune";

    fn sideband_config(cfg: &TuneConfig) -> &SidebandConfig {
        &cfg.sideband
    }

    fn watchdog_gathers(cfg: &TuneConfig) -> u32 {
        cfg.watchdog_gathers
    }

    fn size(&mut self, cfg: &TuneConfig, total_buffers: f64) {
        self.total_buffers = total_buffers;
        self.threshold = cfg.initial_threshold_frac * total_buffers;
        self.inc = cfg.increment_frac * total_buffers;
        self.dec = cfg.decrement_frac * total_buffers;
    }

    fn threshold(&self, _cfg: &TuneConfig) -> f64 {
        self.threshold
    }

    /// Folds the gather window into the tuning period; decides when the
    /// period is complete.
    fn on_snapshot(&mut self, cfg: &TuneConfig, snap: Snapshot) -> bool {
        self.period_tput += u64::from(snap.delivered_flits);
        self.period_full_sum += f64::from(snap.full_buffers);
        self.snaps_in_period += 1;
        let period_complete = self.snaps_in_period >= cfg.tune_gathers;
        if period_complete {
            let avg_full = self.period_full_sum / f64::from(self.snaps_in_period);
            self.tune(cfg, avg_full);
        }
        period_complete
    }

    /// The pre-outage period throughput is not comparable across the gap:
    /// tuning restarts from scratch on either side of it.
    fn on_trip(&mut self, last_good: f64) {
        self.threshold = last_good;
        self.on_rearm();
    }

    fn on_rearm(&mut self) {
        self.prev_period_tput = None;
        self.reset_period();
    }

    /// Table 1's "throttling?" column: counts the period's gate-closed
    /// cycles.
    fn note_gate(&mut self, closed: bool) {
        self.cycles_this_period += 1;
        self.throttled_cycles_this_period += u64::from(closed);
    }

    fn tally(&self) -> ControllerCounters {
        ControllerCounters {
            decisions: self.tune_events,
            raises: self.increments,
            cuts: self.decrements,
            resets: self.resets,
            ..ControllerCounters::default()
        }
    }

    fn save(&self, enc: &mut Enc) {
        enc.f64(self.threshold);
        enc.u32(self.snaps_in_period);
        enc.u64(self.period_tput);
        enc.f64(self.period_full_sum);
        enc.opt_u64(self.prev_period_tput);
        enc.u64(self.throttled_cycles_this_period);
        enc.u64(self.cycles_this_period);
        enc.u64(self.max_tput);
        enc.f64(self.n_max);
        enc.f64(self.t_max);
        enc.u32(self.consecutive_resets);
        enc.u64(self.tune_events);
        enc.u64(self.increments);
        enc.u64(self.decrements);
        enc.u64(self.resets);
    }

    fn restore(&mut self, _cfg: &TuneConfig, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        self.threshold = dec.f64()?;
        self.snaps_in_period = dec.u32()?;
        self.period_tput = dec.u64()?;
        self.period_full_sum = dec.f64()?;
        self.prev_period_tput = dec.opt_u64()?;
        self.throttled_cycles_this_period = dec.u64()?;
        self.cycles_this_period = dec.u64()?;
        self.max_tput = dec.u64()?;
        self.n_max = dec.f64()?;
        self.t_max = dec.f64()?;
        self.consecutive_resets = dec.u32()?;
        self.tune_events = dec.u64()?;
        self.increments = dec.u64()?;
        self.decrements = dec.u64()?;
        self.resets = dec.u64()?;
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
        assert_eq!(decide(true, true), TuneAction::Decrement);
        assert_eq!(decide(true, false), TuneAction::Decrement);
        assert_eq!(decide(false, true), TuneAction::Increment);
        assert_eq!(decide(false, false), TuneAction::NoChange);
    }

    /// All four Table 1 rows exercised through `tune` itself on the
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
            st.prev_period_tput = Some(prev);
            // 74% of the previous period is a drop; 100% is not.
            st.period_tput = if drop { prev * 74 / 100 } else { prev };
            // Keep the avoidance path quiet: the remembered max equals the
            // period, so the reset condition can't fire.
            st.max_tput = st.period_tput;
            st.cycles_this_period = 96;
            st.throttled_cycles_this_period = if throttling { 96 } else { 0 };
            st.tune(&c, 100.0);
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
            st.prev_period_tput = Some(1000);
            st.period_tput = tput;
            st.max_tput = 1000;
            st.n_max = 2000.0; // anchor above threshold: reset can't lower it
            st.t_max = 2000.0;
            st.tune(&c, 100.0);
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
            st.prev_period_tput = Some(1000);
            st.period_tput = 1000;
            st.max_tput = 1000;
            st.cycles_this_period = 96;
            st.throttled_cycles_this_period = throttled;
            st.tune(&c, 100.0);
            let incremented = st.threshold > 1000.0;
            assert_eq!(
                incremented, expects_increment,
                "throttled {throttled}/96 cycles"
            );
        }
    }

    /// The local-maximum-avoidance trigger is strict: a period at exactly
    /// `reset_fraction` of the remembered max does not reset; one flit
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
            st.period_tput = tput;
            // No prev period: the decision table sees "no drop" either way.
            st.prev_period_tput = None;
            st.tune(&c, 100.0);
            assert_eq!(st.resets, u64::from(expects_reset), "tput={tput}");
            if expects_reset {
                assert_eq!(st.threshold, 400.0, "reset to min(t_max, n_max)");
            }
        }
    }

    #[test]
    fn increment_when_throttling_without_drop() {
        let c = cfg();
        let mut st = state(3072.0);
        st.prev_period_tput = Some(1000);
        st.period_tput = 1000;
        st.throttled_cycles_this_period = 96;
        st.cycles_this_period = 96;
        let before = st.threshold;
        st.tune(&c, 100.0);
        assert!((st.threshold - before - st.inc).abs() < 1e-9);
    }

    #[test]
    fn decrement_on_bandwidth_drop() {
        let c = cfg();
        let mut st = state(3072.0);
        st.threshold = 500.0;
        st.max_tput = 0; // no remembered max yet
        st.prev_period_tput = Some(1000);
        st.period_tput = 700; // < 75% of 1000, but not < 50% (no reset)
        st.tune(&c, 100.0);
        assert!((st.threshold - (500.0 - st.dec)).abs() < 1e-9);
    }

    #[test]
    fn no_change_when_stable_and_unthrottled() {
        let c = cfg();
        let mut st = state(3072.0);
        st.prev_period_tput = Some(1000);
        st.period_tput = 1000;
        // Keep the max consistent so the reset path stays quiet.
        st.max_tput = 1000;
        let before = st.threshold;
        st.tune(&c, 100.0);
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
        st.period_tput = 300; // far below the remembered max
        st.tune(&c, 100.0);
        assert_eq!(st.threshold, 260.0, "min(t_max, n_max)");
        assert!(st.threshold <= 900.0, "resets never raise the threshold");
        assert_eq!(st.consecutive_resets, 1);
        assert_eq!(st.resets, 1);
    }

    #[test]
    fn stale_max_forgotten_after_r_resets() {
        let c = cfg();
        let mut st = state(3072.0);
        st.max_tput = 10_000;
        st.t_max = 500.0;
        st.n_max = 400.0;
        for i in 1..=c.max_stale_resets {
            st.period_tput = 100;
            st.tune(&c, 100.0);
            if i < c.max_stale_resets {
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
        st.period_tput = 100;
        st.tune(&c, 50.0);
        assert_eq!(st.consecutive_resets, 1);
        // A record-breaking period updates the max and avoids the reset.
        st.period_tput = 2000;
        st.tune(&c, 220.0);
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
        st.prev_period_tput = Some(1000);
        st.period_tput = 0; // catastrophic drop
        st.tune(&c, 0.0);
        assert_eq!(st.threshold, st.inc, "floor holds");
        st.threshold = 3072.0;
        st.prev_period_tput = Some(1);
        st.period_tput = 1;
        st.max_tput = 1;
        st.throttled_cycles_this_period = 96;
        st.cycles_this_period = 96;
        st.tune(&c, 0.0);
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
        st.prev_period_tput = Some(1000);
        st.period_tput = 900; // below max but not a 25% period drop
        let before = st.threshold;
        st.tune(&c, 50.0);
        assert_eq!(st.threshold, before, "hill-climbing only: no reset");
        assert_eq!(st.resets, 0);
    }
}
