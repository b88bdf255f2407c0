use crate::{Controller, ControllerCounters};
use checkpoint::{CheckpointError, Dec, Enc};
use faults::FaultPlan;
use sideband::{Sideband, SidebandConfig};
use wormsim::{CongestionControl, Network};

/// What a law did with one period. The scaffold tallies it into the
/// [`ControllerCounters`]; Table 1 ([`crate::decide`]) speaks the first
/// three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Raised the threshold, or relaxed the gate.
    Raise,
    /// Cut the threshold, or tightened the gate.
    Cut,
    /// Left the threshold where it was.
    Hold,
    /// Restored the conditions of the best period seen (local-maximum
    /// avoidance, §4.2).
    Reset {
        /// The reset also took Table 1's "drop in bandwidth" cut.
        cut: bool,
    },
}

/// One tuning period, folded by the scaffold from [`Law::period_gathers`]
/// consecutive snapshots: what a law decides on. The counts are integers,
/// so Table 1's `2·closed ≥ cycles` is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Period {
    /// Flits delivered network-wide over the period's gather windows.
    pub delivered: u64,
    /// The previous period's `delivered`: `None` on the first period and on
    /// the first after a watchdog trip or re-arm, since throughput is not
    /// comparable across an outage.
    pub prev_delivered: Option<u64>,
    /// Sum of the period's snapshot censuses.
    pub census_sum: u64,
    /// Snapshots folded into the period.
    pub gathers: u32,
    /// Of `cycles`, those with the gate closed. A cycle counts once its
    /// gate is set, so the cycle a period's last snapshot arrives on counts
    /// toward the next period.
    pub closed_cycles: u64,
    /// Cycles the period spanned.
    pub cycles: u64,
}

/// A period is a *bandwidth drop* when its throughput falls below this
/// fraction of the previous period's (the paper's 25 % drop test: Table 1's
/// "drop in bandwidth").
const DROP_FRACTION: f64 = 0.75;

/// The initial threshold of the tuning laws, as a fraction of all VC
/// buffers (1 %): tuning starts from the safe, over-throttled side.
pub(crate) const INITIAL_THRESHOLD_FRAC: f64 = 0.01;

impl Period {
    /// Whether delivery fell strictly below 75 % of the previous period's
    /// (`DROP_FRACTION`; never on a first period).
    #[must_use]
    pub fn dropped(&self) -> bool {
        self.prev_delivered
            .is_some_and(|prev| (self.delivered as f64) < DROP_FRACTION * prev as f64)
    }

    /// Table 1's "currently throttling?": the gate was closed for at least
    /// half the period's cycles (calibration decision 4).
    #[must_use]
    pub fn throttling(&self) -> bool {
        self.cycles > 0 && 2 * self.closed_cycles >= self.cycles
    }
}

/// A control law: everything that distinguishes one side-band-driven
/// controller from another. The scaffold ([`SidebandDriven`]) owns the
/// configuration, the gather, the snapshot dedup, the tuning period, the
/// decision tallies, the injection gate, the staleness watchdog and the
/// checkpoint frame; a law is its state (at rest in [`Default`]) and a map
/// from a [`Period`] to an [`Action`].
pub trait Law: Default {
    /// The law's configuration (what a [`crate::Scheme`] variant carries).
    type Config;

    /// Short name used in experiment tables.
    const NAME: &'static str;

    /// The side-band the law's census travels over.
    fn sideband_config(cfg: &Self::Config) -> &SidebandConfig;

    /// Staleness-watchdog horizon: consecutive overdue gathers after which
    /// the scaffold trips (0, the default, means no watchdog).
    const WATCHDOG_GATHERS: u32 = 0;

    /// Snapshots per period (default 1: the law sees every gather).
    fn period_gathers(cfg: &Self::Config) -> u32 {
        let _ = cfg;
        1
    }

    /// Sizes buffer-count-dependent state on a default law: on the first
    /// observed cycle, and on restore before [`Law::restore`]. Whatever it
    /// sets is derived, so [`Law::save`] never writes it. Default: nothing
    /// depends on the buffer count.
    fn size(&mut self, cfg: &Self::Config, total_buffers: f64) {
        let _ = (cfg, total_buffers);
    }

    /// The census the law ships over the side-band (full VC buffers unless
    /// the law defines its own).
    fn census(net: &Network) -> u32 {
        net.full_buffer_count()
    }

    /// The injection-gate threshold, in census units.
    fn threshold(&self, cfg: &Self::Config) -> f64;

    /// Decides on one completed period. `Some` is a decision: the scaffold
    /// tallies it and records the threshold it leaves as last-known-good,
    /// provided receivers rejected nothing since the previous decision.
    /// Default: a law that never decides.
    fn on_period(&mut self, cfg: &Self::Config, period: &Period) -> Option<Action> {
        let _ = (cfg, period);
        None
    }

    /// The watchdog tripped: fall back to `last_good` and forget whatever
    /// the outage makes incomparable (nothing reads the law again before
    /// the re-arm). Default: nothing to restore or forget.
    fn on_trip(&mut self, last_good: f64) {
        let _ = last_good;
    }

    /// Whether to block injection this cycle; not consulted while the
    /// watchdog holds the controller frozen (a frozen gate is open).
    fn gate(&self, cfg: &Self::Config, sideband: &Sideband, now: u64) -> bool {
        sideband.estimate(now) > self.threshold(cfg)
    }

    /// Serializes the law's ground truth: its state minus what
    /// [`Law::size`] derives. The scaffold writes its own frame first.
    /// Default: a stateless law writes nothing.
    fn save(&self, enc: &mut Enc) {
        let _ = enc;
    }

    /// Restores state written by [`Law::save`] into a law [`Law::size`]
    /// has just sized, re-deriving whatever the stream omits.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on a truncated or structurally invalid
    /// stream.
    fn restore(&mut self, cfg: &Self::Config, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        let _ = (cfg, dec);
        Ok(())
    }
}

/// The scaffold's own runtime state, checkpointed as one block ahead of the
/// law's.
#[derive(Debug, Clone, Default)]
struct Frame {
    /// The buffer count the law was sized with (`None`: before the first
    /// cycle). Restore re-sizes the law from it.
    sized_with: Option<u32>,
    /// Injection is blocked network-wide this cycle.
    throttling_now: bool,
    /// The law's threshold after its most recent rejection-free decision:
    /// what a watchdog trip restores.
    last_good: f64,
    /// Watchdog tripped: law frozen, gate open until a valid aggregate.
    frozen: bool,
    /// Side-band rejection count already accounted for.
    rejected_seen: u64,
    /// The period being folded.
    period: Period,
    /// Decision tallies and watchdog counters.
    counters: ControllerCounters,
}

impl Frame {
    fn tally(&mut self, action: Action) {
        let c = &mut self.counters;
        c.decisions += 1;
        match action {
            Action::Raise => c.raises += 1,
            Action::Cut => c.cuts += 1,
            Action::Hold => {}
            Action::Reset { cut } => {
                c.resets += 1;
                c.cuts += u64::from(cut);
            }
        }
    }

    fn save(&self, enc: &mut Enc) {
        enc.bool(self.sized_with.is_some());
        enc.u32(self.sized_with.unwrap_or(0));
        enc.bool(self.throttling_now);
        enc.f64(self.last_good);
        enc.bool(self.frozen);
        enc.u64(self.rejected_seen);
        let (p, c) = (&self.period, &self.counters);
        enc.u64(p.delivered);
        enc.opt_u64(p.prev_delivered);
        enc.u64(p.census_sum);
        enc.u32(p.gathers);
        enc.u64(p.closed_cycles);
        enc.u64(p.cycles);
        enc.u64(c.decisions);
        enc.u64(c.raises);
        enc.u64(c.cuts);
        enc.u64(c.resets);
        enc.u64(c.watchdog_trips);
        enc.u64(c.watchdog_rearms);
    }

    fn restore(dec: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let sized = dec.bool()?;
        let buffers = dec.u32()?;
        Ok(Frame {
            sized_with: sized.then_some(buffers),
            throttling_now: dec.bool()?,
            last_good: dec.f64()?,
            frozen: dec.bool()?,
            rejected_seen: dec.u64()?,
            period: Period {
                delivered: dec.u64()?,
                prev_delivered: dec.opt_u64()?,
                census_sum: dec.u64()?,
                gathers: dec.u32()?,
                closed_cycles: dec.u64()?,
                cycles: dec.u64()?,
            },
            counters: ControllerCounters {
                decisions: dec.u64()?,
                raises: dec.u64()?,
                cuts: dec.u64()?,
                resets: dec.u64()?,
                watchdog_trips: dec.u64()?,
                watchdog_rearms: dec.u64()?,
            },
        })
    }
}

/// A globally informed source throttle: one [`Law`] behind the machinery
/// every such controller shares. Plug into [`wormsim::Network::cycle_from`]
/// as the congestion-control policy; all nodes share the same
/// (side-band-delayed) view and gate, so one instance controls the whole
/// network, exactly as the paper's replicated per-node state would.
///
/// Each cycle the scaffold ticks the [`Sideband`] and folds a newly visible
/// snapshot into the period exactly once, handing the law each completed
/// [`Period`] and tallying its [`Action`]; it runs the staleness watchdog —
/// after [`Law::WATCHDOG_GATHERS`] consecutive missed gathers the estimate
/// is fiction, so it freezes the law, restores the last-known-good
/// threshold and fails *open* until a valid aggregate re-arms it — then
/// sets the gate and counts it toward the period.
#[derive(Debug, Clone)]
pub struct SidebandDriven<L: Law> {
    cfg: L::Config,
    law: L,
    sideband: Sideband,
    frame: Frame,
}

impl<L: Law> SidebandDriven<L> {
    /// Creates a controller; the law is sized on the first
    /// [`CongestionControl::on_cycle`] call.
    #[must_use]
    pub fn new(cfg: L::Config) -> Self {
        SidebandDriven {
            sideband: Sideband::new(L::sideband_config(&cfg).clone()),
            law: L::default(),
            frame: Frame::default(),
            cfg,
        }
    }

    fn start(&mut self, buffers: u32) {
        self.law.size(&self.cfg, f64::from(buffers));
        self.frame.last_good = self.law.threshold(&self.cfg);
        self.frame.sized_with = Some(buffers);
    }
}

impl<L: Law> CongestionControl for SidebandDriven<L> {
    fn on_cycle(&mut self, now: u64, net: &Network) {
        // The law sizes from the network's own buffer count; the
        // synthetic-census path (`observe_census` with no network) uses the
        // side-band configuration's identical formula instead.
        if self.frame.sized_with.is_none() {
            self.start(net.total_vc_buffers());
        }
        self.observe_census(now, L::census(net), net.delivered_flits_cum());
    }

    fn allow_injection(&mut self, _now: u64, _node: usize, _dst: usize, _net: &Network) -> bool {
        !self.frame.throttling_now
    }

    fn throttled_recently(&self) -> bool {
        self.frame.throttling_now
    }

    fn name(&self) -> &'static str {
        L::NAME
    }
}

impl<L: Law> Controller for SidebandDriven<L> {
    fn observe_census(&mut self, now: u64, census: u32, delivered_cum: u64) {
        if self.frame.sized_with.is_none() {
            self.start(self.sideband.max_full_buffers());
        }
        let (cfg, law, f) = (&self.cfg, &mut self.law, &mut self.frame);

        // Visible snapshots only ever advance, so one that appeared during
        // this tick is new to the law.
        let seen = self.sideband.latest().map(|s| s.taken_at);
        self.sideband.on_cycle(now, census, delivered_cum);

        if let Some(snap) = self.sideband.latest() {
            if seen != Some(snap.taken_at) {
                if f.frozen {
                    // A valid aggregate ends the outage: the law restarts
                    // from the restored threshold, on a fresh period.
                    f.frozen = false;
                    f.counters.watchdog_rearms += 1;
                    f.rejected_seen = self.sideband.stats().rejected();
                    f.period = Period::default();
                }
                let p = &mut f.period;
                p.delivered += u64::from(snap.delivered_flits);
                p.census_sum += u64::from(snap.full_buffers);
                p.gathers += 1;
                if p.gathers >= L::period_gathers(cfg) {
                    let done = std::mem::take(p);
                    p.prev_delivered = Some(done.delivered);
                    if let Some(action) = law.on_period(cfg, &done) {
                        f.tally(action);
                        // A decision during which receivers rejected
                        // nothing is trustworthy: remember where it left
                        // the threshold as the watchdog's fallback point.
                        let rejected = self.sideband.stats().rejected();
                        if rejected == f.rejected_seen {
                            f.last_good = law.threshold(cfg);
                        }
                        f.rejected_seen = rejected;
                    }
                }
            }
        }

        // Staleness watchdog: when aggregates stop arriving for
        // `WATCHDOG_GATHERS` consecutive gathers, the estimate is fiction.
        // Freeze the law, fall back to the last-known-good threshold, and
        // fail open (stop throttling) until real data returns.
        let horizon = u64::from(L::WATCHDOG_GATHERS);
        if !f.frozen && horizon > 0 && self.sideband.gathers_overdue(now) >= horizon {
            f.frozen = true;
            f.counters.watchdog_trips += 1;
            f.period = Period::default();
            law.on_trip(f.last_good);
        }

        f.throttling_now = !f.frozen && law.gate(cfg, &self.sideband, now);
        f.period.cycles += 1;
        f.period.closed_cycles += u64::from(f.throttling_now);
    }

    fn throttling(&self) -> bool {
        self.frame.throttling_now
    }

    /// `None` before the first cycle, when the law is not sized yet.
    fn threshold(&self) -> Option<f64> {
        self.frame.sized_with.map(|_| self.law.threshold(&self.cfg))
    }

    fn set_faults(&mut self, plan: FaultPlan) {
        self.sideband.set_faults(plan);
    }

    fn sideband(&self) -> Option<&Sideband> {
        Some(&self.sideband)
    }

    fn watchdog_active(&self) -> bool {
        self.frame.frozen
    }

    fn counters(&self) -> ControllerCounters {
        self.frame.counters
    }

    /// The side-band, the frame, then — once sized — the law.
    fn save_state(&self, enc: &mut Enc) {
        self.sideband.save_state(enc);
        self.frame.save(enc);
        if self.frame.sized_with.is_some() {
            self.law.save(enc);
        }
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        self.sideband.restore_state(dec)?;
        self.frame = Frame::restore(dec)?;
        self.law = L::default();
        match self.frame.sized_with {
            Some(buffers) => {
                self.law.size(&self.cfg, f64::from(buffers));
                self.law.restore(&self.cfg, dec)
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use faults::SidebandFaults;
    use sideband::Snapshot;
    use wormsim::{DeadlockMode, NetConfig, Offer};

    /// The side-band of the 64-node `NetConfig::small` networks.
    pub(crate) fn small_sideband() -> SidebandConfig {
        SidebandConfig {
            radix: 8,
            ..SidebandConfig::paper()
        }
    }

    /// Drives `ctl` against a flooded small recovery-mode network for
    /// `cycles` cycles and hands the network back.
    pub(crate) fn flood(ctl: &mut impl CongestionControl, cycles: u64) -> Network {
        let mut net = Network::new(NetConfig::small(DeadlockMode::PAPER_RECOVERY)).unwrap();
        let nodes = net.torus().node_count();
        let mut i = 0usize;
        let mut source = move |_now: u64, offer: &mut Offer<'_>| {
            for node in 0..nodes {
                i = i.wrapping_add(node + 1);
                offer(node, (node + 1 + i) % nodes);
            }
        };
        for _ in 0..cycles {
            net.cycle_from(&mut source, ctl);
        }
        net
    }

    struct StubConfig {
        sideband: SidebandConfig,
        period_gathers: u32,
        /// Also shut the gate on every cycle a snapshot arrives on.
        shut_on_arrival: bool,
    }

    /// The smallest law with a watchdog of horizon `H`: every period is a
    /// decision that raises the threshold to `100 + decisions` and is kept
    /// for inspection.
    #[derive(Default)]
    struct Stub<const H: u32> {
        threshold: f64,
        periods: Vec<Period>,
        trips: u64,
    }

    impl<const H: u32> Law for Stub<H> {
        type Config = StubConfig;
        const NAME: &'static str = "stub";
        const WATCHDOG_GATHERS: u32 = H;

        fn sideband_config(cfg: &StubConfig) -> &SidebandConfig {
            &cfg.sideband
        }
        fn period_gathers(cfg: &StubConfig) -> u32 {
            cfg.period_gathers
        }
        fn size(&mut self, _cfg: &StubConfig, _total_buffers: f64) {
            self.threshold = 100.0;
        }
        fn threshold(&self, _cfg: &StubConfig) -> f64 {
            self.threshold
        }
        fn on_period(&mut self, _cfg: &StubConfig, period: &Period) -> Option<Action> {
            self.periods.push(*period);
            self.threshold = 100.0 + self.periods.len() as f64;
            Some(Action::Raise)
        }
        fn on_trip(&mut self, last_good: f64) {
            self.trips += 1;
            self.threshold = last_good;
        }
        /// Shut while the estimate exceeds the threshold, and — if so
        /// configured — on the cycle a snapshot arrives.
        fn gate(&self, cfg: &StubConfig, sideband: &Sideband, now: u64) -> bool {
            (cfg.shut_on_arrival && sideband.latest().is_some_and(|s| s.available_at == now))
                || sideband.estimate(now) > self.threshold
        }
    }

    /// The watchdog contract, once, for every horizon: a gather period of
    /// 16 cycles, a census that keeps the gate shut (700 of 768 buffers),
    /// one out-of-range aggregate that receivers reject, then a blackout
    /// from cycle 160 and clean data again 5 gathers after the trip.
    #[test]
    fn watchdog_matrix() {
        watchdog_contract::<0>();
        watchdog_contract::<2>();
        watchdog_contract::<3>();
        watchdog_contract::<8>();
    }

    /// One horizon's leg of [`watchdog_matrix`]: the stub law's `H`.
    fn watchdog_contract<const H: u32>() {
        const P: u64 = 16;
        let blackout = FaultPlan::sideband_only(
            1,
            SidebandFaults {
                loss_rate: 1.0,
                ..SidebandFaults::none()
            },
        );
        let horizon = H;
        let mut ctl = SidebandDriven::<Stub<H>>::new(StubConfig {
            sideband: small_sideband(),
            period_gathers: 1,
            shut_on_arrival: false,
        });
        assert_eq!(ctl.sideband.gather_period(), P);
        let mut now = 0;
        let mut step = |ctl: &mut SidebandDriven<Stub<H>>, upto: u64| {
            while now < upto {
                // The gather taken at 8P carries an impossible census.
                let census = if now == 8 * P { 769 } else { 700 };
                ctl.observe_census(now, census, 8 * now);
                now += 1;
            }
        };
        let w = u64::from(horizon);

        // Healthy start: gathers 1P..=7P decide cleanly (threshold 107),
        // 8P is rejected, so the decision on 9P — visible at 10P — is
        // not rejection-free and must not become the fallback point.
        step(&mut ctl, 10 * P);
        ctl.set_faults(blackout);
        // The newest aggregate stays 9P; the one from (9 + w)P is the
        // w-th overdue at cycle (10 + w)P. One cycle earlier: nothing.
        let trip_at = (10 + w.max(2)) * P;
        step(&mut ctl, trip_at);
        assert_eq!(ctl.sideband.stats().rejected(), 1, "h={horizon}");
        assert_eq!((ctl.law.periods.len(), ctl.law.threshold), (8, 108.0));
        assert!(!ctl.watchdog_active(), "h={horizon}: tripped early");
        assert!(ctl.throttling(), "h={horizon}: armed gate is shut");
        assert_eq!(ctl.counters().watchdog_trips, 0);

        // The trip cycle, then five more gathers of silence.
        let silence_ends = trip_at + 5 * P;
        for upto in trip_at + 1..=silence_ends {
            step(&mut ctl, upto);
            if horizon == 0 {
                assert!(!ctl.watchdog_active(), "no watchdog, no trip");
                assert!(ctl.throttling(), "and the gate keeps its estimate");
                continue;
            }
            assert!(ctl.watchdog_active(), "h={horizon} @{upto}");
            assert!(!ctl.throttling(), "h={horizon}: frozen fails open");
            assert_eq!(ctl.law.threshold, 107.0, "last clean decision");
        }
        let tripped = u64::from(horizon > 0);
        assert_eq!(ctl.counters().watchdog_trips, tripped, "one outage");
        assert_eq!(ctl.law.trips, tripped);

        // Data returns: the gather taken at `silence_ends` is visible
        // one period later, re-arms once, and is folded as a decision.
        ctl.set_faults(FaultPlan::none(0));
        step(&mut ctl, silence_ends + P);
        assert_eq!(ctl.watchdog_active(), horizon > 0, "not before it arrives");
        step(&mut ctl, silence_ends + P + 1);
        assert!(
            !ctl.watchdog_active(),
            "h={horizon}: first aggregate re-arms"
        );
        assert!(ctl.throttling(), "h={horizon}: gate shuts again");
        assert_eq!(ctl.law.periods.len(), 9);
        let after = ctl.law.periods[8].prev_delivered;
        assert_eq!(
            after.is_none(),
            horizon > 0,
            "h={horizon}: the outage forgets"
        );
        step(&mut ctl, silence_ends + 10 * P);
        let c = ctl.counters();
        assert_eq!((c.watchdog_trips, c.watchdog_rearms), (tripped, tripped));
        assert_eq!(c.decisions, ctl.law.periods.len() as u64);
        assert!(ctl.law.periods[0].prev_delivered.is_none());
        assert!(!ctl.watchdog_active());
    }

    /// Steps `ctl` to `upto` on a small census and a rising delivery count,
    /// recording each snapshot offered to the scaffold with the cycle it
    /// arrived on.
    fn run(
        ctl: &mut SidebandDriven<Stub<2>>,
        now: &mut u64,
        upto: u64,
        seen: &mut Vec<(u64, Snapshot)>,
    ) {
        while *now < upto {
            let before = ctl.sideband.latest().map(|s| s.taken_at);
            ctl.observe_census(*now, (*now % 7) as u32, 2 * *now + *now / 3);
            if let Some(s) = ctl.sideband.latest().filter(|s| before != Some(s.taken_at)) {
                seen.push((*now, s));
            }
            *now += 1;
        }
    }

    /// The period contract, over a three-gather period: a period's sums
    /// are its three snapshots'; `prev_delivered` is `None` on the first
    /// period and on the first after a trip and re-arm; and the gate of the
    /// cycle a snapshot arrives on (the stub shuts it exactly then) counts
    /// toward the next period.
    #[test]
    fn period_contract() {
        const P: u64 = 16;
        let mut ctl = SidebandDriven::<Stub<2>>::new(StubConfig {
            sideband: small_sideband(),
            period_gathers: 3,
            shut_on_arrival: true,
        });
        let (mut now, mut seen) = (0, Vec::new());
        run(&mut ctl, &mut now, 20 * P, &mut seen);
        ctl.set_faults(FaultPlan::sideband_only(
            1,
            SidebandFaults {
                loss_rate: 1.0,
                ..SidebandFaults::none()
            },
        ));
        run(&mut ctl, &mut now, 30 * P, &mut seen);
        assert!(ctl.watchdog_active());
        let (decided, before_rearm) = (ctl.law.periods.len(), seen.len());
        ctl.set_faults(FaultPlan::none(0));
        run(&mut ctl, &mut now, 45 * P, &mut seen);
        assert!(!ctl.watchdog_active());

        // The periods before the outage start at snapshot 0, the ones
        // after it at the re-arming snapshot; a partial period is dropped.
        let starts = (0..decided)
            .map(|i| 3 * i)
            .chain((decided..ctl.law.periods.len()).map(|i| before_rearm + 3 * (i - decided)));
        let mut last_end = 0;
        for (i, (p, first)) in ctl.law.periods.iter().zip(starts).enumerate() {
            let window = &seen[first..first + 3];
            let delivered: u64 = window
                .iter()
                .map(|(_, s)| u64::from(s.delivered_flits))
                .sum();
            let census: u64 = window.iter().map(|(_, s)| u64::from(s.full_buffers)).sum();
            assert_eq!(
                (p.delivered, p.census_sum, p.gathers),
                (delivered, census, 3),
                "#{i}"
            );
            let fresh = i == 0 || i == decided;
            let prev = (!fresh).then(|| ctl.law.periods[i - 1].delivered);
            assert_eq!(p.prev_delivered, prev, "#{i}");
            // The period spans the cycles from its predecessor's last
            // arrival (or the re-arm, or cycle 0) up to its own last one.
            let start = if i == 0 {
                0
            } else if fresh {
                seen[first].0
            } else {
                last_end
            };
            last_end = window[2].0;
            assert_eq!(p.cycles, last_end - start, "#{i}");
            // The gate shuts on arrival cycles only: a period counts its
            // first two arrivals, plus its predecessor's last one unless it
            // is fresh — never its own last.
            let arrivals_counted = if fresh { 2 } else { 3 };
            assert_eq!(p.closed_cycles, arrivals_counted, "#{i}");
        }
        assert!(decided >= 4 && ctl.law.periods.len() >= decided + 2);
        assert_eq!(ctl.counters().decisions, ctl.law.periods.len() as u64);
    }

    /// Each action bumps exactly its tallies.
    #[test]
    fn each_action_bumps_its_tallies() {
        for (action, [decisions, raises, cuts, resets]) in [
            (Action::Raise, [1, 1, 0, 0]),
            (Action::Cut, [1, 0, 1, 0]),
            (Action::Hold, [1, 0, 0, 0]),
            (Action::Reset { cut: false }, [1, 0, 0, 1]),
            (Action::Reset { cut: true }, [1, 0, 1, 1]),
        ] {
            let mut f = Frame::default();
            f.tally(action);
            let want = ControllerCounters {
                decisions,
                raises,
                cuts,
                resets,
                ..ControllerCounters::default()
            };
            assert_eq!(f.counters, want, "{action:?}");
        }
    }
}
