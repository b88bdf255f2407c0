use crate::{Controller, ControllerCounters};
use checkpoint::{CheckpointError, Dec, Enc};
use faults::FaultPlan;
use sideband::{Sideband, SidebandConfig, Snapshot};
use wormsim::{CongestionControl, Network};

/// A control law: everything that distinguishes one side-band-driven
/// controller from another. The scaffold ([`SidebandDriven`]) owns the
/// configuration, the gather, the snapshot dedup, the injection gate, the
/// staleness watchdog and the checkpoint frame; a law is its state (at
/// rest in [`Default`]), what it does with each snapshot, and what it
/// forgets around an outage.
pub trait Law: Default {
    /// The law's configuration (what a [`crate::Scheme`] variant carries).
    type Config;

    /// Short name used in experiment tables.
    const NAME: &'static str;

    /// The side-band the law's census travels over.
    fn sideband_config(cfg: &Self::Config) -> &SidebandConfig;

    /// Staleness-watchdog horizon: consecutive overdue gathers after which
    /// the scaffold trips (0, the default, means no watchdog).
    fn watchdog_gathers(cfg: &Self::Config) -> u32 {
        let _ = cfg;
        0
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

    /// Folds one newly visible snapshot (each is offered exactly once).
    /// Returns whether the law settled its threshold on it — the scaffold
    /// then records that threshold as last-known-good, provided receivers
    /// rejected nothing since the previous settled threshold.
    fn on_snapshot(&mut self, cfg: &Self::Config, snap: Snapshot) -> bool;

    /// The watchdog tripped: fall back to `last_good` and forget whatever
    /// the outage makes incomparable. Default: nothing to restore or forget.
    fn on_trip(&mut self, last_good: f64) {
        let _ = last_good;
    }

    /// The first accepted aggregate after a trip re-armed the watchdog
    /// (called before that snapshot is folded). Default: nothing to forget.
    fn on_rearm(&mut self) {}

    /// Whether to block injection this cycle; not consulted while the
    /// watchdog holds the controller frozen (a frozen gate is open).
    fn gate(&self, cfg: &Self::Config, sideband: &Sideband, now: u64) -> bool {
        sideband.estimate(now) > self.threshold(cfg)
    }

    /// Told the gate's final state every cycle, frozen ones included.
    fn note_gate(&mut self, closed: bool) {
        let _ = closed;
    }

    /// The law's `decisions`/`raises`/`cuts`/`resets`; the scaffold fills
    /// in the watchdog counters. Default: a law that never decides.
    fn tally(&self) -> ControllerCounters {
        ControllerCounters::default()
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
    watchdog_trips: u64,
    watchdog_rearms: u64,
}

impl Frame {
    fn save(&self, enc: &mut Enc) {
        enc.bool(self.sized_with.is_some());
        enc.u32(self.sized_with.unwrap_or(0));
        enc.bool(self.throttling_now);
        enc.f64(self.last_good);
        enc.bool(self.frozen);
        enc.u64(self.rejected_seen);
        enc.u64(self.watchdog_trips);
        enc.u64(self.watchdog_rearms);
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
            watchdog_trips: dec.u64()?,
            watchdog_rearms: dec.u64()?,
        })
    }
}

/// A globally informed source throttle: one [`Law`] behind the machinery
/// every such controller shares. Plug into [`wormsim::Network::cycle`] as
/// the congestion-control policy; all nodes share the same
/// (side-band-delayed) view and gate, so one instance controls the whole
/// network, exactly as the paper's replicated per-node state would.
///
/// Each cycle the scaffold ticks the [`Sideband`], offers a newly visible
/// snapshot to the law exactly once, runs the staleness watchdog — after
/// [`Law::watchdog_gathers`] consecutive missed gathers the estimate is
/// fiction, so it freezes the law, restores the last-known-good threshold
/// and fails *open* until a valid aggregate re-arms it — and sets the gate.
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
                    // from the restored threshold.
                    f.frozen = false;
                    f.watchdog_rearms += 1;
                    f.rejected_seen = self.sideband.stats().rejected();
                    law.on_rearm();
                }
                if law.on_snapshot(cfg, snap) {
                    // A decision during which receivers rejected nothing is
                    // trustworthy: remember where it left the threshold as
                    // the watchdog's fallback point.
                    let rejected = self.sideband.stats().rejected();
                    if rejected == f.rejected_seen {
                        f.last_good = law.threshold(cfg);
                    }
                    f.rejected_seen = rejected;
                }
            }
        }

        // Staleness watchdog: when aggregates stop arriving for
        // `watchdog_gathers` consecutive gathers, the estimate is fiction.
        // Freeze the law, fall back to the last-known-good threshold, and
        // fail open (stop throttling) until real data returns.
        let horizon = L::watchdog_gathers(cfg);
        if !f.frozen && horizon > 0 && self.sideband.gathers_overdue(now) >= u64::from(horizon) {
            f.frozen = true;
            f.watchdog_trips += 1;
            law.on_trip(f.last_good);
        }

        f.throttling_now = !f.frozen && law.gate(cfg, &self.sideband, now);
        law.note_gate(f.throttling_now);
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
        ControllerCounters {
            watchdog_trips: self.frame.watchdog_trips,
            watchdog_rearms: self.frame.watchdog_rearms,
            ..self.law.tally()
        }
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
    use wormsim::{DeadlockMode, NetConfig};

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
        let mut source = move |_now: u64, node: usize| {
            i = i.wrapping_add(node + 1);
            Some((node + 1 + i) % nodes)
        };
        for _ in 0..cycles {
            net.cycle(&mut source, ctl);
        }
        net
    }

    struct StubConfig {
        sideband: SidebandConfig,
        watchdog_gathers: u32,
    }

    /// The smallest law with a watchdog: every snapshot is a decision that
    /// moves the threshold to `100 + decisions`, and the hooks count calls.
    #[derive(Default)]
    struct Stub {
        threshold: f64,
        decisions: u64,
        trips: u64,
        rearms: u64,
    }

    impl Law for Stub {
        type Config = StubConfig;
        const NAME: &'static str = "stub";

        fn sideband_config(cfg: &StubConfig) -> &SidebandConfig {
            &cfg.sideband
        }
        fn watchdog_gathers(cfg: &StubConfig) -> u32 {
            cfg.watchdog_gathers
        }
        fn threshold(&self, _cfg: &StubConfig) -> f64 {
            self.threshold
        }
        fn on_snapshot(&mut self, _cfg: &StubConfig, _snap: Snapshot) -> bool {
            self.decisions += 1;
            self.threshold = 100.0 + self.decisions as f64;
            true
        }
        fn on_trip(&mut self, last_good: f64) {
            self.trips += 1;
            self.threshold = last_good;
        }
        fn on_rearm(&mut self) {
            self.rearms += 1;
        }
    }

    /// The watchdog contract, once, for every horizon: a gather period of
    /// 16 cycles, a census that keeps the gate shut (700 of 768 buffers),
    /// one out-of-range aggregate that receivers reject, then a blackout
    /// from cycle 160 and clean data again 5 gathers after the trip.
    #[test]
    fn watchdog_matrix() {
        const P: u64 = 16;
        let blackout = FaultPlan::sideband_only(
            1,
            SidebandFaults {
                loss_rate: 1.0,
                ..SidebandFaults::none()
            },
        );
        for horizon in [0u32, 2, 3, 8] {
            let mut ctl = SidebandDriven::<Stub>::new(StubConfig {
                sideband: small_sideband(),
                watchdog_gathers: horizon,
            });
            assert_eq!(ctl.sideband.gather_period(), P);
            let mut now = 0;
            let mut step = |ctl: &mut SidebandDriven<Stub>, upto: u64| {
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
            ctl.set_faults(blackout.clone());
            // The newest aggregate stays 9P; the one from (9 + w)P is the
            // w-th overdue at cycle (10 + w)P. One cycle earlier: nothing.
            let trip_at = (10 + w.max(2)) * P;
            step(&mut ctl, trip_at);
            assert_eq!(ctl.sideband.stats().rejected(), 1, "h={horizon}");
            assert_eq!((ctl.law.decisions, ctl.law.threshold), (8, 108.0));
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
            assert_eq!(ctl.law.decisions, 9);
            step(&mut ctl, silence_ends + 10 * P);
            let c = ctl.counters();
            assert_eq!((c.watchdog_trips, c.watchdog_rearms), (tripped, tripped));
            assert_eq!(ctl.law.rearms, tripped, "re-arm hook runs exactly once");
            assert!(!ctl.watchdog_active());
        }
    }
}
