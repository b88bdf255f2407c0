use crate::scheme::{Control, Scheme};
use crate::{Controller, SelfTuned};
use checkpoint::CheckpointError;
use core::fmt;
use core::ops::ControlFlow;
use faults::{FaultPlan, FaultPlanError};
use sideband::SidebandStats;
use simstats::{LatencyStats, RunSummary};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use traffic::{TrafficError, Workload, WorkloadRunner};
use wormsim::{AuditReport, ConfigError, CongestionControl, NetConfig, Network, PhaseStats};

/// Everything needed to run one simulation: a network, a workload, a
/// congestion-control scheme and the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Network microarchitecture.
    pub net: NetConfig,
    /// Offered traffic.
    pub workload: Workload,
    /// Congestion-control policy.
    pub scheme: Scheme,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Warm-up cycles excluded from all statistics (the paper ignores the
    /// first 100 000 of 600 000).
    pub warmup: u64,
    /// Seed for the (deterministic) traffic generator.
    pub seed: u64,
}

/// Error building a [`Simulation`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid network configuration.
    Net(ConfigError),
    /// Invalid workload.
    Traffic(TrafficError),
    /// Warm-up must be shorter than the simulation.
    WarmupTooLong {
        /// Requested warm-up.
        warmup: u64,
        /// Requested total cycles.
        cycles: u64,
    },
    /// The scheme's side-band describes another network: its radix,
    /// dimension count or VC count — which set the gather period and the
    /// census range — differ from the network's.
    SidebandShape {
        /// The side-band's `[radix, dimensions, vcs]`.
        sideband: [usize; 3],
        /// The network's `[radix, dimensions, vcs]`.
        net: [usize; 3],
    },
    /// Invalid fault plan (only from [`Simulation::with_faults`]).
    Faults(FaultPlanError),
    /// A guarded run detected a livelock: live packets exist but no flit
    /// moved anywhere for the guard's window (see [`RunGuard`]).
    Livelock(LivelockDiag),
    /// A guarded run passed its wall-clock deadline
    /// ([`RunGuard::deadline`]) before reaching the configured end.
    DeadlineExceeded {
        /// Simulation cycle when the deadline was seen to have passed.
        at_cycle: u64,
    },
    /// A guarded run saw its cancellation flag raised
    /// ([`RunGuard::cancel`]) and stopped between cycles.
    Cancelled {
        /// Simulation cycle at which the run stopped.
        at_cycle: u64,
    },
    /// A checkpoint could not be restored (only from
    /// [`Simulation::restore`]).
    Checkpoint(CheckpointError),
    /// The invariant audit found violations — a structurally valid but
    /// internally inconsistent state (only from [`Simulation::restore`],
    /// which always audits the restored network).
    Audit(AuditReport),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Net(e) => write!(f, "network configuration: {e}"),
            SimError::Traffic(e) => write!(f, "workload: {e}"),
            SimError::WarmupTooLong { warmup, cycles } => {
                write!(
                    f,
                    "warm-up ({warmup}) must be shorter than the run ({cycles})"
                )
            }
            SimError::SidebandShape { sideband, net } => write!(
                f,
                "side-band [radix, dimensions, vcs] {sideband:?} does not match the network's {net:?}"
            ),
            SimError::Faults(e) => write!(f, "fault plan: {e}"),
            SimError::Livelock(d) => write!(f, "livelock: {d}"),
            SimError::DeadlineExceeded { at_cycle } => {
                write!(f, "wall-clock budget exhausted at cycle {at_cycle}")
            }
            SimError::Cancelled { at_cycle } => write!(f, "cancelled at cycle {at_cycle}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            SimError::Audit(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Net(e) => Some(e),
            SimError::Traffic(e) => Some(e),
            SimError::WarmupTooLong { .. }
            | SimError::SidebandShape { .. }
            | SimError::Livelock(_)
            | SimError::DeadlineExceeded { .. }
            | SimError::Cancelled { .. }
            | SimError::Audit(_) => None,
            SimError::Faults(e) => Some(e),
            SimError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<FaultPlanError> for SimError {
    fn from(e: FaultPlanError) -> Self {
        SimError::Faults(e)
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

/// Diagnostic state captured when a guarded run declares a livelock
/// ([`SimError::Livelock`]): everything needed to see *why* nothing moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivelockDiag {
    /// Cycle at which the livelock was declared.
    pub cycle: u64,
    /// The no-progress window that expired (cycles).
    pub window: u64,
    /// Packets generated but not yet fully delivered.
    pub live_packets: usize,
    /// Network-wide full-buffer census at the point of declaration.
    pub full_buffers: u32,
    /// Suspected-deadlocked VCs queued for the recovery token.
    pub token_queue: usize,
    /// Whether a Disha recovery drain was holding the token.
    pub recovery_active: bool,
    /// Cycle any flit last moved anywhere.
    pub last_progress_at: u64,
    /// Cycle of the most recent flit delivery.
    pub last_delivery_at: u64,
    /// Packets delivered before everything wedged.
    pub delivered_packets: u64,
}

impl fmt::Display for LivelockDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no flit moved for {} cycles (cycle {}, last progress at {}, last \
             delivery at {}): {} live packets, {} full buffers, {} VCs awaiting \
             the recovery token, recovery {}, {} packets delivered",
            self.window,
            self.cycle,
            self.last_progress_at,
            self.last_delivery_at,
            self.live_packets,
            self.full_buffers,
            self.token_queue,
            if self.recovery_active {
                "active"
            } else {
                "idle"
            },
            self.delivered_packets,
        )
    }
}

impl LivelockDiag {
    /// Captures `net`'s state at the moment its no-progress `window`
    /// expired — the one place a diagnosis is assembled.
    fn capture(net: &Network, window: u64) -> Self {
        LivelockDiag {
            cycle: net.now(),
            window,
            live_packets: net.live_packets(),
            full_buffers: net.full_buffer_count(),
            token_queue: net.token_queue_len(),
            recovery_active: net.recovery_active(),
            last_progress_at: net.last_progress_at(),
            last_delivery_at: net.last_delivery_at(),
            delivered_packets: net.counters().delivered_packets,
        }
    }
}

/// Soft limits for a guarded run ([`Simulation::run_guarded`]).
///
/// The default guard watches only for livelock, with a window generous
/// enough (200 000 cycles) that even a deeply saturated-but-functioning
/// network never trips it: the Disha drain moves at least one flit per
/// recovery step, and any functioning configuration delivers far more often
/// than that.
#[derive(Debug, Clone, Copy)]
pub struct RunGuard {
    /// Declare [`SimError::Livelock`] when live packets exist but no flit
    /// has moved anywhere for this many cycles (`None` disables).
    pub livelock_window: Option<u64>,
    /// Wall-clock deadline, checked every 1024 cycles (`None` disables).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation: a flag someone else raises (a signal
    /// handler, say), polled alongside the deadline; once it reads `true`
    /// the run ends with [`SimError::Cancelled`] (`None` disables).
    pub cancel: Option<&'static AtomicBool>,
}

impl RunGuard {
    /// The guard that never trips.
    pub const NONE: RunGuard = RunGuard {
        livelock_window: None,
        deadline: None,
        cancel: None,
    };
}

/// A per-cycle observer of [`Simulation::run_guarded`]: called after every
/// cycle, it may stop the run by breaking with a `B`.
pub type Observer<'a, B> = &'a mut dyn FnMut(&Simulation) -> ControlFlow<B>;

/// Default no-progress window (cycles) before declaring a livelock.
pub const DEFAULT_LIVELOCK_WINDOW: u64 = 200_000;

/// How many cycles pass between two looks at the wall clock and the
/// cancellation flag.
const POLL_EVERY: u64 = 1024;

impl Default for RunGuard {
    fn default() -> Self {
        RunGuard {
            livelock_window: Some(DEFAULT_LIVELOCK_WINDOW),
            ..RunGuard::NONE
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Net(e)
    }
}

impl From<TrafficError> for SimError {
    fn from(e: TrafficError) -> Self {
        SimError::Traffic(e)
    }
}

/// Error producing a [`RunSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryError {
    /// The run has not yet reached the end of its warm-up window, so there
    /// is no measured window to summarize.
    BeforeWarmup {
        /// Current simulation cycle.
        now: u64,
        /// Configured warm-up length.
        warmup: u64,
    },
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryError::BeforeWarmup { now, warmup } => write!(
                f,
                "summary requested at cycle {now}, before the warm-up window ({warmup} cycles) elapsed"
            ),
        }
    }
}

impl std::error::Error for SummaryError {}

/// Fault-injection and degradation counters of one run, aggregated across
/// the network and the controller. All zero when no fault plan is installed
/// (and for fault-free plans).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// Side-band loss/delay/corruption/rejection counters, when the scheme
    /// has a side-band (`None` for `Base` and `Alo`).
    pub sideband: Option<SidebandStats>,
    /// Whether the watchdog is tripped right now.
    pub watchdog_active: bool,
    /// The controller's decision and watchdog counters (raises, cuts,
    /// resets, watchdog trips and re-arms), so degradation reports can show
    /// decision activity alongside the fault counters without a second
    /// query.
    pub controller: crate::ControllerCounters,
    /// Cycles flits stalled on faulted network links.
    pub link_stall_cycles: u64,
    /// Cycles flits stalled on hotspot-faulted delivery channels.
    pub hotspot_stall_cycles: u64,
}

impl FaultReport {
    /// True when no fault or degradation event was observed at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.sideband.unwrap_or_default() == SidebandStats::default()
            && self.controller.watchdog_trips == 0
            && self.controller.watchdog_rearms == 0
            && !self.watchdog_active
            && self.link_stall_cycles == 0
            && self.hotspot_stall_cycles == 0
    }
}

/// A wired-up simulation: network + workload + congestion control +
/// statistics, stepped one cycle at a time (or run to completion).
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    /// Hash of `cfg` and the installed fault plan, sealed into every
    /// checkpoint: a snapshot restores only into the configuration that
    /// took it, and one from a faulted run never into a fault-free one (or
    /// vice versa).
    fingerprint: u64,
    net: Network,
    runner: WorkloadRunner,
    ctl: Control,
    // Statistics over the measured (post-warm-up) window.
    net_latency: LatencyStats,
    total_latency: LatencyStats,
    base_delivered_flits: u64,
    base_delivered_packets: u64,
    base_recovered: u64,
    base_throttled: u64,
    /// Packets delivered per source node during the measured window (for
    /// Jain's fairness index).
    src_delivered: Vec<u64>,
    /// Invariant-audit cadence in cycles (`None` = off; see
    /// [`Simulation::set_audit_every`]).
    audit_every: Option<u64>,
}

impl Simulation {
    /// Builds the simulation: unsharded, unaudited, and from `cfg` alone —
    /// construction consults nothing outside its arguments.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid network, workload or window
    /// parameters.
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        Self::build(cfg, None, Self::empty_network).map(|(sim, ())| sim)
    }

    /// Builds the simulation with a fault plan installed on the network and
    /// (when the scheme has one) the controller's side-band.
    ///
    /// A quiet plan leaves every fault-free fast path untouched, so the run
    /// is bit-identical to [`Simulation::new`] with the same config.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid parameters, including a fault plan
    /// that names nodes or ports outside the configured topology
    /// ([`SimError::Faults`]).
    pub fn with_faults(cfg: SimConfig, plan: FaultPlan) -> Result<Self, SimError> {
        Self::build(cfg, Some(plan), Self::empty_network).map(|(sim, ())| sim)
    }

    /// The network of a run that starts empty, for [`Simulation::build`].
    fn empty_network(net: &NetConfig, _fingerprint: u64) -> Result<(Network, ()), SimError> {
        Ok((Network::new(net.clone())?, ()))
    }

    /// The one constructor: checks `cfg`, computes the fingerprint of `cfg`
    /// and `faults`, has `network` build the network from `cfg.net` and
    /// that fingerprint, then wires the workload, controller and statistics
    /// around it and installs `faults` on the network and the controller.
    /// Returns the simulation and what `network` returned beside the
    /// network.
    fn build<T>(
        cfg: SimConfig,
        faults: Option<FaultPlan>,
        network: impl FnOnce(&NetConfig, u64) -> Result<(Network, T), SimError>,
    ) -> Result<(Self, T), SimError> {
        if cfg.warmup >= cfg.cycles {
            return Err(SimError::WarmupTooLong {
                warmup: cfg.warmup,
                cycles: cfg.cycles,
            });
        }
        // Before `network` runs: a bad configuration is reported as one, not
        // as a container that does not fit it.
        cfg.net.validate()?;
        if let Some(sb) = cfg.scheme.sideband() {
            let sideband = [sb.radix, sb.dimensions, sb.vcs];
            let shape = [cfg.net.radix, cfg.net.dimensions, cfg.net.vcs];
            if sideband != shape {
                return Err(SimError::SidebandShape {
                    sideband,
                    net: shape,
                });
            }
        }
        let fingerprint = Self::fingerprint(&cfg, faults.as_ref());
        let (mut net, rest) = network(&cfg.net, fingerprint)?;
        let nodes = net.torus().node_count();
        let runner = WorkloadRunner::new(&cfg.workload, nodes, cfg.seed)?;
        let mut ctl = cfg.scheme.build();
        if let Some(plan) = faults {
            net.install_faults(plan.clone())?;
            ctl.set_faults(plan);
        }
        let sim = Simulation {
            fingerprint,
            cfg,
            net,
            runner,
            ctl,
            net_latency: LatencyStats::new(),
            total_latency: LatencyStats::new(),
            base_delivered_flits: 0,
            base_delivered_packets: 0,
            base_recovered: 0,
            base_throttled: 0,
            src_delivered: vec![0; nodes],
            audit_every: None,
        };
        Ok((sim, rest))
    }

    /// Advances one cycle and folds deliveries into the statistics.
    ///
    /// Draining the network's delivery queue *every* step is what bounds a
    /// long (guarded or not) run's memory at the per-cycle delivery
    /// high-water mark instead of the whole run's delivery count: the
    /// network buffers undrained records in a queue that only grows while
    /// a consumer lets them pile up.
    pub fn step(&mut self) {
        // The measured window opens with this cycle. Fast-forward never
        // jumps past the warm-up boundary, so the step at it always runs.
        if self.net.now() == self.cfg.warmup {
            let c = self.net.counters();
            self.base_delivered_flits = c.delivered_flits;
            self.base_delivered_packets = c.delivered_packets;
            self.base_recovered = c.recovered_packets;
            self.base_throttled = c.throttled_injections;
        }
        let runner = &mut self.runner;
        self.net
            .cycle_from(&mut |t, offer| runner.arrivals(t, offer), &mut self.ctl);
        let warmup = self.cfg.warmup;
        for rec in self.net.drain_deliveries() {
            if rec.generated_at >= warmup {
                self.net_latency.record(rec.network_latency());
                self.total_latency.record(rec.total_latency());
                self.src_delivered[rec.src] += 1;
            }
        }
        if let Some(every) = self.audit_every {
            if self.net.now().is_multiple_of(every) {
                let report = self.net.audit();
                assert!(report.is_clean(), "{report}");
            }
        }
    }

    /// The cycle a quiescence fast-forward may jump to, if any.
    ///
    /// A jump is legal only when every party certifies the skipped cycles
    /// are no-ops: the network is quiescent (nothing buffered, queued or
    /// recovering — so every pipeline stage would do nothing), the
    /// workload's next arrival is in the future
    /// ([`WorkloadRunner::next_arrival`], exact for Bernoulli and periodic
    /// sources alike: the earliest per-node deadline), and the
    /// controller does not need its per-cycle hook
    /// ([`wormsim::CongestionControl::next_wakeup`]; the side-band schemes
    /// keep the conservative default). The jump is additionally clamped to
    /// the warm-up boundary and the end of the run, so the skipped window
    /// never straddles a measurement edge. Skipping is therefore
    /// *cycle-exact*: the post-jump state is bit-identical to stepping.
    fn fast_forward_target(&self) -> Option<u64> {
        if !self.net.quiescent() {
            return None;
        }
        let now = self.net.now();
        let mut target = self
            .cfg
            .cycles
            .min(self.runner.next_arrival(now))
            .min(self.ctl.next_wakeup(now));
        if now <= self.cfg.warmup {
            target = target.min(self.cfg.warmup);
        }
        (target > now).then_some(target)
    }

    /// Runs until `cfg.cycles` cycles have elapsed, fast-forwarding over
    /// provably empty stretches (a quiescent network, no arrival due and a
    /// controller that needs no per-cycle hook):
    /// [`Simulation::run_guarded`] with nothing guarding and nothing
    /// observing.
    pub fn run_to_end(&mut self) {
        let end = self.run_guarded::<core::convert::Infallible>(&RunGuard::NONE, None);
        debug_assert!(end.is_ok(), "an empty guard cannot trip");
    }

    /// The one stepping loop: runs until `cfg.cycles` cycles have elapsed,
    /// until `guard` declares a livelock, a passed deadline or a
    /// cancellation, or until `observer` breaks.
    ///
    /// `observer`, when installed, is called after *every* cycle — so
    /// nothing is fast-forwarded and no cycle goes unseen — and may stop
    /// the run by returning [`ControlFlow::Break`], which comes back as
    /// `Ok(Break(_))`. Without one the loop skips provably empty stretches,
    /// which is cycle-exact. Either way a run that completes
    /// (`Ok(Continue(()))`) is bit-identical to [`Simulation::run_to_end`]:
    /// guard and observer only watch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] (with a [`LivelockDiag`]) when live
    /// packets exist but no flit has moved for the guard's window,
    /// [`SimError::DeadlineExceeded`] when the wall-clock deadline passes
    /// first, or [`SimError::Cancelled`] once the guard's flag is up.
    pub fn run_guarded<B>(
        &mut self,
        guard: &RunGuard,
        mut observer: Option<Observer<'_, B>>,
    ) -> Result<ControlFlow<B>, SimError> {
        let mut stepped: u64 = 0;
        let mut next_poll: u64 = 0;
        while self.net.now() < self.cfg.cycles {
            let at_cycle = self.net.now();
            if stepped >= next_poll {
                next_poll = stepped + POLL_EVERY;
                if guard.cancel.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                    return Err(SimError::Cancelled { at_cycle });
                }
                if guard.deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(SimError::DeadlineExceeded { at_cycle });
                }
            }
            if observer.is_none() {
                if let Some(to) = self.fast_forward_target() {
                    // Skipped cycles count towards the next poll, and a
                    // quiescent network cannot be livelocked, so the checks
                    // stay equivalent to stepping.
                    stepped = stepped.saturating_add(to - at_cycle);
                    self.net.fast_forward(to);
                    continue;
                }
            }
            self.step();
            stepped += 1;
            if let Some(observe) = observer.as_mut() {
                if let ControlFlow::Break(b) = observe(self) {
                    return Ok(ControlFlow::Break(b));
                }
            }
            if let Some(window) = guard.livelock_window {
                if self.net.livelocked(window) {
                    return Err(SimError::Livelock(LivelockDiag::capture(&self.net, window)));
                }
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    fn fingerprint(cfg: &SimConfig, faults: Option<&FaultPlan>) -> u64 {
        checkpoint::fnv1a64(format!("{cfg:?}|{faults:?}").as_bytes())
    }

    /// Serializes the complete simulation state — network, workload,
    /// controller and statistics — into a self-validating byte container.
    ///
    /// The container is fingerprinted against the configuration (and fault
    /// plan), so it can only be restored by [`Simulation::restore`] with the
    /// exact same [`SimConfig`] and faults. Restoring and running to the end
    /// is bit-identical to never having checkpointed at all.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        // When auditing is on, a checkpoint boundary is always audited: a
        // snapshot of a desynced network would poison every later resume.
        if self.audit_every.is_some() {
            let report = self.net.audit();
            assert!(report.is_clean(), "pre-checkpoint {report}");
        }
        checkpoint::seal_with(self.fingerprint, |enc| {
            self.net.save_state(enc);
            self.runner.save_state(enc);
            self.ctl.save_state(enc);
            self.net_latency.save_state(enc);
            self.total_latency.save_state(enc);
            enc.u64(self.base_delivered_flits);
            enc.u64(self.base_delivered_packets);
            enc.u64(self.base_recovered);
            enc.u64(self.base_throttled);
            // Fixed length (one count per node): restore knows it from the
            // rebuilt topology, so no length prefix is needed.
            for &n in &self.src_delivered {
                enc.varint(n);
            }
        })
    }

    /// Rebuilds a simulation from `cfg` (+ optional fault plan) and restores
    /// the state captured by [`Simulation::checkpoint`] on an identically
    /// configured run. The network is built once, by the decoder
    /// ([`Network::restore`]): no empty one is built first and dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the container is damaged,
    /// truncated, from a different configuration
    /// ([`CheckpointError::ConfigMismatch`]) or structurally inconsistent
    /// with the rebuilt network; all the [`Simulation::new`] /
    /// [`Simulation::with_faults`] errors apply too.
    pub fn restore(
        cfg: SimConfig,
        faults: Option<FaultPlan>,
        bytes: &[u8],
    ) -> Result<Self, SimError> {
        let (mut sim, mut dec) = Self::build(cfg, faults, |net, fingerprint| {
            let mut dec = checkpoint::Dec::new(checkpoint::open(bytes, fingerprint)?);
            Ok((Network::restore(net.clone(), &mut dec)?, dec))
        })?;
        sim.runner.restore_state(&mut dec)?;
        sim.ctl.restore_state(&mut dec)?;
        sim.net_latency = LatencyStats::restore_state(&mut dec)?;
        sim.total_latency = LatencyStats::restore_state(&mut dec)?;
        sim.base_delivered_flits = dec.u64()?;
        sim.base_delivered_packets = dec.u64()?;
        sim.base_recovered = dec.u64()?;
        sim.base_throttled = dec.u64()?;
        for n in &mut sim.src_delivered {
            *n = dec.varint()?;
        }
        dec.finish()?;
        // A restore boundary is always audited, flag or no flag: the codec
        // validates structure (counts, tags, ranges) but only the invariant
        // audit catches a payload that decodes cleanly into a state the
        // simulator could never have reached.
        let report = sim.net.audit();
        if !report.is_clean() {
            return Err(SimError::Audit(report));
        }
        Ok(sim)
    }

    /// The current cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// Runs one full invariant audit over the network (see
    /// [`wormsim::AuditReport`]). Read-only; call between steps.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        self.net.audit()
    }

    /// Sets the audit cadence: audit every `every` cycles during
    /// [`Simulation::step`] and at every checkpoint (`None` = off).
    /// A cadence audit failure panics — the simulator found itself in a
    /// state it can't explain, and nothing downstream is trustworthy.
    pub fn set_audit_every(&mut self, every: Option<u64>) {
        self.audit_every = every;
    }

    /// The active audit cadence, if any.
    #[must_use]
    pub fn audit_every(&self) -> Option<u64> {
        self.audit_every
    }

    /// Sets the step-loop shard count (clamped to `[1, nodes]` by the
    /// network; a fresh simulation steps unsharded). Results are bit-identical for any
    /// value; call between steps.
    pub fn set_shards(&mut self, shards: usize) {
        self.net.set_shards(shards);
    }

    /// The active step-loop shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.net.shards()
    }

    /// Toggles per-cycle phase timing (decide / apply / barrier wall time,
    /// accumulated across route and switch passes). Observability only:
    /// simulated state is unaffected. Enabling resets the accumulators.
    pub fn set_phase_stats(&mut self, enabled: bool) {
        self.net.set_phase_stats(enabled);
    }

    /// The accumulated phase timings, if [`Simulation::set_phase_stats`]
    /// is on.
    #[must_use]
    pub fn phase_stats(&self) -> Option<PhaseStats> {
        self.net.phase_stats()
    }

    /// Read access to the network (counters, census, topology).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The configuration this simulation was built from.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The self-tuned controller, when the scheme is [`Scheme::Tuned`]
    /// (lets experiments sample the threshold over time, as in Figure 4).
    #[must_use]
    pub fn tuned(&self) -> Option<&SelfTuned> {
        self.ctl.as_tuned()
    }

    /// Fault and degradation counters accumulated so far (all zero when no
    /// faults are installed).
    #[must_use]
    pub fn fault_report(&self) -> FaultReport {
        let c = self.net.counters();
        FaultReport {
            sideband: self.ctl.sideband_stats(),
            watchdog_active: Controller::watchdog_active(&self.ctl),
            controller: Controller::counters(&self.ctl),
            link_stall_cycles: c.link_stall_cycles,
            hotspot_stall_cycles: c.hotspot_stall_cycles,
        }
    }

    /// The controller's typed decision/watchdog counters (uniform across
    /// every scheme in the zoo; all zero for `Base`).
    #[must_use]
    pub fn controller_counters(&self) -> crate::ControllerCounters {
        Controller::counters(&self.ctl)
    }

    /// Trait-object-free access to the controller, for scheme-agnostic
    /// inspection (threshold, throttling, side-band, watchdog).
    #[must_use]
    pub fn controller(&self) -> &Control {
        &self.ctl
    }

    /// Summary over the measured window. Meaningful once the run is past
    /// warm-up; normally called after [`Simulation::run_to_end`].
    ///
    /// # Errors
    ///
    /// Returns [`SummaryError::BeforeWarmup`] if called before the warm-up
    /// window has elapsed.
    pub fn summary(&self) -> Result<RunSummary, SummaryError> {
        if self.net.now() <= self.cfg.warmup {
            return Err(SummaryError::BeforeWarmup {
                now: self.net.now(),
                warmup: self.cfg.warmup,
            });
        }
        let c = self.net.counters();
        let measured_cycles = self.net.now() - self.cfg.warmup;
        // Mean offered rate over the measured window, integrated exactly
        // over phase boundaries (sampling every k-th cycle mis-weights
        // windows that are short or not a multiple of the stride).
        let offered = self
            .cfg
            .workload
            .mean_offered_rate(self.cfg.warmup, self.net.now());
        Ok(RunSummary {
            measured_cycles,
            nodes: self.net.torus().node_count(),
            packet_len: self.cfg.net.packet_len,
            offered_rate: offered,
            delivered_flits: c.delivered_flits - self.base_delivered_flits,
            delivered_packets: c.delivered_packets - self.base_delivered_packets,
            network_latency: self.net_latency.clone(),
            total_latency: self.total_latency.clone(),
            recovered_packets: c.recovered_packets - self.base_recovered,
            throttled_injections: c.throttled_injections - self.base_throttled,
            fairness: simstats::jain_fairness(&self.src_delivered),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::{Pattern, Process};
    use wormsim::DeadlockMode;

    fn quick(scheme: Scheme, rate: f64, deadlock: DeadlockMode) -> RunSummary {
        let cfg = SimConfig {
            net: NetConfig::small(deadlock),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
            scheme,
            cycles: 12_000,
            warmup: 2_000,
            seed: 7,
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run_to_end();
        sim.summary().unwrap()
    }

    #[test]
    fn summary_before_warmup_is_an_error() {
        let cfg = SimConfig {
            net: NetConfig::small(DeadlockMode::Avoidance),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.01)),
            scheme: Scheme::Base,
            cycles: 10_000,
            warmup: 2_000,
            seed: 0,
        };
        let mut sim = Simulation::new(cfg).unwrap();
        for _ in 0..100 {
            sim.step();
        }
        assert!(matches!(
            sim.summary(),
            Err(SummaryError::BeforeWarmup { warmup: 2_000, .. })
        ));
        sim.run_to_end();
        assert!(sim.summary().is_ok());
    }

    #[test]
    fn offered_rate_is_exact_for_odd_windows() {
        // Measured window of 10 000 - 2 000 = 8 000 cycles on a steady
        // workload: the reported offered rate must equal the configured
        // rate exactly, regardless of window length or stride artifacts.
        let s = quick(Scheme::Base, 0.013, DeadlockMode::Avoidance);
        assert!(
            (s.offered_rate - 0.013).abs() < 1e-12,
            "offered rate {} drifted from configured 0.013",
            s.offered_rate
        );
    }

    #[test]
    fn light_load_delivers_everything_offered() {
        for deadlock in [DeadlockMode::Avoidance, DeadlockMode::PAPER_RECOVERY] {
            let s = quick(Scheme::Base, 0.002, deadlock);
            assert!(
                s.acceptance() > 0.9,
                "acceptance {} too low under light load ({deadlock:?})",
                s.acceptance()
            );
            assert!(s.recovered_packets == 0 || matches!(deadlock, DeadlockMode::Recovery { .. }));
        }
    }

    #[test]
    fn latency_reasonable_at_low_load() {
        let s = quick(Scheme::Base, 0.001, DeadlockMode::Avoidance);
        let mean = s.network_latency.mean().unwrap();
        // 8-ary 2-cube: avg distance ~4 hops, ~3 cycles/hop + 15 cycles of
        // body flits + delivery; far under 100 at zero contention.
        assert!((15.0..100.0).contains(&mean), "zero-load latency {mean}");
    }

    #[test]
    fn tuned_scheme_runs_and_exposes_threshold() {
        let cfg = SimConfig {
            net: NetConfig::small(DeadlockMode::Avoidance),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.02)),
            scheme: Scheme::Tuned(TuneConfig::for_net(&NetConfig::small(
                DeadlockMode::Avoidance,
            ))),
            cycles: 5_000,
            warmup: 1_000,
            seed: 3,
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run_to_end();
        let t = sim.tuned().expect("tuned scheme");
        assert!(t.threshold().unwrap() > 0.0);
        assert!(t.counters().decisions > 10);
    }

    /// A side-band sized for another network is refused: it would gather
    /// over the wrong period and range-check the wrong census.
    #[test]
    fn sideband_must_match_the_network() {
        let net = NetConfig::small(DeadlockMode::Avoidance);
        let cfg = |scheme| SimConfig {
            net: net.clone(),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.01)),
            scheme,
            cycles: 1_000,
            warmup: 100,
            seed: 0,
        };
        let two_vcs = NetConfig {
            vcs: 2,
            ..net.clone()
        };
        for (scheme, sideband) in [
            (Scheme::tuned_paper(), [16, 2, 3]),
            (Scheme::Tuned(TuneConfig::for_net(&two_vcs)), [8, 2, 2]),
        ] {
            assert_eq!(
                Simulation::new(cfg(scheme)).err(),
                Some(SimError::SidebandShape {
                    sideband,
                    net: [8, 2, 3],
                })
            );
        }
        Simulation::new(cfg(Scheme::Tuned(TuneConfig::for_net(&net)))).unwrap();
        Simulation::new(cfg(Scheme::Base)).unwrap();
    }

    #[test]
    fn warmup_must_be_shorter_than_run() {
        let cfg = SimConfig {
            net: NetConfig::small(DeadlockMode::Avoidance),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.01)),
            scheme: Scheme::Base,
            cycles: 100,
            warmup: 100,
            seed: 0,
        };
        assert!(matches!(
            Simulation::new(cfg),
            Err(SimError::WarmupTooLong { .. })
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(Scheme::Alo, 0.01, DeadlockMode::PAPER_RECOVERY);
        let b = quick(Scheme::Alo, 0.01, DeadlockMode::PAPER_RECOVERY);
        assert_eq!(a.delivered_flits, b.delivered_flits);
        assert_eq!(a.network_latency.mean(), b.network_latency.mean());
    }

    // -- quiescence fast-forward --

    use traffic::Phase;

    /// The fast-forwarded run must be *byte-identical* to the stepped run,
    /// every counter included: the skipped cycles are provable no-ops in
    /// both deadlock modes. Under a Bernoulli source too — its arrivals are
    /// deadlines like a periodic one's, so idle stretches are skippable.
    #[test]
    fn fast_forward_is_cycle_exact() {
        let phase = |duration, process| Phase {
            duration,
            pattern: Pattern::UniformRandom,
            process,
        };
        let avoidance = |workload| SimConfig {
            net: NetConfig::small(DeadlockMode::Avoidance),
            workload,
            scheme: Scheme::Base,
            cycles: 30_000,
            warmup: 1_000,
            seed: 5,
        };
        let cfgs = [
            avoidance(Workload::phased(vec![
                phase(3_000, Process::Silent),
                phase(u64::MAX, Process::periodic(700)),
            ])),
            // 64 nodes at 2·10⁻⁴: a packet every ~80 cycles, each gone in
            // ~20 — most cycles are idle. Then a busier phase.
            avoidance(Workload::phased(vec![
                phase(20_000, Process::bernoulli(0.0002)),
                phase(u64::MAX, Process::bernoulli(0.002)),
            ])),
            // Recovery: a busy opening the starvation scan works through,
            // then a silent stretch to skip.
            SimConfig {
                net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
                workload: Workload::phased(vec![
                    phase(2_000, Process::periodic(40)),
                    phase(u64::MAX, Process::Silent),
                ]),
                scheme: Scheme::Alo,
                cycles: 40_000,
                warmup: 500,
                seed: 9,
            },
        ];
        for cfg in cfgs {
            let recovery = cfg.net.deadlock != DeadlockMode::Avoidance;
            let mut ff = Simulation::new(cfg.clone()).unwrap();
            if !recovery {
                // Not vacuous: cycle 0 is already skippable — to the first
                // arrival, or to the warm-up boundary under the silent
                // opening.
                let first = ff.fast_forward_target().expect("cycle 0 is skippable");
                assert!(first > 1 && first <= 1_000, "first jump to {first}");
            }
            ff.run_to_end();
            let mut stepped = Simulation::new(cfg.clone()).unwrap();
            while stepped.now() < cfg.cycles {
                stepped.step();
            }
            assert_eq!(ff.checkpoint(), stepped.checkpoint());
            let counters = *stepped.network().counters();
            assert_eq!(*ff.network().counters(), counters);
            assert!(
                counters.delivered_flits > 0,
                "vacuous: nothing was delivered"
            );
            assert_eq!(
                counters.stage_starvation_checks > 0,
                recovery,
                "vacuous: the starvation scan examined nothing"
            );
        }
    }

    /// The guard only observes; with fast-forward in both paths a guarded
    /// run over a skippable workload still matches the unguarded one.
    #[test]
    fn guarded_fast_forward_matches_unguarded() {
        let wl = Workload::phased(vec![
            Phase {
                duration: 1_000,
                pattern: Pattern::UniformRandom,
                process: Process::periodic(200),
            },
            Phase {
                duration: u64::MAX,
                pattern: Pattern::UniformRandom,
                process: Process::Silent,
            },
        ]);
        let cfg = SimConfig {
            net: NetConfig::small(DeadlockMode::Avoidance),
            workload: wl,
            scheme: Scheme::Base,
            cycles: 50_000,
            warmup: 100,
            seed: 3,
        };
        let mut a = Simulation::new(cfg.clone()).unwrap();
        a.run_to_end();
        let mut b = Simulation::new(cfg).unwrap();
        guarded(&mut b, &RunGuard::default()).unwrap();
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    // -- checkpoint/restore --

    use crate::TuneConfig;
    use faults::{HotspotFault, SidebandFaults};
    use sideband::SidebandConfig;

    /// A saturating tuned run on the small recovery network: exercises the
    /// side-band, the tuner, Disha recovery and the latency statistics all
    /// at once — everything a checkpoint must capture.
    fn ckpt_cfg(rate: f64) -> SimConfig {
        SimConfig {
            net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
            scheme: Scheme::Tuned(TuneConfig {
                sideband: SidebandConfig {
                    radix: 8,
                    ..SidebandConfig::paper()
                },
                ..TuneConfig::paper()
            }),
            cycles: 8_000,
            warmup: 2_000,
            seed: 11,
        }
    }

    fn step_to(sim: &mut Simulation, cycle: u64) {
        while sim.now() < cycle {
            sim.step();
        }
    }

    /// The golden property: snapshot at cycle `C` + restore + run to the end
    /// must be bit-for-bit identical to the uninterrupted run — proven by
    /// comparing final checkpoints, which cover every byte of state.
    #[test]
    fn checkpoint_restore_resume_is_bit_identical() {
        let cfg = ckpt_cfg(0.10);
        let mut golden = Simulation::new(cfg.clone()).unwrap();
        golden.run_to_end();
        let golden_end = golden.checkpoint();
        let golden_summary = golden.summary().unwrap();

        // 1 001 and 3 333 fall mid-gather (not multiples of the 32-cycle
        // gather period); 2 000 is the warm-up boundary itself.
        for c in [500u64, 1_001, 2_000, 3_333] {
            let mut sim = Simulation::new(cfg.clone()).unwrap();
            step_to(&mut sim, c);
            let snap = sim.checkpoint();
            drop(sim);
            let mut resumed = Simulation::restore(cfg.clone(), None, &snap).unwrap();
            assert_eq!(resumed.now(), c, "restore resumes at the snapped cycle");
            resumed.run_to_end();
            assert_eq!(
                resumed.checkpoint(),
                golden_end,
                "resume from cycle {c} diverged from the uninterrupted run"
            );
            let s = resumed.summary().unwrap();
            assert_eq!(s.delivered_flits, golden_summary.delivered_flits);
            assert_eq!(
                s.network_latency.mean(),
                golden_summary.network_latency.mean()
            );
        }
    }

    /// Checkpoints are shard-agnostic: a snapshot taken while stepping at
    /// S shards restores at any S′, audits clean, re-serializes to the
    /// same bytes, and resumes to a final state bit-identical to the
    /// unsharded uninterrupted run. The shard plan is runtime
    /// configuration, never state — this pins that.
    #[test]
    fn checkpoint_crosses_shard_counts() {
        let cfg = ckpt_cfg(0.10);
        let mut golden = Simulation::new(cfg.clone()).unwrap();
        golden.run_to_end();
        let golden_end = golden.checkpoint();

        let mut sharded = Simulation::new(cfg.clone()).unwrap();
        sharded.set_shards(3);
        step_to(&mut sharded, 2_500);
        let snap = sharded.checkpoint();

        for restore_shards in [1usize, 2, 4] {
            let mut resumed = Simulation::restore(cfg.clone(), None, &snap).unwrap();
            resumed.set_shards(restore_shards);
            assert!(
                resumed.audit().is_clean(),
                "restore at {restore_shards} shards audits dirty"
            );
            assert_eq!(
                resumed.checkpoint(),
                snap,
                "re-serialize at {restore_shards} shards changed bytes"
            );
            resumed.run_to_end();
            assert_eq!(
                resumed.checkpoint(),
                golden_end,
                "resume at {restore_shards} shards diverged"
            );
        }
    }

    /// Same property with the snapshot taken *mid-recovery*: a Disha drain
    /// holds the token and a partially drained packet sits in the deadlock
    /// buffers at the moment of capture.
    #[test]
    fn checkpoint_mid_recovery_is_bit_identical() {
        let cfg = ckpt_cfg(0.14);
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        while !sim.network().recovery_active() && sim.now() < cfg.cycles - 1 {
            sim.step();
        }
        assert!(
            sim.network().recovery_active(),
            "rate 0.14 must wedge the small recovery network at least once"
        );
        let c = sim.now();
        let snap = sim.checkpoint();
        sim.run_to_end();
        let golden_end = sim.checkpoint();

        let mut resumed = Simulation::restore(cfg, None, &snap).unwrap();
        assert!(resumed.network().recovery_active());
        resumed.run_to_end();
        assert_eq!(
            resumed.checkpoint(),
            golden_end,
            "mid-recovery resume (cycle {c}) diverged"
        );
    }

    /// Checkpointing composes with fault plans: the fingerprint binds the
    /// plan, and a faulted run resumes bit-identically.
    #[test]
    fn checkpoint_with_faults_is_bit_identical_and_plan_bound() {
        let cfg = ckpt_cfg(0.08);
        let plan = FaultPlan::sideband_only(
            23,
            SidebandFaults {
                loss_rate: 0.3,
                ..SidebandFaults::none()
            },
        );
        let mut golden = Simulation::with_faults(cfg.clone(), plan.clone()).unwrap();
        golden.run_to_end();
        let golden_end = golden.checkpoint();

        let mut sim = Simulation::with_faults(cfg.clone(), plan.clone()).unwrap();
        step_to(&mut sim, 1_777);
        let snap = sim.checkpoint();
        let mut resumed = Simulation::restore(cfg.clone(), Some(plan), &snap).unwrap();
        resumed.run_to_end();
        assert_eq!(resumed.checkpoint(), golden_end);

        // The same bytes must not restore without the plan (or with any
        // other config): the fingerprint catches it.
        assert!(matches!(
            Simulation::restore(cfg, None, &snap),
            Err(SimError::Checkpoint(CheckpointError::ConfigMismatch { .. }))
        ));
    }

    #[test]
    fn restore_rejects_mismatched_config_and_garbage() {
        let cfg = ckpt_cfg(0.02);
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        step_to(&mut sim, 100);
        let snap = sim.checkpoint();
        let other = SimConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert!(matches!(
            Simulation::restore(other, None, &snap),
            Err(SimError::Checkpoint(CheckpointError::ConfigMismatch { .. }))
        ));
        let mut bad = snap.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            Simulation::restore(cfg.clone(), None, &bad),
            Err(SimError::Checkpoint(CheckpointError::BadChecksum))
        ));
        assert!(Simulation::restore(cfg, None, &snap).is_ok());
    }

    // -- guarded runs --

    /// The single loop with a guard and no observer.
    fn guarded(sim: &mut Simulation, guard: &RunGuard) -> Result<(), SimError> {
        sim.run_guarded::<core::convert::Infallible>(guard, None)
            .map(|_| ())
    }

    /// The guard only observes: a guarded run that completes is bit-identical
    /// to an unguarded one.
    #[test]
    fn guarded_run_is_bit_identical_when_it_completes() {
        let cfg = ckpt_cfg(0.06);
        let mut a = Simulation::new(cfg.clone()).unwrap();
        a.run_to_end();
        let mut b = Simulation::new(cfg).unwrap();
        guarded(&mut b, &RunGuard::default()).unwrap();
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    /// A deliberately wedged configuration — every delivery channel stalled
    /// forever under recovery mode — must terminate with a typed livelock
    /// diagnosis, never hang.
    #[test]
    fn wedged_hotspot_terminates_with_livelock() {
        let net = NetConfig::small(DeadlockMode::PAPER_RECOVERY);
        let plan = FaultPlan {
            seed: 1,
            sideband: SidebandFaults::none(),
            links: Vec::new(),
            hotspots: (0..64)
                .map(|node| HotspotFault {
                    node,
                    start: 0,
                    end: u64::MAX,
                })
                .collect(),
        };
        let cfg = SimConfig {
            net,
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.05)),
            scheme: Scheme::Base,
            cycles: 500_000,
            warmup: 1_000,
            seed: 2,
        };
        let mut sim = Simulation::with_faults(cfg, plan).unwrap();
        let guard = RunGuard {
            livelock_window: Some(3_000),
            ..RunGuard::default()
        };
        match guarded(&mut sim, &guard) {
            Err(SimError::Livelock(d)) => {
                assert!(d.live_packets > 0, "a livelock needs stuck packets");
                assert!(d.cycle.saturating_sub(d.last_progress_at) >= 3_000);
                assert!(d.cycle < 500_000, "declared long before the run's end");
                let msg = d.to_string();
                assert!(msg.contains("live packets"), "diagnostic: {msg}");
            }
            other => panic!("expected a livelock, got {other:?}"),
        }
    }

    #[test]
    fn wall_clock_deadline_trips() {
        let cfg = ckpt_cfg(0.02);
        let mut sim = Simulation::new(cfg).unwrap();
        let guard = RunGuard {
            deadline: Some(Instant::now()),
            ..RunGuard::default()
        };
        assert_eq!(
            guarded(&mut sim, &guard),
            Err(SimError::DeadlineExceeded { at_cycle: 0 })
        );
    }

    #[test]
    fn raised_cancel_flag_stops_the_run() {
        static FLAG: AtomicBool = AtomicBool::new(true);
        let mut sim = Simulation::new(ckpt_cfg(0.02)).unwrap();
        let guard = RunGuard {
            cancel: Some(&FLAG),
            ..RunGuard::default()
        };
        assert_eq!(
            guarded(&mut sim, &guard),
            Err(SimError::Cancelled { at_cycle: 0 })
        );
    }

    /// An installed observer sees every cycle — the idle ones a bare run
    /// would have skipped included — can stop the run, and changes nothing:
    /// the observed run ends in the fast-forwarded run's exact state.
    #[test]
    fn observer_sees_every_cycle_and_none_is_skipped() {
        let cfg = SimConfig {
            net: NetConfig::small(DeadlockMode::Avoidance),
            workload: Workload::phased(vec![
                Phase {
                    duration: 3_000,
                    pattern: Pattern::UniformRandom,
                    process: Process::Silent,
                },
                Phase {
                    duration: u64::MAX,
                    pattern: Pattern::UniformRandom,
                    process: Process::periodic(700),
                },
            ]),
            scheme: Scheme::Base,
            cycles: 10_000,
            warmup: 1_000,
            seed: 5,
        };
        let mut ff = Simulation::new(cfg.clone()).unwrap();
        assert!(
            ff.fast_forward_target().is_some(),
            "vacuous: nothing to skip"
        );
        ff.run_to_end();

        let mut seen = 0u64;
        let mut count = |sim: &Simulation| {
            seen += 1;
            assert_eq!(sim.now(), seen, "a cycle went unobserved");
            ControlFlow::<()>::Continue(())
        };
        let mut observed = Simulation::new(cfg.clone()).unwrap();
        let end = observed.run_guarded(&RunGuard::default(), Some(&mut count));
        assert_eq!(end, Ok(ControlFlow::Continue(())));
        assert_eq!(seen, 10_000);
        assert_eq!(observed.checkpoint(), ff.checkpoint());

        let mut stop_at_7 = |sim: &Simulation| match sim.now() {
            7 => ControlFlow::Break("seven"),
            _ => ControlFlow::Continue(()),
        };
        let mut stopped = Simulation::new(cfg).unwrap();
        let end = stopped.run_guarded(&RunGuard::default(), Some(&mut stop_at_7));
        assert_eq!(end, Ok(ControlFlow::Break("seven")));
        assert_eq!(stopped.now(), 7);
    }
}
