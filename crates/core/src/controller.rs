use faults::FaultPlan;
use sideband::{Sideband, SidebandStats};
use wormsim::{CongestionControl, NoControl};

/// Typed event counters every controller reports (all zero where a hook
/// does not apply — e.g. `Base` never tunes and `Alo` has no watchdog).
///
/// For a side-band controller the scaffold ([`crate::SidebandDriven`])
/// keeps them, tallying each [`crate::Action`] its law returns, so every
/// law's verdicts land in the same fields: the self-tuner's Table 1
/// increments and decrements, AIMD's additive raises and multiplicative
/// cuts, DEC-bit's clear and congested window verdicts and BBR's probe and
/// drain samples are `raises` and `cuts`; a cruising BBR sample or Table
/// 1's "no change" is a decision in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerCounters {
    /// Decisions taken: tuning periods (`tune`, `aimd`) or gather samples
    /// (`decbit`, `bbr`); never for a fixed threshold.
    pub decisions: u64,
    /// Decisions that raised the threshold / relaxed the gate.
    pub raises: u64,
    /// Decisions that cut the threshold / tightened the gate, a reset's
    /// Table 1 decrement included.
    pub cuts: u64,
    /// Local-maximum-avoidance resets (self-tuned only).
    pub resets: u64,
    /// Times the staleness watchdog tripped (froze the controller).
    pub watchdog_trips: u64,
    /// Times a valid aggregate re-armed a tripped watchdog.
    pub watchdog_rearms: u64,
}

/// The congestion-controller contract every scheme in the zoo implements,
/// layered on the simulator-facing [`wormsim::CongestionControl`] hooks
/// (decide-throttle, per-cycle observation, `next_wakeup` fast-forward
/// veto).
///
/// The extra hooks are what the harness needs to treat controllers
/// uniformly:
///
/// * **Side-band census input** ([`Controller::observe_census`]): the
///   per-cycle ground-truth feed (census + cumulative deliveries) that
///   side-band controllers push through their delay model. `on_cycle`
///   implementations derive the census from the network and delegate here,
///   so conformance tests can drive a controller with a *synthetic* census
///   and no network at all.
/// * **Fault plan** ([`Controller::set_faults`]): side-band loss/delay/
///   corruption injection; a no-op for locally informed schemes.
/// * **Checkpoint save/restore** ([`Controller::save_state`] /
///   [`Controller::restore_state`]): byte-exact state walkers. Restoring a
///   saved stream into a controller built from the same configuration and
///   running to the end must be bit-identical to never checkpointing.
/// * **Typed counters** ([`Controller::counters`]): uniform decision and
///   watchdog instrumentation.
///
/// Contract obligations (pinned by `tests/controller_conformance.rs` for
/// every registered scheme):
///
/// 1. `save_state` → `restore_state` round-trips bit-exactly, mid-period
///    included.
/// 2. `next_wakeup` either returns `now` (vetoing fast-forward — required
///    whenever the controller keeps a per-cycle clock such as a side-band
///    pipeline) or guarantees the skipped `on_cycle`s are no-ops.
/// 3. Stepping under the invariant audit layer never perturbs outputs.
/// 4. A side-band blackout must trip the staleness watchdog and fail
///    *open* (stop throttling on fiction) rather than wedging the network.
/// 5. A monotonically rising census must close the gate of every
///    estimate-gated controller (and never close `Base`/`Alo`'s).
pub trait Controller: CongestionControl {
    /// Feeds one cycle of ground truth: the network-wide congestion census
    /// (full VC buffers, or whatever census the controller defines) and the
    /// cumulative delivered-flit count. Side-band controllers must accept
    /// consecutive cycles starting at 0. Default: no-op (locally informed
    /// schemes).
    fn observe_census(&mut self, now: u64, census: u32, delivered_cum: u64) {
        let _ = (now, census, delivered_cum);
    }

    /// Whether injection is currently blocked network-wide by this
    /// controller's global gate (`false` for per-node schemes like `Alo`).
    fn throttling(&self) -> bool {
        false
    }

    /// The current injection-gate threshold in census units, if the
    /// controller has one.
    fn threshold(&self) -> Option<f64> {
        None
    }

    /// Installs a side-band fault plan. Default: no-op (no side-band).
    fn set_faults(&mut self, plan: FaultPlan) {
        let _ = plan;
    }

    /// Read access to the controller's side-band model, if it has one.
    fn sideband(&self) -> Option<&Sideband> {
        None
    }

    /// Side-band fault/rejection counters, if the scheme has a side-band.
    fn sideband_stats(&self) -> Option<SidebandStats> {
        self.sideband().map(Sideband::stats)
    }

    /// Whether the staleness watchdog has currently frozen the controller.
    fn watchdog_active(&self) -> bool {
        false
    }

    /// Decision/watchdog event counters accumulated so far.
    fn counters(&self) -> ControllerCounters {
        ControllerCounters::default()
    }

    /// Serializes the controller's runtime state into `enc` (for
    /// checkpointing). Configuration is never written — restore rebuilds
    /// from the same [`crate::Scheme`].
    fn save_state(&self, enc: &mut checkpoint::Enc);

    /// Restores state captured with [`Controller::save_state`] into a
    /// controller built from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated or
    /// structurally invalid stream.
    fn restore_state(
        &mut self,
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<(), checkpoint::CheckpointError>;
}

impl Controller for NoControl {
    fn save_state(&self, _enc: &mut checkpoint::Enc) {}

    fn restore_state(
        &mut self,
        _dec: &mut checkpoint::Dec<'_>,
    ) -> Result<(), checkpoint::CheckpointError> {
        Ok(())
    }
}
