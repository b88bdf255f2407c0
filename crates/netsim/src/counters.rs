/// Aggregate event counters of a [`Network`](crate::Network), cumulative
/// since construction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Packets accepted into source queues.
    pub generated_packets: u64,
    /// Generation attempts refused because the source queue was full
    /// (bounds open-loop memory; counted so offered load stays auditable).
    pub refused_generations: u64,
    /// Packets whose header has entered the network.
    pub injected_packets: u64,
    /// Packets fully consumed at their destination.
    pub delivered_packets: u64,
    /// Flits consumed at destinations (the paper's throughput metric).
    pub delivered_flits: u64,
    /// Packets that finished through the Disha recovery network.
    pub recovered_packets: u64,
    /// Recovery-token grants (deadlock suspicions acted upon).
    pub recovery_timeouts: u64,
    /// Headers that were allocated an escape virtual channel.
    pub escape_allocations: u64,
    /// Injection-gate denials (one per throttled packet-cycle).
    pub throttled_injections: u64,
    /// Cycles a flit was ready to cross a network link that a fault plan
    /// had stalled (zero without installed faults).
    pub link_stall_cycles: u64,
    /// Cycles a flit was ready for a delivery channel that a hotspot fault
    /// had stalled (zero without installed faults).
    pub hotspot_stall_cycles: u64,
    /// Injection stage: nodes whose injection gate was consulted (a packet
    /// was waiting and the interface was free).
    pub stage_inject_visits: u64,
    /// Routing stage: nodes whose central arbiter actually ran (at least
    /// one routable header or an admitted injection).
    pub stage_route_visits: u64,
    /// Starvation stage: routed, non-empty input VCs the every-`timeout`
    /// scan examined against the starvation predicate.
    pub stage_starvation_checks: u64,
    /// Switch stage: nodes whose output channels were arbitrated (buffered
    /// flits or an active injection).
    pub stage_switch_visits: u64,
    /// Recovery drain: cycles an active Disha recovery advanced.
    pub stage_drain_steps: u64,
}

/// Per-stage work performed by the cycle pipeline, in *work items* (node or
/// entry visits) — the deterministic denominator-free view of where cycles
/// go. Shares of the total correlate with wall-clock per stage because
/// every visit does O(1)–O(feeders) work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageCycles {
    /// Injection-gate consultations.
    pub inject: u64,
    /// Routing-arbiter runs.
    pub route: u64,
    /// Input VCs the starvation scan examined.
    pub starvation: u64,
    /// Switch-stage node visits.
    pub switch: u64,
    /// Recovery-drain advances.
    pub drain: u64,
}

impl StageCycles {
    /// Sum over all stages (the share denominator).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.inject + self.route + self.starvation + self.switch + self.drain
    }
}

impl Counters {
    /// The per-stage work breakdown (see [`StageCycles`]).
    #[must_use]
    pub fn stage_cycles(&self) -> StageCycles {
        StageCycles {
            inject: self.stage_inject_visits,
            route: self.stage_route_visits,
            starvation: self.stage_starvation_checks,
            switch: self.stage_switch_visits,
            drain: self.stage_drain_steps,
        }
    }

    /// Packets currently somewhere between generation and delivery.
    #[must_use]
    pub fn undelivered(&self) -> u64 {
        self.generated_packets - self.delivered_packets
    }

    /// Bytes [`Counters::save_state`] writes: sixteen `u64` counters.
    pub(crate) const ENCODED_LEN: usize = 16 * 8;

    /// Serializes every counter into `enc` (for checkpointing). Field
    /// order is part of the checkpoint format.
    pub fn save_state(&self, enc: &mut checkpoint::Enc) {
        enc.u64s(&[
            self.generated_packets,
            self.refused_generations,
            self.injected_packets,
            self.delivered_packets,
            self.delivered_flits,
            self.recovered_packets,
            self.recovery_timeouts,
            self.escape_allocations,
            self.throttled_injections,
            self.link_stall_cycles,
            self.hotspot_stall_cycles,
            self.stage_inject_visits,
            self.stage_route_visits,
            self.stage_starvation_checks,
            self.stage_switch_visits,
            self.stage_drain_steps,
        ]);
    }

    /// Reads counters serialized with [`Counters::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream.
    pub fn restore_state(
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<Self, checkpoint::CheckpointError> {
        Ok(Counters {
            generated_packets: dec.u64()?,
            refused_generations: dec.u64()?,
            injected_packets: dec.u64()?,
            delivered_packets: dec.u64()?,
            delivered_flits: dec.u64()?,
            recovered_packets: dec.u64()?,
            recovery_timeouts: dec.u64()?,
            escape_allocations: dec.u64()?,
            throttled_injections: dec.u64()?,
            link_stall_cycles: dec.u64()?,
            hotspot_stall_cycles: dec.u64()?,
            stage_inject_visits: dec.u64()?,
            stage_route_visits: dec.u64()?,
            stage_starvation_checks: dec.u64()?,
            stage_switch_visits: dec.u64()?,
            stage_drain_steps: dec.u64()?,
        })
    }
}
