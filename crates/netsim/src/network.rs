use crate::activity::NodeSet;
use crate::config::{DeadlockMode, NetConfig};
use crate::control::CongestionControl;
use crate::counters::Counters;
use crate::packet::{DeliveredRecord, Flit, PacketId, PacketInfo, PacketStore};
use crate::plane::{inj_movable_at, rr_pick, vc_movable_at, Slot, SwitchPlane};
use crate::ring::{DeliveryDrain, DeliveryRing, FlitRings, IdRing};
use crate::routing::RouteTables;
use crate::shard::{
    ApplyCtx, Cells, Parked, Pass, PhaseStats, RouteOp, ShardPlan, ShardStage, SwitchOp, WorkerPool,
};
use crate::wheel::TimerWheel;
use faults::{FaultPlan, FaultPlanError};
use kncube::{Dir, NodeId, Torus};
use std::sync::atomic::Ordering;

/// Capacity of each per-router Disha deadlock buffer, in flits. Two slots
/// allow the recovery path to stream at full rate despite the 2-cycle hop
/// pipeline.
pub(crate) const DL_DEPTH: usize = 2;

/// Where the packet currently at the front of an input VC (or of the
/// injection interface) is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Assign {
    /// Not yet routed.
    None,
    /// Assigned an output virtual channel on a network port.
    Out { port: u8, vc: u8 },
    /// Headed for the local delivery channel.
    Delivery,
    /// Suspected deadlocked: committed to recovery, waiting for the token.
    AwaitToken,
    /// Draining through the Disha recovery network.
    Recovery,
}

/// Per-node injection interface: the packet currently streaming from the
/// source queue into the router.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InjState {
    pub active: Option<PacketId>,
    pub sent: u16,
    pub assign: Assign,
    pub routed_at: u64,
}

impl InjState {
    pub(crate) fn idle() -> Self {
        InjState {
            active: None,
            sent: 0,
            assign: Assign::None,
            routed_at: 0,
        }
    }
}

/// An in-progress Disha recovery: the token holder and its drain path.
#[derive(Debug, Clone)]
pub(crate) struct RecoveryJob {
    pub packet: PacketId,
    /// Dimension-order path from the transition router (inclusive) to the
    /// destination (inclusive). The backing vector is recycled through
    /// `Network::path_scratch` so steady-state recoveries never allocate.
    pub path: Vec<NodeId>,
    /// Input VC (global index) whose flits transition into the deadlock
    /// network, until the tail has passed.
    pub src_vc: usize,
    /// Whether the tail has left `src_vc` (no more flits will transition).
    pub tail_in: bool,
}

/// What a cycle's arrival pass calls once per newly generated packet:
/// `offer(node, dst)` enqueues a packet from `node` for `dst` (see
/// [`Network::cycle_from`]).
pub type Offer<'a> = dyn FnMut(NodeId, NodeId) + 'a;

/// The simulated wormhole network: all router state, flat for speed.
///
/// All per-cycle queues live in flat arenas allocated
/// once at construction ([`crate::ring`]), and routing decisions come from
/// tables precomputed at construction ([`RouteTables`]), so the steady-state
/// cycle pipeline performs **zero heap allocations** — a counting test
/// allocator enforces this (`tests/zero_alloc.rs`), and DESIGN.md
/// ("Simulator memory layout") documents the invariants.
///
/// Drive it with [`Network::cycle_from`] (or [`Network::cycle`], its
/// per-node-closure adapter); read results with
/// [`Network::drain_deliveries`] and [`Network::counters`].
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    torus: Torus,
    /// Network ports per router (`2n`).
    d: usize,
    /// VCs per physical channel.
    v: usize,
    depth: usize,
    packet_len: u16,
    /// Longest possible recovery drain path (torus diameter + 1), the
    /// capacity floor kept on `path_scratch`.
    pub(crate) max_path: usize,

    /// Edge buffers of every input VC, one flat arena indexed by
    /// `(node * d + port) * v + vc` (ring `r` holds VC `r`'s flits).
    pub(crate) vc_bufs: FlitRings,
    /// Routing assignment of the packet at the front of each input VC.
    pub(crate) vc_assign: Vec<Assign>,
    /// Cycle each VC's current assignment was made (headers move one cycle
    /// later: the paper's 1-cycle routing delay).
    pub(crate) vc_routed_at: Vec<u64>,
    /// Consecutive cycles each VC's front header has been ready but
    /// unrouted (drives Disha's timeout detection).
    pub(crate) vc_blocked: Vec<u64>,
    /// Whether each VC currently has an entry in the recovery token queue.
    pub(crate) vc_queued: Vec<bool>,
    /// Output VC allocation flags, same indexing as the VC arrays (an
    /// output VC of node `u` is the upstream side of a neighbor's input VC).
    pub(crate) out_alloc: Vec<bool>,
    pub(crate) inj: Vec<InjState>,
    /// Per-node source queues of waiting packet ids (ring `node`).
    pub(crate) source_q: IdRing,
    pub(crate) packets: PacketStore,
    /// Whether each packet ever took an escape VC (sticky escape).
    pub(crate) escaped: Vec<bool>,

    /// Per-router Disha deadlock buffers (ring `node`, depth [`DL_DEPTH`];
    /// recovery mode only).
    pub(crate) dl_bufs: FlitRings,
    pub(crate) recovery: Option<RecoveryJob>,
    /// Recycled backing storage for [`RecoveryJob::path`], kept at capacity
    /// `max_path` so granting the token never allocates in steady state.
    pub(crate) path_scratch: Vec<NodeId>,

    /// Precomputed per-dimension routing rows and output-VC slots.
    pub(crate) tables: RouteTables,

    /// Demand-slotted round-robin cursor of each router's routing arbiter.
    pub(crate) route_rr: Vec<usize>,
    /// Round-robin cursor per output channel (network ports + delivery).
    pub(crate) out_rr: Vec<usize>,

    pub(crate) now: u64,
    pub(crate) counters: Counters,
    /// Incrementally maintained count of completely full input VC buffers.
    pub(crate) full_buffers: u32,
    /// Active-VC worklist: bit `f` of `vc_busy[node]` is set iff input VC
    /// `f = port * v + vc` of `node` holds at least one flit. The route,
    /// switch and starvation stages iterate set bits instead of scanning
    /// every VC, so an idle router costs one integer test per cycle.
    /// (Config validation caps feeders at 64, so a `u64` always fits.)
    pub(crate) vc_busy: Vec<u64>,
    /// Assignment bit-planes, complementary per-node masks over input-VC
    /// feeders (the injection feeder is tracked separately in `inj`):
    /// bit `f` of `vc_unrouted[node]` iff `vc_assign` is `None`/`AwaitToken`
    /// (a routing requester), of `vc_switchable[node]` iff
    /// `Out`/`Delivery` (a switch candidate). `Recovery` is in neither.
    /// Maintained solely by [`ApplyCtx::set_assign`].
    pub(crate) vc_unrouted: Vec<u64>,
    /// See [`Network::vc_unrouted`].
    pub(crate) vc_switchable: Vec<u64>,
    /// Per-feeder output port, credit bit and earliest move cycle: what
    /// the switch decide reads instead of chasing `vc_assign`, the ring
    /// fronts and `vc_routed_at` ([`crate::plane`]). Derived state.
    pub(crate) plane: SwitchPlane,
    /// Occupancy bit-planes: bit `f` of `vc_full[node]` iff input VC
    /// `node*d*v + f` is completely full. `full_buffers` (the side-band's
    /// census input) is the popcount sum of these planes, maintained
    /// incrementally; [`Network::full_buffers_at`] popcounts one node.
    pub(crate) vc_full: Vec<u64>,
    /// Node-level activity summaries (top level of the worklist
    /// hierarchy): nodes with any busy input VC...
    pub(crate) busy_nodes: NodeSet,
    /// ...nodes with an active injection...
    pub(crate) inj_nodes: NodeSet,
    /// ...and nodes with a non-empty source queue. All three are derived
    /// state, rebuilt on restore.
    pub(crate) srcq_nodes: NodeSet,
    /// Scratch: nodes whose injection was admitted this cycle (rewritten
    /// by `decide_injection` every cycle, never serialized).
    pub(crate) allow_nodes: NodeSet,
    /// Starvation-deadline timer wheel (disabled in avoidance mode).
    pub(crate) wheel: TimerWheel,
    /// Delivered-packet records awaiting [`Network::drain_deliveries`]; a
    /// consumer draining every gather period bounds this at O(period).
    pub(crate) deliveries: DeliveryRing,
    /// FIFO of suspected-deadlocked input VCs awaiting the recovery token
    /// (single ring; `vc_queued` caps it at one entry per VC).
    pub(crate) token_queue: IdRing,
    /// Cycle of the most recent flit delivery (watchdog aid).
    pub(crate) last_delivery_at: u64,
    /// Cycle any flit last moved anywhere — normal hops, injections,
    /// deliveries or recovery-network steps (drives livelock detection).
    pub(crate) last_progress_at: u64,
    /// Scheduled link/hotspot faults (`None` = fault-free network; the hot
    /// path is untouched until a non-quiet plan is installed).
    faults: Option<FaultPlan>,
    /// Opt-in decide/apply/barrier wall-clock split ([`PhaseStats`];
    /// `None` = off, the default — the cycle pipeline then pays one branch
    /// per phase). Runtime-only instrumentation, never serialized.
    phase_stats: Option<Box<PhaseStats>>,
    /// Shard partition + per-shard decision mailboxes for parallel
    /// stepping ([`crate::shard`]). Runtime-only configuration: never
    /// serialized, never fingerprinted — a checkpoint taken at S shards
    /// restores at any S′ by construction.
    pub(crate) plan: ShardPlan,
}

impl Network {
    /// Builds an empty network from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration error, if any.
    pub fn new(cfg: NetConfig) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        let torus = cfg.torus().expect("validated");
        let nodes = torus.node_count();
        let d = torus.channels_per_node();
        let v = cfg.vcs;
        let n_vcs = nodes * d * v;
        let max_path = torus.dimensions() * (cfg.radix / 2) + 1;
        let tables = RouteTables::build(&torus, v);
        let wheel = match cfg.deadlock {
            DeadlockMode::Recovery { timeout } => TimerWheel::new(n_vcs, timeout, cfg.hop_latency),
            DeadlockMode::Avoidance => TimerWheel::disabled(),
        };
        // All VCs start unassigned: every input-VC feeder bit is "unrouted".
        let all_feeders = (1u64 << (d * v)) - 1;
        Ok(Network {
            torus,
            d,
            v,
            depth: cfg.buf_depth,
            packet_len: cfg.packet_len as u16,
            max_path,
            vc_bufs: FlitRings::new(n_vcs, cfg.buf_depth),
            vc_assign: vec![Assign::None; n_vcs],
            vc_routed_at: vec![0; n_vcs],
            vc_blocked: vec![0; n_vcs],
            vc_queued: vec![false; n_vcs],
            out_alloc: vec![false; n_vcs],
            inj: vec![InjState::idle(); nodes],
            source_q: IdRing::new(nodes, cfg.source_queue_cap),
            packets: PacketStore::new(),
            escaped: Vec::new(),
            dl_bufs: FlitRings::new(nodes, DL_DEPTH),
            recovery: None,
            path_scratch: Vec::with_capacity(max_path),
            tables,
            route_rr: vec![0; nodes],
            out_rr: vec![0; nodes * (d + 1)],
            now: 0,
            counters: Counters::default(),
            full_buffers: 0,
            vc_busy: vec![0; nodes],
            vc_unrouted: vec![all_feeders; nodes],
            vc_switchable: vec![0; nodes],
            plane: SwitchPlane::new(nodes, d * v),
            vc_full: vec![0; nodes],
            busy_nodes: NodeSet::new(nodes),
            inj_nodes: NodeSet::new(nodes),
            srcq_nodes: NodeSet::new(nodes),
            allow_nodes: NodeSet::new(nodes),
            wheel,
            deliveries: DeliveryRing::default(),
            token_queue: IdRing::new(1, n_vcs),
            last_delivery_at: 0,
            last_progress_at: 0,
            faults: None,
            phase_stats: None,
            plan: ShardPlan::new(1, nodes, d * v, d + 1),
            cfg,
        })
    }

    /// Re-partitions the network into `shards` contiguous node ranges for
    /// parallel stepping (clamped to `[1, nodes]`). Results are
    /// bit-identical for every shard count: the parallel decide phases
    /// read only pre-phase state and the barrier applies staged decisions
    /// in canonical ascending-node order regardless of the partition. The
    /// partition is runtime-only configuration — never serialized, so a
    /// checkpoint moves freely between shard counts. Call between cycles.
    ///
    /// The shards are stepped by `min(shards, available cores)` threads,
    /// the caller's among them: more shards than cores buys no more
    /// threads, and on one core the caller's thread steps every shard.
    pub fn set_shards(&mut self, shards: usize) {
        let nodes = self.torus.node_count();
        let mut plan = ShardPlan::new(shards, nodes, self.d * self.v, self.d + 1);
        if plan.shards() > 1 {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            plan.pool = Some(WorkerPool::new(plan.shards(), cores));
        }
        // Replacing the plan drops any previous pool, which shuts down and
        // joins its workers — no worker thread ever outlives the partition
        // (or the network) it was spawned for.
        self.plan = plan;
    }

    /// The current shard count (1 unless [`Network::set_shards`] raised it).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// Enables (with fresh zeroed totals) or disables the per-phase
    /// wall-clock split. Informational instrumentation for benchmarks —
    /// it never affects simulation results.
    pub fn set_phase_stats(&mut self, enabled: bool) {
        self.phase_stats = enabled.then(|| Box::new(PhaseStats::default()));
    }

    /// The accumulated phase split, if enabled.
    #[must_use]
    pub fn phase_stats(&self) -> Option<PhaseStats> {
        self.phase_stats.as_deref().copied()
    }

    /// Installs the data-network portion of a fault plan: scheduled link
    /// stalls and node hotspots. A plan with no network faults leaves the
    /// fault-free fast path untouched.
    ///
    /// # Errors
    ///
    /// Returns the plan's first constraint violation against this network's
    /// shape (node range, port range, empty windows, fault rates).
    pub fn install_faults(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate(self.torus.node_count(), self.d)?;
        self.faults = (!plan.net_is_quiet()).then_some(plan);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read-side API (used by congestion controllers and experiments)
    // ------------------------------------------------------------------

    /// The network configuration.
    #[must_use]
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The underlying torus.
    #[must_use]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// The current cycle (number of completed [`Network::cycle`] calls).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Aggregate counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Network-wide count of *completely full* input VC buffers — the
    /// congestion metric the paper's side-band distributes. Maintained as
    /// the running popcount of the per-node occupancy bit-planes
    /// ([`Network::full_buffer_planes`]), so reading it is O(1).
    #[must_use]
    pub fn full_buffer_count(&self) -> u32 {
        self.full_buffers
    }

    /// Count of completely full input VC buffers at `node` — the per-router
    /// quantized census a side-band gather tree sums. One popcount.
    #[must_use]
    pub fn full_buffers_at(&self, node: NodeId) -> u32 {
        self.vc_full[node].count_ones()
    }

    /// Per-node full-buffer occupancy bit-planes: bit `port*vcs + vc` of
    /// word `node` is set iff that input VC buffer is completely full.
    /// `full_buffer_count()` equals the popcount sum over these words.
    #[must_use]
    pub fn full_buffer_planes(&self) -> &[u64] {
        &self.vc_full
    }

    /// Whether the network holds no work at all: no live packets (hence no
    /// buffered flits, active injections or queued sources), no pending
    /// recovery suspects and no active recovery drain. A quiescent network
    /// stepped with a silent source and a passive controller is a no-op
    /// except for `now` advancing — the precondition
    /// [`Network::fast_forward`] exploits.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.packets.live() == 0 && self.token_queue.is_empty(0) && self.recovery.is_none()
    }

    /// Jumps `now` forward to `to` without simulating the intervening
    /// cycles. Callers must ensure the skip is observationally identical to
    /// stepping: the network is [`Network::quiescent`], every skipped
    /// source poll would have produced nothing (and had no side effects),
    /// and the controller needed no `on_cycle` call in the window. Stale
    /// timer-wheel bits from before the jump are lazily discarded by later
    /// fires (their deadlines are in the past).
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past or the network is not quiescent.
    pub fn fast_forward(&mut self, to: u64) {
        assert!(to >= self.now, "fast_forward into the past");
        assert!(self.quiescent(), "fast_forward on a non-quiescent network");
        self.now = to;
    }

    /// Total number of VC buffers (the denominator for threshold
    /// percentages; 3072 for the paper's network).
    #[must_use]
    pub fn total_vc_buffers(&self) -> u32 {
        self.vc_assign.len() as u32
    }

    /// Cumulative flits delivered since the start of the simulation.
    #[must_use]
    pub fn delivered_flits_cum(&self) -> u64 {
        self.counters.delivered_flits
    }

    /// Whether the output VC `(dim, dir, vc)` of `node` is currently
    /// allocated to a packet (used by the ALO baseline's "free VC" test).
    #[must_use]
    pub fn output_vc_allocated(&self, node: NodeId, dim: usize, dir: Dir, vc: usize) -> bool {
        self.out_alloc[self.vc_idx(node, port_of(dim, dir), vc)]
    }

    /// Number of packets waiting in `node`'s source queue.
    #[must_use]
    pub fn source_queue_len(&self, node: NodeId) -> usize {
        self.source_q.len(node)
    }

    /// Number of packets generated but not yet fully delivered.
    #[must_use]
    pub fn live_packets(&self) -> usize {
        self.packets.live()
    }

    /// Takes the records of packets delivered since the last drain.
    ///
    /// Draining regularly (the simulation driver drains every cycle) bounds
    /// the undrained backlog — and thus this queue's memory — at the
    /// between-drain high-water mark rather than the whole run's deliveries.
    pub fn drain_deliveries(&mut self) -> DeliveryDrain<'_> {
        self.deliveries.drain()
    }

    /// Whether the network has had traffic in flight but delivered nothing
    /// for at least `window` cycles — a watchdog for tests (a correctly
    /// functioning configuration always makes progress).
    #[must_use]
    pub fn progress_stalled(&self, window: u64) -> bool {
        self.packets.live() > 0 && self.now.saturating_sub(self.last_delivery_at) >= window
    }

    /// Cycle any flit of any packet last moved — a normal hop, an
    /// injection, a delivery or a recovery-network step. The livelock
    /// watchdog's progress marker.
    #[must_use]
    pub fn last_progress_at(&self) -> u64 {
        self.last_progress_at
    }

    /// Cycle of the most recent flit delivery.
    #[must_use]
    pub fn last_delivery_at(&self) -> u64 {
        self.last_delivery_at
    }

    /// Whether the network is wedged: traffic is in flight but *no flit has
    /// moved anywhere* — not even through the recovery network — for at
    /// least `window` cycles. A correctly configured network always keeps
    /// some flit moving, so this only trips on genuine livelock (e.g. every
    /// delivery channel stalled by a permanent hotspot fault).
    #[must_use]
    pub fn livelocked(&self, window: u64) -> bool {
        self.packets.live() > 0 && self.now.saturating_sub(self.last_progress_at) >= window
    }

    /// Number of suspected-deadlocked VCs waiting for the recovery token.
    #[must_use]
    pub fn token_queue_len(&self) -> usize {
        self.token_queue.len(0)
    }

    /// Whether a Disha recovery drain is currently holding the token.
    #[must_use]
    pub fn recovery_active(&self) -> bool {
        self.recovery.is_some()
    }

    // ------------------------------------------------------------------
    // Index helpers
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn vc_idx(&self, node: NodeId, port: usize, vc: usize) -> usize {
        (node * self.d + port) * self.v + vc
    }

    /// The downstream input VC fed by output VC `(port, vc)` of `node`
    /// (precomputed; see [`RouteTables`]).
    #[cfg(test)]
    pub(crate) fn downstream_idx(&self, node: NodeId, port: usize, vc: usize) -> usize {
        let a = Assign::Out {
            port: port as u8,
            vc: vc as u8,
        };
        let slot = self.slot_of(node, a).expect("an output VC has a slot");
        slot.dnode() * self.d * self.v + slot.dbit()
    }

    /// The switch-plane slot of a feeder of `node` assigned `a` (`None`
    /// unless `a` is switchable).
    #[inline]
    pub(crate) fn slot_of(&self, node: NodeId, a: Assign) -> Option<Slot> {
        Slot::of(self.tables.out_slots(), self.d, self.v, node, a)
    }

    /// The switch plane's `movable_at` of input VC `idx`, if it holds a
    /// flit.
    pub(crate) fn vc_front_movable_at(&self, idx: usize) -> Option<u64> {
        let front = self.vc_bufs.front(idx)?;
        Some(vc_movable_at(
            front.idx,
            front.ready_at,
            self.vc_routed_at[idx],
        ))
    }

    /// Rebuilds every derived structure — the node summaries, the
    /// assignment and occupancy bit-planes, the switch plane — from the
    /// authoritative state they summarize. Called after a checkpoint
    /// restore, which serializes only the ground truth (buffers,
    /// assignments, queues).
    pub(crate) fn rebuild_derived(&mut self) {
        let fpn = self.d * self.v;
        let mut plane = SwitchPlane::new(self.vc_busy.len(), fpn);
        let view = plane.view();
        self.busy_nodes.clear();
        self.inj_nodes.clear();
        self.srcq_nodes.clear();
        for node in 0..self.vc_busy.len() {
            if self.vc_busy[node] != 0 {
                self.busy_nodes.insert(node);
            }
            if self.inj[node].active.is_some() {
                self.inj_nodes.insert(node);
            }
            if !self.source_q.is_empty(node) {
                self.srcq_nodes.insert(node);
            }
            let (mut unrouted, mut switchable, mut full) = (0u64, 0u64, 0u64);
            for f in 0..fpn {
                let idx = node * fpn + f;
                match self.vc_assign[idx] {
                    Assign::None | Assign::AwaitToken => unrouted |= 1u64 << f,
                    Assign::Out { .. } | Assign::Delivery => switchable |= 1u64 << f,
                    Assign::Recovery => {}
                }
                full |= u64::from(self.vc_bufs.len(idx) >= self.depth) << f;
                if let Some(slot) = self.slot_of(node, self.vc_assign[idx]) {
                    view.set_slot(node * (fpn + 1) + f, slot);
                }
                if let Some(at) = self.vc_front_movable_at(idx) {
                    view.set_movable_at(node * (fpn + 1) + f, at);
                }
            }
            let inj = &self.inj[node];
            if let Some(slot) = self.slot_of(node, inj.assign) {
                view.set_slot(node * (fpn + 1) + fpn, slot);
            }
            view.set_movable_at(node * (fpn + 1) + fpn, inj_movable_at(inj.routed_at));
            self.vc_unrouted[node] = unrouted;
            self.vc_switchable[node] = switchable;
            self.vc_full[node] = full;
        }
        self.plane = plane;
    }

    // ------------------------------------------------------------------
    // The cycle pipeline
    // ------------------------------------------------------------------

    /// Advances the network by one cycle, fed the cycle's arrivals in one
    /// pass: `arrivals(now, offer)` calls `offer(node, dst)` once per newly
    /// generated packet — nodes strictly ascending, so at most one packet
    /// per node per cycle — and the pipeline stages then run. `ctl` is the
    /// congestion-control policy (use [`crate::NoControl`] for the paper's
    /// `Base`). The cost of generation is the caller's loop plus one call
    /// per *arrival*, not one per node (`traffic::WorkloadRunner::arrivals`
    /// is the matching source).
    ///
    /// # Panics
    ///
    /// Panics if an offered node or destination is out of range (and, in
    /// debug builds, if nodes are not offered in strictly ascending order).
    pub fn cycle_from(
        &mut self,
        arrivals: &mut dyn FnMut(u64, &mut Offer<'_>),
        ctl: &mut dyn CongestionControl,
    ) {
        let now = self.now;
        let mut prev = None;
        arrivals(now, &mut |node, dst| {
            debug_assert!(
                prev < Some(node),
                "node {node} offered after node {prev:?}: arrivals must ascend within a cycle"
            );
            prev = Some(node);
            self.offer(now, node, dst);
        });
        ctl.on_cycle(now, self);
        self.decide_injection(now, ctl);
        self.route_phase(now);
        if let DeadlockMode::Recovery { timeout } = self.cfg.deadlock {
            self.starvation_stage(now, timeout);
            self.recovery_stage(now);
        }
        self.switch_phase(now);
        #[cfg(debug_assertions)]
        {
            let mut violations = Vec::new();
            self.audit_worklists(&mut violations);
            self.audit_shards(&mut violations);
            debug_assert!(violations.is_empty(), "{violations:?}");
        }
        self.now = now + 1;
    }

    /// Advances the network by one cycle, polling a per-node source: the
    /// closure-shaped adapter of [`Network::cycle_from`]. `source(now,
    /// node)` is called once per node, ascending, and returns the
    /// destination of a newly generated packet, if any.
    pub fn cycle(
        &mut self,
        source: &mut dyn FnMut(u64, NodeId) -> Option<NodeId>,
        ctl: &mut dyn CongestionControl,
    ) {
        let nodes = self.torus.node_count();
        let mut poll_all = |now: u64, offer: &mut Offer<'_>| {
            for node in 0..nodes {
                if let Some(dst) = source(now, node) {
                    offer(node, dst);
                }
            }
        };
        self.cycle_from(&mut poll_all, ctl);
    }

    /// Runs `cycles` cycles (convenience wrapper over [`Network::cycle`]).
    pub fn run(
        &mut self,
        cycles: u64,
        source: &mut dyn FnMut(u64, NodeId) -> Option<NodeId>,
        ctl: &mut dyn CongestionControl,
    ) {
        for _ in 0..cycles {
            self.cycle(source, ctl);
        }
    }

    /// Enqueues a packet generated at `now` by `node` for `dst` in
    /// `node`'s source queue, or counts it refused when the queue is full.
    pub(crate) fn offer(&mut self, now: u64, node: NodeId, dst: NodeId) {
        let nodes = self.torus.node_count();
        assert!(
            node < nodes,
            "traffic source produced a packet at node {node} out of range"
        );
        assert!(
            dst < nodes,
            "traffic source produced destination {dst} out of range"
        );
        if self.source_q.is_full(node) {
            self.counters.refused_generations += 1;
            return;
        }
        let id = self.packets.alloc(PacketInfo {
            src: node,
            dst,
            generated_at: now,
            injected_at: u64::MAX,
            len: self.packet_len,
            delivered_flits: 0,
            last_move: now,
        });
        if self.escaped.len() <= id as usize {
            self.escaped.resize(id as usize + 1, false);
        }
        self.escaped[id as usize] = false;
        self.source_q.push_back(node, id);
        self.srcq_nodes.insert(node);
        self.counters.generated_packets += 1;
    }

    pub(crate) fn decide_injection(&mut self, now: u64, ctl: &mut dyn CongestionControl) {
        self.allow_nodes.clear();
        // Only consult the gate where a new packet could actually start: a
        // non-empty source queue behind an idle injection interface.
        for w in 0..self.srcq_nodes.word_count() {
            let mut word = self.srcq_nodes.word(w) & !self.inj_nodes.word(w);
            while word != 0 {
                let node = (w << 6) | word.trailing_zeros() as usize;
                word &= word - 1;
                self.counters.stage_inject_visits += 1;
                let dst = self.packets.get(self.source_q.front(node)).dst;
                let ok = ctl.allow_injection(now, node, dst, self);
                self.counters.throttled_injections += u64::from(!ok);
                if ok {
                    self.allow_nodes.insert(node);
                }
            }
        }
    }

    /// Routing + VC allocation: each router's central arbiter routes at
    /// most one header per cycle, demand-slotted round-robin over
    /// requesters. Runs as a decide over the shard partition followed by
    /// the staged apply (see [`Network::run_pass`]).
    pub(crate) fn route_phase(&mut self, now: u64) {
        self.run_pass(now, Pass::Route);
    }

    /// The route stage's read-only decide: arbitrates every router in
    /// `lo..hi` over *pre-phase* state and stages the decisions. Safe to
    /// run concurrently with other shards' decides: every input it reads
    /// (`out_alloc` claims, `route_rr`, `vc_blocked`, buffer fronts,
    /// `escaped`) is written only by the staged ops of the node that owns
    /// it, and those writes are deferred to the apply — so the decision
    /// for each node is the same under every partition.
    pub(crate) fn route_decide(&self, now: u64, lo: usize, hi: usize, stage: &mut ShardStage) {
        let inj_feeder = self.d * self.v;
        let timeout = match self.cfg.deadlock {
            DeadlockMode::Recovery { timeout } => timeout,
            DeadlockMode::Avoidance => u64::MAX,
        };
        let staged_before = stage.route_ops.len() + stage.suspects.len();
        // Only routers with buffered flits or an admitted injection can
        // have anything to arbitrate.
        for w in (lo >> 6)..hi.div_ceil(64) {
            let mut nword =
                (self.busy_nodes.word(w) | self.allow_nodes.word(w)) & range_word_mask(w, lo, hi);
            while nword != 0 {
                let node = (w << 6) | nword.trailing_zeros() as usize;
                nword &= nword - 1;
                // Requesters are busy VCs still awaiting an assignment; the
                // bit-plane intersection prunes already-routed worms
                // without touching their per-VC state.
                let cand = self.vc_busy[node] & self.vc_unrouted[node];
                let allow = self.allow_nodes.contains(node);
                if cand == 0 && !allow {
                    continue;
                }
                stage.route_visits += 1;
                // Gather routing requests from occupied input VCs into a
                // requester bitmask.
                let mut requests = u64::from(allow) << inj_feeder;
                let base = self.vc_idx(node, 0, 0);
                let mut mask = cand;
                while mask != 0 {
                    let f = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let idx = base + f;
                    // Unrouted headers request routing; suspected
                    // (token-queued) headers keep requesting too — only
                    // capturing the token commits a packet to the recovery
                    // path, so a transiently congested packet resumes
                    // normal routing when a channel frees. Truly
                    // deadlocked packets never see a free channel.
                    let requesting =
                        self.vc_bufs.front_idx(idx) == 0 && self.vc_bufs.front_ready_at(idx) <= now;
                    requests |= u64::from(requesting) << f;
                }
                if requests == 0 {
                    continue;
                }
                // Demand-slotted RR: the first requester at or after the
                // cursor position.
                let winner = rr_pick(requests, self.route_rr[node]);
                stage.route_ops.push(RouteOp::Rr {
                    node: node as u32,
                    cursor: (winner + 1) as u8,
                });

                // Routing decision for the winner.
                let pid = if winner == inj_feeder {
                    self.source_q.front(node)
                } else {
                    self.vc_bufs.front_packet(base + winner)
                };
                let dst = self.packets.get(pid).dst;
                let assign = if dst == node {
                    Some(Assign::Delivery)
                } else {
                    self.choose_output(node, dst, pid)
                };
                let routed = assign.is_some();
                if let Some(assign) = assign {
                    stage.route_ops.push(RouteOp::Win {
                        node: node as u32,
                        feeder: winner as u8,
                        assign,
                    });
                }

                // Blocked-cycle accounting for every input-VC requester
                // that did not end up routed this cycle (drives Disha
                // detection). Queued packets hold no resources — not
                // deadlockable — so the injection feeder is masked out.
                let mut blocked = requests & !(1u64 << inj_feeder);
                while blocked != 0 {
                    let f = blocked.trailing_zeros() as usize;
                    blocked &= blocked - 1;
                    let idx = base + f;
                    if routed && f == winner {
                        // The winner's blocked-counter reset is part of
                        // the `Win` apply.
                    } else if self.vc_assign[idx] == Assign::None {
                        // Disha suspicion: the header has starved for
                        // `timeout` cycles AND no flit of the whole worm
                        // has moved for `timeout` cycles (transient
                        // contention keeps body flits crawling and does
                        // not trip this). A suspected packet queues for
                        // the recovery token but keeps retrying normal
                        // routing until the token is captured.
                        if self.vc_blocked[idx] + 1 >= timeout {
                            let pid = self.vc_bufs.front_packet(idx);
                            if now.saturating_sub(self.packets.get(pid).last_move) >= timeout {
                                // The token-queue commit is globally
                                // FIFO-ordered: the fold's.
                                stage.suspects.push(idx as u32);
                                continue;
                            }
                        }
                        stage.route_ops.push(RouteOp::Blocked { idx: idx as u32 });
                    }
                }
            }
        }
        stage.staged_total += (stage.route_ops.len() + stage.suspects.len() - staged_before) as u64;
    }

    /// Commits a suspected-deadlocked VC to the recovery token queue (what
    /// the starvation stage does to a header that trips; a staged suspect
    /// takes the same two steps in [`ApplyCtx::apply`] and
    /// [`Network::fold_stage`]).
    pub(crate) fn commit_suspect(&mut self, idx: usize) {
        self.apply_ctx().suspect(idx);
        self.enqueue_suspect(idx);
    }

    /// The global half of committing a suspect: its token-queue entry.
    fn enqueue_suspect(&mut self, idx: usize) {
        if !self.vc_queued[idx] {
            self.vc_queued[idx] = true;
            self.token_queue.push_back(0, idx as u32);
        }
        self.counters.recovery_timeouts += 1;
    }

    /// Detects deadlocked worms whose header is *routed* but has been
    /// credit-starved at the front of its buffer for `timeout` cycles with
    /// the whole worm inactive. (The routing stage only watches unrouted
    /// headers; a cycle can also form among headers that already hold an
    /// output VC and wait forever for buffer space.) Such a header has sent
    /// nothing on its allocated VC yet — the header is still here — so the
    /// allocation is released and the worm committed to the token queue.
    ///
    /// Fires the due bucket of the deadline timer wheel ([`TimerWheel`])
    /// instead of scanning every busy VC. Enrollment happens where the
    /// only trip-enabling transition happens — [`ApplyCtx::route_win`]
    /// assigning an output VC — and a due entry that no longer satisfies
    /// the predicate is either dropped (header gone: any successor
    /// re-enrolls through routing) or re-parked at the earliest cycle the
    /// predicate could next hold. `difftest.rs` proves this wheel matches
    /// the full scan it replaced decision-for-decision under random traffic.
    fn starvation_stage(&mut self, now: u64, timeout: u64) {
        if !now.is_multiple_of(timeout) {
            return;
        }
        let slot = self.wheel.slot_of(now);
        for w in 0..self.wheel.word_count() {
            let mut word = self.wheel.slot_word(slot, w);
            if word == 0 {
                continue;
            }
            // Ascending bit order == ascending VC index == the reference
            // scan's order, so recovery-token FIFO order is preserved.
            let mut keep = 0u64;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                let idx = (w << 6) | b;
                let d = self.wheel.deadline(idx);
                if d == now {
                    self.wheel.clear_deadline(idx);
                    self.counters.stage_starvation_checks += 1;
                    self.recheck_starved_head(now, timeout, idx);
                } else if d > now && self.wheel.slot_of(d) == slot {
                    // Live entry parked one wheel revolution ahead.
                    keep |= 1u64 << b;
                }
                // Anything else is a stale tag: drop the bit.
            }
            self.wheel.set_slot_word(slot, w, keep);
        }
    }

    /// Evaluates one due wheel entry against the starvation predicate:
    /// trip (commit to the token queue), drop (the enrolled header is
    /// gone), or re-park at the next cycle the predicate could hold.
    fn recheck_starved_head(&mut self, now: u64, timeout: u64, idx: usize) {
        let Assign::Out { port, vc: ovc } = self.vc_assign[idx] else {
            return; // header delivered/recovered/demoted: re-enrolls via route_win
        };
        if self.vc_bufs.is_empty(idx) || self.vc_bufs.front_idx(idx) != 0 {
            return; // header already departed on its output VC
        }
        let ready = self.vc_bufs.front_ready_at(idx);
        let pid = self.vc_bufs.front_packet(idx);
        let last_move = self.packets.get(pid).last_move;
        if ready <= now && now.saturating_sub(last_move) >= timeout {
            let node = idx / (self.d * self.v);
            let oidx = self.vc_idx(node, usize::from(port), usize::from(ovc));
            debug_assert!(self.out_alloc[oidx]);
            self.out_alloc[oidx] = false;
            self.commit_suspect(idx);
        } else {
            // The worm progressed (or the header is in flight): the
            // predicate cannot hold before both the staleness window
            // re-elapses and the header is ready. Both bounds land within
            // the wheel's horizon (see `TimerWheel::new`).
            let d = (last_move + timeout)
                .next_multiple_of(timeout)
                .max(ready.next_multiple_of(timeout));
            self.wheel.schedule(idx, d);
        }
    }

    /// Switch + link traversal: each output channel (network ports and the
    /// delivery channel) moves at most one flit per cycle, round-robin over
    /// the input VCs assigned to it. Decide over the shard partition, then
    /// the staged apply — see [`Network::run_pass`].
    pub(crate) fn switch_phase(&mut self, now: u64) {
        self.run_pass(now, Pass::Switch);
    }

    /// Executes one pass: decide per shard, apply per shard through a view
    /// of that shard's node range, then the sequential tail. With one
    /// shard the caller's thread runs decide and apply inline over the
    /// whole-network view; otherwise the persistent worker pool's
    /// participants run them (see [`crate::shard::WorkerPool`]) — the same
    /// code either way.
    fn run_pass(&mut self, now: u64, kind: Pass) {
        // Nothing to do unless some router holds a flit or — to route — an
        // admitted injection, to switch an active one (one OR per 64 nodes).
        let also = match kind {
            Pass::Route => &self.allow_nodes,
            Pass::Switch => &self.inj_nodes,
        };
        if (0..also.word_count()).all(|w| (self.busy_nodes.word(w) | also.word(w)) == 0) {
            return;
        }
        let mut stages = std::mem::take(&mut self.plan.stages);
        let mut stats = self.phase_stats.take();
        if let Some(mut pool) = self.plan.pool.take() {
            pool.run(self, kind, now, &mut stages, stats.as_deref_mut());
            self.plan.pool = Some(pool);
        } else {
            let t0 = stats.as_ref().map(|_| std::time::Instant::now());
            self.decide(kind, now, 0, self.torus.node_count(), &mut stages[0]);
            let t1 = stats.as_ref().map(|_| std::time::Instant::now());
            if stages[0].has_ops() {
                self.apply_ctx().apply(kind, now, &mut stages[0]);
            }
            if let (Some(st), Some(t0), Some(t1)) = (stats.as_deref_mut(), t0, t1) {
                st.decide_ns += (t1 - t0).as_nanos() as u64;
                st.apply_ns += t1.elapsed().as_nanos() as u64;
            }
        }
        // Sequential from here, in ascending shard (= ascending node)
        // order — which visits the FIFO-ordered structures in global
        // ascending-node order at any shard count: the downstream half of
        // the handoffs, then the global half of each shard's results and
        // its deltas.
        let t0 = stats.as_ref().map(|_| std::time::Instant::now());
        if stages.iter().any(|stage| !stage.parked.is_empty()) {
            let view = self.apply_ctx();
            for stage in &mut stages {
                view.tail(now, stage);
            }
        }
        for stage in &mut stages {
            self.fold_stage(kind, now, stage);
        }
        if let (Some(st), Some(t0)) = (stats.as_deref_mut(), t0) {
            st.apply_ns += t0.elapsed().as_nanos() as u64;
        }
        self.phase_stats = stats;
        self.plan.stages = stages;
    }

    /// Folds one shard's results of a pass once its ops are applied: the
    /// deltas to global scalars, and the global half of its suspects and
    /// deliveries — suspects join the token queue, delivered flits are
    /// consumed — in staging order.
    pub(crate) fn fold_stage(&mut self, kind: Pass, now: u64, stage: &mut ShardStage) {
        match kind {
            Pass::Route => {
                let c = &mut self.counters;
                c.stage_route_visits += std::mem::take(&mut stage.route_visits);
                c.escape_allocations += std::mem::take(&mut stage.escape_allocs);
                for idx in stage.suspects.drain(..) {
                    self.enqueue_suspect(idx as usize);
                }
            }
            Pass::Switch => {
                let c = &mut self.counters;
                c.stage_switch_visits += std::mem::take(&mut stage.switch_visits);
                c.hotspot_stall_cycles += std::mem::take(&mut stage.hotspot_stalls);
                c.link_stall_cycles += std::mem::take(&mut stage.link_stalls);
                c.injected_packets += std::mem::take(&mut stage.injected);
                let full_delta = std::mem::take(&mut stage.full_delta);
                self.full_buffers = self.full_buffers.wrapping_add_signed(full_delta);
                if std::mem::take(&mut stage.progressed) {
                    self.last_progress_at = now;
                }
                for flit in stage.delivered.drain(..) {
                    self.deliver_flit(now, flit, false);
                }
            }
        }
    }

    /// One shard's decide of `kind` over the nodes `lo..hi`.
    pub(crate) fn decide(
        &self,
        kind: Pass,
        now: u64,
        lo: usize,
        hi: usize,
        stage: &mut ShardStage,
    ) {
        match kind {
            Pass::Route => self.route_decide(now, lo, hi, stage),
            Pass::Switch => self.switch_decide(now, lo, hi, stage),
        }
    }

    /// The whole-network apply view. The exclusive borrow is what makes it
    /// safe: nothing else can touch the state while the view lives.
    /// (Rebuilt per use — `offer` may grow `packets`/`escaped` between
    /// cycles.)
    #[inline]
    pub(crate) fn apply_ctx(&mut self) -> ApplyCtx<'_> {
        let recovery_timeout = match self.cfg.deadlock {
            DeadlockMode::Recovery { timeout } => timeout,
            DeadlockMode::Avoidance => 0,
        };
        ApplyCtx {
            d: self.d,
            v: self.v,
            fpn: self.d * self.v,
            nports: self.d + 1,
            depth: self.depth,
            escape_vcs: self.cfg.escape_vcs(),
            hop_latency: self.cfg.hop_latency,
            recovery_timeout,
            route_rr: Cells::new(&mut self.route_rr),
            out_rr: Cells::new(&mut self.out_rr),
            vc_assign: Cells::new(&mut self.vc_assign),
            vc_routed_at: Cells::new(&mut self.vc_routed_at),
            vc_blocked: Cells::new(&mut self.vc_blocked),
            out_alloc: Cells::new(&mut self.out_alloc),
            inj: Cells::new(&mut self.inj),
            escaped: Cells::new(&mut self.escaped),
            vc_busy: Cells::new(&mut self.vc_busy),
            vc_unrouted: Cells::new(&mut self.vc_unrouted),
            vc_switchable: Cells::new(&mut self.vc_switchable),
            vc_full: Cells::new(&mut self.vc_full),
            busy_nodes: Cells::new(self.busy_nodes.words_mut()),
            inj_nodes: Cells::new(self.inj_nodes.words_mut()),
            srcq_nodes: Cells::new(self.srcq_nodes.words_mut()),
            vc_bufs: self.vc_bufs.view(),
            source_q: self.source_q.view(),
            packets: self.packets.view(),
            wheel: self.wheel.view(),
            plane: self.plane.view(),
            out_slots: self.tables.out_slots(),
        }
    }

    /// The switch stage's read-only decide over `lo..hi`. Every per-port
    /// arbitration input (the switch plane's slots and move cycles, the
    /// candidate masks, `out_rr` cursors) is node-local; the one cross-node
    /// read — the downstream VC's occupancy bit, for the credit check —
    /// uses *pre-phase* occupancy, i.e. credit freed by a pop this same
    /// cycle becomes usable next cycle (credit return takes a cycle). That
    /// makes the decision a pure function of pre-phase state, identical
    /// for every shard count, and keeps the apply overflow-free: each
    /// downstream VC has exactly one upstream owner moving at most one
    /// flit per cycle, so a buffer seen below capacity pre-phase still has
    /// room at apply time.
    pub(crate) fn switch_decide(&self, now: u64, lo: usize, hi: usize, stage: &mut ShardStage) {
        let fpn = self.d * self.v;
        let nports = self.d + 1; // network ports + delivery
        let staged_before = stage.switch_ops.len() + stage.deliveries.len() + stage.handoffs.len();
        // Per-output-channel candidate masks over this router's feeders
        // (sized by the slot's 5-bit port field). Every word a router sets
        // is taken back to zero when its channel is arbitrated.
        let mut cands = [0u64; 32];
        // Only routers with buffered flits or an active injection can move
        // anything. Routers made busy mid-phase by a downstream push are
        // not visited: the pushed flit is not ready before
        // `now + hop_latency` and its VC is unrouted, so a visit would do
        // nothing.
        for w in (lo >> 6)..hi.div_ceil(64) {
            let inj_word = self.inj_nodes.word(w);
            let mut nword = (self.busy_nodes.word(w) | inj_word) & range_word_mask(w, lo, hi);
            while nword != 0 {
                let b = nword.trailing_zeros() as usize;
                let node = (w << 6) | b;
                nword &= nword - 1;
                stage.switch_visits += 1;
                // The feeders that hold a routed worm's flit: the
                // bit-plane intersection prunes unrouted and recovering
                // worms, and an active injection is always routed.
                let mut mask =
                    (self.vc_busy[node] & self.vc_switchable[node]) | (inj_word >> b & 1) << fpn;
                // A feeder is a candidate for its output channel when its
                // front flit may move this cycle and the downstream buffer
                // (never full, for the delivery channel) has credit.
                let base = node * (fpn + 1);
                let mut ports = 0u32;
                while mask != 0 {
                    let f = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let slot = self.plane.slot(base + f);
                    let ok = (self.plane.movable_at(base + f) <= now)
                        & (self.vc_full[slot.dnode()] >> slot.dbit() & 1 == 0);
                    cands[slot.port()] |= u64::from(ok) << f;
                    ports |= u32::from(ok) << slot.port();
                }
                // One flit per output channel, RR over its candidates.
                while ports != 0 {
                    let port = ports.trailing_zeros() as usize;
                    ports &= ports - 1;
                    let feeders = std::mem::take(&mut cands[port]);
                    // A faulted output moves nothing this cycle: a stalled
                    // link (network port) or a hot, non-consuming node
                    // (delivery port). Stall-cycles count only when a flit
                    // was ready.
                    if let Some(plan) = &self.faults {
                        if port == self.d {
                            if plan.delivery_down(node, now) {
                                stage.hotspot_stalls += 1;
                                continue;
                            }
                        } else if plan.link_down(node, port, now) {
                            stage.link_stalls += 1;
                            continue;
                        }
                    }
                    let pick = rr_pick(feeders, self.out_rr[node * nports + port]);
                    let op = SwitchOp {
                        node: node as u32,
                        port: port as u8,
                        pick: pick as u8,
                    };
                    // Classify the move by where its downstream half
                    // lands: nowhere (a delivery: the flit is consumed, in
                    // global FIFO order, by the fold), in this shard's own
                    // node range (a local hop), or in another shard's (a
                    // handoff: the sequential tail `put`s it).
                    let dnode = self.plane.slot(base + pick).dnode();
                    if port == self.d {
                        stage.deliveries.push(op);
                    } else if lo <= dnode && dnode < hi {
                        stage.switch_ops.push(op);
                    } else {
                        stage.handoffs.push(op);
                    }
                }
            }
        }
        stage.staged_total += (stage.switch_ops.len()
            + stage.deliveries.len()
            + stage.handoffs.len()
            - staged_before) as u64;
    }

    /// Whether a fault plan currently stalls `node`'s delivery channel
    /// (consulted by both the switch stage and the recovery drain: a hot,
    /// non-consuming node cannot consume recovery flits either).
    #[inline]
    pub(crate) fn delivery_stalled(&self, node: NodeId, now: u64) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|plan| plan.delivery_down(node, now))
    }

    /// Consumes a flit at its destination's delivery channel.
    pub(crate) fn deliver_flit(&mut self, now: u64, flit: Flit, via_recovery: bool) {
        self.counters.delivered_flits += 1;
        self.last_delivery_at = now;
        self.last_progress_at = now;
        let len = {
            let p = self.packets.get_mut(flit.packet);
            p.delivered_flits += 1;
            p.len
        };
        if flit.idx + 1 == len {
            let p = *self.packets.get(flit.packet);
            debug_assert_eq!(p.delivered_flits, len, "flits delivered out of order");
            self.deliveries.push(DeliveredRecord {
                src: p.src,
                dst: p.dst,
                generated_at: p.generated_at,
                injected_at: p.injected_at,
                delivered_at: now,
                len,
                recovered: via_recovery,
            });
            self.counters.delivered_packets += 1;
            self.counters.recovered_packets += u64::from(via_recovery);
            self.packets.release(flit.packet);
        }
    }
}

/// The route/switch state transition, written once over the checked view:
/// a pool participant runs it on its shard's node range, the caller's
/// thread on the whole network (the single-shard apply, the handoff tail,
/// the starvation and recovery stages). Every write lands inside the
/// view's range or panics.
impl ApplyCtx<'_> {
    /// Sets the assignment of input VC `f` of `node` while keeping the
    /// assignment bit-planes (`vc_unrouted`/`vc_switchable`) and the switch
    /// plane's slot in sync. Every assignment write in the pipeline goes
    /// through here.
    #[inline]
    pub(crate) fn set_assign(&self, node: NodeId, f: usize, a: Assign) {
        self.vc_assign.set(node * self.fpn + f, a);
        if let Some(slot) = self.slot_of(node, a) {
            self.plane.set_slot(node * (self.fpn + 1) + f, slot);
        }
        let bit = 1u64 << f;
        let (unrouted, switchable) = (self.vc_unrouted.get(node), self.vc_switchable.get(node));
        let (unrouted, switchable) = match a {
            Assign::None | Assign::AwaitToken => (unrouted | bit, switchable & !bit),
            Assign::Out { .. } | Assign::Delivery => (unrouted & !bit, switchable | bit),
            Assign::Recovery => (unrouted & !bit, switchable & !bit),
        };
        self.vc_unrouted.set(node, unrouted);
        self.vc_switchable.set(node, switchable);
    }

    /// The switch-plane slot of a feeder of `node` assigned `a` (`None`
    /// unless `a` is switchable).
    #[inline]
    fn slot_of(&self, node: NodeId, a: Assign) -> Option<Slot> {
        Slot::of(self.out_slots, self.d, self.v, node, a)
    }

    /// Marks input VC `f` of `node` — now holding `len` flits — non-empty
    /// in the worklist (both levels) and updates its full-buffer occupancy
    /// bit, crediting the census through `full_delta`. Call after pushing
    /// a flit into its buffer.
    #[inline]
    fn note_vc_filled(&self, node: NodeId, f: usize, len: usize, full_delta: &mut i32) {
        self.vc_busy.set(node, self.vc_busy.get(node) | 1u64 << f);
        self.busy_nodes.insert_bit(node);
        let full = u64::from(len >= self.depth);
        self.vc_full.set(node, self.vc_full.get(node) | full << f);
        *full_delta += full as i32;
    }

    /// Clears input VC `f` of `node` from the worklists if its buffer is
    /// now empty — else points the switch plane at its new front flit —
    /// and updates its full-buffer occupancy bit. Call after popping a
    /// flit from it.
    #[inline]
    pub(crate) fn note_vc_popped(&self, node: NodeId, f: usize, full_delta: &mut i32) {
        let idx = node * self.fpn + f;
        let empty = self.vc_bufs.len(idx) == 0;
        if !empty {
            self.plane
                .set_movable_at(node * (self.fpn + 1) + f, self.vc_bufs.front_ready_at(idx));
        }
        let busy = self.vc_busy.get(node) & !(u64::from(empty) << f);
        self.vc_busy.set(node, busy);
        if busy == 0 {
            self.busy_nodes.remove_bit(node);
        }
        // A pop always leaves the buffer below capacity: clear the
        // occupancy bit and debit the census by what it previously held.
        let full = self.vc_full.get(node);
        self.vc_full.set(node, full & !(1u64 << f));
        *full_delta -= (full >> f & 1) as i32;
    }

    /// Applies one shard's ops of `kind`, each list in staging
    /// (ascending-node) order: everything that writes the shard's own
    /// state. Suspects lose their assignment; local hops move; the flits of
    /// deliveries and handoffs are taken off their feeders and set aside —
    /// for [`Network::fold_stage`] and [`ApplyCtx::tail`].
    pub(crate) fn apply(&self, kind: Pass, now: u64, stage: &mut ShardStage) {
        match kind {
            Pass::Route => {
                stage.applied_total += (stage.route_ops.len() + stage.suspects.len()) as u64;
                for i in 0..stage.route_ops.len() {
                    match stage.route_ops[i] {
                        RouteOp::Rr { node, cursor } => {
                            self.route_rr.set(node as usize, usize::from(cursor));
                        }
                        RouteOp::Win {
                            node,
                            feeder,
                            assign,
                        } => self.route_win(now, node as usize, usize::from(feeder), assign, stage),
                        RouteOp::Blocked { idx } => {
                            let idx = idx as usize;
                            self.vc_blocked.set(idx, self.vc_blocked.get(idx) + 1);
                        }
                    }
                }
                stage.route_ops.clear();
                for &idx in &stage.suspects {
                    self.suspect(idx as usize);
                }
            }
            Pass::Switch => {
                stage.applied_total += (stage.switch_ops.len() + stage.deliveries.len()) as u64;
                for i in 0..stage.switch_ops.len() {
                    let (flit, dest) = self.take(now, stage.switch_ops[i], stage);
                    let dest = dest.expect("a hop has a downstream VC");
                    self.put(now, dest, flit, &mut stage.full_delta);
                }
                stage.switch_ops.clear();
                // Their own loop: as a second arm of the hop loop above
                // they cost the single-shard switch stage ~10%.
                for i in 0..stage.deliveries.len() {
                    let (flit, _) = self.take(now, stage.deliveries[i], stage);
                    stage.delivered.push(flit);
                }
                stage.deliveries.clear();
                for i in 0..stage.handoffs.len() {
                    let (flit, dest) = self.take(now, stage.handoffs[i], stage);
                    let (node, feeder) = dest.expect("a hop has a downstream VC");
                    stage.parked.push(Parked {
                        node: node as u32,
                        feeder: feeder as u8,
                        flit,
                    });
                }
                stage.handoffs.clear();
            }
        }
    }

    /// The downstream half of one shard's handoffs, in staging order: the
    /// flits its apply parked arrive in their — another shard's — input
    /// VCs.
    pub(crate) fn tail(&self, now: u64, stage: &mut ShardStage) {
        stage.applied_total += stage.parked.len() as u64;
        for Parked { node, feeder, flit } in stage.parked.drain(..) {
            let dest = (node as usize, usize::from(feeder));
            self.put(now, dest, flit, &mut stage.full_delta);
        }
    }

    /// The view half of committing a suspected-deadlocked VC to recovery:
    /// it waits for the token, its blocked count restarts.
    pub(crate) fn suspect(&self, idx: usize) {
        self.set_assign(idx / self.fpn, idx % self.fpn, Assign::AwaitToken);
        self.vc_blocked.set(idx, 0);
    }

    /// Performs the allocation tail of a staged routing win: output-VC
    /// claim, escape marking, and the injection start or VC assignment +
    /// timer-wheel enrollment. The decision itself (`assign`) was made by
    /// [`Network::route_decide`] over pre-phase state.
    fn route_win(
        &self,
        now: u64,
        node: NodeId,
        feeder: usize,
        assign: Assign,
        stage: &mut ShardStage,
    ) {
        let idx = node * self.fpn + feeder;
        let at = node * (self.fpn + 1) + feeder;
        let is_inj = feeder == self.fpn;
        let pid = if is_inj {
            self.source_q.front(node)
        } else {
            self.vc_bufs.front_packet(idx)
        };
        if let Assign::Out { port, vc } = assign {
            let oidx = (node * self.d + usize::from(port)) * self.v + usize::from(vc);
            debug_assert!(!self.out_alloc.get(oidx), "allocating an owned VC");
            self.out_alloc.set(oidx, true);
            if usize::from(vc) < self.escape_vcs {
                // At most one routing win per packet per cycle.
                self.escaped
                    .atomic(pid as usize)
                    .store(true, Ordering::Relaxed);
                stage.escape_allocs += 1;
            }
        }
        if is_inj {
            let id = self.source_q.pop_front(node);
            debug_assert_eq!(id, pid);
            if self.source_q.is_empty(node) {
                self.srcq_nodes.remove_bit(node);
            }
            self.inj_nodes.insert_bit(node);
            self.inj.set(
                node,
                InjState {
                    active: Some(id),
                    sent: 0,
                    assign,
                    routed_at: now,
                },
            );
            let slot = self.slot_of(node, assign).expect("a win is switchable");
            self.plane.set_slot(at, slot);
        } else {
            self.set_assign(node, feeder, assign);
            self.vc_routed_at.set(idx, now);
            self.vc_blocked.set(idx, 0);
            // An input VC granted an output VC is the only thing the
            // starvation stage can ever trip on: enroll it in the timer
            // wheel at the earliest scan cycle the predicate could hold
            // (the worm must sit motionless for a full timeout first).
            if matches!(assign, Assign::Out { .. }) && self.recovery_timeout > 0 {
                let timeout = self.recovery_timeout;
                let last_move = self.packets.packet(pid).last_move.load(Ordering::Relaxed);
                let d = (last_move + timeout)
                    .next_multiple_of(timeout)
                    .max(now.next_multiple_of(timeout));
                self.wheel.schedule(idx, d);
            }
        }
        // The winner's header was ready to request routing (an injection's
        // flits always are): the 1-cycle routing delay is all that holds it.
        self.plane.set_movable_at(at, now + 1);
    }

    /// The source half of a staged flit move: bumps the output channel's
    /// round-robin cursor, takes the flit off feeder `pick` of `node`
    /// (releasing the feeder's assignment and output VC behind a tail) and
    /// stamps the packet. Returns the flit and the downstream input VC it
    /// is headed for, as the (node, feeder) its slot names — `None` for
    /// the delivery channel. Everything written is state of `node`.
    #[inline(always)]
    pub(crate) fn take(
        &self,
        now: u64,
        op: SwitchOp,
        stage: &mut ShardStage,
    ) -> (Flit, Option<(NodeId, usize)>) {
        let (node, f) = (op.node as usize, usize::from(op.pick));
        self.out_rr
            .set(node * self.nports + usize::from(op.port), f + 1);
        let slot = self.plane.slot(node * (self.fpn + 1) + f);
        debug_assert_eq!(slot.port(), usize::from(op.port), "stale switch-plane slot");
        // One `packets.packet` lookup per move: the tail test and the
        // `last_move` stamp share it.
        let (flit, packet) = if f == self.fpn {
            let mut inj = self.inj.get(node);
            let pid = inj.active.expect("injection feeder has active packet");
            let packet = self.packets.packet(pid);
            let idx = inj.sent;
            inj.sent += 1;
            if idx == 0 {
                packet.injected_at.store(now, Ordering::Relaxed);
                stage.injected += 1;
            }
            if inj.sent == packet.len {
                self.release_output(node, inj.assign);
                inj = InjState::idle();
                self.inj_nodes.remove_bit(node);
            }
            self.inj.set(node, inj);
            let flit = Flit {
                packet: pid,
                idx,
                ready_at: now,
            };
            (flit, packet)
        } else {
            let idx = node * self.fpn + f;
            let flit = self.vc_bufs.pop_front(idx);
            let packet = self.packets.packet(flit.packet);
            if flit.idx + 1 == packet.len {
                self.release_output(node, self.vc_assign.get(idx));
                self.set_assign(node, f, Assign::None);
            }
            self.note_vc_popped(node, f, &mut stage.full_delta);
            (flit, packet)
        };
        packet.last_move.store(now, Ordering::Relaxed);
        stage.progressed = true;
        let dest = (slot.port() != self.d).then(|| (slot.dnode(), slot.dbit()));
        (flit, dest)
    }

    /// Frees the output VC a worm assigned `a` held, once its tail has
    /// left `node` (a delivery holds none).
    #[inline]
    fn release_output(&self, node: NodeId, a: Assign) {
        if let Assign::Out { port, vc } = a {
            let oidx = (node * self.d + usize::from(port)) * self.v + usize::from(vc);
            debug_assert!(self.out_alloc.get(oidx));
            self.out_alloc.set(oidx, false);
        }
    }

    /// The downstream half of a flit move: `flit` arrives in input VC
    /// `f` of `node` one hop latency from `now`.
    #[inline(always)]
    pub(crate) fn put(
        &self,
        now: u64,
        (node, f): (NodeId, usize),
        flit: Flit,
        full_delta: &mut i32,
    ) {
        let (didx, ready_at) = (node * self.fpn + f, now + self.hop_latency);
        self.vc_bufs.push_back(didx, Flit { ready_at, ..flit });
        let len = self.vc_bufs.len(didx);
        if len == 1 {
            // The arrival is the ring's new front.
            self.plane
                .set_movable_at(node * (self.fpn + 1) + f, ready_at);
        }
        self.note_vc_filled(node, f, len, full_delta);
    }
}

/// Mask selecting the bits of bitset word `w` whose node indices fall in
/// `lo..hi`. Shard ranges are not word-aligned, so the decide phases trim
/// the first and last word of their range with this.
#[inline]
#[must_use]
fn range_word_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let lo_mask = if w == lo >> 6 { !0u64 << (lo & 63) } else { !0 };
    let hi_mask = if w == hi >> 6 && hi & 63 != 0 {
        (1u64 << (hi & 63)) - 1
    } else {
        !0
    };
    lo_mask & hi_mask
}

/// Output/input port index of `(dim, dir)`: `2*dim` for `Plus`, `2*dim + 1`
/// for `Minus`.
#[inline]
#[must_use]
pub(crate) fn port_of(dim: usize, dir: Dir) -> usize {
    dim * 2 + usize::from(dir == Dir::Minus)
}

/// Inverse of [`port_of`].
#[inline]
#[must_use]
pub(crate) fn dim_dir_of(port: usize) -> (usize, Dir) {
    (
        port / 2,
        if port.is_multiple_of(2) {
            Dir::Plus
        } else {
            Dir::Minus
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::NoControl;

    /// Stepping under saturating random traffic must produce bit-identical
    /// state for every shard count: the decide phases are pure functions
    /// of pre-phase state and the barrier applies in ascending-node order
    /// regardless of the partition. Recovery exercises the token queue and
    /// the wheel; avoidance the escape VCs, and (with most traffic
    /// delivered rather than recovered) the delivery slot's bit-63 credit
    /// encoding at nodes on both sides of unaligned shard edges. The fault
    /// plan stalls a delivery channel and a link next to shard edges, so
    /// deliveries and handoffs are withheld in the decide and `take`n by
    /// the shards' own applies around them. Seven and eight shards are
    /// more than most hosts' cores give threads to.
    #[test]
    fn stepping_is_bit_identical_across_shard_counts() {
        use faults::{HotspotFault, LinkFault};
        let plan = FaultPlan {
            hotspots: vec![HotspotFault {
                node: 31,
                start: 300,
                end: 700,
            }],
            links: vec![LinkFault {
                node: 32,
                port: 5,
                start: 500,
                end: 900,
            }],
            ..FaultPlan::none(3)
        };
        for deadlock in [
            DeadlockMode::Recovery { timeout: 8 },
            DeadlockMode::Avoidance,
        ] {
            let cfg = NetConfig {
                radix: 4,
                dimensions: 3,
                ..NetConfig::small(deadlock)
            };
            let run = |shards: usize| {
                let mut net = Network::new(cfg.clone()).unwrap();
                net.install_faults(plan.clone()).unwrap();
                net.set_shards(shards);
                assert_eq!(net.shards(), shards);
                let nodes = net.torus().node_count();
                let mut src = move |now: u64, node: usize| {
                    let mut x = (now + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (node as u64) << 17;
                    x ^= x >> 29;
                    (x % 100 < 55).then(|| (x >> 32) as usize % nodes)
                };
                net.run(1_200, &mut src, &mut NoControl);
                let mut enc = checkpoint::Enc::new();
                net.save_state(&mut enc);
                (enc.into_vec(), *net.counters())
            };
            let (base, c) = run(1);
            assert!(c.delivered_packets > 0, "vacuous: nothing was delivered");
            assert!(
                c.hotspot_stall_cycles > 0 && c.link_stall_cycles > 0,
                "vacuous: the faults stalled nothing"
            );
            assert_eq!(
                c.escape_allocations > 0,
                deadlock == DeadlockMode::Avoidance,
                "vacuous: escape VCs unused under avoidance"
            );
            for shards in [2usize, 3, 4, 7, 8] {
                assert_eq!(
                    run(shards).0,
                    base,
                    "{deadlock:?}: shards={shards} diverged from 1"
                );
            }
        }
    }

    #[test]
    fn range_word_mask_trims_unaligned_edges() {
        assert_eq!(range_word_mask(0, 0, 64), !0);
        assert_eq!(range_word_mask(0, 3, 64), !0u64 << 3);
        assert_eq!(range_word_mask(0, 0, 16), (1u64 << 16) - 1);
        assert_eq!(range_word_mask(1, 70, 130), !0u64 << 6);
        assert_eq!(range_word_mask(2, 70, 130), (1u64 << 2) - 1);
        assert_eq!(range_word_mask(1, 0, 128), !0);
    }

    #[test]
    fn port_mapping_round_trips() {
        for dim in 0..4 {
            for dir in Dir::BOTH {
                let p = port_of(dim, dir);
                assert_eq!(dim_dir_of(p), (dim, dir));
            }
        }
        assert_eq!(port_of(0, Dir::Plus), 0);
        assert_eq!(port_of(1, Dir::Minus), 3);
    }
}
