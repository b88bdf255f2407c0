use crate::activity::NodeSet;
use crate::config::{DeadlockMode, NetConfig};
use crate::control::CongestionControl;
use crate::counters::Counters;
use crate::packet::{DeliveredRecord, Flit, PacketId, PacketInfo, PacketStore, QueueEntry};
use crate::plane::{inj_movable_at, rr_pick, vc_movable_at, Slot, SwitchPlane};
use crate::ring::{FlitRings, Rings};
use crate::routing::RouteTables;
use crate::shard::{
    post_handoffs, ApplyCtx, Cells, Parked, Pass, PhaseStats, ShardPlan, ShardStage, WorkerPool,
};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InjState {
    /// The streaming packet's record; `None` while idle, and from the route
    /// win that starts an injection until the fold gives it its record.
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

/// One router's derived words as its ground truth says they must read
/// ([`Network::derive_node`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeWords {
    /// `vc_busy`: input VCs holding a flit.
    pub busy: u64,
    /// `vc_full`: input VCs completely full.
    pub full: u64,
    /// `vc_unrouted`: `None`/`AwaitToken` assignments.
    pub unrouted: u64,
    /// `vc_switchable`: `Out`/`Delivery` assignments.
    pub switchable: u64,
    /// The `inj_nodes` bit: an active injection.
    pub injecting: bool,
    /// The `srcq_nodes` bit: a non-empty source queue.
    pub queued: bool,
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

/// The input-VC flit arena's use of its lines ([`Network::flit_lines`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitLines {
    /// Lines in the arena: one per input VC.
    pub total: usize,
    /// Lines handed out at least once, the arena's written part: memory
    /// follows this, not `total`.
    pub reached: usize,
    /// Lines the input VCs hold now.
    pub held: usize,
}

/// What a cycle's arrival pass calls once per newly generated packet:
/// `offer(node, dst)` enqueues a packet from `node` for `dst` (see
/// [`Network::cycle_from`]).
pub type Offer<'a> = dyn FnMut(NodeId, NodeId) + 'a;

/// The simulated wormhole network: all router state, flat for speed.
///
/// All per-cycle queues live in flat arenas allocated
/// once at construction, and routing decisions come from tables
/// precomputed at construction, so the steady-state
/// cycle pipeline performs **zero heap allocations** — a counting test
/// allocator enforces this (`tests/zero_alloc.rs`), and DESIGN.md
/// ("Simulator memory layout") documents the invariants.
///
/// Drive it with [`Network::cycle_from`]; read results with
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
    pub(crate) packet_len: u16,
    /// Longest possible recovery drain path (torus diameter + 1), the
    /// capacity floor kept on `path_scratch`.
    pub(crate) max_path: usize,

    /// Edge buffers of every input VC, one flat arena indexed by
    /// `(node * d + port) * v + vc` (ring `r` holds VC `r`'s flits).
    pub(crate) vc_bufs: FlitRings,
    /// Routing assignment of the packet at the front of each input VC.
    pub(crate) vc_assign: Vec<Assign>,
    /// One word per input VC, read by its assignment. `Out`/`Delivery`:
    /// the cycle the worm was routed (its header moves one cycle later:
    /// the paper's 1-cycle routing delay). `None`/`AwaitToken`/`Recovery`:
    /// the consecutive cycles the front header has been ready but unrouted
    /// (drives Disha's timeout detection), which is 0 unless the VC holds
    /// a header assigned `None` — a tail's release resets the word.
    pub(crate) vc_routing: Vec<u64>,
    /// Whether each VC currently has an entry in the recovery token queue
    /// (derived from the queue on restore).
    pub(crate) vc_queued: Vec<bool>,
    /// Output VC allocation flags, same indexing as the VC arrays (an
    /// output VC of node `u` is the upstream side of a neighbor's input VC).
    pub(crate) out_alloc: Vec<bool>,
    pub(crate) inj: Vec<InjState>,
    /// Per-node source queues (ring `node`) of [`QueueEntry`]s: a packet
    /// has no record until its injection wins routing, when the route
    /// pass's fold pops its entry.
    pub(crate) source_q: Rings<QueueEntry>,
    /// The records of the packets past their source queue: injecting, in
    /// the network, or draining through recovery.
    pub(crate) packets: PacketStore,

    /// Per-router Disha deadlock buffers (ring `node`, depth [`DL_DEPTH`];
    /// recovery mode only).
    pub(crate) dl_bufs: FlitRings,
    pub(crate) recovery: Option<RecoveryJob>,
    /// Recycled backing storage for [`RecoveryJob::path`], kept at capacity
    /// `max_path` so granting the token never allocates in steady state.
    pub(crate) path_scratch: Vec<NodeId>,

    /// Precomputed per-dimension routing rows and coordinate digits.
    pub(crate) tables: RouteTables,

    /// Demand-slotted round-robin cursor of each router's routing arbiter
    /// (at most the feeder count, `fpn + 1 <= 64`).
    pub(crate) route_rr: Vec<u8>,
    /// Round-robin cursor per output channel (network ports + delivery).
    pub(crate) out_rr: Vec<u8>,

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
    /// the switch pass reads instead of chasing `vc_assign`, the ring
    /// fronts and the routing cycles ([`crate::plane`]). Derived state.
    pub(crate) plane: SwitchPlane,
    /// Occupancy bit-planes: bit `f` of `vc_full[node]` iff input VC
    /// `node*d*v + f` is completely full. `full_buffers` (the side-band's
    /// census input) is the popcount sum of these planes, maintained
    /// incrementally ([`Network::full_buffer_planes`]).
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
    /// Delivered-packet records awaiting [`Network::drain_deliveries`], in
    /// delivery order. A drain keeps the capacity, so a consumer draining
    /// every gather period bounds it at O(period) and pushes stop
    /// allocating once it has seen its high-water mark.
    pub(crate) deliveries: Vec<DeliveredRecord>,
    /// FIFO of suspected-deadlocked input VCs awaiting the recovery token
    /// (single ring; `vc_queued` caps it at one entry per VC).
    pub(crate) token_queue: Rings<u32>,
    /// Cycle of the most recent flit delivery (watchdog aid).
    pub(crate) last_delivery_at: u64,
    /// Cycle any flit last moved anywhere — normal hops, injections,
    /// deliveries or recovery-network steps (drives livelock detection).
    pub(crate) last_progress_at: u64,
    /// Scheduled link/hotspot faults (`None` = fault-free network; the hot
    /// path is untouched until a non-quiet plan is installed).
    faults: Option<FaultPlan>,
    /// Opt-in pass/protocol wall-clock split ([`PhaseStats`]; `None` =
    /// off, the default — the cycle pipeline then pays one branch per
    /// pass). Runtime-only instrumentation, never serialized.
    phase_stats: Option<Box<PhaseStats>>,
    /// Shard partition, per-shard pass outputs and per-pass copies for
    /// parallel stepping ([`crate::shard`]). Runtime-only configuration:
    /// never serialized, never fingerprinted — a checkpoint taken at S
    /// shards restores at any S′ by construction.
    pub(crate) plan: ShardPlan,
}

impl Network {
    /// Builds an empty network from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration error, if any.
    pub fn new(cfg: NetConfig) -> Result<Self, crate::config::ConfigError> {
        Network::build(cfg, true)
    }

    /// A network of `cfg`'s shape — torus, route tables, an unsharded plan
    /// and its derived state, sized and reading as an empty network's —
    /// holding the ground truth of an empty network if `with_state`
    /// ([`Network::new`]), else none: a shell whose every ground-truth
    /// container is unallocated, for [`Network::restore`] to decode into.
    /// A shell is never stepped as it is.
    pub(crate) fn build(
        cfg: NetConfig,
        with_state: bool,
    ) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        let torus = cfg.torus().expect("validated");
        let nodes = torus.node_count();
        let d = torus.channels_per_node();
        let v = cfg.vcs;
        let n_vcs = nodes * d * v;
        let max_path = torus.dimensions() * (cfg.radix / 2) + 1;
        let tables = RouteTables::build(&torus);
        let plan = ShardPlan::new(1, &tables, v, cfg.deadlock);
        // All VCs start unassigned: every input-VC feeder bit is "unrouted".
        let all_feeders = (1u64 << (d * v)) - 1;
        let packet_len = cfg.packet_len as u16;
        // The ground truth's per-node and per-VC lengths.
        let (tn, tv) = if with_state { (nodes, n_vcs) } else { (0, 0) };
        Ok(Network {
            torus,
            d,
            v,
            depth: cfg.buf_depth,
            packet_len,
            max_path,
            vc_bufs: FlitRings::new(tv, cfg.buf_depth, packet_len, cfg.hop_latency),
            vc_assign: vec![Assign::None; tv],
            vc_routing: vec![0; tv],
            vc_queued: vec![false; n_vcs],
            out_alloc: vec![false; tv],
            inj: vec![InjState::idle(); tn],
            source_q: Rings::new(tn, cfg.source_queue_cap),
            packets: PacketStore::new(),
            dl_bufs: FlitRings::new(tn, DL_DEPTH, packet_len, cfg.hop_latency),
            recovery: None,
            path_scratch: Vec::with_capacity(max_path),
            tables,
            route_rr: vec![0; tn],
            out_rr: vec![0; tn * (d + 1)],
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
            deliveries: Vec::new(),
            token_queue: Rings::new(1, if cfg.deadlock.recovers() { tv } else { 0 }),
            last_delivery_at: 0,
            last_progress_at: 0,
            faults: None,
            phase_stats: None,
            plan,
            cfg,
        })
    }

    /// Re-partitions the network into `shards` contiguous node ranges for
    /// parallel stepping (clamped to `[1, nodes]`). Results are
    /// bit-identical for every shard count: no router's pass reads what
    /// another router's pass of the same cycle writes, and the sequential
    /// fold commits globally ordered results in ascending-node order
    /// regardless of the partition. The partition is runtime-only
    /// configuration — never serialized, so a checkpoint moves freely
    /// between shard counts. Call between cycles.
    ///
    /// The shards are stepped by `min(shards, available cores)` threads,
    /// the caller's among them: more shards than cores buys no more
    /// threads, and on one core the caller's thread steps every shard.
    pub fn set_shards(&mut self, shards: usize) {
        let mut plan = ShardPlan::new(shards, &self.tables, self.v, self.cfg.deadlock);
        if plan.shards() > 1 {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            plan.pool = Some(WorkerPool::new(plan.shards(), cores));
        }
        self.set_plan(plan);
    }

    /// Installs a shard plan and splits the input-VC flit arena into one
    /// pool per shard, moving every held line into its shard's pool, so
    /// that each shard's pass takes and gives back lines alone.
    pub(crate) fn set_plan(&mut self, plan: ShardPlan) {
        // Replacing the plan drops any previous pool, which shuts down and
        // joins its workers — no worker thread ever outlives the partition
        // (or the network) it was spawned for.
        self.plan = plan;
        let bounds: Vec<usize> = self.vc_pool_bounds().collect();
        self.vc_bufs.set_pools(&bounds);
    }

    /// The shard plan's input-VC ranges: the first VC of every shard, then
    /// the VC count — the pools the input-VC arena must have.
    pub(crate) fn vc_pool_bounds(&self) -> impl Iterator<Item = usize> + '_ {
        let fpn = self.d * self.v;
        self.plan.bounds.iter().map(move |&node| node * fpn)
    }

    /// Whether the input-VC arena's pools are the shard plan's VC ranges,
    /// which a sharded pass relies on ([`crate::shard::WorkerPool::run`]).
    pub(crate) fn pools_match_plan(&self) -> bool {
        self.vc_bufs.pool_bounds().eq(self.vc_pool_bounds())
    }

    /// How much of the input-VC flit arena the run has used (DESIGN.md
    /// §4b). A line is one VC's buffer; there is one per input VC, but a
    /// VC holds one only while a worm occupies it.
    #[must_use]
    pub fn flit_lines(&self) -> FlitLines {
        let (reached, held) = self.vc_bufs.lines();
        FlitLines {
            total: self.vc_assign.len(),
            reached,
            held,
        }
    }

    /// The heap reserved by the two arenas whose memory follows the traffic
    /// rather than the network's size: the input-VC flit lines and the
    /// source queues' entries, written (and so made resident) only as
    /// rings reach them. The rest of the heap is what every VC and node
    /// costs whether or not a worm ever enters it (DESIGN.md §4b).
    #[must_use]
    pub fn sparse_arena_bytes(&self) -> usize {
        self.vc_bufs.line_bytes() + self.source_q.reserved_bytes()
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

    /// The current cycle (number of completed [`Network::cycle_from`] calls).
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

    /// Per-node full-buffer occupancy bit-planes: bit `port*vcs + vc` of
    /// word `node` is set iff that input VC buffer is completely full.
    /// `full_buffer_count()` equals the popcount sum over these words.
    #[must_use]
    pub fn full_buffer_planes(&self) -> &[u64] {
        &self.vc_full
    }

    /// Whether the network holds no work at all: no queued packets and no
    /// packet records (hence no buffered flits or active injections), no
    /// pending recovery suspects and no active recovery drain. A quiescent
    /// network stepped with a silent source and a passive controller is a
    /// no-op except for `now` advancing — the precondition
    /// [`Network::fast_forward`] exploits.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.live_packets() == 0 && self.token_queue.is_empty(0) && self.recovery.is_none()
    }

    /// Jumps `now` forward to `to` without simulating the intervening
    /// cycles. Callers must ensure the skip is observationally identical to
    /// stepping: the network is [`Network::quiescent`], every skipped
    /// source poll would have produced nothing (and had no side effects),
    /// and the controller needed no `on_cycle` call in the window.
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past or the network is not quiescent.
    pub fn fast_forward(&mut self, to: u64) {
        assert!(to >= self.now, "fast_forward into the past");
        assert!(self.quiescent(), "fast_forward on a non-quiescent network");
        self.set_now(to);
    }

    /// Sets the clock, the flit arenas' with it. Crossing a multiple of
    /// 2³¹ re-stamps the arenas' flits ([`FlitRings::set_now`]) and the
    /// switch plane's `movable_at` stamps, which are derived afresh from
    /// the re-stamped fronts (once per 2³¹ cycles at most).
    pub(crate) fn set_now(&mut self, now: u64) {
        self.now = now;
        self.dl_bufs.set_now(now);
        if self.vc_bufs.set_now(now) {
            let fpn = self.d * self.v;
            for node in 0..self.inj.len() {
                for f in 0..=fpn {
                    if let Some(at) = self.plane_stamp(node, f) {
                        self.plane.view().set_movable_at(node * (fpn + 1) + f, at);
                    }
                }
            }
        }
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

    /// The output ports of `node` that minimal routing may take towards
    /// `dst`, as a mask: bit `port` is set for each productive port, where
    /// port `2*dim` is dimension `dim`'s `Plus` channel and `2*dim + 1` its
    /// `Minus` one. A dimension offers at most one: the shorter way round
    /// its ring, `Plus` on a `k/2` tie. Zero iff `node == dst`. Read from
    /// the route tables the adaptive router reads (the ALO baseline's
    /// *useful* channels).
    #[must_use]
    pub fn productive_ports(&self, node: NodeId, dst: NodeId) -> u16 {
        self.tables.productive_mask(node, dst)
    }

    /// Whether output VC `vc` on output `port` of `node` (numbered as in
    /// [`Network::productive_ports`]) is currently allocated to a packet
    /// (the ALO baseline's "free VC" test).
    #[must_use]
    pub fn output_vc_allocated(&self, node: NodeId, port: usize, vc: usize) -> bool {
        self.out_alloc[self.vc_idx(node, port, vc)]
    }

    /// Number of packets waiting in `node`'s source queue.
    #[must_use]
    pub fn source_queue_len(&self, node: NodeId) -> usize {
        self.source_q.len(node)
    }

    /// Number of packets generated but not yet fully delivered: the
    /// queued ones and the [records](Network::packet_records).
    #[must_use]
    pub fn live_packets(&self) -> usize {
        self.source_q.total() + self.packets.live()
    }

    /// Number of packet records: packets whose injection has won routing
    /// and that are not yet delivered. A queued packet has none.
    #[must_use]
    pub fn packet_records(&self) -> usize {
        self.packets.live()
    }

    /// Slots of the packet-record store, live and recycled: the most
    /// records the network has held at once.
    #[must_use]
    pub fn packet_record_slots(&self) -> usize {
        self.packets.slot_count()
    }

    /// Takes the records of packets delivered since the last drain, in
    /// delivery order. Records the iterator does not yield are still
    /// removed when it drops.
    ///
    /// Draining regularly (the simulation driver drains every cycle) bounds
    /// the undrained backlog — and thus this queue's memory — at the
    /// between-drain high-water mark rather than the whole run's deliveries.
    pub fn drain_deliveries(&mut self) -> std::vec::Drain<'_, DeliveredRecord> {
        self.deliveries.drain(..)
    }

    /// Whether the network has had traffic in flight but delivered nothing
    /// for at least `window` cycles — a watchdog for tests (a correctly
    /// functioning configuration always makes progress).
    #[must_use]
    pub fn progress_stalled(&self, window: u64) -> bool {
        self.live_packets() > 0 && self.now.saturating_sub(self.last_delivery_at) >= window
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
        self.live_packets() > 0 && self.now.saturating_sub(self.last_progress_at) >= window
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
    /// unless `a` is switchable; `None` too for an output the router does
    /// not have, which is the audit's to report).
    pub(crate) fn slot_of(&self, node: NodeId, a: Assign) -> Option<Slot> {
        match a {
            Assign::Out { port, vc }
                if usize::from(port) >= self.d || usize::from(vc) >= self.v =>
            {
                None
            }
            a => Slot::of(&self.tables, self.v, node, a),
        }
    }

    /// What ground truth — buffers, assignments, injection interface and
    /// source queue — says `node`'s derived words hold: the one derivation
    /// [`Network::rebuild_derived`] writes and the audit diffs against.
    pub(crate) fn derive_node(&self, node: NodeId) -> NodeWords {
        let fpn = self.d * self.v;
        let mut w = NodeWords {
            injecting: self.inj[node].active.is_some(),
            queued: !self.source_q.is_empty(node),
            ..NodeWords::default()
        };
        for f in 0..fpn {
            let idx = node * fpn + f;
            let len = self.vc_bufs.len(idx);
            w.busy |= u64::from(len > 0) << f;
            w.full |= u64::from(len >= self.depth) << f;
            match self.vc_assign[idx] {
                Assign::None | Assign::AwaitToken => w.unrouted |= 1u64 << f,
                Assign::Out { .. } | Assign::Delivery => w.switchable |= 1u64 << f,
                Assign::Recovery => {}
            }
        }
        w
    }

    /// The switch-plane entry of feeder `f` of `node` (`f = d * v` is the
    /// injection interface) as ground truth says it must read: the slot,
    /// `None` unless the assignment is switchable, and `movable_at`,
    /// `None` for an empty input VC.
    pub(crate) fn derive_plane(&self, node: NodeId, f: usize) -> (Option<Slot>, Option<u64>) {
        let fpn = self.d * self.v;
        if f == fpn {
            let inj = &self.inj[node];
            let movable_at = inj_movable_at(inj.routed_at);
            return (self.slot_of(node, inj.assign), Some(movable_at));
        }
        let idx = node * fpn + f;
        let routed_at = self.vc_routing[idx];
        let front = self.vc_bufs.front(idx);
        let movable_at = front.map(|fl| vc_movable_at(fl.idx, fl.ready_at, routed_at));
        (self.slot_of(node, self.vc_assign[idx]), movable_at)
    }

    /// The `movable_at` [`Network::derive_plane`] derives for feeder `f`
    /// of `node`, as the switch plane stamps it now: re-stamped, as a flit
    /// buffered now is ([`crate::ring::Clock::restamped`]).
    fn plane_stamp(&self, node: NodeId, f: usize) -> Option<u64> {
        let (_, movable_at) = self.derive_plane(node, f);
        movable_at.map(|at| self.vc_bufs.clock().restamped(at))
    }

    /// Rebuilds every derived structure — the worklist, occupancy and
    /// assignment words, the node summaries, the census, the switch plane
    /// and the token-queue flags — from the ground truth a checkpoint
    /// carries, through [`Network::derive_node`] and
    /// [`Network::derive_plane`], in place: nothing is allocated. A
    /// switch-plane entry the derivation says nothing about keeps what it
    /// held, which no pass reads ([`crate::plane`]). Called after a restore.
    pub(crate) fn rebuild_derived(&mut self) {
        let fpn = self.d * self.v;
        let mut plane = std::mem::take(&mut self.plane);
        let view = plane.view();
        self.busy_nodes.clear();
        self.inj_nodes.clear();
        self.srcq_nodes.clear();
        self.full_buffers = 0;
        for node in 0..self.vc_busy.len() {
            let w = self.derive_node(node);
            for (set, member) in [
                (&mut self.busy_nodes, w.busy != 0),
                (&mut self.inj_nodes, w.injecting),
                (&mut self.srcq_nodes, w.queued),
            ] {
                if member {
                    set.insert(node);
                }
            }
            self.vc_busy[node] = w.busy;
            self.vc_full[node] = w.full;
            self.vc_unrouted[node] = w.unrouted;
            self.vc_switchable[node] = w.switchable;
            self.full_buffers += w.full.count_ones();
            for f in 0..=fpn {
                if let (Some(slot), _) = self.derive_plane(node, f) {
                    view.set_slot(node * (fpn + 1) + f, slot);
                }
                if let Some(at) = self.plane_stamp(node, f) {
                    view.set_movable_at(node * (fpn + 1) + f, at);
                }
            }
        }
        self.plane = plane;
        self.vc_queued.fill(false);
        for i in 0..self.token_queue.len(0) {
            self.vc_queued[self.token_queue.get(0, i) as usize] = true;
        }
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
        if self.cfg.deadlock.recovers() {
            self.recovery_stage(now);
        }
        debug_assert!(
            self.plan.credit == self.vc_full,
            "the switch pass's credit copy is not `vc_full` as the pass starts"
        );
        self.switch_phase(now);
        #[cfg(debug_assertions)]
        {
            let mut violations = Vec::new();
            self.audit_worklists(&mut violations);
            self.audit_routing_words(&mut violations);
            self.audit_shards(&mut violations);
            debug_assert!(violations.is_empty(), "{violations:?}");
        }
        self.set_now(now + 1);
    }

    /// Advances the network by one cycle, polling a per-node source:
    /// `source(now, node)` is called once per node, ascending, and returns
    /// the destination of a newly generated packet, if any. It exists only
    /// for the repo benchmark's traced pass (`benchmark/src/traced.rs`) and
    /// is deleted once that pass steps through `cycle_from`; everything
    /// else steps through [`Network::cycle_from`].
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
        let q = QueueEntry {
            dst: dst as u32,
            generated_at: now,
        };
        self.source_q.push_back(node, q);
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
                let dst = self.source_q.front(node).dst as NodeId;
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
    /// requesters, and on a scan cycle its starvation scan runs
    /// ([`ApplyCtx::route_pass`], over the shard partition — see
    /// [`Network::run_pass`]).
    pub(crate) fn route_phase(&mut self, now: u64) {
        self.run_pass(now, Pass::Route);
    }

    /// The global half of committing a suspect — a route-pass suspect or
    /// a starvation trip, which the pass has demoted already: its
    /// token-queue entry.
    fn enqueue_suspect(&mut self, idx: usize) {
        if !self.vc_queued[idx] {
            self.vc_queued[idx] = true;
            self.token_queue.push_back(0, idx as u32);
        }
        self.counters.recovery_timeouts += 1;
    }

    /// Switch + link traversal: each output channel (network ports and the
    /// delivery channel) moves at most one flit per cycle, round-robin over
    /// the input VCs assigned to it ([`ApplyCtx::switch_pass`], over the
    /// shard partition — see [`Network::run_pass`]).
    pub(crate) fn switch_phase(&mut self, now: u64) {
        self.run_pass(now, Pass::Switch);
    }

    /// Runs one stage as a pass per shard through a view of that shard's
    /// node range — after a switch pass that parked handoffs, a handoff
    /// pass per shard too — then the sequential fold. With one shard the
    /// caller's thread runs the pass inline over the whole-network view,
    /// which hands nothing off; otherwise the persistent worker pool's
    /// participants run the shards' passes (see
    /// [`crate::shard::WorkerPool`]) — the same code either way.
    fn run_pass(&mut self, now: u64, kind: Pass) {
        if !self.take_pass_copies(kind) {
            return;
        }
        let mut stages = std::mem::take(&mut self.plan.stages);
        let mut stats = self.phase_stats.take();
        let mut clock = stats.as_ref().map(|_| std::time::Instant::now());
        if let Some(mut pool) = self.plan.pool.take() {
            pool.run(self, kind, now, &mut stages, stats.as_deref_mut());
            if kind == Pass::Switch && post_handoffs(&mut stages) {
                pool.run(self, Pass::Handoff, now, &mut stages, stats.as_deref_mut());
            }
            self.plan.pool = Some(pool);
            // `run` booked the caller's share of the passes itself.
            clock = clock.map(|_| std::time::Instant::now());
        } else {
            let nodes = self.torus.node_count();
            self.apply_ctx().pass(kind, now, 0, nodes, &mut stages[0]);
        }
        self.fold_stages(kind, now, &mut stages);
        if let (Some(st), Some(since)) = (stats.as_deref_mut(), clock) {
            st.apply_ns += since.elapsed().as_nanos() as u64;
        }
        self.phase_stats = stats;
        self.plan.stages = stages;
    }

    /// Takes the visit copy a pass reads in place of state it also
    /// writes: the routers to visit — those holding a flit, plus an
    /// admitted injection to route or an active one to switch. `false`
    /// when no router has anything to do (one OR per 64 nodes). A skipped
    /// route pass copies no credit, but then no input VC holds a flit, so
    /// no `vc_full` bit is set: the credit copy is cleared to match.
    pub(crate) fn take_pass_copies(&mut self, kind: Pass) -> bool {
        let also = if kind == Pass::Route {
            &self.allow_nodes
        } else {
            &self.inj_nodes
        };
        let mut any = 0;
        for (w, visit) in self.plan.visit.iter_mut().enumerate() {
            *visit = self.busy_nodes.word(w) | also.word(w);
            any |= *visit;
        }
        if any == 0 && kind == Pass::Route {
            self.plan.credit.fill(0);
        }
        any != 0
    }

    /// Folds the shards' results of a pass, in ascending shard order: the
    /// deltas to global scalars, and the global half of their injection
    /// wins, suspects, starvation trips and delivered tails — a won
    /// injection gets its record ([`Network::start_packet`]), suspects and
    /// then trips join the token queue, tails finish
    /// ([`Network::finish_packet`]) — each in pass order. Pass order is
    /// ascending node order, so packet ids do not depend on the partition.
    pub(crate) fn fold_stages(&mut self, kind: Pass, now: u64, stages: &mut [ShardStage]) {
        for stage in stages.iter_mut() {
            let c = &mut self.counters;
            if kind == Pass::Route {
                c.stage_route_visits += std::mem::take(&mut stage.route_visits);
                c.stage_starvation_checks += std::mem::take(&mut stage.starvation_checks);
                c.escape_allocations += std::mem::take(&mut stage.escape_allocs);
                for node in stage.started.drain(..) {
                    self.start_packet(node as NodeId);
                }
                for idx in stage.suspects.drain(..) {
                    self.enqueue_suspect(idx as usize);
                }
                continue;
            }
            c.stage_switch_visits += std::mem::take(&mut stage.switch_visits);
            c.hotspot_stall_cycles += std::mem::take(&mut stage.hotspot_stalls);
            c.link_stall_cycles += std::mem::take(&mut stage.link_stalls);
            c.injected_packets += std::mem::take(&mut stage.injected);
            let full_delta = std::mem::take(&mut stage.full_delta);
            self.full_buffers = self.full_buffers.wrapping_add_signed(full_delta);
            if std::mem::take(&mut stage.progressed) {
                self.last_progress_at = now;
            }
            let flits = std::mem::take(&mut stage.delivered_flits);
            if flits > 0 {
                c.delivered_flits += flits;
                self.last_delivery_at = now;
            }
            for flit in stage.delivered.drain(..) {
                debug_assert_eq!(
                    flit.idx + 1,
                    self.packet_len,
                    "a body flit reached the fold"
                );
                self.finish_packet(now, flit.packet, false);
            }
        }
        for stage in stages.iter_mut() {
            for idx in stage.starved.drain(..) {
                self.enqueue_suspect(idx as usize);
            }
        }
    }

    /// The whole-network view. The exclusive borrow is what makes it safe:
    /// nothing else can touch the state while the view lives. (Rebuilt
    /// per use — `offer` may grow `packets` between cycles.)
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
            packet_len: self.packet_len,
            recovery_timeout,
            route_rr: Cells::new(&mut self.route_rr),
            out_rr: Cells::new(&mut self.out_rr),
            vc_assign: Cells::new(&mut self.vc_assign),
            vc_routing: Cells::new(&mut self.vc_routing),
            out_alloc: Cells::new(&mut self.out_alloc),
            inj: Cells::new(&mut self.inj),
            vc_busy: Cells::new(&mut self.vc_busy),
            vc_unrouted: Cells::new(&mut self.vc_unrouted),
            vc_switchable: Cells::new(&mut self.vc_switchable),
            vc_full: Cells::new(&mut self.vc_full),
            busy_nodes: Cells::new(self.busy_nodes.words_mut()),
            inj_nodes: Cells::new(self.inj_nodes.words_mut()),
            vc_bufs: self.vc_bufs.view(),
            source_q: &self.source_q,
            packets: self.packets.view(),
            plane: self.plane.view(),
            visit: &self.plan.visit,
            credit: Cells::new(&mut self.plan.credit),
            bounds: &self.plan.bounds,
            allow: self.allow_nodes.words(),
            tables: &self.tables,
            faults: self.faults.as_ref(),
        }
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

    /// The global half of an injection's routing win at `node`, whose
    /// pass already set up the injection interface: the front of the
    /// source queue leaves it and becomes a packet record, escaped if the
    /// won output VC is an escape VC, which the interface then streams.
    fn start_packet(&mut self, node: NodeId) {
        let q = self.source_q.pop_front(node);
        if self.source_q.is_empty(node) {
            self.srcq_nodes.remove(node);
        }
        let inj = &mut self.inj[node];
        let escaped = matches!(inj.assign,
            Assign::Out { vc, .. } if usize::from(vc) < self.cfg.escape_vcs());
        debug_assert!(inj.active.is_none(), "a won injection already streams");
        inj.active = Some(self.packets.alloc(PacketInfo::injecting(node, q, escaped)));
    }

    /// The tail half of a delivery, run sequentially once the tail of
    /// packet `id` was consumed ([`ApplyCtx::consume`]): its delivery
    /// record joins the queue and its slot the free list.
    pub(crate) fn finish_packet(&mut self, now: u64, id: PacketId, via_recovery: bool) {
        let p = *self.packets.get(id);
        self.deliveries.push(DeliveredRecord {
            src: p.src,
            dst: p.dst,
            generated_at: p.generated_at,
            injected_at: p.injected_at,
            delivered_at: now,
        });
        self.counters.delivered_packets += 1;
        self.counters.recovered_packets += u64::from(via_recovery);
        self.packets.release(id);
    }
}

/// The route, switch and handoff passes and the state transition under
/// them, written once over the checked view: a pool participant runs a
/// pass on its shard's node range, the caller's thread on the whole
/// network (the single-shard pass, the recovery stage). Every access lands
/// inside the view's range or panics.
impl ApplyCtx<'_> {
    /// One shard's pass of `kind` over the routers `lo..hi` of this view.
    pub(crate) fn pass(&self, kind: Pass, now: u64, lo: usize, hi: usize, stage: &mut ShardStage) {
        match kind {
            Pass::Route => self.route_pass(now, lo, hi, stage),
            Pass::Switch => self.switch_pass(now, lo, hi, stage),
            Pass::Handoff => self.handoff_pass(now, stage),
        }
    }

    /// The route stage over the routers `lo..hi`, ascending: each router's
    /// central arbiter picks at most one header, demand-slotted
    /// round-robin over its requesters, and at once performs the
    /// allocation, the cursor update and the blocked-cycle accounting; on
    /// a scan cycle the router's starvation scan follows
    /// ([`ApplyCtx::starvation_scan`]). First the pass copies the range's
    /// `vc_full` words into the credit copy the switch pass reads.
    ///
    /// The outcome is the same for every partition and router order,
    /// because nothing a router reads is written by another router's pass:
    /// its requester fronts, `route_rr`, `vc_routing`, `vc_assign` and its
    /// own outputs' `out_alloc` are its own; the visit copy, the cycle's
    /// injection allowances, the source queues and packet destinations are
    /// written by no pass (a won injection's entry leaves its queue in the
    /// fold); and the `escaped` flag and `last_move` stamp it reads belong
    /// to a packet whose header it holds, which no other router routes (and
    /// `last_move` changes only in the switch and recovery stages).
    pub(crate) fn route_pass(&self, now: u64, lo: usize, hi: usize, stage: &mut ShardStage) {
        for node in lo..hi {
            self.credit.set(node, self.vc_full.get(node));
        }
        let scan = self.is_scan_cycle(now);
        for w in (lo >> 6)..hi.div_ceil(64) {
            let mut nword = self.visit[w] & range_word_mask(w, lo, hi);
            while nword != 0 {
                let b = nword.trailing_zeros() as usize;
                let node = (w << 6) | b;
                nword &= nword - 1;
                self.route_router(now, node, self.allow[w] >> b & 1 == 1, stage);
                if scan {
                    self.starvation_scan(now, node, stage);
                }
            }
        }
    }

    /// Whether `now` is a cycle of the starvation scan: every `timeout`
    /// cycles in recovery mode, never in avoidance mode.
    #[inline]
    pub(crate) fn is_scan_cycle(&self, now: u64) -> bool {
        self.recovery_timeout != 0 && now.is_multiple_of(self.recovery_timeout)
    }

    /// One router's routing arbitration and allocation (see
    /// [`ApplyCtx::route_pass`]); `allow` says whether its injection was
    /// admitted this cycle.
    #[inline(always)]
    fn route_router(&self, now: u64, node: NodeId, allow: bool, stage: &mut ShardStage) {
        let inj_feeder = self.fpn;
        let timeout = match self.recovery_timeout {
            0 => u64::MAX,
            t => t,
        };
        // Requesters are busy VCs still awaiting an assignment; the
        // bit-plane intersection prunes already-routed worms without
        // touching their per-VC state.
        let cand = self.vc_busy.get(node) & self.vc_unrouted.get(node);
        if cand == 0 && !allow {
            return;
        }
        stage.route_visits += 1;
        // Gather routing requests from occupied input VCs into a
        // requester bitmask.
        let mut requests = u64::from(allow) << inj_feeder;
        let base = node * self.fpn;
        let mut mask = cand;
        while mask != 0 {
            let f = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // Unrouted headers request routing; suspected (token-queued)
            // headers keep requesting too — only capturing the token
            // commits a packet to the recovery path, so a transiently
            // congested packet resumes normal routing when a channel
            // frees. Truly deadlocked packets never see a free channel.
            requests |= u64::from(self.vc_bufs.ready_header(base + f)) << f;
        }
        if requests == 0 {
            return;
        }
        // Demand-slotted RR: the first requester at or after the cursor
        // position.
        let winner = rr_pick(requests, usize::from(self.route_rr.get(node)));
        self.route_rr.set(node, winner as u8 + 1);

        // Routing decision for the winner. A queued packet has no record
        // yet, and has never escaped.
        let (dst, escaped) = if winner == inj_feeder {
            (self.source_q.front(node).dst as NodeId, false)
        } else {
            let packet = self
                .packets
                .packet(self.vc_bufs.front_packet(base + winner));
            (packet.dst, packet.escaped.load(Ordering::Relaxed))
        };
        let assign = if dst == node {
            Some(Assign::Delivery)
        } else {
            self.choose_output(node, dst, escaped)
        };
        if let Some(assign) = assign {
            self.route_win(now, node, winner, assign, stage);
        }

        // Blocked-cycle accounting for every input-VC requester that did
        // not end up routed this cycle (drives Disha detection). Queued
        // packets hold no resources — not deadlockable — so the injection
        // feeder is masked out.
        let routed = u64::from(assign.is_some()) << winner;
        let mut blocked = requests & !(1u64 << inj_feeder) & !routed;
        while blocked != 0 {
            let f = blocked.trailing_zeros() as usize;
            blocked &= blocked - 1;
            let idx = base + f;
            if self.vc_assign.get(idx) != Assign::None {
                continue;
            }
            // Disha suspicion: the header has starved for `timeout` cycles
            // AND no flit of the whole worm has moved for `timeout` cycles
            // (transient contention keeps body flits crawling and does not
            // trip this). A suspected packet queues for the recovery token
            // but keeps retrying normal routing until the token is
            // captured; the token-queue commit is globally FIFO-ordered,
            // the fold's.
            let starved = self.vc_routing.get(idx) + 1;
            if starved >= timeout {
                let packet = self.packets.packet(self.vc_bufs.front_packet(idx));
                if now.saturating_sub(packet.last_move.load(Ordering::Relaxed)) >= timeout {
                    self.suspect(idx);
                    stage.suspects.push(idx as u32);
                    continue;
                }
            }
            self.vc_routing.set(idx, starved);
        }
    }

    /// The starvation scan of `node`, run by the route pass right after
    /// routing it on a scan cycle: detects deadlocked worms whose header
    /// is *routed* but has been credit-starved at the front of its buffer
    /// for `timeout` cycles with the whole worm inactive. (Routing only
    /// watches unrouted headers; a cycle can also form among headers that
    /// already hold an output VC and wait forever for buffer space.) Such
    /// a header has sent nothing on its allocated VC yet — the header is
    /// still here — so the allocation is released, the VC demoted, and its
    /// token-queue entry left to the fold.
    ///
    /// Examines the routed input VCs that hold a flit — `vc_busy &
    /// vc_switchable` — in ascending order, so trips join the token queue
    /// in VC order; `starvation_checks` counts them. It reads only the
    /// router's own state and the `last_move` stamps, which no route pass
    /// writes.
    pub(crate) fn starvation_scan(&self, now: u64, node: NodeId, stage: &mut ShardStage) {
        let timeout = self.recovery_timeout;
        let mut mask = self.vc_busy.get(node) & self.vc_switchable.get(node);
        while mask != 0 {
            let f = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            stage.starvation_checks += 1;
            let idx = node * self.fpn + f;
            let assign = self.vc_assign.get(idx);
            if !matches!(assign, Assign::Out { .. }) {
                continue;
            }
            // Most fronts under load are body flits, which the ring's
            // cursor tells apart before any slot or packet-store read.
            if !self.vc_bufs.ready_header(idx) {
                continue;
            }
            let last_move = self
                .packets
                .packet(self.vc_bufs.front_packet(idx))
                .last_move;
            if now.saturating_sub(last_move.load(Ordering::Relaxed)) >= timeout {
                self.release_output(node, assign);
                self.suspect(idx);
                stage.starved.push(idx as u32);
            }
        }
    }

    /// The switch stage over the routers `lo..hi`, ascending: every output
    /// channel of a router moves at most one flit, round-robin over the
    /// feeders that are candidates for it, and the move is made at once —
    /// a local hop `put` downstream, a delivery consumed (a tail set aside
    /// for the fold), a handoff parked for the handoff pass of the shard
    /// it is headed into.
    ///
    /// A feeder is a candidate when its front flit may move this cycle and
    /// the downstream buffer has credit *as the pass found it*: the credit
    /// copy the route passes took, never the live `vc_full` a router
    /// visited earlier may just have popped (credit return takes a cycle).
    /// Every other read is the router's own state (switch-plane entries,
    /// candidate masks, `out_rr` cursors) or the visit copy. A flit pushed this pass is not ready
    /// before `now + hop_latency` (validated ≥ 1), so it is never a
    /// candidate this pass, and the visit copy keeps a router a push made
    /// busy unvisited. The moves are overflow-free: each downstream VC has
    /// one upstream output channel moving at most one flit a cycle, so a
    /// buffer with credit in the copy still has room.
    pub(crate) fn switch_pass(&self, now: u64, lo: usize, hi: usize, stage: &mut ShardStage) {
        let fpn = self.fpn;
        // Per-output-channel candidate masks over this router's feeders
        // (sized by the slot's 5-bit port field). Every word a router sets
        // is taken back to zero when its channel is arbitrated.
        let mut cands = [0u64; 32];
        let clock = self.vc_bufs.clock();
        for w in (lo >> 6)..hi.div_ceil(64) {
            // A router's injection bit changes only in its own pass, so the
            // word is exact for every router of this shard not yet visited.
            let inj_word = self.inj_nodes.atomic(w).load(Ordering::Relaxed);
            let mut nword = self.visit[w] & range_word_mask(w, lo, hi);
            while nword != 0 {
                let b = nword.trailing_zeros() as usize;
                let node = (w << 6) | b;
                nword &= nword - 1;
                stage.switch_visits += 1;
                // The feeders that hold a routed worm's flit: the
                // bit-plane intersection prunes unrouted and recovering
                // worms, and an active injection is always routed.
                let mut mask = (self.vc_busy.get(node) & self.vc_switchable.get(node))
                    | (inj_word >> b & 1) << fpn;
                let base = node * (fpn + 1);
                let mut ports = 0u32;
                while mask != 0 {
                    let f = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let slot = self.plane.slot(base + f);
                    let credit = self.credit.atomic(slot.dnode()).load(Ordering::Relaxed);
                    let movable = clock.is_ready(self.plane.movable_stamp(base + f));
                    let ok = movable & (credit >> slot.dbit() & 1 == 0);
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
                    if let Some(plan) = self.faults {
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
                    let cursor = self.out_rr.get(node * self.nports + port);
                    let pick = rr_pick(feeders, usize::from(cursor));
                    let (flit, slot) = self.take(now, node, port, pick, stage);
                    let (dnode, dbit) = (slot.dnode(), slot.dbit());
                    if port == self.d {
                        stage.delivered_flits += 1;
                        if self.consume(flit) {
                            stage.delivered.push(flit);
                        }
                    } else if lo <= dnode && dnode < hi {
                        self.put(now, (dnode, dbit), flit, &mut stage.full_delta);
                    } else {
                        let owner = self.bounds.partition_point(|&b| b <= dnode) - 1;
                        let list = &mut stage.outbound[owner];
                        debug_assert!(list.len() < list.capacity(), "more handoffs than channels");
                        list.push(Parked {
                            node: dnode as u32,
                            feeder: dbit as u8,
                            flit,
                        });
                    }
                }
            }
        }
    }

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
        Slot::of(self.tables, self.v, node, a)
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

    /// The downstream half of the handoffs into this shard's range: the
    /// flits other shards' switch passes parked arrive in their input VCs.
    /// The order of these `put`s cannot matter: each downstream VC
    /// receives at most one flit a cycle, from its one upstream channel;
    /// the node-word updates are ORs and the census deltas sums.
    fn handoff_pass(&self, now: u64, stage: &mut ShardStage) {
        for inbound in &mut stage.inbound {
            for Parked { node, feeder, flit } in inbound.drain(..) {
                let dest = (node as usize, usize::from(feeder));
                self.put(now, dest, flit, &mut stage.full_delta);
            }
        }
    }

    /// The view half of committing a suspected-deadlocked VC to recovery:
    /// it waits for the token, its blocked count restarts.
    pub(crate) fn suspect(&self, idx: usize) {
        self.set_assign(idx / self.fpn, idx % self.fpn, Assign::AwaitToken);
        self.vc_routing.set(idx, 0);
    }

    /// Performs the allocation of a routing win: output-VC claim, escape
    /// marking, and the injection start or VC assignment. The decision
    /// itself (`assign`) was made by [`ApplyCtx::route_pass`] just before.
    /// A won injection's packet is still a source-queue entry: the
    /// interface starts with no packet, and the fold pops the entry into a
    /// record ([`Network::start_packet`]), escaped if `assign` is.
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
        if let Assign::Out { port, vc } = assign {
            let oidx = (node * self.d + usize::from(port)) * self.v + usize::from(vc);
            debug_assert!(!self.out_alloc.get(oidx), "allocating an owned VC");
            self.out_alloc.set(oidx, true);
            if usize::from(vc) < self.escape_vcs {
                if !is_inj {
                    // At most one routing win per packet per cycle.
                    let pid = self.vc_bufs.front_packet(idx);
                    let escaped = self.packets.packet(pid).escaped;
                    escaped.store(true, Ordering::Relaxed);
                }
                stage.escape_allocs += 1;
            }
        }
        if is_inj {
            stage.started.push(node as u32);
            self.inj_nodes.insert_bit(node);
            self.inj.set(
                node,
                InjState {
                    active: None,
                    sent: 0,
                    assign,
                    routed_at: now,
                },
            );
            let slot = self.slot_of(node, assign).expect("a win is switchable");
            self.plane.set_slot(at, slot);
        } else {
            self.set_assign(node, feeder, assign);
            self.vc_routing.set(idx, now);
        }
        // The winner's header was ready to request routing (an injection's
        // flits always are): the 1-cycle routing delay is all that holds it.
        self.plane.set_movable_at(at, now + 1);
    }

    /// The source half of a flit move: bumps the round-robin cursor of
    /// output channel `port` of `node`, takes the flit off feeder `f`
    /// (releasing the feeder's assignment and output VC behind a tail) and
    /// stamps the packet. Returns the flit and the feeder's switch-plane
    /// slot, which names where the flit is headed. Everything written is
    /// state of `node`.
    #[inline(always)]
    fn take(
        &self,
        now: u64,
        node: NodeId,
        port: usize,
        f: usize,
        stage: &mut ShardStage,
    ) -> (Flit, Slot) {
        self.out_rr.set(node * self.nports + port, f as u8 + 1);
        let slot = self.plane.slot(node * (self.fpn + 1) + f);
        debug_assert_eq!(slot.port(), port, "stale switch-plane slot");
        // The tail test reads the configured packet length, so a move's
        // one touch of the packet record is the `last_move` store (and the
        // header's `injected_at`).
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
            if inj.sent == self.packet_len {
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
            if flit.idx + 1 == self.packet_len {
                self.release_output(node, self.vc_assign.get(idx));
                self.set_assign(node, f, Assign::None);
                // The routing cycle gives way to a blocked count of 0.
                self.vc_routing.set(idx, 0);
            }
            self.note_vc_popped(node, f, &mut stage.full_delta);
            (flit, packet)
        };
        packet.last_move.store(now, Ordering::Relaxed);
        stage.progressed = true;
        (flit, slot)
    }

    /// The per-flit half of a delivery: `flit`, taken off its feeder at its
    /// destination, is consumed there. Flits arrive in order, so the
    /// packet's delivered count becomes the flit's index + 1 — a store by
    /// the destination's pass, the count's only writer. Returns whether the
    /// flit was the tail, which [`Network::finish_packet`] then finishes.
    #[inline]
    pub(crate) fn consume(&self, flit: Flit) -> bool {
        let delivered = self.packets.packet(flit.packet).delivered;
        debug_assert_eq!(
            delivered.load(Ordering::Relaxed),
            flit.idx,
            "flits delivered out of order"
        );
        delivered.store(flit.idx + 1, Ordering::Relaxed);
        flit.idx + 1 == self.packet_len
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
/// `lo..hi`. Shard ranges are not word-aligned, so the passes trim the
/// first and last word of their range with this.
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

/// The port at the other end of `port`'s channel: the same dimension, the
/// opposite direction.
#[inline]
#[must_use]
pub(crate) fn opposite_port(port: usize) -> usize {
    let (dim, dir) = dim_dir_of(port);
    port_of(dim, dir.opposite())
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

    impl Network {
        /// The starvation scan alone, as the route pass runs it on a scan
        /// cycle — over every router, through the whole-network view —
        /// and its fold: a test's handle on the scan without the routing
        /// around it.
        fn starvation_stage(&mut self, now: u64, timeout: u64) {
            assert_eq!(self.cfg.deadlock, DeadlockMode::Recovery { timeout });
            let nodes = self.torus.node_count();
            let mut stages = std::mem::take(&mut self.plan.stages);
            let view = self.apply_ctx();
            if view.is_scan_cycle(now) {
                for node in 0..nodes {
                    view.starvation_scan(now, node, &mut stages[0]);
                }
            }
            self.fold_stages(Pass::Route, now, &mut stages);
            self.plan.stages = stages;
        }
    }

    /// Re-sharding a busy network mid-run moves every held flit line into
    /// its new shard's pool and changes nothing else: a recovery-mode
    /// 4-ary 3-cube under hot Bernoulli load, re-split 1 → 3 → 2 → 8 → 1
    /// while its rings hold flits, audits clean after every split and ends
    /// in the checkpoint bytes of a run at one shard throughout.
    #[test]
    fn set_shards_mid_run_moves_lines_and_keeps_the_run() {
        let cfg = NetConfig {
            radix: 4,
            dimensions: 3,
            ..NetConfig::small(DeadlockMode::Recovery { timeout: 8 })
        };
        let run = |splits: &[(u64, usize)]| {
            let mut net = Network::new(cfg.clone()).unwrap();
            let mut src = crate::testnet::arrivals(9, 64, 40);
            for &(at, shards) in splits {
                while net.now < at {
                    net.cycle_from(&mut src, &mut NoControl);
                }
                let held = net.flit_lines().held;
                assert!(held > 0, "vacuous: no ring holds a line at cycle {at}");
                net.set_shards(shards);
                assert_eq!((net.shards(), net.flit_lines().held), (shards, held));
                let report = net.audit();
                assert!(report.is_clean(), "{shards} shards at {at}: {report}");
            }
            for _ in 0..300 {
                net.cycle_from(&mut src, &mut NoControl);
            }
            let mut enc = checkpoint::Enc::new();
            net.save_state(&mut enc);
            enc.into_vec()
        };
        let splits = [(300, 3), (500, 2), (700, 8), (900, 1)];
        assert_eq!(run(&splits), run(&[(900, 1)]));
    }

    /// Stepping under saturating random traffic must produce bit-identical
    /// state for every shard count: no router's pass reads what another's
    /// writes, and the tail commits in ascending-node order regardless of
    /// the partition. Recovery exercises the token queue and the
    /// starvation scan;
    /// avoidance the escape VCs, and (with most traffic delivered rather
    /// than recovered) the delivery slot's bit-63 credit encoding at nodes
    /// on both sides of unaligned shard edges. The fault plan stalls a
    /// delivery channel and a link next to shard edges, so deliveries and
    /// handoffs are withheld by the pass and `take`n by the shards' own
    /// passes around them. The source queues run full, so every cycle
    /// injections win routing in several shards and the fold gives their
    /// packets records: the ids, which the checkpoint bytes hold, are the
    /// same at every count. Seven and eight shards are more than most
    /// hosts' cores give threads to.
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
                let mut src = move |now: u64, offer: &mut Offer<'_>| {
                    for node in 0..nodes {
                        let mut x =
                            (now + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (node as u64) << 17;
                        x ^= x >> 29;
                        if x % 100 < 55 {
                            offer(node, (x >> 32) as usize % nodes);
                        }
                    }
                };
                for _ in 0..1_200 {
                    net.cycle_from(&mut src, &mut NoControl);
                }
                let full = (0..nodes).filter(|&n| net.source_q.is_full(n)).count();
                let mut enc = checkpoint::Enc::new();
                net.save_state(&mut enc);
                (enc.into_vec(), *net.counters(), full)
            };
            let (base, c, full) = run(1);
            assert!(c.delivered_packets > 0, "vacuous: nothing was delivered");
            assert!(full > 1, "vacuous: {full} source queue(s) full");
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

    /// Deliveries finish the same cycle at every shard count, not merely by
    /// the end of the run: a saturated recovery network with a hotspot is
    /// stepped at 1, 2, 3 and 8 shards side by side, and after every cycle
    /// each sharded twin must have drained the same delivery records and
    /// agree on the cumulative delivered flits, the packets finished
    /// through the recovery drain (some are), `last_delivery_at` and
    /// `last_progress_at`. The end-state bytes cannot see a one-cycle slip
    /// of `last_delivery_at` that a later delivery overwrites; this can,
    /// and it also holds `last_delivery_at` to the cycle of every flit
    /// delivered, body flit or tail.
    #[test]
    fn deliveries_finish_in_lockstep_at_every_shard_count() {
        use faults::HotspotFault;
        let cfg = NetConfig {
            radix: 4,
            dimensions: 3,
            ..NetConfig::small(DeadlockMode::Recovery { timeout: 8 })
        };
        let plan = FaultPlan {
            hotspots: vec![HotspotFault {
                node: 21,
                start: 200,
                end: 600,
            }],
            ..FaultPlan::none(0)
        };
        let mut nets: Vec<Network> = [1, 2, 3, 8]
            .into_iter()
            .map(|shards| {
                let mut net = Network::new(cfg.clone()).unwrap();
                net.install_faults(plan.clone()).unwrap();
                net.set_shards(shards);
                net
            })
            .collect();
        let nodes = nets[0].torus.node_count();
        let mut src = crate::testnet::arrivals(3, nodes, 55);
        let mut body_only = 0;
        for _ in 0..1_200 {
            let mut seen = Vec::new();
            for net in &mut nets {
                let (now, flits) = (net.now, net.delivered_flits_cum());
                net.cycle_from(&mut src, &mut NoControl);
                let records: Vec<DeliveredRecord> = net.drain_deliveries().collect();
                let delivered = net.delivered_flits_cum() - flits;
                if delivered > 0 {
                    assert_eq!(net.last_delivery_at(), now, "shards={}", net.shards());
                }
                let state = (
                    records,
                    net.delivered_flits_cum(),
                    net.counters().recovered_packets,
                    net.last_delivery_at(),
                    net.last_progress_at(),
                );
                match seen.first() {
                    None => body_only += usize::from(delivered > 0 && state.0.is_empty()),
                    Some(base) => assert!(
                        state == *base,
                        "cycle {now}: shards={} diverged from 1",
                        net.shards()
                    ),
                }
                seen.push(state);
            }
        }
        let c = nets[0].counters();
        assert!(
            c.recovered_packets > 0,
            "vacuous: nothing finished through recovery"
        );
        assert!(body_only > 0, "vacuous: no cycle delivered only body flits");
        assert!(
            c.hotspot_stall_cycles > 0,
            "vacuous: the hotspot stalled nothing"
        );
    }

    /// Credit freed by a pop is usable the next cycle, whatever order the
    /// routers are visited in. In a 4-ary 2-cube, node 9 streams a packet
    /// into node 5, one hop down in y, while a hotspot holds 5's delivery
    /// channel: the worm fills 5's input VC and still has flits to send.
    /// The cycle the hotspot lifts, 5 — visited first, as the lower index —
    /// pops that full VC, and 9 must not move into it before the next
    /// cycle. At two shards the routers sit on opposite sides of the edge
    /// (`0..8 | 8..16`): once with the coordinator running both shards in
    /// ascending order, once with a worker beside it.
    #[test]
    fn credit_freed_by_a_pop_is_usable_only_next_cycle() {
        use faults::HotspotFault;
        const UP: usize = 9;
        const DOWN: usize = 5;
        const LIFT: u64 = 40;
        let cfg = NetConfig {
            radix: 4,
            dimensions: 2,
            ..NetConfig::small(DeadlockMode::Avoidance)
        };
        for (shards, participants) in [(1, 1), (2, 1), (2, 2)] {
            let mut net = Network::new(cfg.clone()).unwrap();
            let hotspots = vec![HotspotFault {
                node: DOWN,
                start: 0,
                end: LIFT,
            }];
            let plan = FaultPlan {
                hotspots,
                ..FaultPlan::none(0)
            };
            net.install_faults(plan).unwrap();
            net.set_shards(shards);
            if shards > 1 {
                assert!(net.plan.bounds[1] <= UP && DOWN < net.plan.bounds[1]);
                net.plan.pool = Some(WorkerPool::new(shards, participants));
            }
            let mut src = |now: u64, offer: &mut Offer<'_>| {
                if now == 0 {
                    offer(UP, DOWN);
                }
            };
            for _ in 0..LIFT {
                net.cycle_from(&mut src, &mut NoControl);
            }
            let fpn = net.d * net.v;
            let vc = (DOWN * fpn..(DOWN + 1) * fpn)
                .find(|&idx| !net.vc_bufs.is_empty(idx))
                .expect("the worm reached DOWN");
            assert_eq!(net.vc_bufs.len(vc), net.depth, "DOWN's input VC is full");
            let sent = net.inj[UP].sent;
            assert!(sent < net.packet_len, "UP has flits left to send");

            let case = format!("{shards} shard(s), {participants} participant(s)");
            net.cycle_from(&mut src, &mut NoControl);
            assert_eq!(net.counters.delivered_flits, 1, "{case}: DOWN pops");
            assert_eq!(
                net.inj[UP].sent, sent,
                "{case}: UP moved on credit freed this cycle"
            );
            assert_eq!(net.vc_bufs.len(vc), net.depth - 1, "{case}");
            net.cycle_from(&mut src, &mut NoControl);
            assert_eq!(
                net.inj[UP].sent,
                sent + 1,
                "{case}: UP moves on the credit next cycle"
            );
        }
    }

    /// The starvation predicate, poked directly on a hot network: every
    /// packet is stamped as having just moved but one, the worm of a ready,
    /// `Out`-assigned header. Still for `timeout − 1` cycles on a scan
    /// cycle, it stays routed; still for `timeout`, it is committed — on a
    /// scan cycle only.
    #[test]
    fn starvation_scan_commits_a_header_still_for_timeout_cycles() {
        let timeout = 8;
        let mut net = crate::testnet::hot_net();
        assert_eq!(net.cfg.deadlock, DeadlockMode::Recovery { timeout });
        let waiting = |net: &Network| {
            (0..net.vc_assign.len()).find(|&i| {
                let header = net.vc_bufs.front(i).is_some_and(|f| f.idx == 0);
                header && !net.vc_queued[i] && matches!(net.vc_assign[i], Assign::Out { .. })
            })
        };
        let mut src = crate::testnet::arrivals(1, 16, 60);
        while waiting(&net).is_none() && net.now < 10_000 {
            net.cycle_from(&mut src, &mut NoControl);
        }
        let idx = waiting(&net).expect("no routed header waiting in a saturated net");
        let Assign::Out { port, vc } = net.vc_assign[idx] else {
            unreachable!()
        };
        let oidx = net.vc_idx(idx / (net.d * net.v), port.into(), vc.into());
        let pid = net.vc_bufs.front_packet(idx);
        let still_for = |net: &mut Network, cycles: u64, now: u64| {
            for id in 0..net.packets.slot_count() as PacketId {
                net.packets.get_mut(id).last_move = now;
            }
            net.packets.get_mut(pid).last_move = now - cycles;
        };
        // A scan cycle by which every front flit is ready.
        let scan = (net.now + net.cfg.hop_latency).next_multiple_of(timeout);
        let timeouts = net.counters.recovery_timeouts;
        for (now, still) in [(scan, timeout - 1), (scan + 1, timeout)] {
            still_for(&mut net, still, now);
            net.starvation_stage(now, timeout);
            assert_eq!(net.vc_assign[idx], Assign::Out { port, vc }, "cycle {now}");
            assert_eq!(net.counters.recovery_timeouts, timeouts, "cycle {now}");
        }
        let now = scan + timeout;
        still_for(&mut net, timeout, now);
        net.starvation_stage(now, timeout);
        assert_eq!(net.vc_assign[idx], Assign::AwaitToken);
        assert!(!net.out_alloc[oidx], "output VC still allocated");
        assert!(net.vc_queued[idx]);
        let tail = net.token_queue.len(0) - 1;
        assert_eq!(net.token_queue.get(0, tail), idx as u32);
        assert_eq!(net.counters.recovery_timeouts, timeouts + 1);
        let report = net.audit();
        assert!(report.is_clean(), "{report}");
    }

    /// One scan cycle of a saturated recovery network in which every worm
    /// has been still for the timeout and every blocked unrouted header is
    /// one cycle from suspicion: route-pass suspects and starvation trips
    /// both come from several shards at 2, 3 and 8 shards, and at every
    /// shard count the trips join the token queue after every suspect, in
    /// ascending VC order, leaving the same queue and the same checkpoint
    /// bytes.
    #[test]
    fn starvation_trips_join_the_token_queue_after_every_suspect_at_any_shard_count() {
        let timeout = 8;
        let cfg = NetConfig {
            radix: 4,
            dimensions: 3,
            ..NetConfig::small(DeadlockMode::Recovery { timeout })
        };
        const SHARDS: [usize; 3] = [2, 3, 8];
        // Whether `vcs` lie in at least two shards at every count.
        let spread = |net: &Network, vcs: &[u32]| {
            let fpn = net.d * net.v;
            SHARDS.iter().all(|&shards| {
                let bounds = ShardPlan::new(shards, &net.tables, net.v, net.cfg.deadlock).bounds;
                let mut hit: Vec<usize> = vcs
                    .iter()
                    .map(|&i| bounds.partition_point(|&b| b <= i as usize / fpn))
                    .collect();
                hit.dedup();
                hit.len() >= 2
            })
        };
        // The unqueued VCs this cycle's scan trips — routed, a ready header
        // at the front — and one ready unrouted header of every router
        // with two, of which routing leaves at least one to suspicion.
        let candidates = |net: &Network| {
            let now = net.now;
            let fpn = net.d * net.v;
            let header = |i: usize| {
                let front = net.vc_bufs.front(i);
                front.is_some_and(|f| f.idx == 0 && f.ready_at <= now)
            };
            let trips: Vec<u32> = (0..net.vc_assign.len())
                .filter(|&i| header(i) && !net.vc_queued[i])
                .filter(|&i| matches!(net.vc_assign[i], Assign::Out { .. }))
                .map(|i| i as u32)
                .collect();
            let contested: Vec<u32> = (0..net.torus.node_count())
                .filter_map(|n| {
                    let mut unrouted = (n * fpn..(n + 1) * fpn)
                        .filter(|&i| header(i) && net.vc_assign[i] == Assign::None);
                    unrouted.nth(1).map(|i| i as u32)
                })
                .collect();
            (trips, contested)
        };
        let run = |shards: usize| {
            let mut net = Network::new(cfg.clone()).unwrap();
            net.set_shards(shards);
            let mut src = crate::testnet::arrivals(1, 64, 60);
            // A scan cycle with the token held — no grant pops the queue —
            // and work for the scan and the suspicion in several shards.
            loop {
                assert!(net.now < 20_000, "no scan cycle fit the test");
                if net.now > 1_000 && net.now.is_multiple_of(timeout) && net.recovery.is_some() {
                    let (trips, contested) = candidates(&net);
                    if spread(&net, &trips) && spread(&net, &contested) {
                        break;
                    }
                }
                net.cycle_from(&mut src, &mut NoControl);
            }
            let now = net.now;
            for id in 0..net.packets.slot_count() as PacketId {
                net.packets.get_mut(id).last_move = now - timeout;
            }
            // Every header assigned `None`; an idle VC's count stays 0.
            for idx in 0..net.vc_assign.len() {
                if net.vc_assign[idx] == Assign::None && !net.vc_bufs.is_empty(idx) {
                    net.vc_routing[idx] = timeout - 1;
                }
            }
            let routed: Vec<bool> = net
                .vc_assign
                .iter()
                .map(|a| matches!(a, Assign::Out { .. }))
                .collect();
            let queued = net.token_queue.len(0);
            net.cycle_from(&mut src, &mut NoControl);
            let queue: Vec<u32> = (0..net.token_queue.len(0))
                .map(|i| net.token_queue.get(0, i))
                .collect();
            // A trip's header was routed before the cycle or in its route
            // pass — whose win stamped it movable at `now + 1`, where a
            // suspect's ready header stands movable since it came to the
            // front — and a suspect's is still unrouted. Each kind is in VC
            // order, every suspect before every trip.
            let fpn = net.d * net.v;
            let routed_now = |i: usize| {
                let at = i / fpn * (fpn + 1) + i % fpn;
                net.plane.movable_stamp(at) == (now + 1) as u32
            };
            let tripped = |&i: &u32| routed[i as usize] || routed_now(i as usize);
            let fresh = &queue[queued..];
            let (suspects, trips) =
                fresh.split_at(fresh.iter().take_while(|i| !tripped(i)).count());
            assert!(trips.iter().all(tripped), "shards={shards}: {fresh:?}");
            for (what, vcs) in [("suspects", suspects), ("trips", trips)] {
                assert!(vcs.is_sorted(), "shards={shards}: {what} {vcs:?}");
                assert!(spread(&net, vcs), "vacuous: {what} {vcs:?}");
            }
            let report = net.audit();
            assert!(report.is_clean(), "shards={shards}: {report}");
            let mut enc = checkpoint::Enc::new();
            net.save_state(&mut enc);
            (queue, enc.into_vec())
        };
        let base = run(1);
        for shards in SHARDS {
            assert!(run(shards) == base, "shards={shards} diverged from 1");
        }
    }

    /// Escape is sticky for a packet, not for its slot. Once a packet that
    /// took an escape VC is delivered, the record the next won injection
    /// gets in its slot is not escaped, and alone on its links that packet
    /// routes adaptively.
    #[test]
    fn a_recycled_slot_is_not_escaped() {
        let cfg = NetConfig {
            radix: 4,
            dimensions: 2,
            ..NetConfig::small(DeadlockMode::Avoidance)
        };
        let mut net = Network::new(cfg).unwrap();
        let nodes = net.torus.node_count();
        let mut src = crate::testnet::arrivals(1, nodes, 60);
        for _ in 0..1_500 {
            net.cycle_from(&mut src, &mut NoControl);
        }
        for _ in 0..2_000 {
            net.cycle_from(&mut |_, _| {}, &mut NoControl);
        }
        assert_eq!(net.live_packets(), 0, "the network did not drain");
        let escapes = net.counters.escape_allocations;
        assert!(escapes > 0, "vacuous: nothing escaped");
        // Put a slot an escaped packet left on top of the free list, where
        // the next won injection takes it, and send a one-hop packet.
        let at = net
            .packets
            .free_ids()
            .iter()
            .position(|&id| net.packets.get(id).escaped);
        let free = net.packets.free_ids_mut();
        let id = free.remove(at.expect("vacuous: no escaped slot freed"));
        free.push(id);
        let (src, dst) = (0, net.tables.neighbor(0, port_of(0, Dir::Plus)));
        net.cycle_from(&mut |_, offer| offer(src, dst), &mut NoControl);
        assert_eq!(
            net.inj[src].active,
            Some(id),
            "the injection took another slot"
        );
        assert!(!net.packets.get(id).escaped, "the recycled slot is escaped");
        for _ in 0..200 {
            net.cycle_from(&mut |_, _| {}, &mut NoControl);
        }
        assert_eq!(net.live_packets(), 0, "the packet was not delivered");
        assert_eq!(
            net.counters.escape_allocations, escapes,
            "a packet alone on its links took an escape VC"
        );
    }

    /// A move stamp keeps 32 bits of `movable_at`, yet a busy network
    /// stepped across the 2³² wrap of the cycle — a multiple of 2³¹, where
    /// flits and move stamps are re-stamped — moves every flit exactly as
    /// the same network does far from it: restored with its clock moved
    /// by a multiple of the scan period to 4 cycles short of 2³², fed the
    /// same arrivals, it writes the same checkpoint past the clock after
    /// 12 cycles (every stamp there is an offset back from `now`), and
    /// the debug build's per-cycle audit checks the plane on the way.
    #[test]
    fn a_busy_network_steps_across_the_cycle_wrap_as_anywhere() {
        let mut net = crate::testnet::hot_net();
        let snapshot = |net: &Network| {
            let mut enc = checkpoint::Enc::new();
            net.save_state(&mut enc);
            enc.into_vec()
        };
        let bytes = snapshot(&net);
        let shift = (1u64 << 32) - 4 - net.now;
        assert!(shift.is_multiple_of(8), "the scan cycles move");
        let mut moved = bytes.clone();
        moved[..8].copy_from_slice(&(net.now + shift).to_le_bytes());
        let mut far = Network::new(net.config().clone()).unwrap();
        far.restore_state(&mut checkpoint::Dec::new(&moved))
            .unwrap();
        assert_eq!(snapshot(&far)[8..], bytes[8..]);
        let mut src = crate::testnet::arrivals(1, 16, 60);
        let mut far_src = crate::testnet::arrivals(1, 16, 60);
        for _ in 0..12 {
            net.cycle_from(&mut src, &mut NoControl);
            far.cycle_from(
                &mut |now, offer| far_src(now - shift, offer),
                &mut NoControl,
            );
        }
        assert_eq!(far.now, (1 << 32) + 8);
        assert_eq!(snapshot(&far)[8..], snapshot(&net)[8..]);
        assert_eq!(far.counters(), net.counters());
        assert!(far.audit().is_clean());
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
