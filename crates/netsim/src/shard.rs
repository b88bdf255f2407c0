//! Intra-simulation sharding: the shard plan, per-shard op staging, the
//! checked raw-cell views the apply phase writes through, and the
//! persistent worker pool that executes the parallel phases.
//!
//! One [`crate::Network`] is stepped across a fixed set of *shards* —
//! contiguous node ranges — with a deterministic per-cycle barrier. The
//! route and switch stages each split into phases, at **every** shard
//! count:
//!
//! 1. **Decide** (parallel): every shard scans its own node range of the
//!    *pre-phase* network state through a shared `&Network` borrow and
//!    stages its decisions as typed ops into its own [`ShardStage`]
//!    buffer. Nothing is mutated, so workers never race. A flit move is
//!    classified at staging time by where its downstream half lands: a
//!    **local hop** (downstream VC inside the staging shard's own node
//!    range), a **delivery** (no downstream VC; the flit is consumed at
//!    its destination) or a **handoff** (downstream VC in another shard).
//! 2. **Apply** (parallel): each shard applies its own ops through an
//!    [`ApplyCtx`] view of its node range — everything that writes only
//!    the shard's own state. That is all of a route op and of a local hop,
//!    and the *source* half (`take`) of a delivery and of a handoff; the
//!    taken flits are set aside in the stage (`delivered`, `parked`).
//!    Ops of different shards touch disjoint state (or commute exactly —
//!    see the view contract on [`ApplyCtx`]), so the result is independent
//!    of execution order.
//! 3. **Tail** (sequential): the caller's thread `put`s the parked
//!    handoffs into their downstream VCs through a whole-network view and
//!    folds each shard's deltas and globally ordered results — suspects
//!    into the token queue, delivered flits into the delivery ring — in
//!    ascending shard order, within a shard in staging (ascending node)
//!    order. Because shards are contiguous ascending ranges, that visits
//!    the globally ordered structures in global ascending-node order for
//!    *any* shard count.
//!
//! With one shard the caller's thread runs the three phases inline over a
//! whole-network view; with more, a [`WorkerPool`] executes decide and
//! apply. Its participants — the caller's thread (the *coordinator*,
//! participant 0) plus `min(S, cores) − 1` long-lived worker threads —
//! each have a *home run* of shards, a contiguous slice of `0..S`. A
//! participant claims its home shards first and sweeps the other shards
//! only after finishing its own; one claim covers a shard's decide *and*
//! its apply. In steady state every shard is therefore decided and
//! applied by the same thread pass after pass and its state never leaves
//! that core's caches, while a parked, late or preempted worker never
//! stalls a pass: whoever is running sweeps up what nobody claimed. The
//! result depends only on the shard id, never on who ran it. The claim
//! protocol ([`Board`]) is a handful of atomics and park/unpark — no
//! per-cycle thread spawns, no lock on the hot path.
//!
//! This is the one module of the crate allowed to contain `unsafe`: the
//! [`Cells`] accessors, the lifetime-erasing per-shard view constructor
//! [`ApplyCtx::shard`], and the pool's job slot. Everything built on them —
//! the ring, wheel and packet views, the whole state transition — is safe
//! code that panics on an index outside its view's range.
//!
//! The plan is runtime-only configuration: it is never serialized and
//! never enters a checkpoint fingerprint, so a snapshot taken at S shards
//! restores at any S′ by construction. The op buffers are preallocated at
//! their per-cycle worst case, keeping the steady-state cycle pipeline
//! allocation-free (see `tests/zero_alloc.rs`).

use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::network::{Assign, InjState, Network};
use crate::packet::{Flit, PacketCell, PacketId, PacketInfo};
use crate::plane::{Slot, SwitchPlaneView};
use crate::ring::{FlitRingsView, IdRingView};
use crate::wheel::TimerWheelView;

/// One staged routing-stage decision. Ops are applied in staging order,
/// which per node is: the arbiter cursor update, the winner's allocation
/// (if it routed), then blocked-cycle accounting per losing requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RouteOp {
    /// Demand-slotted round-robin cursor update of `node`'s arbiter.
    Rr { node: u32, cursor: u8 },
    /// The arbiter's winning feeder routed: perform the allocation tail
    /// (output-VC claim, escape marking, injection start or VC
    /// assignment + wheel enrollment).
    Win {
        node: u32,
        feeder: u8,
        assign: Assign,
    },
    /// A losing (or unroutable) requester accrues one blocked cycle.
    Blocked { idx: u32 },
}

/// One staged switch-stage decision: output channel `port` of `node`
/// moves one flit from feeder `pick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SwitchOp {
    pub node: u32,
    pub port: u8,
    pub pick: u8,
}

/// A handoff whose source half has been applied: `flit`, taken off its
/// feeder by the source shard, waits for the sequential tail to `put` it
/// into input VC `feeder` of `node` — another shard's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Parked {
    pub node: u32,
    pub feeder: u8,
    pub flit: Flit,
}

/// Per-shard staging buffer: the mailbox decisions travel through between
/// the decide phase and the apply, what the apply sets aside for the
/// sequential tail, and the sink of the apply's deltas to global scalars.
#[derive(Debug, Default)]
pub(crate) struct ShardStage {
    /// Ops staged by this shard's route decide, in node order.
    pub route_ops: Vec<RouteOp>,
    /// The input VCs of requesters that tripped Disha's suspicion
    /// predicate. The apply demotes them to `AwaitToken`; the fold commits
    /// them to the recovery token queue (a single global FIFO) in staging
    /// order.
    pub suspects: Vec<u32>,
    /// Local hops staged by this shard's switch decide, in (node, port)
    /// order: moves whose downstream VC lies in this shard's own range.
    pub switch_ops: Vec<SwitchOp>,
    /// Moves onto a delivery channel. The apply takes the flit off its
    /// feeder into `delivered`.
    pub deliveries: Vec<SwitchOp>,
    /// Moves whose downstream VC belongs to another shard. The apply takes
    /// the flit off its feeder into `parked`.
    pub handoffs: Vec<SwitchOp>,
    /// Taken handoffs awaiting the tail's `put` (empty between passes).
    pub parked: Vec<Parked>,
    /// Flits taken off delivery moves, consumed at their destination by
    /// the fold — the global delivery-ring FIFO and packet release order
    /// (empty between passes).
    pub delivered: Vec<Flit>,
    /// Routers this shard's route decide visited (counter delta, folded
    /// into [`crate::counters::Counters`] after the pass).
    pub route_visits: u64,
    /// Routers this shard's switch decide visited.
    pub switch_visits: u64,
    /// Ready flits stalled on faulted links / hot delivery channels this
    /// cycle (counter deltas).
    pub link_stalls: u64,
    pub hotspot_stalls: u64,
    /// Apply deltas, folded sequentially after the pass: escape
    /// allocations and injected packets (counter sums), the net change to
    /// the full-buffer census, and whether any flit moved (advances
    /// `last_progress_at`).
    pub escape_allocs: u64,
    pub injected: u64,
    pub full_delta: i32,
    pub progressed: bool,
    /// Cumulative ops ever staged into / applied from this buffer, each
    /// counted once (a handoff when the tail completes it). The audit's
    /// mailbox-conservation invariant: between cycles the two are equal
    /// and every vector is empty — every staged decision was applied, none
    /// invented.
    pub staged_total: u64,
    pub applied_total: u64,
}

impl ShardStage {
    /// Whether any staged op awaits its apply.
    pub fn has_ops(&self) -> bool {
        !(self.route_ops.is_empty()
            && self.suspects.is_empty()
            && self.switch_ops.is_empty()
            && self.deliveries.is_empty()
            && self.handoffs.is_empty())
    }

    /// A stage for a shard of `span` nodes with `fpn` input-VC feeders and
    /// `nports` output channels each, every buffer at its per-cycle worst
    /// case: a router stages at most `fpn + 2` route ops (cursor, winner,
    /// and one blocked entry or suspect per input feeder), one flit move
    /// per output channel and one delivery.
    fn with_capacity(span: usize, fpn: usize, nports: usize) -> Self {
        ShardStage {
            route_ops: Vec::with_capacity(span * (fpn + 2)),
            suspects: Vec::with_capacity(span * fpn),
            switch_ops: Vec::with_capacity(span * nports),
            deliveries: Vec::with_capacity(span),
            handoffs: Vec::with_capacity(span * nports),
            parked: Vec::with_capacity(span * nports),
            delivered: Vec::with_capacity(span),
            ..ShardStage::default()
        }
    }
}

/// The shard partition of one network: contiguous node ranges, the
/// per-shard op buffers and (when sharded) the persistent worker pool.
/// Runtime-only: never serialized, never fingerprinted.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Shard `s` owns nodes `bounds[s]..bounds[s + 1]`. Ascending,
    /// `bounds[0] == 0`, last element == node count, every range
    /// non-empty.
    pub bounds: Vec<usize>,
    /// Per-shard decision mailboxes.
    pub stages: Vec<ShardStage>,
    /// Persistent workers executing the parallel phases (`None` with one
    /// shard). Attached by `Network::set_shards`; dropping the plan joins
    /// the workers, so no thread outlives the network.
    pub pool: Option<WorkerPool>,
}

impl ShardPlan {
    /// Builds a plan with `shards` contiguous, near-equal node ranges.
    /// The effective shard count is clamped to `[1, nodes]`; ranges use
    /// the `s * nodes / shards` split so every shard is non-empty and
    /// sizes differ by at most one node (ranges are *not* word-aligned —
    /// workers mask bitset words at range edges).
    ///
    /// `fpn` is input-VC feeders per node (`d * v`), `nports` output
    /// channels per node (`d + 1`); both size the stages' worst-case
    /// per-cycle capacity ([`ShardStage::with_capacity`]). No worker pool
    /// is attached here — `Network::set_shards` does that, so plan
    /// construction in tests stays thread-free.
    pub fn new(shards: usize, nodes: usize, fpn: usize, nports: usize) -> Self {
        let shards = shards.clamp(1, nodes.max(1));
        let mut bounds = Vec::with_capacity(shards + 1);
        for s in 0..=shards {
            bounds.push(s * nodes / shards);
        }
        let stages = (0..shards)
            .map(|s| ShardStage::with_capacity(bounds[s + 1] - bounds[s], fpn, nports))
            .collect();
        ShardPlan {
            bounds,
            stages,
            pool: None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.stages.len()
    }
}

// ---------------------------------------------------------------------
// Checked raw cells and the apply view
// ---------------------------------------------------------------------

/// A borrowed slice seen as raw cells: pointer, length, and the index
/// range this handle *owns*. Plain [`Cells::get`]/[`Cells::set`] panic
/// outside the owned range; indices owned by nobody in particular (bitset
/// words straddling a shard edge, packet-id-indexed fields) are reached
/// through the relaxed-atomic accessors instead. A handle is neither
/// `Send` nor `Sync`: on one thread, any number of copies over one borrow
/// are as harmless as `&[Cell<T>]`, and the only way a copy reaches
/// another thread is the pool's job slot, under [`ApplyCtx::shard`]'s
/// contract.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cells<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Owned indices are `lo .. lo + span`.
    lo: usize,
    span: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

impl<'a, T: Copy> Cells<'a, T> {
    /// Cells over all of `s`, owning every index.
    pub(crate) fn new(s: &'a mut [T]) -> Self {
        Cells {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            lo: 0,
            span: s.len(),
            _borrow: PhantomData,
        }
    }

    /// The same cells owning only `lo..hi`, a sub-range of what `self`
    /// owns.
    pub(crate) fn narrow(self, lo: usize, hi: usize) -> Self {
        assert!(
            self.lo <= lo && lo <= hi && hi <= self.lo + self.span,
            "narrowing {lo}..{hi} escapes the owned range"
        );
        Cells {
            lo,
            span: hi - lo,
            ..self
        }
    }

    #[inline]
    fn owned(&self, i: usize) -> *mut T {
        if i.wrapping_sub(self.lo) >= self.span {
            not_owned(i, self.lo, self.span);
        }
        self.ptr.wrapping_add(i)
    }

    #[inline]
    fn shared(&self, i: usize) -> *mut T {
        assert!(i < self.len, "index {i} is out of bounds ({})", self.len);
        self.ptr.wrapping_add(i)
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        // SAFETY: `owned` bounds-checked `i` (owned ranges lie inside
        // `0..len`), the borrow `'a` keeps the storage alive, and no other
        // thread touches an index this handle owns (see the struct docs).
        unsafe { *self.owned(i) }
    }

    #[inline]
    pub(crate) fn set(&self, i: usize, v: T) {
        // SAFETY: as in `get`.
        unsafe { *self.owned(i) = v }
    }
}

/// The ownership check's failure path, kept out of line: the check sits on
/// every plain access of the apply hot path.
#[cold]
#[inline(never)]
fn not_owned(i: usize, lo: usize, span: usize) -> ! {
    panic!(
        "index {i} is outside the view's owned range {lo}..{}",
        lo + span
    )
}

impl Cells<'_, u64> {
    /// Word `w`, whoever owns it, as an atomic.
    #[inline]
    pub(crate) fn atomic(&self, w: usize) -> &AtomicU64 {
        // SAFETY: `shared` bounds-checked `w`; `u64` storage is
        // `AtomicU64`-aligned on every 64-bit target; words reached this
        // way are never accessed plainly while a pass runs.
        unsafe { AtomicU64::from_ptr(self.shared(w)) }
    }

    /// Sets bit `i` of the bitset these words pack. One word packs 64
    /// nodes and shard edges are not word-aligned, so the update is an
    /// atomic RMW (which commutes bit-for-bit) — skipped when the bit,
    /// which only its owner's ops change, already reads set.
    #[inline]
    pub(crate) fn insert_bit(&self, i: usize) {
        let (word, bit) = (self.atomic(i >> 6), 1u64 << (i & 63));
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Clears bit `i`; see [`Cells::insert_bit`].
    #[inline]
    pub(crate) fn remove_bit(&self, i: usize) {
        let (word, bit) = (self.atomic(i >> 6), 1u64 << (i & 63));
        if word.load(Ordering::Relaxed) & bit != 0 {
            word.fetch_and(!bit, Ordering::Relaxed);
        }
    }
}

impl Cells<'_, bool> {
    /// Flag `i`, whoever owns it, as an atomic.
    #[inline]
    pub(crate) fn atomic(&self, i: usize) -> &AtomicBool {
        // SAFETY: as in `Cells::<u64>::atomic`.
        unsafe { AtomicBool::from_ptr(self.shared(i)) }
    }
}

impl Cells<'_, PacketInfo> {
    /// The fields of packet `id` a pass may touch. Packet ids are not
    /// range-owned — several flits of one worm can move in different
    /// shards in one cycle — so the stamps are atomics; `len` is written
    /// only when a packet is generated, never during a pass.
    #[inline]
    pub(crate) fn packet(&self, id: PacketId) -> PacketCell<'_> {
        let p = self.shared(id as usize);
        // SAFETY: `shared` bounds-checked `id`; the field projections
        // create no reference to the whole slot, and the two stamps are
        // only ever accessed atomically while a pass runs.
        unsafe {
            PacketCell {
                len: (*p).len,
                last_move: AtomicU64::from_ptr(&raw mut (*p).last_move),
                injected_at: AtomicU64::from_ptr(&raw mut (*p).injected_at),
            }
        }
    }
}

/// A view of the network state the route/switch transition writes, over
/// one node range: what `Network::apply_ctx` builds for the whole network
/// from `&mut Network`, and what [`ApplyCtx::shard`] narrows to one
/// shard. The transition itself (`impl ApplyCtx` in `network.rs`) is safe
/// code over these accessors.
///
/// # The view contract
///
/// * **Owned-range plain access** — everything indexed by node or by
///   input/output VC (`route_rr`, `out_rr`, `vc_assign`, `vc_routed_at`,
///   `vc_blocked`, `out_alloc`, `inj`, the per-node `vc_*` bit-plane
///   words, the switch plane's slots and move cycles, the flit and source
///   rings, wheel deadlines). An index outside the view's node range
///   panics.
/// * **Relaxed atomics** — state no node range owns: the node-summary
///   bitsets and wheel bucket words (64 nodes/VCs per word, shard edges
///   unaligned; each bit is changed only by its owner's ops), and the
///   packet-id-indexed `escaped` flags and `last_move`/`injected_at`
///   stamps (one writer per cycle, or several writing the same value).
/// * **Deferred to the tail** — a handoff's `put` (its downstream VC is
///   another shard's: the source shard's view `take`s, the tail's whole
///   view `put`s), and everything globally ordered or global: the token
///   queue, the delivery ring and packet release, and the scalars
///   (`counters`, `full_buffers`, `last_progress_at`), which a view
///   reaches only as [`ShardStage`] lists and deltas folded after the
///   pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ApplyCtx<'a> {
    pub d: usize,
    pub v: usize,
    /// Input-VC feeders per node (`d * v`); the injection feeder's index.
    pub fpn: usize,
    /// Output channels per node (`d + 1`).
    pub nports: usize,
    pub depth: usize,
    pub escape_vcs: usize,
    pub hop_latency: u64,
    /// Disha detection timeout; 0 in avoidance mode (no wheel).
    pub recovery_timeout: u64,
    pub route_rr: Cells<'a, usize>,
    pub out_rr: Cells<'a, usize>,
    pub vc_assign: Cells<'a, Assign>,
    pub vc_routed_at: Cells<'a, u64>,
    pub vc_blocked: Cells<'a, u64>,
    pub out_alloc: Cells<'a, bool>,
    pub inj: Cells<'a, InjState>,
    pub escaped: Cells<'a, bool>,
    pub vc_busy: Cells<'a, u64>,
    pub vc_unrouted: Cells<'a, u64>,
    pub vc_switchable: Cells<'a, u64>,
    pub vc_full: Cells<'a, u64>,
    pub busy_nodes: Cells<'a, u64>,
    pub inj_nodes: Cells<'a, u64>,
    pub srcq_nodes: Cells<'a, u64>,
    pub vc_bufs: FlitRingsView<'a>,
    pub source_q: IdRingView<'a>,
    pub packets: Cells<'a, PacketInfo>,
    pub wheel: TimerWheelView<'a>,
    pub plane: SwitchPlaneView<'a>,
    /// [`crate::routing::RouteTables`]' slots of every output VC
    /// (read-only).
    pub out_slots: &'a [Slot],
}

impl ApplyCtx<'_> {
    /// `whole` narrowed to the nodes `lo..hi`, detached from the borrow it
    /// was built under so that it can cross to a pool participant.
    ///
    /// # Safety
    ///
    /// The storage `whole` was built over must stay alive and unmoved for
    /// as long as the returned view is used; views in use at the same time
    /// must cover disjoint node ranges; and no decide — no reader of the
    /// same state through `&Network` — may run while any of them is used.
    pub(crate) unsafe fn shard(whole: &ApplyCtx<'_>, lo: usize, hi: usize) -> ApplyCtx<'static> {
        let vcs = lo * whole.fpn..hi * whole.fpn;
        let view = ApplyCtx {
            route_rr: whole.route_rr.narrow(lo, hi),
            out_rr: whole.out_rr.narrow(lo * whole.nports, hi * whole.nports),
            vc_assign: whole.vc_assign.narrow(vcs.start, vcs.end),
            vc_routed_at: whole.vc_routed_at.narrow(vcs.start, vcs.end),
            vc_blocked: whole.vc_blocked.narrow(vcs.start, vcs.end),
            out_alloc: whole.out_alloc.narrow(vcs.start, vcs.end),
            inj: whole.inj.narrow(lo, hi),
            vc_busy: whole.vc_busy.narrow(lo, hi),
            vc_unrouted: whole.vc_unrouted.narrow(lo, hi),
            vc_switchable: whole.vc_switchable.narrow(lo, hi),
            vc_full: whole.vc_full.narrow(lo, hi),
            vc_bufs: whole.vc_bufs.narrow(vcs.start, vcs.end),
            source_q: whole.source_q.narrow(lo, hi),
            wheel: whole.wheel.narrow(vcs.start, vcs.end),
            plane: whole
                .plane
                .narrow(lo * (whole.fpn + 1), hi * (whole.fpn + 1)),
            // Owned by no node range: atomic access only.
            escaped: whole.escaped.narrow(0, 0),
            busy_nodes: whole.busy_nodes.narrow(0, 0),
            inj_nodes: whole.inj_nodes.narrow(0, 0),
            srcq_nodes: whole.srcq_nodes.narrow(0, 0),
            packets: whole.packets.narrow(0, 0),
            ..*whole
        };
        // SAFETY: only the lifetime changes; the caller keeps the storage
        // alive (see above).
        unsafe { std::mem::transmute::<ApplyCtx<'_>, ApplyCtx<'static>>(view) }
    }
}

// ---------------------------------------------------------------------
// The persistent worker pool
// ---------------------------------------------------------------------

/// Which per-cycle pass a dispatch executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    Route,
    Switch,
}

/// The two phases of a pass a claimed shard goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Decide,
    Apply,
}

/// One dispatched pass: everything a participant needs to execute shard
/// work. Published into the pool's job slot before the pass opens; all
/// pointers are valid for the duration of the pass (the coordinator stays
/// in `WorkerPool::run` until every shard is applied, or every worker has
/// been joined).
#[derive(Debug, Clone, Copy)]
struct Job {
    kind: Pass,
    net: *const Network,
    whole: ApplyCtx<'static>,
    stages: *mut ShardStage,
    now: u64,
}

/// Wall-clock split of the cycle pipeline's phases and the pool's claim
/// and park tallies, accumulated only when explicitly enabled
/// (`Network::set_phase_stats`) — the hot path pays one branch per phase
/// otherwise. Informational: feeds the bench's `decide/apply/barrier`
/// time-split metrics, never simulation results.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseStats {
    /// Nanoseconds the caller's thread spent in decide work.
    pub decide_ns: u64,
    /// Nanoseconds spent applying (shard ops, handoff tails, folds).
    pub apply_ns: u64,
    /// Nanoseconds the caller's thread spent in the claim protocol, mostly
    /// waiting on its barriers for other participants (next to nothing
    /// when the caller claims every shard itself).
    pub barrier_ns: u64,
    /// Shards claimed by the participant whose home run they belong to
    /// (one claim covers a shard's decide and its apply).
    pub home_claims: u64,
    /// Shards swept up by some other participant.
    pub stolen_claims: u64,
    /// Times a worker went to sleep after a quiet spell.
    pub parks: u64,
    /// Times a dispatch woke a sleeping worker.
    pub unparks: u64,
}

/// Low bits of a claim word naming the claimant; the pass number sits
/// above them.
const ID_BITS: u32 = 16;

/// The shared words of the claim protocol — who runs which shard of which
/// pass, and the two barriers of a pass.
///
/// Passes are numbered from 1. The coordinator *opens* pass `e` by moving
/// `epoch` on to `e` (after publishing the job). A participant that reads
/// `epoch == e` claims shard `s` for pass `e` by swapping `claims[s]` from
/// a tag of an earlier pass to `e << ID_BITS | me`; tags only grow, so
/// exactly one participant wins each shard of each pass, and a straggler
/// still holding an older `e` wins nothing. The winner runs the shard's
/// decide, bumps `decided`, and — once `decided` reaches `e · shards`, the
/// decide→apply barrier — runs the shard's apply and bumps `applied`. The
/// pass is complete at `applied == e · shards`; only then may the
/// coordinator publish the next job.
///
/// Each participant walks the shards in its own *sweep order*: its home
/// run first, then the rest, ascending and wrapping. All of the protocol's
/// decisions are in [`Board::step`], which the pool's participants and the
/// exhaustive interleaving test both drive.
#[derive(Debug)]
struct Board {
    shards: usize,
    participants: usize,
    epoch: AtomicU64,
    claims: Box<[AtomicU64]>,
    decided: AtomicU64,
    applied: AtomicU64,
}

/// One participant's place in the protocol. Plain data: everything shared
/// is on the [`Board`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Cursor {
    me: usize,
    /// The pass this participant last joined (0: none yet).
    pass: u64,
    /// Position in the sweep order.
    at: usize,
    /// Shards claimed this pass whose apply has not been reported yet.
    owed: usize,
    state: State,
}

/// What a participant does at its next [`Board::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum State {
    /// Nothing to do until the epoch moves on.
    Idle,
    /// Look at the claim word of the shard at `at`.
    Peek,
    /// Try to replace the stale tag `seen` of the shard at `at`.
    Grab { seen: u64 },
    /// Report that shard's decide as landed.
    Decided,
    /// Wait for every decide of the pass.
    Barrier,
    /// Look for the next shard carrying this participant's tag.
    Scan,
    /// Report that shard's apply as landed.
    Applied,
    /// Coordinator only: wait for every apply of the pass.
    Finish,
}

/// What the caller of [`Board::step`] must do before stepping again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Execute this phase of this shard.
    Run(Phase, usize),
    /// Nothing; step again.
    Next,
    /// The step found its barrier closed and changed nothing.
    Wait,
    /// The participant is idle: its part of the last pass it saw is over
    /// and (for the coordinator) the pass complete.
    Idle,
}

impl Board {
    fn new(shards: usize, participants: usize) -> Self {
        assert!(shards >= 1 && (1..=1 << ID_BITS).contains(&participants));
        Board {
            shards,
            participants,
            epoch: AtomicU64::new(0),
            claims: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            decided: AtomicU64::new(0),
            applied: AtomicU64::new(0),
        }
    }

    /// First shard of participant `p`'s home run (`p == participants`: one
    /// past the last run).
    fn home_lo(&self, p: usize) -> usize {
        p * self.shards / self.participants
    }

    /// Whether shard `s` lies in participant `p`'s home run.
    fn is_home(&self, p: usize, s: usize) -> bool {
        self.home_lo(p) <= s && s < self.home_lo(p + 1)
    }

    /// The shard at position `at` of participant `p`'s sweep order.
    fn shard_at(&self, p: usize, at: usize) -> usize {
        (self.home_lo(p) + at) % self.shards
    }

    /// A participant that has joined no pass yet.
    fn cursor(&self, me: usize) -> Cursor {
        assert!(me < self.participants);
        Cursor {
            me,
            pass: 0,
            at: 0,
            owed: 0,
            state: State::Idle,
        }
    }

    /// Opens the next pass. Coordinator only, with the previous pass
    /// complete and the job slot written.
    fn open(&self) {
        // SeqCst for the park handshake (see `worker_loop`); as a release
        // store it also publishes the job and everything the coordinator
        // did to the network since the last pass.
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The participants that claimed pass `pass`'s shards, as (home
    /// claims, stolen claims). Coordinator only, with the pass complete.
    fn claim_split(&self, pass: u64) -> (u64, u64) {
        let mut home = 0;
        for (s, claim) in self.claims.iter().enumerate() {
            let tag = claim.load(Ordering::Relaxed);
            debug_assert_eq!(tag >> ID_BITS, pass);
            let owner = (tag & ((1 << ID_BITS) - 1)) as usize;
            home += u64::from(self.is_home(owner, s));
        }
        (home, self.shards as u64 - home)
    }

    /// Advances participant `c` by one transition — at most one access to
    /// the shared words — and says what it must do before the next.
    ///
    /// A participant holding a claim must keep stepping until it is idle
    /// again; one that holds none may stop, or fall arbitrarily far
    /// behind, at any point without stalling anybody.
    fn step(&self, c: &mut Cursor) -> Action {
        let shard = self.shard_at(c.me, c.at);
        let tag = c.pass << ID_BITS | c.me as u64;
        let target = c.pass * self.shards as u64;
        // Where a participant goes once it owes the pass nothing more.
        let rest = if c.me == 0 {
            State::Finish
        } else {
            State::Idle
        };
        match c.state {
            State::Idle => {
                // Acquire: a participant that joins pass `e` sees the job
                // published for it, and all the coordinator did before.
                let epoch = self.epoch.load(Ordering::Acquire);
                if epoch == c.pass {
                    return Action::Idle;
                }
                (c.pass, c.at, c.state) = (epoch, 0, State::Peek);
            }
            State::Peek if c.at == self.shards => {
                c.state = if c.owed == 0 { rest } else { State::Barrier };
            }
            State::Peek => {
                let seen = self.claims[shard].load(Ordering::Relaxed);
                if seen >> ID_BITS < c.pass {
                    c.state = State::Grab { seen };
                } else {
                    c.at += 1;
                }
            }
            State::Grab { seen } => {
                let won = self.claims[shard]
                    .compare_exchange(seen, tag, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok();
                if won {
                    c.owed += 1;
                    c.state = State::Decided;
                    return Action::Run(Phase::Decide, shard);
                }
                c.at += 1;
                c.state = State::Peek;
            }
            State::Decided => {
                // Release: the barrier's acquire load orders this decide's
                // reads of the network, and its writes to the stage,
                // before every apply.
                self.decided.fetch_add(1, Ordering::Release);
                c.at += 1;
                c.state = State::Peek;
            }
            State::Barrier => {
                if self.decided.load(Ordering::Acquire) < target {
                    return Action::Wait;
                }
                (c.at, c.state) = (0, State::Scan);
            }
            State::Scan if c.owed == 0 => c.state = rest,
            State::Scan => {
                // Tags of this pass are final: nobody overwrites one before
                // the next pass opens, which waits for this apply.
                if self.claims[shard].load(Ordering::Relaxed) == tag {
                    c.state = State::Applied;
                    return Action::Run(Phase::Apply, shard);
                }
                c.at += 1;
            }
            State::Applied => {
                // Release: the coordinator's acquire load in `Finish`
                // orders this apply's writes before its sequential tail.
                self.applied.fetch_add(1, Ordering::Release);
                c.owed -= 1;
                c.at += 1;
                c.state = State::Scan;
            }
            State::Finish => {
                if self.applied.load(Ordering::Acquire) < target {
                    return Action::Wait;
                }
                c.state = State::Idle;
            }
        }
        Action::Next
    }
}

/// Shared state of one worker pool. The job slot is protected by the
/// claim protocol, not a lock: a participant may read it only while it
/// holds a claim of the current pass whose apply it has not reported yet.
/// It won that claim after an acquire load of the epoch the coordinator
/// stored *after* writing the slot, so the read is ordered after the
/// write; and the coordinator overwrites the slot only once the pass is
/// complete — every claim's apply reported, observed with `Acquire` — so
/// every read is ordered before the next write.
#[derive(Debug)]
struct PoolShared {
    board: Board,
    /// The current pass (see the struct docs for the access protocol).
    job: UnsafeCell<MaybeUninit<Job>>,
    /// Tells workers to exit and barrier waits to give up: set when the
    /// pool is dropped and when a participant panics.
    shutdown: AtomicBool,
    /// The first panic caught on any participant, re-raised on the
    /// coordinator once every worker is joined.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Per-worker parked flags, so a dispatch can skip the unpark syscall
    /// for workers that are spinning.
    parked: Vec<AtomicBool>,
    /// Times a worker parked since the tally was last taken.
    parks: AtomicU64,
}

// SAFETY: the job slot — whose pointers and views make it neither — is
// accessed only under the claim protocol documented on the struct, which
// orders every read after the write it observes and gives each claim
// holder a shard (stage + node range) nobody else touches; everything else
// is atomic or behind the mutex.
unsafe impl Sync for PoolShared {}
unsafe impl Send for PoolShared {}

impl PoolShared {
    /// Records a participant's panic (the first one wins) and abandons
    /// the pass.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(payload);
        self.shutdown.store(true, Ordering::Release);
    }
}

/// Iterations a worker spins on the epoch before parking.
const SPIN_LIMIT: u32 = 1 << 14;
/// Spins before a barrier wait starts yielding the CPU (when participants
/// outnumber free cores, the one holding the claim needs the timeslice to
/// finish).
const WAIT_SPINS: u32 = 128;

/// The persistent worker threads executing parallel passes for one shard
/// plan, plus the caller's thread as a full participant. See the module
/// docs for the protocol. Dropping the pool shuts the workers down and
/// joins them.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// The caller's thread's place in the protocol (participant 0).
    cursor: Cursor,
}

impl WorkerPool {
    /// Spawns a pool for `shards` shards run by `participants` threads
    /// (clamped to `1..=shards`): the caller's plus `participants - 1`
    /// workers. The partition — and so every result — depends on `shards`
    /// alone; `participants` only sets how many threads share the work.
    pub(crate) fn new(shards: usize, participants: usize) -> Self {
        debug_assert!(shards > 1);
        let participants = participants.clamp(1, shards.min(1 << ID_BITS));
        let shared = Arc::new(PoolShared {
            board: Board::new(shards, participants),
            job: UnsafeCell::new(MaybeUninit::uninit()),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
            parked: (1..participants).map(|_| AtomicBool::new(false)).collect(),
            parks: AtomicU64::new(0),
        });
        let handles = (1..participants)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stcc-shard-{}", me - 1))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn shard worker")
            })
            .collect();
        let cursor = shared.board.cursor(0);
        WorkerPool {
            shared,
            handles,
            cursor,
        }
    }

    /// Forgets the park tally so far (the phase stats start from zero).
    pub(crate) fn reset_tallies(&mut self) {
        self.shared.parks.store(0, Ordering::Relaxed);
    }

    /// Executes one pass over `net` to completion: publishes the job,
    /// opens the pass, wakes sleeping workers, participates from the
    /// caller's thread, and returns once every shard's decide and apply
    /// have landed. The sequential tail is the caller's job afterwards.
    ///
    /// # Panics
    ///
    /// Re-raises, after joining every worker, the first panic of any
    /// participant's decide or apply. The pass is then half applied: the
    /// network must not be stepped again.
    pub(crate) fn run(
        &mut self,
        net: &mut Network,
        kind: Pass,
        now: u64,
        stages: &mut [ShardStage],
        mut stats: Option<&mut PhaseStats>,
    ) {
        self.publish(net, kind, now, stages);
        let unparks = self.open();
        let (sh, cursor) = (&*self.shared, &mut self.cursor);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            participate(sh, cursor, stats.as_deref_mut())
        }));
        if let (Some(st), Ok(true)) = (stats, &outcome) {
            let (home, stolen) = sh.board.claim_split(cursor.pass);
            st.home_claims += home;
            st.stolen_claims += stolen;
            st.parks += sh.parks.swap(0, Ordering::Relaxed);
            st.unparks += unparks;
        }
        self.close(outcome);
    }

    /// Writes the pass into the job slot; the pass stays closed.
    fn publish(&mut self, net: &mut Network, kind: Pass, now: u64, stages: &mut [ShardStage]) {
        let sh = &*self.shared;
        debug_assert_eq!(stages.len(), sh.board.shards);
        // Every pointer the participants use — the shared decide reads and
        // the apply views — derives from this one raw borrow, so none
        // invalidates another; the decide→apply barrier keeps reads and
        // writes of any location apart in time.
        let net: *mut Network = net;
        let job = Job {
            kind,
            net: net.cast_const(),
            // SAFETY: `net` is the caller's exclusive borrow, which
            // outlives the pass; the view is used only by claim holders,
            // whom `run` outwaits (or joins) before returning.
            whole: unsafe { (*net).apply_ctx() },
            stages: stages.as_mut_ptr(),
            now,
        };
        // SAFETY: the previous pass is complete, so nobody holds a claim;
        // nobody can win one — and with it the right to read the slot —
        // until `open` moves the epoch on.
        unsafe { (*sh.job.get()).write(job) };
    }

    /// Opens the published pass and unparks the workers that sleep;
    /// returns how many it woke.
    fn open(&mut self) -> u64 {
        self.shared.board.open();
        let mut unparks = 0;
        for (h, parked) in self.handles.iter().zip(&self.shared.parked) {
            // Taking the flag down here, not when the worker finally runs,
            // makes it one wake-up call per sleep: a worker can take many
            // passes' time to get back on a core.
            if parked.load(Ordering::SeqCst) && parked.swap(false, Ordering::SeqCst) {
                h.thread().unpark();
                unparks += 1;
            }
        }
        unparks
    }

    /// Ends a pass: returns if it completed, otherwise joins every worker
    /// (none may outlive the borrows the job points into) and re-raises
    /// the panic that abandoned it.
    fn close(&mut self, outcome: std::thread::Result<bool>) {
        match outcome {
            Ok(true) => return,
            Ok(false) => {}
            Err(payload) => self.shared.record_panic(payload),
        }
        self.join();
        let payload = self
            .shared
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("an abandoned pass recorded the panic that abandoned it");
        resume_unwind(payload);
    }

    /// Shuts the workers down and joins them.
    fn join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            h.thread().unpark();
            // A worker's panic is already recorded in `shared.panic`.
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join();
    }
}

/// Steps participant `cur` until it is idle: joins the open pass, if it
/// has not yet, and sees its claims through. `false` if the pass was
/// abandoned instead (a participant panicked, or the pool is shutting
/// down), in which case its barriers will never open. With `stats`, the
/// time goes to the phase it was spent in.
fn participate(sh: &PoolShared, cur: &mut Cursor, mut stats: Option<&mut PhaseStats>) -> bool {
    let mut clock = stats.is_some().then(std::time::Instant::now);
    let mut spins = 0u32;
    loop {
        let action = sh.board.step(cur);
        match action {
            Action::Run(phase, shard) => {
                spins = 0;
                debug_assert_eq!(
                    sh.board.claims[shard].load(Ordering::Relaxed),
                    cur.pass << ID_BITS | cur.me as u64,
                    "running a shard another participant claimed"
                );
                execute(sh, phase, shard);
            }
            Action::Next => {}
            Action::Wait => {
                if sh.shutdown.load(Ordering::Acquire) {
                    return false;
                }
                spins += 1;
                if spins < WAIT_SPINS {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            Action::Idle => return true,
        }
        if let (Some(st), Some(since)) = (stats.as_deref_mut(), clock.as_mut()) {
            let now = std::time::Instant::now();
            let ns = (now - *since).as_nanos() as u64;
            *since = now;
            match action {
                Action::Run(Phase::Decide, _) => st.decide_ns += ns,
                Action::Run(Phase::Apply, _) => st.apply_ns += ns,
                _ => st.barrier_ns += ns,
            }
        }
    }
}

/// `phase` of shard `t`: its decide, or its apply.
fn execute(sh: &PoolShared, phase: Phase, t: usize) {
    // SAFETY: the caller holds shard `t`'s claim of the current pass (see
    // `PoolShared` for why that orders this read of the slot). The claim
    // is won exactly once per pass, so the stage is exclusive. `net` is
    // only read — by the decides, and for the plan's bounds, which no pass
    // writes.
    let (job, net, stage) = unsafe {
        let job = (*sh.job.get()).assume_init_ref();
        (job, &*job.net, &mut *job.stages.add(t))
    };
    let (lo, hi) = (net.plan.bounds[t], net.plan.bounds[t + 1]);
    match phase {
        Phase::Decide => net.decide(job.kind, job.now, lo, hi, stage),
        Phase::Apply => {
            // SAFETY: the plan's ranges are disjoint, `run` keeps the
            // network borrowed until the pass is over, and every decide
            // has landed (the board's decide→apply barrier).
            let view = unsafe { ApplyCtx::shard(&job.whole, lo, hi) };
            view.apply(job.kind, job.now, stage);
        }
    }
}

/// A worker's life: spin on the epoch, participate when a pass opens, park
/// after a quiet spell (announce-then-recheck so a wake is never lost),
/// exit on shutdown — or on a panic in its own claim, which it hands to
/// the coordinator.
fn worker_loop(sh: &PoolShared, me: usize) {
    let mut cur = sh.board.cursor(me);
    let mut spins: u32 = 0;
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        let seen = cur.pass;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| participate(sh, &mut cur, None))) {
            sh.record_panic(payload);
        }
        if cur.pass != seen {
            spins = 0;
            continue;
        }
        spins += 1;
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
            continue;
        }
        let parked = &sh.parked[me - 1];
        parked.store(true, Ordering::SeqCst);
        if sh.board.epoch.load(Ordering::SeqCst) == cur.pass && !sh.shutdown.load(Ordering::Acquire)
        {
            sh.parks.fetch_add(1, Ordering::Relaxed);
            std::thread::park();
        }
        parked.store(false, Ordering::SeqCst);
        spins = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::NoControl;
    use crate::difftest::{small_cfg, source};
    use std::collections::{HashMap, HashSet};

    #[test]
    fn partition_covers_all_nodes_exactly_once() {
        for nodes in [1usize, 2, 63, 64, 65, 256] {
            for shards in [1usize, 2, 3, 4, 7, 300] {
                let plan = ShardPlan::new(shards, nodes, 8, 5);
                assert_eq!(plan.bounds[0], 0);
                assert_eq!(*plan.bounds.last().unwrap(), nodes);
                assert_eq!(plan.shards(), shards.min(nodes));
                for s in 0..plan.shards() {
                    assert!(
                        plan.bounds[s] < plan.bounds[s + 1],
                        "empty shard {s} of {shards} over {nodes} nodes"
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_networks_still_split() {
        // A 64-node network must genuinely split at 4 shards (ranges are
        // not word-aligned), so shard-invariance tests on tiny presets
        // are not vacuous.
        let plan = ShardPlan::new(4, 64, 8, 5);
        assert_eq!(plan.bounds, vec![0, 16, 32, 48, 64]);
    }

    #[test]
    fn plan_construction_spawns_no_threads() {
        let plan = ShardPlan::new(8, 64, 8, 5);
        assert!(plan.pool.is_none(), "pool attachment is set_shards' job");
    }

    #[test]
    fn pool_tears_down_cleanly_without_a_dispatch() {
        // Spawn-and-drop must join promptly even if no pass ever ran
        // (workers are parked or spinning on the epoch).
        for _ in 0..3 {
            let pool = WorkerPool::new(4, 4);
            assert_eq!(pool.handles.len(), 3);
            drop(pool);
        }
    }

    #[test]
    fn participants_never_outnumber_shards() {
        assert_eq!(WorkerPool::new(4, 64).handles.len(), 3);
        assert_eq!(WorkerPool::new(8, 2).handles.len(), 1);
        assert_eq!(WorkerPool::new(8, 1).handles.len(), 0);
    }

    #[test]
    fn home_runs_partition_the_shards_and_lead_each_sweep() {
        for shards in 1..=9usize {
            for participants in 1..=4usize {
                let board = Board::new(shards, participants);
                let mut owners = vec![0usize; shards];
                for p in 0..participants {
                    let sweep: Vec<usize> = (0..shards).map(|at| board.shard_at(p, at)).collect();
                    let home = board.home_lo(p + 1) - board.home_lo(p);
                    for (at, &s) in sweep.iter().enumerate() {
                        assert_eq!(
                            board.is_home(p, s),
                            at < home,
                            "{p} of {participants}: {sweep:?}"
                        );
                        owners[s] += usize::from(at < home);
                    }
                    let mut sorted = sweep.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, (0..shards).collect::<Vec<_>>());
                }
                assert_eq!(
                    owners,
                    vec![1; shards],
                    "{shards} shards, {participants} participants"
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // The claim protocol, exhaustively
    // -----------------------------------------------------------------

    /// The protocol's shared words plus every participant's cursor — one
    /// node of the schedule graph — and the referee's notes on the pass
    /// under way.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        /// `epoch`, `decided`, `applied`, then the claim words.
        words: Vec<u64>,
        cursors: Vec<Cursor>,
        /// The pass whose job sits in the job slot.
        job: u64,
        /// Passes the coordinator has yet to open.
        to_open: u64,
        /// Per shard of the open pass: decide started, apply started.
        started: Vec<(bool, bool)>,
        /// Per participant: the phase it is executing, from the step that
        /// returned it to the participant's next step.
        running: Vec<Option<Phase>>,
    }

    impl World {
        fn new(shards: usize, participants: usize, passes: u64) -> World {
            let board = Board::new(shards, participants);
            World {
                words: vec![0; 3 + shards],
                cursors: (0..participants).map(|p| board.cursor(p)).collect(),
                job: 0,
                to_open: passes,
                started: vec![(false, false); shards],
                running: vec![None; participants],
            }
        }

        fn board(&self) -> Board {
            let board = Board::new(self.words.len() - 3, self.cursors.len());
            board.epoch.store(self.words[0], Ordering::Relaxed);
            board.decided.store(self.words[1], Ordering::Relaxed);
            board.applied.store(self.words[2], Ordering::Relaxed);
            for (claim, &word) in board.claims.iter().zip(&self.words[3..]) {
                claim.store(word, Ordering::Relaxed);
            }
            board
        }

        fn keep(&mut self, board: &Board) {
            self.words[0] = board.epoch.load(Ordering::Relaxed);
            self.words[1] = board.decided.load(Ordering::Relaxed);
            self.words[2] = board.applied.load(Ordering::Relaxed);
            for (word, claim) in self.words[3..].iter_mut().zip(board.claims.iter()) {
                *word = claim.load(Ordering::Relaxed);
            }
        }

        /// Whether the coordinator is between passes (or done).
        fn between_passes(&self) -> bool {
            self.cursors[0].state == State::Idle && self.cursors[0].pass == self.words[0]
        }

        fn finished(&self) -> bool {
            self.between_passes() && self.to_open == 0
        }

        /// Whether participant `p` is one the pass cannot complete without:
        /// the coordinator, or a holder of a claim.
        fn needed(&self, p: usize) -> bool {
            p == 0 || self.cursors[p].owed > 0
        }

        /// The world after participant `p`'s next transition — `None` if
        /// that changes nothing (an idle step, a closed barrier) — checked
        /// against everything the pool relies on.
        fn after(&self, p: usize) -> Option<World> {
            let mut next = self.clone();
            let board = self.board();
            let shards = self.started.len();
            if p == 0 && self.between_passes() {
                if self.to_open == 0 {
                    return None;
                }
                // `WorkerPool::publish` then `open`: the slot is written
                // while nobody may read it, the pass behind it complete.
                assert!(
                    self.running.iter().all(Option::is_none),
                    "job overwritten under a reader"
                );
                assert!(self.cursors.iter().all(|c| c.owed == 0));
                if self.job > 0 {
                    assert!(
                        self.started.iter().all(|&s| s == (true, true)),
                        "pass left incomplete"
                    );
                }
                next.job += 1;
                next.to_open -= 1;
                next.started.fill((false, false));
                board.open();
                next.keep(&board);
                return Some(next);
            }
            let action = board.step(&mut next.cursors[p]);
            next.keep(&board);
            next.running[p] = None;
            if let Action::Run(phase, shard) = action {
                let pass = next.cursors[p].pass;
                assert_eq!(
                    pass, self.job,
                    "participant {p} reads the job of another pass"
                );
                assert_eq!(pass, self.words[0], "participant {p} runs a closed pass");
                next.running[p] = Some(phase);
                let (decide, apply) = &mut next.started[shard];
                match phase {
                    Phase::Decide => {
                        assert!(!*decide, "shard {shard} decided twice");
                        assert!(self.started.iter().all(|s| !s.1), "a decide after an apply");
                        *decide = true;
                    }
                    Phase::Apply => {
                        assert!(!*apply, "shard {shard} applied twice");
                        assert!(
                            self.started.iter().all(|s| s.0)
                                && !self.running.contains(&Some(Phase::Decide)),
                            "shard {shard} applied before the last decide landed"
                        );
                        assert_eq!(self.words[1], pass * shards as u64);
                        *apply = true;
                    }
                }
            }
            (next != *self).then_some(next)
        }
    }

    /// Walks every schedule of `passes` passes over `shards` shards by
    /// `participants` participants — every interleaving of their
    /// transitions, sequentially consistent — asserting the protocol's
    /// safety in each transition ([`World::after`]) and its liveness in
    /// each state: some *needed* participant can always move (so the ones
    /// that hold no claim may sleep through a pass, or never wake at all),
    /// and no schedule revisits a state (so moving means getting closer to
    /// done). Returns the number of states.
    fn explore(shards: usize, participants: usize, passes: u64) -> usize {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Open,
            Closed,
        }
        let mut marks: HashMap<World, Mark> = HashMap::new();
        let mut finals = HashSet::new();
        let start = World::new(shards, participants, passes);
        // Depth first, with the path's worlds marked `Open`: an edge into
        // an open world is a cycle.
        let mut path = vec![(start.clone(), 0usize)];
        marks.insert(start, Mark::Open);
        while let Some((world, p)) = path.last_mut() {
            if *p == participants {
                if world.finished() {
                    finals.insert(world.words.clone());
                }
                *marks.get_mut(world).unwrap() = Mark::Closed;
                path.pop();
                continue;
            }
            let mover = *p;
            *p += 1;
            if mover == 0 && !world.finished() {
                assert!(
                    (0..participants).any(|q| world.needed(q) && world.after(q).is_some()),
                    "stuck: nobody the pass needs can move"
                );
            }
            let Some(next) = world.after(mover) else {
                continue;
            };
            match marks.get(&next) {
                Some(Mark::Open) => panic!("a schedule loops"),
                Some(Mark::Closed) => {}
                None => {
                    marks.insert(next.clone(), Mark::Open);
                    path.push((next, 0));
                }
            }
        }
        // Every schedule ends with the same count of landed decides and
        // applies, whoever claimed what.
        assert!(!finals.is_empty());
        for words in &finals {
            assert_eq!(
                words[..3],
                [passes, passes * shards as u64, passes * shards as u64]
            );
        }
        marks.len()
    }

    #[test]
    fn every_schedule_of_one_pass_decides_and_applies_each_shard_once() {
        for participants in 1..=3 {
            for shards in 1..=3 {
                let states = explore(shards, participants, 1);
                assert!(states > shards * participants, "vacuous: {states} states");
            }
        }
    }

    /// Two passes back to back: every way a participant can fall behind —
    /// join pass 1 and doze off before claiming, or half way through its
    /// sweep, and wake up in pass 2 or after it — must leave it without a
    /// claim of the pass it missed and without a look at the job slot.
    #[test]
    fn a_straggler_from_the_previous_pass_wins_nothing() {
        for participants in 2..=3 {
            for shards in 1..=3 {
                explore(shards, participants, 2);
            }
        }
    }

    // -----------------------------------------------------------------
    // The view contract
    // -----------------------------------------------------------------

    const NODES: usize = 16;
    const MID: usize = NODES / 2;

    fn small_net() -> Network {
        Network::new(small_cfg()).unwrap()
    }

    /// The saturated mid-run network, stepped on to a cycle whose route
    /// decide has something to stage and whose switch decide moves flits
    /// of every class out of the upper half, ready for a hand-driven pass.
    fn hot_net() -> Network {
        let mut net = crate::difftest::hot_net();
        let mut src = source(1, NODES, 60);
        loop {
            // The injection allowance is per-cycle scratch of the cycle
            // that just ended; a decide outside `cycle` must not act on it.
            net.allow_nodes.clear();
            let (mut route, mut switch) = (stage(), stage());
            net.decide(Pass::Route, net.now, 0, NODES, &mut route);
            net.decide(Pass::Switch, net.now, MID, NODES, &mut switch);
            if !(route.route_ops.is_empty()
                || switch.switch_ops.is_empty()
                || switch.deliveries.is_empty()
                || switch.handoffs.is_empty())
            {
                return net;
            }
            net.cycle(&mut src, &mut NoControl);
        }
    }

    fn stage() -> ShardStage {
        ShardStage::with_capacity(NODES, 64, 8)
    }

    /// The view of `net`'s nodes `lo..hi`, for use on this thread.
    fn view_of(net: &mut Network, lo: usize, hi: usize) -> ApplyCtx<'static> {
        // SAFETY: the tests use the view while `net` is alive and not
        // otherwise touched, beside views of disjoint ranges only.
        unsafe { ApplyCtx::shard(&net.apply_ctx(), lo, hi) }
    }

    /// The upper half's switch decide, keeping only the list `keep` picks,
    /// applied through the lower half's view.
    fn apply_upper_ops_through_the_lower_view(keep: fn(&mut ShardStage) -> &mut Vec<SwitchOp>) {
        let mut net = hot_net();
        let (now, mut st, mut kept) = (net.now, stage(), stage());
        net.decide(Pass::Switch, now, MID, NODES, &mut st);
        std::mem::swap(keep(&mut st), keep(&mut kept));
        assert!(kept.has_ops(), "vacuous: nothing staged");
        view_of(&mut net, 0, MID).apply(Pass::Switch, now, &mut kept);
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn delivery_take_for_a_foreign_node_panics() {
        apply_upper_ops_through_the_lower_view(|st| &mut st.deliveries);
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn handoff_take_for_a_foreign_node_panics() {
        apply_upper_ops_through_the_lower_view(|st| &mut st.handoffs);
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn switch_op_into_a_foreign_vc_panics() {
        let mut net = hot_net();
        let (now, mut st) = (net.now, stage());
        net.decide(Pass::Switch, now, MID, NODES, &mut st);
        // A cross-shard handoff, misfiled as a local hop: the `take` is in
        // range, the `put` is not.
        let op = st.handoffs[0];
        let mut st = stage();
        st.switch_ops.push(op);
        view_of(&mut net, MID, NODES).apply(Pass::Switch, now, &mut st);
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn route_win_for_a_foreign_node_panics() {
        let mut net = small_net();
        let mut st = stage();
        st.route_ops.push(RouteOp::Win {
            node: NODES as u32 - 1,
            feeder: 0,
            assign: Assign::Delivery,
        });
        view_of(&mut net, 0, MID).apply(Pass::Route, 0, &mut st);
    }

    fn saved(net: &Network) -> Vec<u8> {
        let mut enc = checkpoint::Enc::new();
        net.save_state(&mut enc);
        enc.into_vec()
    }

    /// "Same code", independent of the pool: one route and one switch
    /// pass applied through the whole-network view, and through a pair of
    /// half-network views (in descending order, for good measure) that
    /// take their handoffs and leave the whole view only the puts, leave
    /// identical networks.
    #[test]
    fn whole_view_and_shard_views_compute_the_same_pass() {
        let (mut whole, mut halves) = (hot_net(), hot_net());
        assert_eq!(saved(&whole), saved(&halves));
        let now = whole.now;
        for kind in [Pass::Route, Pass::Switch] {
            let mut st = stage();
            whole.decide(kind, now, 0, NODES, &mut st);
            assert!(st.staged_total > 0, "vacuous: nothing staged");
            assert!(st.handoffs.is_empty(), "one shard hands nothing off");
            let view = whole.apply_ctx();
            view.apply(kind, now, &mut st);
            view.tail(now, &mut st);
            whole.fold_stage(kind, now, &mut st);
            assert_eq!(st.staged_total, st.applied_total);

            let (mut lo, mut hi) = (stage(), stage());
            halves.decide(kind, now, 0, MID, &mut lo);
            halves.decide(kind, now, MID, NODES, &mut hi);
            let crossing = lo.handoffs.len() + hi.handoffs.len();
            assert!(kind == Pass::Route || crossing > 0, "vacuous: no handoff");
            view_of(&mut halves, MID, NODES).apply(kind, now, &mut hi);
            view_of(&mut halves, 0, MID).apply(kind, now, &mut lo);
            // The half views took every handoff off its feeder; all that
            // is left for the whole view is to put them downstream.
            assert!(!(lo.has_ops() || hi.has_ops()));
            assert_eq!(lo.parked.len() + hi.parked.len(), crossing);
            let view = halves.apply_ctx();
            view.tail(now, &mut lo);
            view.tail(now, &mut hi);
            for st in [&mut lo, &mut hi] {
                halves.fold_stage(kind, now, st);
                assert_eq!(st.staged_total, st.applied_total);
            }
        }
        assert_eq!(saved(&whole), saved(&halves));
        for net in [&whole, &halves] {
            let report = net.audit();
            assert!(report.is_clean(), "{report}");
        }
    }

    // -----------------------------------------------------------------
    // Panics in the pool
    // -----------------------------------------------------------------

    /// Runs `f` on its own thread and re-raises its panic here — or fails
    /// if it has not finished within a minute.
    fn within_a_minute(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            let _ = tx.send(());
            if let Err(payload) = outcome {
                resume_unwind(payload);
            }
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the pass hung instead of panicking");
        if let Err(payload) = thread.join() {
            resume_unwind(payload);
        }
    }

    /// A two-shard network taken apart for a hand-driven pass by a
    /// coordinator and one worker (whatever the host's core count), with a
    /// mis-owned op planted in shard `poisoned`'s route ops: a cursor
    /// update for a node of the other shard.
    fn poisoned_pass(poisoned: usize) -> (Network, WorkerPool, Vec<ShardStage>) {
        let mut net = small_net();
        net.set_shards(2);
        let pool = WorkerPool::new(2, 2);
        let mut stages = std::mem::take(&mut net.plan.stages);
        let foreign = net.plan.bounds[1 - poisoned] as u32;
        stages[poisoned].route_ops.push(RouteOp::Rr {
            node: foreign,
            cursor: 0,
        });
        (net, pool, stages)
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn mis_owned_op_on_a_worker_claim_panics_the_coordinator() {
        within_a_minute(|| {
            let (mut net, mut pool, mut stages) = poisoned_pass(1);
            pool.publish(&mut net, Pass::Route, 0, &mut stages);
            pool.open();
            // The coordinator claims nothing: every shard is the worker's.
            let sh = Arc::clone(&pool.shared);
            while !sh.shutdown.load(Ordering::Acquire) {
                assert!(
                    sh.board.applied.load(Ordering::Acquire) < 2,
                    "the mis-owned op was applied"
                );
                std::thread::yield_now();
            }
            pool.close(Ok(false));
        });
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn mis_owned_op_on_a_coordinator_claim_panics_past_a_waiting_worker() {
        within_a_minute(|| {
            let (mut net, mut pool, mut stages) = poisoned_pass(0);
            pool.publish(&mut net, Pass::Route, 0, &mut stages);
            let sh = Arc::clone(&pool.shared);
            // This thread holds shard 0's claim of the pass about to open;
            // the worker gets shard 1's, and sits at the decide→apply
            // barrier until shard 0's decide lands — which it never does.
            sh.board.claims[0].store(1 << ID_BITS, Ordering::Relaxed);
            pool.open();
            while sh.board.decided.load(Ordering::Acquire) < 1 {
                std::thread::yield_now();
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                execute(&sh, Phase::Apply, 0);
                true
            }));
            assert!(outcome.is_err(), "the mis-owned op was applied");
            pool.close(outcome);
        });
    }
}
