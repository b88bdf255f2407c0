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
//!    buffer. Nothing is mutated, so workers never race. Each op is
//!    classified at staging time as **local** (every write target lands
//!    inside the staging shard's own node range) or **boundary** (it
//!    touches another shard, or globally FIFO-ordered structures like the
//!    recovery token queue or the delivery ring).
//! 2. **Apply, local** (parallel): each shard applies its own local ops
//!    through an [`ApplyCtx`] view of its node range. Local ops of
//!    different shards touch disjoint state (or commute exactly — see the
//!    view contract on [`ApplyCtx`]), so the result is independent of
//!    execution order.
//! 3. **Apply, boundary tail** (sequential): the caller's thread applies
//!    the boundary ops in canonical order — ascending shard, and within a
//!    shard in staging (ascending node) order — through a whole-network
//!    view, and folds the per-shard counter deltas. Because shards are
//!    contiguous ascending ranges, the tail visits the globally ordered
//!    structures in global ascending-node order for *any* shard count.
//!
//! With one shard the caller's thread runs the three phases inline over a
//! whole-network view; with more, a [`WorkerPool`] of `S - 1` long-lived
//! threads plus the caller's thread claim the decide and local-apply
//! tickets, rendezvousing through an epoch-style ticket barrier (atomics +
//! park/unpark, no per-cycle thread spawns). Shards are *claimed*, not
//! assigned: any participant may execute any shard's decide or local
//! apply, because the result depends only on the shard id. On a
//! single-core host the workers park and the caller claims every ticket
//! inline, so the barrier degenerates to a handful of uncontended atomic
//! operations per phase.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// Per-shard staging buffer: the mailbox decisions travel through between
/// the decide phase and the (local + boundary) apply, and the sink of the
/// apply's deltas to global scalars.
#[derive(Debug, Default)]
pub(crate) struct ShardStage {
    /// Local ops staged by this shard's route decide, in node order.
    pub route_ops: Vec<RouteOp>,
    /// Boundary route ops: the input VCs of requesters that tripped Disha's
    /// suspicion predicate, committed to the recovery token queue (a
    /// single global FIFO) by the sequential tail in staging order.
    pub route_tail: Vec<u32>,
    /// Local ops staged by this shard's switch decide, in (node, port)
    /// order: moves whose downstream VC lies in this shard's own range.
    pub switch_ops: Vec<SwitchOp>,
    /// Boundary switch ops: deliveries (global delivery-ring FIFO and
    /// packet release order) and cross-shard flit handoffs.
    pub switch_tail: Vec<SwitchOp>,
    /// Flits the tail took off delivery moves, consumed at their
    /// destination once the tail's view is released (empty between
    /// passes).
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
    /// Cumulative ops ever staged into / applied from this buffer
    /// (local + boundary). The audit's mailbox-conservation invariant:
    /// between cycles the two are equal and all op vectors are empty —
    /// every staged decision was applied, none invented.
    pub staged_total: u64,
    pub applied_total: u64,
}

impl ShardStage {
    /// Whether any staged op awaits its apply.
    pub fn has_ops(&self) -> bool {
        !(self.route_ops.is_empty()
            && self.route_tail.is_empty()
            && self.switch_ops.is_empty()
            && self.switch_tail.is_empty())
    }

    fn with_capacity(route_cap: usize, switch_cap: usize, span: usize) -> Self {
        ShardStage {
            route_ops: Vec::with_capacity(route_cap),
            route_tail: Vec::with_capacity(route_cap),
            switch_ops: Vec::with_capacity(switch_cap),
            switch_tail: Vec::with_capacity(switch_cap),
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
    /// channels per node (`d + 1`); both size the worst-case per-cycle op
    /// capacity: a router stages at most `fpn + 2` route ops (cursor +
    /// winner + one blocked entry per input feeder), `nports` switch
    /// ops (one flit per output channel) and one delivery. No worker pool
    /// is attached here — `Network::set_shards` does that, so plan
    /// construction in tests stays thread-free.
    pub fn new(shards: usize, nodes: usize, fpn: usize, nports: usize) -> Self {
        let shards = shards.clamp(1, nodes.max(1));
        let mut bounds = Vec::with_capacity(shards + 1);
        for s in 0..=shards {
            bounds.push(s * nodes / shards);
        }
        let stages = (0..shards)
            .map(|s| {
                let span = bounds[s + 1] - bounds[s];
                ShardStage::with_capacity(span * (fpn + 2), span * nports, span)
            })
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
/// * **Deferred to the tail** — everything globally ordered or global:
///   the token queue, the delivery ring and packet release, and the
///   scalars (`counters`, `full_buffers`, `last_progress_at`), which a
///   view reaches only as [`ShardStage`] deltas folded after the pass.
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

/// The two ticketed phases of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Decide,
    Apply,
}

/// One dispatched pass: everything a participant needs to claim and
/// execute shard work. Published into the pool's job slot before the
/// tickets open; all pointers are valid for the duration of the pass
/// (the coordinator stays in `WorkerPool::run` until every ticket is
/// claimed and completed, or every worker has been joined).
#[derive(Debug, Clone, Copy)]
struct Job {
    kind: Pass,
    net: *const Network,
    whole: ApplyCtx<'static>,
    stages: *mut ShardStage,
    now: u64,
}

/// Wall-clock split of the cycle pipeline's phases, accumulated only
/// when explicitly enabled (`Network::set_phase_stats`) — the hot path
/// pays one branch per phase otherwise. Informational: feeds the bench's
/// `decide/apply/barrier` time-split metrics, never simulation results.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseStats {
    /// Nanoseconds the caller's thread spent in decide work.
    pub decide_ns: u64,
    /// Nanoseconds spent applying (local ops, boundary tails, folds).
    pub apply_ns: u64,
    /// Nanoseconds spent waiting on the ticket barrier for other
    /// participants (zero when the caller claims every ticket itself).
    pub barrier_ns: u64,
}

/// Shared state of one worker pool. The job slot is protected by the
/// ticket protocol, not a lock: participants may read it only between
/// winning a ticket (an `AcqRel` RMW on a counter the coordinator reset
/// with `Release` *after* writing the slot) and bumping the matching
/// done-counter — so every read is ordered after the write it observes,
/// and the coordinator's end-of-pass `Acquire` wait orders all reads
/// before the next overwrite.
#[derive(Debug)]
struct PoolShared {
    /// Shard count, fixed for the pool's lifetime (the pool is rebuilt on
    /// re-partition).
    shards: usize,
    /// The current pass (see the struct docs for the access protocol).
    job: UnsafeCell<MaybeUninit<Job>>,
    /// Decide tickets: `fetch_add` < `shards` wins that shard's decide.
    decide_next: AtomicUsize,
    /// Decides completed this pass.
    decide_done: AtomicUsize,
    /// Local-apply tickets.
    apply_next: AtomicUsize,
    /// Local applies completed this pass (the coordinator's completion
    /// condition).
    apply_done: AtomicUsize,
    /// Tells workers to exit and barrier waits to give up: set when the
    /// pool is dropped and when a participant panics.
    shutdown: AtomicBool,
    /// The first panic caught on any participant, re-raised on the
    /// coordinator once every worker is joined.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Per-worker parked flags, so a dispatch can skip the unpark syscall
    /// for workers that are spinning (and, on a single-core host, skip
    /// waking parked workers at all outside rare probes).
    parked: Vec<AtomicBool>,
}

// SAFETY: the job slot — whose pointers and views make it neither — is
// accessed only under the ticket protocol documented on the struct, which
// orders every read after the write it observes and gives each ticket
// holder a shard (stage + node range) nobody else touches; everything else
// is atomic or behind the mutex.
unsafe impl Sync for PoolShared {}
unsafe impl Send for PoolShared {}

impl PoolShared {
    /// Spin-then-yield wait for a completion counter to reach the shard
    /// count; `false` if the pass was abandoned instead (a participant
    /// panicked, or the pool is shutting down), in which case the counter
    /// will never get there.
    fn wait(&self, counter: &AtomicUsize) -> bool {
        let mut spins = 0u32;
        while counter.load(Ordering::Acquire) < self.shards {
            if self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            spins += 1;
            if spins < WAIT_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }

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

/// Iterations a worker spins on the ticket counter before parking.
const SPIN_LIMIT: u32 = 1 << 14;
/// On a single-core host parked workers are not woken per dispatch (the
/// coordinator claims every ticket faster than a futex wake); they are
/// re-probed this often in case the core count was misdetected or grows.
const WAKE_PROBE: u64 = 4096;
/// Spins before a barrier wait starts yielding the CPU (on one core the
/// claiming participant needs the timeslice to finish).
const WAIT_SPINS: u32 = 128;

/// `S - 1` persistent worker threads executing parallel passes for one
/// shard plan, plus the caller's thread as a full participant. See the
/// module docs for the protocol. Dropping the pool shuts the workers
/// down and joins them.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Whether this host has more than one core: if not, parked workers
    /// stay parked (the coordinator inlines all work) except for probes.
    multi: bool,
    dispatches: u64,
}

impl WorkerPool {
    /// Spawns a pool for `shards` shards (`shards - 1` workers; the
    /// caller's thread is the remaining participant).
    pub(crate) fn new(shards: usize) -> Self {
        debug_assert!(shards > 1);
        let workers = shards - 1;
        let shared = Arc::new(PoolShared {
            shards,
            job: UnsafeCell::new(MaybeUninit::uninit()),
            // Exhausted until the first dispatch opens the tickets.
            decide_next: AtomicUsize::new(shards),
            decide_done: AtomicUsize::new(shards),
            apply_next: AtomicUsize::new(shards),
            apply_done: AtomicUsize::new(shards),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
            parked: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stcc-shard-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn shard worker")
            })
            .collect();
        let multi = std::thread::available_parallelism()
            .map(|n| n.get() > 1)
            .unwrap_or(false);
        WorkerPool {
            shared,
            handles,
            multi,
            dispatches: 0,
        }
    }

    /// Executes one pass over `net` to completion: publishes the job,
    /// opens the tickets, wakes workers per the host policy, participates
    /// from the caller's thread, and returns once every shard's decide
    /// and local apply have landed. The sequential boundary tail is the
    /// caller's job afterwards.
    ///
    /// # Panics
    ///
    /// Re-raises, after joining every worker, the first panic of any
    /// participant's decide or local apply. The pass is then half
    /// applied: the network must not be stepped again.
    pub(crate) fn run(
        &mut self,
        net: &mut Network,
        kind: Pass,
        now: u64,
        stages: &mut [ShardStage],
        stats: Option<&mut PhaseStats>,
    ) {
        self.publish(net, kind, now, stages);
        self.shared.apply_next.store(0, Ordering::Release);
        self.shared.decide_next.store(0, Ordering::SeqCst);
        self.wake();
        let sh = &*self.shared;
        let outcome = catch_unwind(AssertUnwindSafe(|| coordinate(sh, stats)));
        self.close(outcome);
    }

    /// Writes the pass into the job slot and zeroes the completion
    /// counters; the tickets stay closed.
    fn publish(&mut self, net: &mut Network, kind: Pass, now: u64, stages: &mut [ShardStage]) {
        let sh = &*self.shared;
        debug_assert_eq!(stages.len(), sh.shards);
        // Every pointer the participants use — the shared decide reads and
        // the apply views — derives from this one raw borrow, so none
        // invalidates another; the decide→apply barrier keeps reads and
        // writes of any location apart in time.
        let net: *mut Network = net;
        let job = Job {
            kind,
            net: net.cast_const(),
            // SAFETY: `net` is the caller's exclusive borrow, which
            // outlives the pass; the view is used only by ticket holders,
            // whom `run` outwaits (or joins) before returning.
            whole: unsafe { (*net).apply_ctx() },
            stages: stages.as_mut_ptr(),
            now,
        };
        // SAFETY: tickets are exhausted and the previous pass's Acquire
        // wait ordered every reader before now — nobody can touch the
        // slot until the ticket counters reopen it.
        unsafe { (*sh.job.get()).write(job) };
        sh.apply_done.store(0, Ordering::Relaxed);
        sh.decide_done.store(0, Ordering::Relaxed);
    }

    /// Unparks parked workers, if this host can run them beside the
    /// caller (or it is time to re-probe that).
    fn wake(&mut self) {
        self.dispatches += 1;
        if self.multi || self.dispatches.is_multiple_of(WAKE_PROBE) {
            for (w, h) in self.handles.iter().enumerate() {
                if self.shared.parked[w].load(Ordering::SeqCst) {
                    h.thread().unpark();
                }
            }
        }
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

/// The coordinator's share of a pass; `false` if it was abandoned.
fn coordinate(sh: &PoolShared, stats: Option<&mut PhaseStats>) -> bool {
    let Some(st) = stats else {
        return participate(sh) && sh.wait(&sh.apply_done);
    };
    let t0 = std::time::Instant::now();
    let mut ok = claim_tickets(sh, Phase::Decide);
    let t1 = std::time::Instant::now();
    ok = ok && sh.wait(&sh.decide_done);
    let t2 = std::time::Instant::now();
    ok = ok && claim_tickets(sh, Phase::Apply);
    let t3 = std::time::Instant::now();
    ok = ok && sh.wait(&sh.apply_done);
    let t4 = std::time::Instant::now();
    st.decide_ns += (t1 - t0).as_nanos() as u64;
    st.barrier_ns += ((t2 - t1) + (t4 - t3)).as_nanos() as u64;
    st.apply_ns += (t3 - t2).as_nanos() as u64;
    ok
}

/// Claims and executes `phase` tickets until they run out; `false` if
/// the pass was abandoned. An apply winner first waits for every decide
/// to land — the decide→apply barrier. (The wait sits *inside* the loop
/// so that a straggler from a previous pass that claims into a fresh
/// pass still honors the new pass's barrier.)
fn claim_tickets(sh: &PoolShared, phase: Phase) -> bool {
    let (next, done) = match phase {
        Phase::Decide => (&sh.decide_next, &sh.decide_done),
        Phase::Apply => (&sh.apply_next, &sh.apply_done),
    };
    loop {
        let t = next.fetch_add(1, Ordering::AcqRel);
        if t >= sh.shards {
            return true;
        }
        if phase == Phase::Apply && !sh.wait(&sh.decide_done) {
            return false;
        }
        execute(sh, phase, t);
        done.fetch_add(1, Ordering::AcqRel);
    }
}

/// The work of ticket `t` of `phase`: shard `t`'s decide or local apply.
fn execute(sh: &PoolShared, phase: Phase, t: usize) {
    // SAFETY: the RMW that won ticket `t` reads from (or after) the
    // coordinator's ticket-opening store, which was released after the job
    // write — see `PoolShared`. The ticket is won exactly once per pass,
    // so the stage is exclusive; and for an apply ticket the barrier
    // ordered it after the stage's decide writer. `net` is only read — by
    // the decides, and for the plan's bounds, which no pass writes.
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
            // has landed (the barrier in `claim_tickets`).
            let view = unsafe { ApplyCtx::shard(&job.whole, lo, hi) };
            view.apply(job.kind, job.now, stage);
        }
    }
}

/// One full pass from any participant's perspective.
fn participate(sh: &PoolShared) -> bool {
    claim_tickets(sh, Phase::Decide) && claim_tickets(sh, Phase::Apply)
}

/// A worker's life: spin on the ticket counter, participate when a pass
/// opens, park after a quiet spell (announce-then-recheck so a wake is
/// never lost), exit on shutdown — or on a panic in its own ticket, which
/// it hands to the coordinator.
fn worker_loop(sh: &PoolShared, me: usize) {
    let mut spins: u32 = 0;
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        if sh.decide_next.load(Ordering::SeqCst) < sh.shards {
            spins = 0;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| participate(sh))) {
                sh.record_panic(payload);
            }
            continue;
        }
        spins += 1;
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
            continue;
        }
        sh.parked[me].store(true, Ordering::SeqCst);
        if sh.decide_next.load(Ordering::SeqCst) >= sh.shards
            && !sh.shutdown.load(Ordering::Acquire)
        {
            std::thread::park();
        }
        sh.parked[me].store(false, Ordering::SeqCst);
        spins = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::NoControl;
    use crate::difftest::{small_cfg, source};

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
        // (workers are parked or spinning on exhausted tickets).
        for _ in 0..3 {
            let pool = WorkerPool::new(4);
            assert_eq!(pool.handles.len(), 3);
            drop(pool);
        }
    }

    const NODES: usize = 16;

    fn small_net() -> Network {
        Network::new(small_cfg()).unwrap()
    }

    /// The saturated mid-run network, stepped on to a cycle whose route
    /// decide has something to stage, ready for a hand-driven pass.
    fn hot_net() -> Network {
        let mut net = crate::difftest::hot_net();
        let mut src = source(1, NODES, 60);
        loop {
            // The injection allowance is per-cycle scratch of the cycle
            // that just ended; a decide outside `cycle` must not act on it.
            net.allow_nodes.clear();
            let mut st = stage();
            net.decide(Pass::Route, net.now, 0, NODES, &mut st);
            if !st.route_ops.is_empty() {
                return net;
            }
            net.cycle(&mut src, &mut NoControl);
        }
    }

    fn stage() -> ShardStage {
        ShardStage::with_capacity(1024, 1024, NODES)
    }

    /// Whether `op` moves a flit to another router (not a delivery).
    fn is_hop(net: &Network, op: &SwitchOp) -> bool {
        let (node, pick, fpn) = (
            op.node as usize,
            usize::from(op.pick),
            net.vc_assign.len() / NODES,
        );
        let assign = if pick == fpn {
            net.inj[node].assign
        } else {
            net.vc_assign[node * fpn + pick]
        };
        matches!(assign, Assign::Out { .. })
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn switch_op_into_a_foreign_vc_panics() {
        let mut net = hot_net();
        let (now, mut st) = (net.now, stage());
        net.decide(Pass::Switch, now, 0, NODES / 2, &mut st);
        // A cross-shard handoff, misfiled as a local op.
        let op = *st
            .switch_tail
            .iter()
            .find(|op| is_hop(&net, op))
            .expect("vacuous: no flit crosses the shard edge this cycle");
        st.switch_ops.clear();
        st.switch_ops.push(op);
        // SAFETY: one view, used on this thread while `net` is borrowed.
        let view = unsafe { ApplyCtx::shard(&net.apply_ctx(), 0, NODES / 2) };
        view.apply(Pass::Switch, now, &mut st);
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
        // SAFETY: one view, used on this thread while `net` is borrowed.
        let view = unsafe { ApplyCtx::shard(&net.apply_ctx(), 0, NODES / 2) };
        view.apply(Pass::Route, 0, &mut st);
    }

    fn saved(net: &Network) -> Vec<u8> {
        let mut enc = checkpoint::Enc::new();
        net.save_state(&mut enc);
        enc.into_vec()
    }

    /// "Same code", independent of the pool: one route and one switch
    /// pass applied through the whole-network view, and through a pair of
    /// half-network views (in descending order, for good measure), leave
    /// identical networks.
    #[test]
    fn whole_view_and_shard_views_compute_the_same_pass() {
        let (mut whole, mut halves) = (hot_net(), hot_net());
        assert_eq!(saved(&whole), saved(&halves));
        let now = whole.now;
        let mid = NODES / 2;
        for kind in [Pass::Route, Pass::Switch] {
            let mut st = stage();
            whole.decide(kind, now, 0, NODES, &mut st);
            assert!(st.staged_total > 0, "vacuous: nothing staged");
            let view = whole.apply_ctx();
            view.apply(kind, now, &mut st);
            view.tail(kind, now, &mut st);
            whole.fold_stage(kind, now, &mut st);

            let (mut lo, mut hi) = (stage(), stage());
            halves.decide(kind, now, 0, mid, &mut lo);
            halves.decide(kind, now, mid, NODES, &mut hi);
            assert!(
                kind == Pass::Route || lo.switch_tail.iter().any(|op| is_hop(&halves, op)),
                "vacuous: no cross-shard handoff"
            );
            let view = halves.apply_ctx();
            // SAFETY: disjoint ranges, both used on this thread while
            // `halves` is borrowed and no decide runs.
            let (v_lo, v_hi) = unsafe {
                (
                    ApplyCtx::shard(&view, 0, mid),
                    ApplyCtx::shard(&view, mid, NODES),
                )
            };
            v_hi.apply(kind, now, &mut hi);
            v_lo.apply(kind, now, &mut lo);
            view.tail(kind, now, &mut lo);
            view.tail(kind, now, &mut hi);
            halves.fold_stage(kind, now, &mut lo);
            halves.fold_stage(kind, now, &mut hi);
        }
        assert_eq!(saved(&whole), saved(&halves));
        for net in [&whole, &halves] {
            let report = net.audit();
            assert!(report.is_clean(), "{report}");
        }
    }

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

    /// A two-shard network taken apart for a hand-driven pass, with a
    /// mis-owned op planted in shard `poisoned`'s local route ops: a
    /// cursor update for a node of the other shard.
    fn poisoned_pass(poisoned: usize) -> (Network, WorkerPool, Vec<ShardStage>) {
        let mut net = small_net();
        net.set_shards(2);
        let mut pool = net.plan.pool.take().unwrap();
        pool.multi = true; // wake the worker even on a one-core host
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
    fn mis_owned_op_on_a_worker_ticket_panics_the_coordinator() {
        within_a_minute(|| {
            let (mut net, mut pool, mut stages) = poisoned_pass(1);
            pool.publish(&mut net, Pass::Route, 0, &mut stages);
            pool.shared.apply_next.store(0, Ordering::Release);
            pool.shared.decide_next.store(0, Ordering::SeqCst);
            pool.wake();
            // The coordinator claims nothing: every ticket is the worker's.
            let done = pool.shared.wait(&pool.shared.apply_done);
            pool.close(Ok(done));
        });
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn mis_owned_op_on_a_coordinator_ticket_panics_past_a_waiting_worker() {
        within_a_minute(|| {
            let (mut net, mut pool, mut stages) = poisoned_pass(0);
            pool.publish(&mut net, Pass::Route, 0, &mut stages);
            let sh = Arc::clone(&pool.shared);
            // This thread holds both of shard 0's tickets; the worker gets
            // shard 1's, and sits at the decide→apply barrier until shard
            // 0's decide lands — which it never does.
            sh.apply_next.store(1, Ordering::Release);
            sh.decide_next.store(1, Ordering::SeqCst);
            pool.wake();
            while sh.apply_next.load(Ordering::Acquire) < 2 {
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
