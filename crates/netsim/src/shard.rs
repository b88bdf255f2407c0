//! Intra-simulation sharding: the shard plan, the per-shard pass output,
//! the checked raw-cell views a pass works through, and the persistent
//! worker pool that runs the passes.
//!
//! One [`crate::Network`] is stepped across a fixed set of *shards* —
//! contiguous node ranges. The route and switch stages each run as a
//! **pass** per shard and a sequential **fold**, at every shard count:
//!
//! 1. **Pass** (parallel): each shard visits the routers of its own node
//!    range in ascending order through an [`ApplyCtx`] view of that range,
//!    and each router arbitrates and then at once performs what it
//!    decided. Nothing a router's arbitration reads is written by another
//!    router's pass: its own state, plus what the view contract lists as
//!    read-only — among it the visit copy `Network::run_pass` takes before
//!    the pass opens, and the credit words each shard's route pass copied
//!    for its own range. So the outcome is the same for every partition
//!    and every order in which shards run, and no shard ever waits for
//!    another inside a pass. On a scan cycle the route pass also runs the
//!    starvation scan of each router it visits, right after routing it,
//!    and sets its trips aside (`starved`). A flit move goes by where its
//!    downstream half lands: a **local hop** (downstream VC in the shard's
//!    own range) is `put` at once, a **delivery** is consumed at once — the
//!    destination lies in the shard's range, so its pass is the only
//!    writer of the packet's delivered count — and only a tail is set
//!    aside in the stage (`delivered`), and a **handoff** (downstream VC in
//!    another shard) is taken off its feeder and parked for the shard that
//!    owns that VC (`outbound`). After a switch pass that parked any, the
//!    coordinator hands each parked list to its owner (`inbound`, a swap of
//!    list headers) and a **handoff pass** lets every shard `put` the
//!    flits headed into its own range. Their order cannot matter: each
//!    downstream VC receives at most one flit a cycle, the node-word
//!    updates are ORs and the census deltas sums.
//! 2. **Fold** (sequential): the caller's thread folds each shard's deltas
//!    and globally ordered results — route-pass suspects, then starvation
//!    trips, into the token queue; the delivered-flit count into the
//!    counters; each delivered tail's record into the delivery ring and
//!    its packet slot back to the free list — in ascending shard order,
//!    within a shard in pass (ascending node) order. Because shards are
//!    contiguous ascending ranges, that visits the globally ordered
//!    structures in global ascending-node order for *any* shard count.
//!
//! With one shard the caller's thread runs the pass inline over a
//! whole-network view; with more, a [`WorkerPool`] runs the shards'
//! passes. Its participants — the caller's thread (the *coordinator*,
//! participant 0) plus `min(S, cores) − 1` long-lived worker threads —
//! each have a *home run* of shards, a contiguous slice of `0..S`. A
//! participant claims its home shards first and sweeps the other shards
//! only after finishing its own; one claim runs a shard's whole pass. In
//! steady state every shard is therefore run by the same thread pass after
//! pass and its state never leaves that core's caches, while a parked,
//! late or preempted worker never stalls a pass: whoever is running sweeps
//! up what nobody claimed. The result depends only on the shard id, never
//! on who ran it. The claim protocol ([`Board`]) is a handful of atomics
//! and park/unpark — no per-cycle thread spawns, no lock on the hot path.
//!
//! This is the one module of the crate allowed to contain `unsafe`, on five
//! lines: the two [`Cells`] primitives (a range-checked cell, a shared
//! word as an atomic), the packet-field projection, and the one detach in
//! [`WorkerPool::run`] with the `Send` it needs. Everything built on them —
//! the ring and packet views, the whole state transition, the pool's
//! mutex-guarded job slots — is safe code that panics on an index outside
//! its view's range.
//!
//! The plan is runtime-only configuration: it is never serialized and
//! never enters a checkpoint fingerprint, so a snapshot taken at S shards
//! restores at any S′ by construction. The stage lists and the pass copies
//! are preallocated at their per-cycle worst case, keeping the steady-state
//! cycle pipeline allocation-free (see `tests/zero_alloc.rs`).

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::network::{Assign, InjState, Network};
use crate::packet::{Flit, PacketCell, PacketId, PacketInfo};
use crate::plane::SwitchPlaneView;
use crate::ring::{FlitRingsView, IdRingView};
use crate::routing::RouteTables;
use faults::FaultPlan;
use kncube::{Dir, Torus};

/// A handoff whose source half is done: `flit`, taken off its feeder by
/// the source shard's switch pass, waits for the handoff pass of the shard
/// that owns input VC `feeder` of `node` to `put` it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Parked {
    pub node: u32,
    pub feeder: u8,
    pub flit: Flit,
}

/// One shard's pass output: what its passes set aside for the sequential
/// fold or for another shard's handoff pass, and the sink of its deltas to
/// global scalars. Every list is empty between cycles (audited as
/// [`crate::AuditKind::MailboxConservation`]).
#[derive(Debug, Default)]
pub(crate) struct ShardStage {
    /// The input VCs of requesters that tripped Disha's suspicion
    /// predicate. The pass demotes them to `AwaitToken`; the fold commits
    /// them to the recovery token queue (a single global FIFO) in pass
    /// order.
    pub suspects: Vec<u32>,
    /// The input VCs whose routed header the starvation scan found still
    /// for the timeout. The route pass releases their output VC and
    /// demotes them; the fold commits them after every shard's
    /// `suspects`, in pass order.
    pub starved: Vec<u32>,
    /// Taken handoffs, by the shard that owns their downstream VC
    /// (`outbound[t]`; this shard's own slot stays empty).
    pub outbound: Vec<Vec<Parked>>,
    /// Handoffs into this shard's range, by the shard that took them
    /// (`inbound[s]` is shard `s`'s `outbound[this]`, swapped in after the
    /// switch pass), awaiting this shard's handoff pass.
    pub inbound: Vec<Vec<Parked>>,
    /// The tails among this shard's delivery moves, in pass order. The
    /// move itself consumed each flit at its destination (the packet's
    /// delivered count); the fold pushes each tail's delivery record and
    /// releases its packet — the global delivery-ring FIFO and packet
    /// release order.
    pub delivered: Vec<Flit>,
    /// Routers this shard's route pass visited (counter delta, folded
    /// into [`crate::counters::Counters`] after the pass).
    pub route_visits: u64,
    /// Input VCs this shard's starvation scan examined.
    pub starvation_checks: u64,
    /// Routers this shard's switch pass visited.
    pub switch_visits: u64,
    /// Flits this shard's switch pass delivered, tails included.
    pub delivered_flits: u64,
    /// Ready flits stalled on faulted links / hot delivery channels this
    /// cycle (counter deltas).
    pub link_stalls: u64,
    pub hotspot_stalls: u64,
    /// Pass deltas, folded sequentially after the pass: escape
    /// allocations and injected packets (counter sums), the net change to
    /// the full-buffer census, and whether any flit moved (advances
    /// `last_progress_at`).
    pub escape_allocs: u64,
    pub injected: u64,
    pub full_delta: i32,
    pub progressed: bool,
    /// Wall time of this shard's last pass, booked only when phase stats
    /// are on, for [`WorkerPool::run`] to fold into
    /// [`PhaseStats::slowest_shard_ns`] and
    /// [`PhaseStats::fastest_shard_ns`].
    pub pass_ns: u64,
}

/// Hands every list of handoffs a switch pass parked to the stage of the
/// shard that owns their downstream VCs — a swap of list headers, no flit
/// copied — and says whether there is any to put.
pub(crate) fn post_handoffs(stages: &mut [ShardStage]) -> bool {
    let mut any = false;
    for s in 0..stages.len() {
        for t in 0..stages.len() {
            if stages[s].outbound[t].is_empty() {
                continue;
            }
            any = true;
            let parked = std::mem::take(&mut stages[s].outbound[t]);
            stages[s].outbound[t] = std::mem::replace(&mut stages[t].inbound[s], parked);
        }
    }
    any
}

/// The shard partition of one network: contiguous node ranges, the
/// per-shard pass outputs, the per-pass copies and (when sharded) the
/// persistent worker pool. Runtime-only: never serialized, never
/// fingerprinted.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    /// Shard `s` owns nodes `bounds[s]..bounds[s + 1]`. Ascending,
    /// `bounds[0] == 0`, last element == node count, every range
    /// non-empty.
    pub bounds: Vec<usize>,
    /// Per-shard pass outputs.
    pub stages: Vec<ShardStage>,
    /// The routers the pass under way visits, as node-bitset words: those
    /// holding a flit, plus an admitted injection (route pass) or an
    /// active one (switch pass). Copied before the pass opens, so that a
    /// router a `put` makes busy mid-pass stays unvisited — its flit is not
    /// ready before `now + hop_latency` and would change nothing but the
    /// visit count.
    pub visit: Vec<u64>,
    /// `vc_full` as the switch pass finds it: the credit every router's
    /// arbitration reads. Each shard's route pass copies its own range;
    /// nothing moves a flit between then and the switch pass but the
    /// recovery drain, which writes the word it pops through. A pop frees
    /// credit for the next cycle, never for a router visited later in the
    /// same pass (credit return takes a cycle).
    pub credit: Vec<u64>,
    /// Persistent workers running the shards' passes (`None` with one
    /// shard). Attached by `Network::set_shards`; dropping the plan joins
    /// the workers, so no thread outlives the network.
    pub pool: Option<WorkerPool>,
}

/// Shard `s` of a `shards`-way split of `nodes` owns nodes `bounds[s] ..
/// bounds[s + 1]`: contiguous, near-equal ranges, clamped to `[1, nodes]`
/// shards. The `s * nodes / shards` split keeps every shard non-empty and
/// sizes within one node of each other (ranges are *not* word-aligned —
/// passes mask bitset words at range edges).
fn split(shards: usize, nodes: usize) -> Vec<usize> {
    let shards = shards.clamp(1, nodes.max(1));
    (0..=shards).map(|s| s * nodes / shards).collect()
}

impl ShardPlan {
    /// Builds a plan with `shards` contiguous node ranges of `torus`
    /// ([`split`]), `v` VCs per channel. The stages' lists are sized at
    /// their per-cycle worst case: a router sets aside at most one suspect
    /// or starvation trip per input feeder and one delivered tail, and
    /// each torus channel from shard `s` into shard `t` hands off at most
    /// one flit a cycle. No worker pool is attached here —
    /// `Network::set_shards` does that, so plan construction in tests
    /// stays thread-free.
    pub fn new(shards: usize, torus: &Torus, v: usize) -> Self {
        let nodes = torus.node_count();
        let fpn = torus.channels_per_node() * v;
        let bounds = split(shards, nodes);
        let shards = bounds.len() - 1;
        let span = |s: usize| bounds[s + 1] - bounds[s];
        // `crossing[s * shards + t]`: the channels from shard `s` into
        // shard `t`, `t != s` (a lone shard has none to count).
        let mut crossing = vec![0; shards * shards];
        let owner = |node: usize| bounds.partition_point(|&b| b <= node) - 1;
        if shards > 1 {
            for node in 0..nodes {
                for dim in 0..torus.dimensions() {
                    for dir in [Dir::Plus, Dir::Minus] {
                        let (s, t) = (owner(node), owner(torus.neighbor(node, dim, dir)));
                        crossing[s * shards + t] += usize::from(s != t);
                    }
                }
            }
        }
        // Shard `s`'s handoffs into shard `t`: one list, swapped between
        // the two stages, so both ends hold the same worst case.
        let mail = |s: usize, t: usize| Vec::with_capacity(crossing[s * shards + t]);
        let stages = (0..shards)
            .map(|s| ShardStage {
                suspects: Vec::with_capacity(span(s) * fpn),
                starved: Vec::with_capacity(span(s) * fpn),
                outbound: (0..shards).map(|t| mail(s, t)).collect(),
                inbound: (0..shards).map(|t| mail(t, s)).collect(),
                delivered: Vec::with_capacity(span(s)),
                ..ShardStage::default()
            })
            .collect();
        ShardPlan {
            bounds,
            stages,
            visit: vec![0; nodes.div_ceil(64)],
            credit: vec![0; nodes],
            pool: None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.stages.len()
    }
}

// ---------------------------------------------------------------------
// Checked raw cells and the pass view
// ---------------------------------------------------------------------

/// A borrowed slice seen as raw cells: pointer, length, and the index
/// range this handle *owns*. Plain [`Cells::get`]/[`Cells::set`] panic
/// outside the owned range; indices owned by nobody in particular (bitset
/// words straddling a shard edge, packet-id-indexed fields) are reached
/// through the relaxed-atomic accessors instead. A handle is neither
/// `Send` nor `Sync`: on one thread, any number of copies over one borrow
/// are as harmless as `&[Cell<T>]`, and the only way a copy reaches
/// another thread is the detach in [`WorkerPool::run`].
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

    /// Index `i` as a cell, which this handle must own.
    #[inline]
    fn cell(&self, i: usize) -> &Cell<T> {
        if i.wrapping_sub(self.lo) >= self.span {
            not_owned(i, self.lo, self.span);
        }
        // SAFETY: owned ranges lie inside `0..len`, so `i` is in bounds;
        // the borrow `'a` keeps the storage alive; `Cell<T>` has `T`'s
        // layout (the cast `Cell::from_mut` makes); and no other thread
        // touches an index this handle owns (see the struct docs).
        unsafe { &*self.ptr.add(i).cast::<Cell<T>>() }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        self.cell(i).get()
    }

    #[inline]
    pub(crate) fn set(&self, i: usize, v: T) {
        self.cell(i).set(v);
    }

    /// Index `i`, whoever owns it, for the atomic accessors below.
    #[inline]
    fn shared(&self, i: usize) -> *mut T {
        assert!(i < self.len, "index {i} is out of bounds ({})", self.len);
        self.ptr.wrapping_add(i)
    }
}

/// The ownership check's failure path, kept out of line: the check sits on
/// every plain access of the pass hot path.
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
        // way are never accessed plainly in the pass that reaches them so
        // (the credit words a route pass writes plainly, a switch pass
        // only loads).
        unsafe { AtomicU64::from_ptr(self.shared(w)) }
    }

    /// Sets bit `i` of the bitset these words pack. One word packs 64
    /// nodes and shard edges are not word-aligned, so the update is an
    /// atomic RMW (which commutes bit-for-bit) — skipped when the bit,
    /// which only its owner's pass changes, already reads set.
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

impl Cells<'_, PacketInfo> {
    /// The fields of packet `id` a pass may touch. Packet ids are not
    /// range-owned — several flits of one worm can move in different
    /// shards in one cycle — so the escape flag, the stamps and the
    /// delivered count are atomics; `dst` is written only when a packet is
    /// generated, never during a pass.
    #[inline]
    pub(crate) fn packet(&self, id: PacketId) -> PacketCell<'_> {
        let p = self.shared(id as usize);
        // SAFETY: `shared` bounds-checked `id`; the field projections
        // create no reference to the whole slot; the flag, the two stamps
        // and the delivered count are only ever accessed atomically while
        // a pass runs, and `u16` storage is `AtomicU16`-aligned.
        unsafe {
            PacketCell {
                dst: (*p).dst,
                escaped: AtomicBool::from_ptr(&raw mut (*p).escaped),
                last_move: AtomicU64::from_ptr(&raw mut (*p).last_move),
                injected_at: AtomicU64::from_ptr(&raw mut (*p).injected_at),
                delivered: AtomicU16::from_ptr(&raw mut (*p).delivered_flits),
            }
        }
    }
}

/// A view of the network state a route/switch pass works on, over one
/// node range: what `Network::apply_ctx` builds for the whole network
/// from `&mut Network`, and what [`ApplyCtx::narrow`] narrows to one
/// shard. The passes and the state transition under them (`impl ApplyCtx`
/// in `network.rs`) are safe code over these accessors. A view is as
/// thread-bound as its [`Cells`]; [`WorkerPool::run`] alone detaches one
/// per shard to hand it to a pool participant.
///
/// # The view contract
///
/// * **Owned-range plain access** — everything indexed by node or by
///   input/output VC (`route_rr`, `out_rr`, `vc_assign`, `vc_routed_at`,
///   `vc_blocked`, `out_alloc`, `inj`, the per-node `vc_*` bit-plane
///   words, the switch plane's slots and move cycles, the flit and source
///   rings). An index outside the view's node range panics.
/// * **Relaxed atomics** — state no node range owns: the node-summary
///   bitsets (64 nodes per word, shard edges unaligned; each bit is
///   changed only by its owner's pass), the packet records' `escaped`
///   flags, `last_move`/`injected_at` stamps and delivered counts (one
///   writer per cycle, or several writing the same value; a delivered
///   count only by its destination's pass), and the switch pass's reads of
///   the credit copy, which each shard's route pass writes for its own
///   range.
/// * **Read-only while a pass runs** — the visit copy, the cycle's
///   injection allowances (`allow`), the plan's bounds, the route tables,
///   the fault plan, and packet destinations. No pass writes them, so
///   every shard reads them plainly. A packet's length is no state at
///   all: every packet has the view's `packet_len` flits.
/// * **Deferred to the handoff pass** — a handoff's `put`: its downstream
///   VC is another shard's, so the source shard's switch pass `take`s and
///   parks it, and the owner's handoff pass `put`s.
/// * **Deferred to the fold** — everything globally ordered or global:
///   the token queue, a tail's delivery record and packet release, and
///   the scalars (`counters`, `full_buffers`, `last_progress_at`,
///   `last_delivery_at`), which a view reaches only as [`ShardStage`]
///   lists and deltas folded after the pass.
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
    /// Flits per packet ([`crate::NetConfig::packet_len`]): flit
    /// `packet_len - 1` is the tail.
    pub packet_len: u16,
    /// Disha detection timeout; 0 in avoidance mode.
    pub recovery_timeout: u64,
    pub route_rr: Cells<'a, usize>,
    pub out_rr: Cells<'a, usize>,
    pub vc_assign: Cells<'a, Assign>,
    pub vc_routed_at: Cells<'a, u64>,
    pub vc_blocked: Cells<'a, u64>,
    pub out_alloc: Cells<'a, bool>,
    pub inj: Cells<'a, InjState>,
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
    pub plane: SwitchPlaneView<'a>,
    /// The pass's visit copy ([`ShardPlan::visit`]).
    pub visit: &'a [u64],
    /// The switch pass's credit copy ([`ShardPlan::credit`]), written by
    /// the route pass.
    pub credit: Cells<'a, u64>,
    /// The shard partition ([`ShardPlan::bounds`]): where a handoff's
    /// downstream VC is owned.
    pub bounds: &'a [usize],
    /// The cycle's injection allowances, as node-bitset words.
    pub allow: &'a [u64],
    /// Output-channel selection rows and the switch-plane slots of every
    /// output VC.
    pub tables: &'a RouteTables,
    /// The installed link/hotspot faults (`None` on a fault-free network).
    pub faults: Option<&'a FaultPlan>,
}

impl<'a> ApplyCtx<'a> {
    /// This view narrowed to the nodes `lo..hi`, which it must own. Like
    /// any copy of a view, the narrowed one stays on this thread.
    pub(crate) fn narrow(&self, lo: usize, hi: usize) -> ApplyCtx<'a> {
        let vcs = lo * self.fpn..hi * self.fpn;
        ApplyCtx {
            route_rr: self.route_rr.narrow(lo, hi),
            out_rr: self.out_rr.narrow(lo * self.nports, hi * self.nports),
            vc_assign: self.vc_assign.narrow(vcs.start, vcs.end),
            vc_routed_at: self.vc_routed_at.narrow(vcs.start, vcs.end),
            vc_blocked: self.vc_blocked.narrow(vcs.start, vcs.end),
            out_alloc: self.out_alloc.narrow(vcs.start, vcs.end),
            inj: self.inj.narrow(lo, hi),
            vc_busy: self.vc_busy.narrow(lo, hi),
            vc_unrouted: self.vc_unrouted.narrow(lo, hi),
            vc_switchable: self.vc_switchable.narrow(lo, hi),
            vc_full: self.vc_full.narrow(lo, hi),
            credit: self.credit.narrow(lo, hi),
            vc_bufs: self.vc_bufs.narrow(vcs.start, vcs.end),
            source_q: self.source_q.narrow(lo, hi),
            plane: self.plane.narrow(lo * (self.fpn + 1), hi * (self.fpn + 1)),
            // Owned by no node range: atomic access only.
            busy_nodes: self.busy_nodes.narrow(0, 0),
            inj_nodes: self.inj_nodes.narrow(0, 0),
            srcq_nodes: self.srcq_nodes.narrow(0, 0),
            packets: self.packets.narrow(0, 0),
            ..*self
        }
    }
}

// ---------------------------------------------------------------------
// The persistent worker pool
// ---------------------------------------------------------------------

/// Which per-cycle pass a dispatch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    Route,
    Switch,
    /// The downstream half of a sharded switch pass's handoffs.
    Handoff,
}

/// One shard's view, detached from the borrow of the network it was built
/// under so that it can reach a pool participant. Only
/// [`WorkerPool::run`] builds one, and it outwaits every use.
#[derive(Debug)]
struct ShardView(ApplyCtx<'static>);

// SAFETY: the one field is a view, whose cells may be used on another
// thread under the argument stated at the detach in `WorkerPool::run`,
// where every `ShardView` is built.
unsafe impl Send for ShardView {}

/// One shard's job slot: the pass it runs next — kind, cycle, node range,
/// whether to time it ([`ShardStage::pass_ns`]) and view, loaded by
/// [`WorkerPool::run`] and taken by the claim holder — and its stage, which
/// `run` swaps in for the pass and back out after it.
#[derive(Debug, Default)]
struct Slot {
    job: Option<(Pass, u64, usize, usize, bool, ShardView)>,
    stage: ShardStage,
}

/// A slot, even one a panicking pass poisoned. Only an abandoned pass
/// leaves a poisoned slot, and all that is done with it then is dropping
/// its job; the panic itself reaches the caller, message and all, through
/// [`PoolShared::record_panic`].
fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wall-clock split of the cycle pipeline's passes and the pool's claim
/// tallies, accumulated only when explicitly enabled
/// (`Network::set_phase_stats`) — the hot path pays one branch per pass
/// otherwise. Informational: feeds the repo benchmark's
/// `netsim.phase_*` metrics, never simulation results.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseStats {
    /// Always 0. A pass has no separate decide phase any more — each
    /// router arbitrates and moves in one sweep, timed as `apply_ns`; the
    /// field stays for the readers of the old split.
    pub decide_ns: u64,
    /// Nanoseconds the caller's thread spent running passes — route,
    /// switch and handoff, its own shards' or, with one shard, the whole
    /// network's — and the sequential folds.
    pub apply_ns: u64,
    /// Nanoseconds the caller's thread spent in the claim protocol, mostly
    /// waiting at the end of a pass for other participants' shards (next
    /// to nothing when the caller claims every shard itself).
    pub barrier_ns: u64,
    /// Shards of a route or switch pass claimed by the participant whose
    /// home run they belong to. (A handoff pass runs only on cycles that
    /// hand flits off; its claims are not tallied, so the tally is two
    /// passes a cycle.)
    pub home_claims: u64,
    /// Shards of a route or switch pass swept up by some other
    /// participant.
    pub stolen_claims: u64,
    /// Nanoseconds of the slowest shard's own pass, summed over the route
    /// and switch passes: the shard every other participant waits for at
    /// the end of the pass. 0 with one shard, which has no pool.
    pub slowest_shard_ns: u64,
    /// Nanoseconds of the fastest shard's own pass, summed likewise; its
    /// gap to `slowest_shard_ns` is the load imbalance between shards.
    pub fastest_shard_ns: u64,
}

/// Low bits of a claim word naming the claimant; the pass number sits
/// above them.
const ID_BITS: u32 = 16;

/// The shared words of the claim protocol — who runs which shard of which
/// pass, and how many shards' passes have landed.
///
/// Passes are numbered from 1. The coordinator *opens* pass `e` by moving
/// `epoch` on to `e` (after loading the job slots). A participant that reads
/// `epoch == e` claims shard `s` for pass `e` by swapping `claims[s]` from
/// a tag of an earlier pass to `e << ID_BITS | me`; tags only grow, so
/// exactly one participant wins each shard of each pass, and a straggler
/// still holding an older `e` wins nothing. The winner runs the shard's
/// pass at once and bumps `applied`. The pass is complete at `applied ==
/// e · shards`; only then may the coordinator load the next jobs. There
/// is no barrier inside a pass: no shard's pass reads what another's
/// writes (see [`ApplyCtx`]).
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
    /// Report that shard's pass as landed (the participant holds the
    /// claim until it does).
    Applied,
    /// Coordinator only: wait for every shard's pass.
    Finish,
}

/// What the caller of [`Board::step`] must do before stepping again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Run this shard's pass.
    Run(usize),
    /// Nothing; step again.
    Next,
    /// The step found the pass incomplete and changed nothing.
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
            state: State::Idle,
        }
    }

    /// Opens the next pass. Coordinator only, with the previous pass
    /// complete and the job slots loaded.
    fn open(&self) {
        // SeqCst for the park handshake (see `worker_loop`); as a release
        // store it also publishes everything the coordinator did to the
        // network since the last pass.
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
        match c.state {
            State::Idle => {
                // Acquire: a participant that joins pass `e` sees all the
                // coordinator did before opening it.
                let epoch = self.epoch.load(Ordering::Acquire);
                if epoch == c.pass {
                    return Action::Idle;
                }
                (c.pass, c.at, c.state) = (epoch, 0, State::Peek);
            }
            State::Peek if c.at == self.shards => {
                c.state = if c.me == 0 {
                    State::Finish
                } else {
                    State::Idle
                };
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
                let tag = c.pass << ID_BITS | c.me as u64;
                let won = self.claims[shard]
                    .compare_exchange(seen, tag, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok();
                if won {
                    c.state = State::Applied;
                    return Action::Run(shard);
                }
                c.at += 1;
                c.state = State::Peek;
            }
            State::Applied => {
                // Release: the coordinator's acquire load in `Finish`
                // orders this pass's writes before its fold and the next
                // pass.
                self.applied.fetch_add(1, Ordering::Release);
                c.at += 1;
                c.state = State::Peek;
            }
            State::Finish => {
                if self.applied.load(Ordering::Acquire) < c.pass * self.shards as u64 {
                    return Action::Wait;
                }
                c.state = State::Idle;
            }
        }
        Action::Next
    }
}

/// Shared state of one worker pool. A slot is locked by the holder of its
/// shard's claim while it runs the pass, and by the coordinator only
/// between passes, so no lock is ever contended on the hot path.
#[derive(Debug)]
struct PoolShared {
    board: Board,
    /// One job slot per shard.
    slots: Box<[Mutex<Slot>]>,
    /// Tells workers to exit and the coordinator's wait to give up: set
    /// when the pool is dropped and when a participant panics.
    shutdown: AtomicBool,
    /// The first panic caught on any participant, re-raised on the
    /// coordinator once every worker is joined.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Per-worker parked flags, so a dispatch can skip the unpark syscall
    /// for workers that are spinning.
    parked: Vec<AtomicBool>,
}

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
/// Spins before the coordinator's wait for the pass starts yielding the
/// CPU (when participants outnumber free cores, the one holding a claim
/// needs the timeslice to finish).
const WAIT_SPINS: u32 = 128;

/// The persistent worker threads running passes for one shard plan, plus
/// the caller's thread as a full participant. See the module docs for the
/// protocol. Dropping the pool shuts the workers down and joins them.
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
            slots: (0..shards).map(|_| Mutex::default()).collect(),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
            parked: (1..participants).map(|_| AtomicBool::new(false)).collect(),
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

    /// Runs one pass over `net` to completion: loads each shard's slot
    /// with its job and its stage, opens the pass, wakes sleeping workers,
    /// participates from the caller's thread, and once every shard's pass
    /// has landed moves the stages back into `stages`. The sequential fold
    /// is the caller's job afterwards.
    ///
    /// # Panics
    ///
    /// Re-raises, after joining every worker, the first panic of any
    /// participant's pass. The pass is then half done: the network must
    /// not be stepped again.
    pub(crate) fn run(
        &mut self,
        net: &mut Network,
        kind: Pass,
        now: u64,
        stages: &mut [ShardStage],
        mut stats: Option<&mut PhaseStats>,
    ) {
        let whole = net.apply_ctx();
        // Only route and switch passes: see `PhaseStats::home_claims`.
        let timed = stats.is_some() && kind != Pass::Handoff;
        debug_assert_eq!(stages.len(), self.shared.slots.len());
        for (t, (slot, stage)) in self.shared.slots.iter().zip(stages.iter_mut()).enumerate() {
            let (lo, hi) = (whole.bounds[t], whole.bounds[t + 1]);
            // SAFETY: the whole argument of sharded stepping. A detached
            // view leaves this thread only through its slot, and only the
            // holder of its shard's claim of this pass takes it out and
            // uses it. `run` outwaits every claim of the pass — or, if a
            // participant panics, joins every worker — before it returns,
            // so no use outlives the borrow of `net`, which nothing else
            // touches meanwhile. The plan's ranges are disjoint, so views
            // in use together own disjoint indices, and what no range owns
            // they reach only through atomics (the view contract).
            let view = unsafe {
                std::mem::transmute::<ApplyCtx<'_>, ApplyCtx<'static>>(whole.narrow(lo, hi))
            };
            let mut slot = lock(slot);
            slot.job = Some((kind, now, lo, hi, timed, ShardView(view)));
            std::mem::swap(&mut slot.stage, stage);
        }
        self.open();
        let (sh, cursor) = (&*self.shared, &mut self.cursor);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            participate(sh, cursor, stats.as_deref_mut())
        }));
        self.close(outcome);
        for (slot, stage) in self.shared.slots.iter().zip(stages.iter_mut()) {
            std::mem::swap(&mut lock(slot).stage, stage);
        }
        if let (Some(st), true) = (stats, timed) {
            let (home, stolen) = self.shared.board.claim_split(self.cursor.pass);
            st.home_claims += home;
            st.stolen_claims += stolen;
            let times = stages.iter_mut().map(|s| std::mem::take(&mut s.pass_ns));
            let (slowest, fastest) =
                times.fold((0, u64::MAX), |(hi, lo), ns| (hi.max(ns), lo.min(ns)));
            st.slowest_shard_ns += slowest;
            st.fastest_shard_ns += fastest;
        }
    }

    /// Opens the loaded pass and unparks the workers that sleep.
    fn open(&mut self) {
        self.shared.board.open();
        for (h, parked) in self.handles.iter().zip(&self.shared.parked) {
            // Taking the flag down here, not when the worker finally runs,
            // makes it one wake-up call per sleep: a worker can take many
            // passes' time to get back on a core.
            if parked.load(Ordering::SeqCst) && parked.swap(false, Ordering::SeqCst) {
                h.thread().unpark();
            }
        }
    }

    /// Ends a pass: returns if it completed, otherwise joins every worker
    /// (none may outlive the borrow the views point into), drops the views
    /// nobody claimed and re-raises the panic that abandoned the pass.
    fn close(&mut self, outcome: std::thread::Result<bool>) {
        match outcome {
            Ok(true) => return,
            Ok(false) => {}
            Err(payload) => self.shared.record_panic(payload),
        }
        self.join();
        for slot in &self.shared.slots {
            lock(slot).job = None;
        }
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
/// down), in which case it will never complete. With `stats`, the time
/// goes to the shard passes it ran or to the protocol.
fn participate(sh: &PoolShared, cur: &mut Cursor, mut stats: Option<&mut PhaseStats>) -> bool {
    let mut clock = stats.is_some().then(std::time::Instant::now);
    let mut spins = 0u32;
    loop {
        let action = sh.board.step(cur);
        match action {
            Action::Run(shard) => {
                spins = 0;
                debug_assert_eq!(
                    sh.board.claims[shard].load(Ordering::Relaxed),
                    cur.pass << ID_BITS | cur.me as u64,
                    "running a shard another participant claimed"
                );
                execute(sh, shard);
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
                Action::Run(_) => st.apply_ns += ns,
                _ => st.barrier_ns += ns,
            }
        }
    }
}

/// Shard `t`'s pass, run by the holder of its claim, and timed into its
/// stage if the job says so.
fn execute(sh: &PoolShared, t: usize) {
    let mut slot = lock(&sh.slots[t]);
    let Slot { job, stage } = &mut *slot;
    let (kind, now, lo, hi, timed, ShardView(view)) =
        job.take().expect("a claimed shard has its job");
    if timed {
        let since = std::time::Instant::now();
        view.pass(kind, now, lo, hi, stage);
        stage.pass_ns = since.elapsed().as_nanos() as u64;
    } else {
        view.pass(kind, now, lo, hi, stage);
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
            std::thread::park();
        }
        parked.store(false, Ordering::SeqCst);
        spins = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::Slot;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn partition_covers_all_nodes_exactly_once() {
        for nodes in [1usize, 2, 63, 64, 65, 256] {
            for shards in [1usize, 2, 3, 4, 7, 300] {
                let bounds = split(shards, nodes);
                assert_eq!(bounds[0], 0);
                assert_eq!(*bounds.last().unwrap(), nodes);
                assert_eq!(bounds.len() - 1, shards.min(nodes));
                for s in 0..bounds.len() - 1 {
                    assert!(
                        bounds[s] < bounds[s + 1],
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
        assert_eq!(split(4, 64), vec![0, 16, 32, 48, 64]);
    }

    #[test]
    fn plan_construction_spawns_no_threads() {
        let plan = ShardPlan::new(8, &Torus::new(8, 2).unwrap(), 2);
        assert!(plan.pool.is_none(), "pool attachment is set_shards' job");
    }

    /// Each ordered shard pair's handoff list holds exactly the torus
    /// channels between them, counted by hand.
    #[test]
    fn handoff_lists_hold_the_boundary_channels() {
        let cap = |plan: &ShardPlan, s: usize, t: usize| {
            let out = plan.stages[s].outbound[t].capacity();
            assert_eq!(out, plan.stages[t].inbound[s].capacity(), "{s} → {t}");
            out
        };
        // 12-ary 3-cube in halves at the z = 6 plane: each way, the two
        // 144-node z-faces z = 5 → 6 and z = 0 → 11 (or back) cross.
        let plan = ShardPlan::new(2, &Torus::new(12, 3).unwrap(), 3);
        assert_eq!(
            [0, 1, 2, 3].map(|st| cap(&plan, st / 2, st % 2)),
            [0, 288, 288, 0]
        );
        // 8-ary 2-cube in four two-row shards, a ring of them: one 8-node
        // row face to each neighbouring shard, none to the opposite one.
        let plan = ShardPlan::new(4, &Torus::new(8, 2).unwrap(), 3);
        for s in 0..4 {
            for t in 0..4 {
                let want = if (t + 4 - s) % 2 == 1 { 8 } else { 0 };
                assert_eq!(cap(&plan, s, t), want, "{s} → {t}");
            }
        }
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
        /// `epoch`, `applied`, then the claim words.
        words: Vec<u64>,
        cursors: Vec<Cursor>,
        /// The pass whose job sits in the job slot.
        job: u64,
        /// Passes the coordinator has yet to open.
        to_open: u64,
        /// Per shard of the open pass: whether its pass has started.
        started: Vec<bool>,
        /// Per participant: whether it is running a shard's pass, from the
        /// step that returned it to the participant's next step.
        running: Vec<bool>,
    }

    impl World {
        fn new(shards: usize, participants: usize, passes: u64) -> World {
            let board = Board::new(shards, participants);
            World {
                words: vec![0; 2 + shards],
                cursors: (0..participants).map(|p| board.cursor(p)).collect(),
                job: 0,
                to_open: passes,
                started: vec![false; shards],
                running: vec![false; participants],
            }
        }

        fn board(&self) -> Board {
            let board = Board::new(self.words.len() - 2, self.cursors.len());
            board.epoch.store(self.words[0], Ordering::Relaxed);
            board.applied.store(self.words[1], Ordering::Relaxed);
            for (claim, &word) in board.claims.iter().zip(&self.words[2..]) {
                claim.store(word, Ordering::Relaxed);
            }
            board
        }

        fn keep(&mut self, board: &Board) {
            self.words[0] = board.epoch.load(Ordering::Relaxed);
            self.words[1] = board.applied.load(Ordering::Relaxed);
            for (word, claim) in self.words[2..].iter_mut().zip(board.claims.iter()) {
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
        /// the coordinator, or a holder of an unreported claim.
        fn needed(&self, p: usize) -> bool {
            p == 0 || self.cursors[p].state == State::Applied
        }

        /// The world after participant `p`'s next transition — `None` if
        /// that changes nothing (an idle step, an incomplete pass) —
        /// checked against everything the pool relies on.
        fn after(&self, p: usize) -> Option<World> {
            let mut next = self.clone();
            let board = self.board();
            if p == 0 && self.between_passes() {
                if self.to_open == 0 {
                    return None;
                }
                // `WorkerPool::run` loads the slots, then `open`s: a slot is
                // written while nobody may read it, the pass behind it
                // complete.
                assert!(
                    !self.running.contains(&true),
                    "job overwritten under a reader"
                );
                assert!(self.cursors.iter().all(|c| c.state != State::Applied));
                if self.job > 0 {
                    assert!(!self.started.contains(&false), "pass left incomplete");
                }
                next.job += 1;
                next.to_open -= 1;
                next.started.fill(false);
                board.open();
                next.keep(&board);
                return Some(next);
            }
            let action = board.step(&mut next.cursors[p]);
            next.keep(&board);
            next.running[p] = false;
            if let Action::Run(shard) = action {
                let pass = next.cursors[p].pass;
                assert_eq!(
                    pass, self.job,
                    "participant {p} reads the job of another pass"
                );
                assert_eq!(pass, self.words[0], "participant {p} runs a closed pass");
                assert!(!self.started[shard], "shard {shard} ran twice in one pass");
                next.running[p] = true;
                next.started[shard] = true;
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
        // Every schedule ends with every shard's pass landed, once per
        // pass, whoever claimed what.
        assert!(!finals.is_empty());
        for words in &finals {
            assert_eq!(words[..2], [passes, passes * shards as u64]);
        }
        marks.len()
    }

    #[test]
    fn every_schedule_of_one_pass_runs_each_shard_once() {
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

    /// The saturated mid-run network, ready for a hand-driven pass. The
    /// injection allowance is per-cycle scratch of the cycle that just
    /// ended; a pass outside `cycle` must not act on it.
    fn hot_net() -> Network {
        let mut net = crate::testnet::hot_net();
        net.allow_nodes.clear();
        net
    }

    /// The stage of a one-shard plan over the [`NODES`]-node test net.
    fn stage() -> ShardStage {
        let cfg = crate::testnet::small_cfg();
        ShardPlan::new(1, &cfg.torus().unwrap(), cfg.vcs)
            .stages
            .remove(0)
    }

    /// The switch pass's copies, the credit copy taken as the cycle's
    /// route passes would have.
    fn take_switch_copies(net: &mut Network) {
        assert!(net.take_pass_copies(Pass::Switch));
        net.plan.credit.copy_from_slice(&net.vc_full);
    }

    /// The view of `net`'s nodes `lo..hi`.
    fn view_of(net: &mut Network, lo: usize, hi: usize) -> ApplyCtx<'_> {
        net.apply_ctx().narrow(lo, hi)
    }

    /// Re-points every network-port switch-plane slot of the lower half's
    /// routed feeders one past the last input VC of node `MID - 1`: a
    /// corrupted slot that classifies the move as a local hop of the lower
    /// half while its `put` lands in node `MID`'s first input VC.
    fn misfile_lower_hops(net: &mut Network) {
        let d = net.torus().channels_per_node();
        let fpn = d * net.config().vcs;
        let view = net.plane.view();
        for node in 0..MID {
            let inj = u64::from(net.inj[node].active.is_some()) << fpn;
            let mut mask = (net.vc_busy[node] & net.vc_switchable[node]) | inj;
            while mask != 0 {
                let at = node * (fpn + 1) + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let slot = view.slot(at);
                if slot.port() != d {
                    view.set_slot(at, Slot::new(slot.port(), MID - 1, fpn));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn a_route_pass_over_foreign_routers_panics() {
        let mut net = hot_net();
        assert!(net.take_pass_copies(Pass::Route));
        let now = net.now;
        view_of(&mut net, 0, MID).route_pass(now, MID, NODES, &mut stage());
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn a_switch_pass_over_foreign_routers_panics() {
        let mut net = hot_net();
        take_switch_copies(&mut net);
        let now = net.now;
        view_of(&mut net, MID, NODES).switch_pass(now, 0, MID, &mut stage());
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn a_hop_misfiled_as_local_panics_at_its_put() {
        let mut net = hot_net();
        misfile_lower_hops(&mut net);
        take_switch_copies(&mut net);
        let now = net.now;
        view_of(&mut net, 0, MID).switch_pass(now, 0, MID, &mut stage());
    }

    fn saved(net: &Network) -> Vec<u8> {
        let mut enc = checkpoint::Enc::new();
        net.save_state(&mut enc);
        enc.into_vec()
    }

    /// "Same code", independent of the pool: one route and one switch
    /// pass through the whole-network view, and through a pair of
    /// half-network views (in descending order, for good measure) whose
    /// switch passes park their handoffs for the other half's handoff
    /// pass, leave identical networks.
    #[test]
    fn whole_view_and_shard_views_compute_the_same_pass() {
        let (mut whole, mut halves) = (hot_net(), hot_net());
        assert_eq!(saved(&whole), saved(&halves));
        halves.plan = ShardPlan::new(2, halves.torus(), halves.config().vcs);
        let now = whole.now;
        for kind in [Pass::Route, Pass::Switch] {
            let mut stages = std::mem::take(&mut whole.plan.stages);
            assert!(whole.take_pass_copies(kind));
            whole.apply_ctx().pass(kind, now, 0, NODES, &mut stages[0]);
            let st = &stages[0];
            assert!(
                st.route_visits + st.switch_visits > 0,
                "vacuous: nothing visited"
            );
            assert!(!post_handoffs(&mut stages), "one shard hands nothing off");
            whole.fold_stages(kind, now, &mut stages);
            whole.plan.stages = stages;

            let mut stages = std::mem::take(&mut halves.plan.stages);
            assert!(halves.take_pass_copies(kind));
            let (lo, hi) = stages.split_at_mut(1);
            view_of(&mut halves, MID, NODES).pass(kind, now, MID, NODES, &mut hi[0]);
            view_of(&mut halves, 0, MID).pass(kind, now, 0, MID, &mut lo[0]);
            let crossing = post_handoffs(&mut stages);
            assert!(kind == Pass::Route || crossing, "vacuous: no handoff");
            let (lo, hi) = stages.split_at_mut(1);
            view_of(&mut halves, MID, NODES).pass(Pass::Handoff, now, MID, NODES, &mut hi[0]);
            view_of(&mut halves, 0, MID).pass(Pass::Handoff, now, 0, MID, &mut lo[0]);
            halves.fold_stages(kind, now, &mut stages);
            halves.plan.stages = stages;
        }
        assert_eq!(saved(&whole), saved(&halves));
        for net in [&whole, &halves] {
            let report = net.audit();
            assert!(report.is_clean(), "{report}");
        }
    }

    /// With phase stats on, a sharded network books its slowest and its
    /// fastest shard's pass time for every route and switch pass; one
    /// shard has no pool and books neither.
    #[test]
    fn phase_stats_time_the_slowest_and_the_fastest_shard() {
        for shards in [1, 2] {
            let mut net = hot_net();
            net.set_shards(shards);
            net.set_phase_stats(true);
            net.run(
                200,
                &mut crate::testnet::source(2, NODES, 60),
                &mut crate::NoControl,
            );
            let st = net.phase_stats().unwrap();
            let (slowest, fastest) = (st.slowest_shard_ns, st.fastest_shard_ns);
            if shards == 1 {
                assert_eq!((slowest, fastest), (0, 0));
            } else {
                assert!(slowest >= fastest && fastest > 0, "{st:?}");
            }
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

    /// A two-shard hot network (shards `0..MID` and `MID..NODES`) taken
    /// apart for a hand-driven switch pass, with shard 0's local hops
    /// misfiled ([`misfile_lower_hops`]): its pass `put`s into shard 1.
    fn poisoned_pass() -> (Network, Vec<ShardStage>) {
        let mut net = hot_net();
        net.set_shards(2);
        assert_eq!(net.plan.bounds, [0, MID, NODES]);
        misfile_lower_hops(&mut net);
        take_switch_copies(&mut net);
        let stages = std::mem::take(&mut net.plan.stages);
        (net, stages)
    }

    /// Runs `poisoned_pass`'s switch pass through `pool` and re-raises its
    /// panic once it has checked that the pass joined the worker.
    fn run_poisoned(mut pool: WorkerPool) {
        let (mut net, mut stages) = poisoned_pass();
        let now = net.now;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut net, Pass::Switch, now, &mut stages, None);
        }));
        assert!(
            pool.handles.is_empty(),
            "the worker outlived the failed pass"
        );
        resume_unwind(outcome.expect_err("the misfiled hop was put"));
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn mis_owned_access_on_a_worker_claim_panics_the_coordinator() {
        within_a_minute(|| {
            let mut pool = WorkerPool::new(2, 2);
            // The coordinator goes straight to waiting for pass 1, claiming
            // nothing: every shard is the worker's, the poisoned one swept
            // up after its home shard 1.
            pool.cursor = Cursor {
                pass: 1,
                at: 2,
                state: State::Finish,
                ..pool.cursor
            };
            run_poisoned(pool);
        });
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn mis_owned_access_on_a_coordinator_claim_panics_after_joining_the_worker() {
        // The coordinator claims its home shard 0, the poisoned one, at
        // once; the worker gets shard 1, runs it, and goes idle — and must
        // still be joined before the panic reaches the caller.
        within_a_minute(|| run_poisoned(WorkerPool::new(2, 2)));
    }
}
