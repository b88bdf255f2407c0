//! The invariant audit layer: full-scan ground truth vs. incremental state.
//!
//! Derived state sits over the authoritative simulator state — activity
//! bitsets and node summaries, assignment and occupancy bit-planes, the
//! switch plane, a running full-buffer census and a quiescence predicate —
//! all maintained incrementally on the hot path. [`Network::audit`]
//! recomputes those structures from ground truth, through the same
//! derivation a checkpoint restore writes them with
//! ([`Network::derive_node`], [`Network::derive_plane`]), and diffs the
//! result against the incremental copy. It layers conservation ledgers on
//! top: every generated packet is accounted for (delivered or live), every
//! emitted flit is somewhere (buffered in a VC, in a deadlock buffer, or
//! delivered), every output-VC allocation has exactly one owner, and the
//! token queue and recovery drain hold only what their mirror flags say
//! they hold.
//!
//! The audit is read-only and allocation-heavy by design: it runs off the
//! hot path (every N cycles behind `STCC_AUDIT`, and at checkpoint/restore
//! boundaries), where clarity beats cost. A violation is reported, not
//! asserted, so callers — the chaos harness above all — can fail loudly
//! with a minimized repro instead of a bare panic.

use crate::activity::NodeSet;
use crate::network::{Assign, Network};
use crate::shard::Parked;
use core::fmt;

/// Which invariant a violation broke. One variant per independently
/// falsifiable invariant, so corruption tests can assert the auditor
/// reports *exactly* the structure they desynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditKind {
    /// `vc_busy` worklist bit vs. actual buffer emptiness.
    WorklistBit,
    /// `vc_full` occupancy bit vs. actual buffer fill.
    OccupancyBit,
    /// `vc_unrouted` plane vs. the actual assignment.
    UnroutedBit,
    /// `vc_switchable` plane vs. the actual assignment.
    SwitchableBit,
    /// Switch-plane slot or `movable_at` vs. the assignment, ring front
    /// and routing timestamp it summarizes.
    SwitchPlane,
    /// `busy_nodes` summary vs. the per-node worklist word.
    BusySummary,
    /// `inj_nodes` summary vs. the injection interfaces.
    InjSummary,
    /// `srcq_nodes` summary vs. the source queues.
    SrcqSummary,
    /// Running census `full_buffers` vs. the popcount of the planes.
    Census,
    /// Generated ≠ delivered + live packets.
    PacketLedger,
    /// Injected ≠ delivered + live-and-injected packets.
    InjectionLedger,
    /// Per-packet flit conservation: emitted ≠ buffered + delivered.
    FlitLedger,
    /// Source-queue membership vs. packet state.
    SourceQueueLedger,
    /// Output-VC allocation flags vs. their actual owners.
    OutAllocOwnership,
    /// Token-queue contents vs. the `vc_queued` mirror flags.
    TokenQueue,
    /// Recovery job/drain-buffer consistency.
    Recovery,
    /// Incremental quiescence predicate vs. a full scan.
    Quiescence,
    /// A shard's pass output left over between cycles: a suspect or
    /// starvation trip not committed, a handoff not put or a delivered
    /// tail not finished.
    MailboxConservation,
    /// Shard partition not a disjoint ascending cover of the node range.
    ShardPartition,
}

impl AuditKind {
    /// Short stable label (used in reports and repro lines).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AuditKind::WorklistBit => "worklist-bit",
            AuditKind::OccupancyBit => "occupancy-bit",
            AuditKind::UnroutedBit => "unrouted-bit",
            AuditKind::SwitchableBit => "switchable-bit",
            AuditKind::SwitchPlane => "switch-plane",
            AuditKind::BusySummary => "busy-summary",
            AuditKind::InjSummary => "inj-summary",
            AuditKind::SrcqSummary => "srcq-summary",
            AuditKind::Census => "census",
            AuditKind::PacketLedger => "packet-ledger",
            AuditKind::InjectionLedger => "injection-ledger",
            AuditKind::FlitLedger => "flit-ledger",
            AuditKind::SourceQueueLedger => "source-queue-ledger",
            AuditKind::OutAllocOwnership => "out-alloc-ownership",
            AuditKind::TokenQueue => "token-queue",
            AuditKind::Recovery => "recovery",
            AuditKind::Quiescence => "quiescence",
            AuditKind::MailboxConservation => "mailbox-conservation",
            AuditKind::ShardPartition => "shard-partition",
        }
    }
}

/// One broken invariant, with enough detail to localize it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which invariant broke.
    pub kind: AuditKind,
    /// Human-readable locus: node/VC/packet indices and the two values
    /// that disagree.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.label(), self.detail)
    }
}

/// The result of one full audit pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// The cycle the audit ran at.
    pub cycle: u64,
    /// Every violation found, in scan order. Empty means clean.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether the audit found no violations.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean at cycle {}", self.cycle);
        }
        write!(
            f,
            "audit found {} violation(s) at cycle {}:",
            self.violations.len(),
            self.cycle
        )?;
        const SHOWN: usize = 16;
        for v in self.violations.iter().take(SHOWN) {
            write!(f, "\n  {v}")?;
        }
        if self.violations.len() > SHOWN {
            write!(f, "\n  ... and {} more", self.violations.len() - SHOWN)?;
        }
        Ok(())
    }
}

impl Network {
    /// Audits every incremental structure and conservation ledger against
    /// a full scan of the authoritative state. Read-only; call between
    /// cycles (or at a checkpoint/restore boundary) so the state is at a
    /// stage-consistent point.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let mut v: Vec<AuditViolation> = Vec::new();
        self.audit_worklists(&mut v);
        self.audit_ledgers(&mut v);
        self.audit_out_alloc(&mut v);
        self.audit_token_queue(&mut v);
        self.audit_recovery(&mut v);
        self.audit_quiescence(&mut v);
        self.audit_shards(&mut v);
        AuditReport {
            cycle: self.now,
            violations: v,
        }
    }

    /// The worklist, occupancy and assignment words, the node summaries
    /// and the switch plane, each diffed against what
    /// [`Network::derive_node`] and [`Network::derive_plane`] derive from
    /// ground truth (one message per node, or per plane entry, and kind),
    /// and the census against the occupancy words. Messages are formatted
    /// only on a mismatch: debug builds run this, with
    /// [`Network::audit_shards`], after every cycle under the
    /// zero-allocation gate.
    ///
    /// The switch plane is checked where the switch pass can come to read
    /// it — the slot of every switchable input VC, the `movable_at`
    /// of those that hold a flit, both for every active injection; the
    /// rest of it is stale by design ([`crate::plane`]).
    pub(crate) fn audit_worklists(&self, v: &mut Vec<AuditViolation>) {
        use AuditKind as K;
        let fpn = self.torus().channels_per_node() * self.config().vcs;
        let mut push = |kind, detail| v.push(AuditViolation { kind, detail });
        let bit = |b: bool| u64::from(b);
        let mut census = 0u32;
        for node in 0..self.vc_busy.len() {
            let w = self.derive_node(node);
            let has = |set: &NodeSet| bit(set.contains(node));
            for (kind, got, want) in [
                (K::WorklistBit, self.vc_busy[node], w.busy),
                (K::OccupancyBit, self.vc_full[node], w.full),
                (K::UnroutedBit, self.vc_unrouted[node], w.unrouted),
                (K::SwitchableBit, self.vc_switchable[node], w.switchable),
                (K::BusySummary, has(&self.busy_nodes), bit(w.busy != 0)),
                (K::InjSummary, has(&self.inj_nodes), bit(w.injecting)),
                (K::SrcqSummary, has(&self.srcq_nodes), bit(w.queued)),
            ] {
                if got != want {
                    push(kind, format!("node {node}: {got:#x}, expected {want:#x}"));
                }
            }
            for f in 0..=fpn {
                let (slot, movable_at) = self.derive_plane(node, f);
                let at = node * (fpn + 1) + f;
                let (s, t) = (self.plane.slot(at), self.plane.movable_at(at));
                let diff = match slot {
                    _ if f == fpn && !w.injecting => None,
                    None if f == fpn => {
                        Some(format!("active but assigned {:?}", self.inj[node].assign))
                    }
                    Some(slot) if s != slot => Some(format!("slot {s:?}, expected {slot:?}")),
                    Some(_) if movable_at.is_some_and(|m| m != t) => {
                        Some(format!("movable_at {t}, expected {movable_at:?}"))
                    }
                    _ => None,
                };
                if let Some(diff) = diff {
                    push(K::SwitchPlane, format!("node {node} feeder {f}: {diff}"));
                }
            }
            census += self.vc_full[node].count_ones();
        }
        let running = self.full_buffers;
        if census != running {
            let detail =
                format!("running census {running} but occupancy planes popcount to {census}");
            push(K::Census, detail);
        }
    }

    /// Conservation ledgers: packets, injections, per-packet flits and
    /// source-queue membership, cross-checked against a full scan of every
    /// buffer, queue and injection interface; and every live packet's
    /// endpoints are nodes of the network.
    fn audit_ledgers(&self, v: &mut Vec<AuditViolation>) {
        /// What the scan found holding one packet slot.
        #[derive(Clone, Copy)]
        struct Seen {
            /// Flits in input VCs and deadlock buffers.
            buffered: u32,
            /// Source-queue entries.
            queued: u32,
            /// The node of its last source-queue entry, or [`NONE`].
            queued_at: u32,
            /// The node whose injection interface streams it, or [`NONE`].
            injecting: u32,
        }
        const NONE: u32 = u32::MAX;
        let slots = self.packets.slot_count();
        let nodes = self.torus().node_count();
        let mut push = |kind, detail| v.push(AuditViolation { kind, detail });

        // Slot liveness from the free list (the ground truth `live()`
        // summarizes). An out-of-range free id is itself ledger corruption.
        let mut live = vec![true; slots];
        for &id in self.packets.free_ids() {
            match live.get_mut(id as usize) {
                Some(l) => *l = false,
                None => push(
                    AuditKind::PacketLedger,
                    format!("free list holds out-of-range packet id {id} (slots {slots})"),
                ),
            }
        }
        let is_live = |pid: usize| live.get(pid).copied().unwrap_or(false);
        let mut seen = vec![
            Seen {
                buffered: 0,
                queued: 0,
                queued_at: NONE,
                injecting: NONE,
            };
            slots
        ];

        // Where every buffered flit lives, per packet. A ring holds in-order
        // runs: its flits' indices follow from ring order, so a packet may
        // change only at a header.
        let buffers = (0..self.vc_assign.len())
            .map(|idx| (&self.vc_bufs, idx, "VC"))
            .chain((0..nodes).map(|node| (&self.dl_bufs, node, "deadlock buffer")));
        for (rings, r, what) in buffers {
            for i in 0..rings.len(r) {
                let f = rings.get(r, i);
                let pid = f.packet as usize;
                if is_live(pid) {
                    seen[pid].buffered += 1;
                } else {
                    let detail = format!("{what} {r} buffers flit {} of dead packet {pid}", f.idx);
                    push(AuditKind::FlitLedger, detail);
                }
            }
            if let Some(i) = rings.run_break(r) {
                let (f, prev) = (rings.get(r, i), rings.get(r, i - 1).packet);
                let detail = format!(
                    "{what} {r} buffers flit {} of packet {} behind packet {prev}",
                    f.idx, f.packet
                );
                push(AuditKind::FlitLedger, detail);
            }
        }

        // Which packet each injection interface is streaming.
        for (node, inj) in self.inj.iter().enumerate() {
            let Some(pid) = inj.active else { continue };
            let pid = pid as usize;
            if !is_live(pid) {
                let detail = format!("node {node} is injecting dead packet {pid}");
                push(AuditKind::FlitLedger, detail);
                continue;
            }
            let other = seen[pid].injecting;
            if other != NONE {
                let detail = format!("packet {pid} is injecting at both node {other} and {node}");
                push(AuditKind::FlitLedger, detail);
            }
            seen[pid].injecting = node as u32;
        }

        // Source-queue occurrences per packet (checked against the packet's
        // source in the per-packet pass, which reads the store in order).
        for node in 0..nodes {
            for i in 0..self.source_q.len(node) {
                let pid = self.source_q.get(node, i) as usize;
                if !is_live(pid) {
                    let detail = format!("node {node} queues dead packet {pid}");
                    push(AuditKind::SourceQueueLedger, detail);
                    continue;
                }
                seen[pid].queued += 1;
                seen[pid].queued_at = node as u32;
            }
        }

        // Per-packet flit conservation: every flit the network has taken in
        // is buffered somewhere or delivered, no more and no less.
        let (mut live_count, mut injected_live) = (0u64, 0u64);
        for (pid, seen) in seen.iter().enumerate() {
            if !live[pid] {
                continue;
            }
            live_count += 1;
            let p = self.packets.get(pid as u32);
            if p.src >= nodes || p.dst >= nodes {
                let detail = format!(
                    "live packet {pid} runs {} -> {} outside the {nodes}-node network",
                    p.src, p.dst
                );
                push(AuditKind::PacketLedger, detail);
            }
            if seen.queued_at != NONE && seen.queued_at as usize != p.src {
                let detail = format!(
                    "packet {pid} queued at node {} but its source is {}",
                    seen.queued_at, p.src
                );
                push(AuditKind::SourceQueueLedger, detail);
            }
            let injected = p.injected_at != u64::MAX;
            injected_live += u64::from(injected);
            let emitted = if seen.injecting != NONE {
                // Streaming in: `sent` flits are in the network so far. The
                // first flit's move is what stamps `injected_at`.
                let inj = &self.inj[seen.injecting as usize];
                if (inj.sent > 0) != injected {
                    let detail = format!(
                        "packet {pid}: {} flits sent but injected_at {:?}",
                        inj.sent,
                        injected.then_some(p.injected_at)
                    );
                    push(AuditKind::FlitLedger, detail);
                }
                u32::from(inj.sent)
            } else if injected {
                u32::from(self.packet_len) // Fully inside the network.
            } else {
                0 // Still waiting in a source queue.
            };
            let expect_queued = u32::from(seen.injecting == NONE && !injected);
            if seen.queued != expect_queued {
                let detail = format!(
                    "packet {pid}: {} source-queue entries, expected {expect_queued}",
                    seen.queued
                );
                push(AuditKind::SourceQueueLedger, detail);
            }
            if p.delivered_flits >= self.packet_len {
                let detail = format!(
                    "live packet {pid} already delivered {}/{} flits",
                    p.delivered_flits, self.packet_len
                );
                push(AuditKind::FlitLedger, detail);
            }
            let present = seen.buffered + u32::from(p.delivered_flits);
            if emitted != present {
                let detail = format!(
                    "packet {pid}: emitted {emitted} flits but {} buffered + {} delivered",
                    seen.buffered, p.delivered_flits
                );
                push(AuditKind::FlitLedger, detail);
            }
        }

        let c = &self.counters;
        if c.generated_packets != c.delivered_packets + live_count {
            let detail = format!(
                "generated {} != delivered {} + live {live_count}",
                c.generated_packets, c.delivered_packets
            );
            push(AuditKind::PacketLedger, detail);
        }
        if c.injected_packets != c.delivered_packets + injected_live {
            let detail = format!(
                "injected {} != delivered {} + live-injected {injected_live}",
                c.injected_packets, c.delivered_packets
            );
            push(AuditKind::InjectionLedger, detail);
        }
    }

    /// Every output-VC allocation flag has exactly one owner: an input VC
    /// or injection interface with a matching `Out` assignment.
    fn audit_out_alloc(&self, v: &mut Vec<AuditViolation>) {
        let d = self.torus().channels_per_node();
        let vpc = self.config().vcs;
        let fpn = d * vpc;
        let n_vcs = self.vc_assign.len();
        let mut owners = vec![0u32; n_vcs];
        // `who` names the claimant, formatted only for a violation.
        let mut claim = |v: &mut Vec<AuditViolation>,
                         node: usize,
                         port: u8,
                         vc: u8,
                         who: &dyn Fn() -> String| {
            let (port, vc) = (usize::from(port), usize::from(vc));
            if port >= d || vc >= vpc {
                v.push(AuditViolation {
                    kind: AuditKind::OutAllocOwnership,
                    detail: format!(
                        "{} assigned impossible output (port {port}, vc {vc})",
                        who()
                    ),
                });
                return;
            }
            owners[(node * d + port) * vpc + vc] += 1;
        };
        for (idx, a) in self.vc_assign.iter().enumerate() {
            if let Assign::Out { port, vc } = *a {
                claim(v, idx / fpn, port, vc, &|| format!("input VC {idx}"));
            }
        }
        for (node, inj) in self.inj.iter().enumerate() {
            if inj.active.is_some() {
                if let Assign::Out { port, vc } = inj.assign {
                    claim(v, node, port, vc, &|| format!("injector {node}"));
                }
            }
        }
        for (oidx, &n) in owners.iter().enumerate() {
            if n > 1 {
                v.push(AuditViolation {
                    kind: AuditKind::OutAllocOwnership,
                    detail: format!("output VC {oidx} claimed by {n} worms"),
                });
            }
            if self.out_alloc[oidx] != (n == 1) {
                v.push(AuditViolation {
                    kind: AuditKind::OutAllocOwnership,
                    detail: format!(
                        "output VC {oidx}: alloc flag {} but {n} owner(s)",
                        self.out_alloc[oidx]
                    ),
                });
            }
        }
    }

    /// Token-queue contents vs. the `vc_queued` mirror: each queued VC
    /// appears exactly once, everything else not at all.
    fn audit_token_queue(&self, v: &mut Vec<AuditViolation>) {
        let n_vcs = self.vc_assign.len();
        let mut seen = vec![0u32; n_vcs];
        for i in 0..self.token_queue.len(0) {
            let idx = self.token_queue.get(0, i) as usize;
            match seen.get_mut(idx) {
                Some(s) => *s += 1,
                None => v.push(AuditViolation {
                    kind: AuditKind::TokenQueue,
                    detail: format!("token queue holds out-of-range VC {idx}"),
                }),
            }
        }
        for (idx, &n) in seen.iter().enumerate() {
            let expect = u32::from(self.vc_queued[idx]);
            if n != expect {
                v.push(AuditViolation {
                    kind: AuditKind::TokenQueue,
                    detail: format!("VC {idx}: {n} token-queue entries but vc_queued {expect}"),
                });
            }
        }
    }

    /// Recovery-drain consistency: the job's packet is live, its source VC
    /// is the only `Recovery` assignment until the tail transitions, and
    /// the deadlock buffers hold only that packet's flits, only on its
    /// drain path (and nothing at all between recoveries).
    fn audit_recovery(&self, v: &mut Vec<AuditViolation>) {
        let nodes = self.torus().node_count();
        let recovery_vcs: Vec<usize> = (0..self.vc_assign.len())
            .filter(|&i| matches!(self.vc_assign[i], Assign::Recovery))
            .collect();
        match &self.recovery {
            None => {
                if !recovery_vcs.is_empty() {
                    v.push(AuditViolation {
                        kind: AuditKind::Recovery,
                        detail: format!(
                            "no recovery in progress but VCs {recovery_vcs:?} assigned"
                        ),
                    });
                }
                for node in 0..nodes {
                    if !self.dl_bufs.is_empty(node) {
                        v.push(AuditViolation {
                            kind: AuditKind::Recovery,
                            detail: format!(
                                "no recovery in progress but deadlock buffer {node} holds {} flit(s)",
                                self.dl_bufs.len(node)
                            ),
                        });
                    }
                }
            }
            Some(job) => {
                let slots = self.packets.slot_count();
                let pid = job.packet as usize;
                let dead = pid >= slots || self.packets.free_ids().contains(&job.packet);
                if dead {
                    v.push(AuditViolation {
                        kind: AuditKind::Recovery,
                        detail: format!("recovery job drains dead packet {pid}"),
                    });
                }
                let expect: &[usize] = if job.tail_in { &[] } else { &[job.src_vc] };
                if recovery_vcs != expect {
                    v.push(AuditViolation {
                        kind: AuditKind::Recovery,
                        detail: format!(
                            "recovery assignments {recovery_vcs:?}, expected {expect:?} \
                             (tail_in {})",
                            job.tail_in
                        ),
                    });
                }
                for node in 0..nodes {
                    if self.dl_bufs.is_empty(node) {
                        continue;
                    }
                    if !job.path.contains(&node) {
                        v.push(AuditViolation {
                            kind: AuditKind::Recovery,
                            detail: format!("deadlock buffer {node} is off the drain path"),
                        });
                    }
                    for i in 0..self.dl_bufs.len(node) {
                        let f = self.dl_bufs.get(node, i);
                        if f.packet != job.packet {
                            v.push(AuditViolation {
                                kind: AuditKind::Recovery,
                                detail: format!(
                                    "deadlock buffer {node} holds flit of packet {} during \
                                     recovery of {pid}",
                                    f.packet
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Shard-plan invariants: the partition is a disjoint ascending cover
    /// of the node range, and every shard's pass output was consumed by
    /// the handoff passes and the fold (`suspects`, `starved`, every
    /// `outbound` and `inbound` list and `delivered` empty between
    /// cycles).
    pub(crate) fn audit_shards(&self, v: &mut Vec<AuditViolation>) {
        let nodes = self.torus().node_count();
        let shards = self.plan.shards();
        if self.plan.bounds.len() != shards + 1
            || self.plan.bounds.first() != Some(&0)
            || self.plan.bounds.last() != Some(&nodes)
        {
            v.push(AuditViolation {
                kind: AuditKind::ShardPartition,
                detail: format!(
                    "plan shape broken: {shards} stage(s), bounds {:?} over {nodes} nodes",
                    self.plan.bounds
                ),
            });
            return; // Everything below indexes through the plan's shape.
        }
        for s in 0..shards {
            let (lo, hi) = (self.plan.bounds[s], self.plan.bounds[s + 1]);
            if lo >= hi {
                v.push(AuditViolation {
                    kind: AuditKind::ShardPartition,
                    detail: format!("shard {s} range {lo}..{hi} is empty or descending"),
                });
            }
            let stage = &self.plan.stages[s];
            let parked = |lists: &[Vec<Parked>]| lists.iter().map(Vec::len).sum::<usize>();
            let left = [
                ("suspect(s)", stage.suspects.len()),
                ("starvation trip(s)", stage.starved.len()),
                ("outbound handoff(s)", parked(&stage.outbound)),
                ("inbound handoff(s)", parked(&stage.inbound)),
                ("delivered tail(s)", stage.delivered.len()),
            ];
            if left.iter().any(|&(_, n)| n != 0) {
                let left: Vec<String> =
                    left.iter().map(|(what, n)| format!("{n} {what}")).collect();
                v.push(AuditViolation {
                    kind: AuditKind::MailboxConservation,
                    detail: format!("shard {s}: left in the mailbox: {}", left.join(", ")),
                });
            }
        }
    }

    /// The O(1) quiescence predicate vs. a full scan of every buffer,
    /// queue and interface.
    fn audit_quiescence(&self, v: &mut Vec<AuditViolation>) {
        let nodes = self.torus().node_count();
        let scan = self.packets.live() == 0
            && (0..self.vc_assign.len()).all(|i| self.vc_bufs.is_empty(i))
            && (0..nodes).all(|n| {
                self.dl_bufs.is_empty(n)
                    && self.inj[n].active.is_none()
                    && self.source_q.is_empty(n)
            })
            && self.token_queue.is_empty(0)
            && self.recovery.is_none();
        if scan != self.quiescent() {
            v.push(AuditViolation {
                kind: AuditKind::Quiescence,
                detail: format!(
                    "quiescent() says {} but a full scan says {scan}",
                    self.quiescent()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeadlockMode, NetConfig};
    use crate::control::NoControl;
    use crate::packet::Flit;
    use crate::plane::Slot;
    use crate::shard::{Parked, ShardStage};
    use crate::testnet::{hot_net, source};
    use std::collections::BTreeSet;

    fn drive(net: &mut Network, seed: u64, load: u64, cycles: u64) {
        let mut src = source(seed, net.torus().node_count(), load);
        net.run(cycles, &mut src, &mut NoControl);
    }

    fn kinds(net: &Network) -> BTreeSet<&'static str> {
        net.audit()
            .violations
            .iter()
            .map(|v| v.kind.label())
            .collect()
    }

    fn assert_exactly(net: &Network, kind: AuditKind) {
        let found = kinds(net);
        let expect: BTreeSet<&'static str> = [kind.label()].into();
        assert_eq!(found, expect, "expected exactly one violation kind");
    }

    #[test]
    fn clean_under_saturating_recovery_traffic() {
        let mut net = hot_net();
        // Audit repeatedly while the network keeps running hot.
        for _ in 0..10 {
            drive(&mut net, 2, 60, 100);
            let report = net.audit();
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn clean_under_avoidance_traffic_and_after_drain() {
        let cfg = NetConfig {
            radix: 4,
            dimensions: 2,
            ..NetConfig::small(DeadlockMode::Avoidance)
        };
        let mut net = Network::new(cfg).unwrap();
        drive(&mut net, 3, 30, 1_000);
        let report = net.audit();
        assert!(report.is_clean(), "{report}");
        // Drain completely; the audit must agree with quiescence.
        drive(&mut net, 3, 0, 20_000);
        let report = net.audit();
        assert!(report.is_clean(), "{report}");
        assert!(net.quiescent(), "avoidance net failed to drain");
    }

    #[test]
    fn detects_census_drift() {
        let mut net = hot_net();
        net.full_buffers += 1;
        assert_exactly(&net, AuditKind::Census);
    }

    #[test]
    fn detects_cleared_worklist_bit() {
        let mut net = hot_net();
        // Clear one bit on a node with at least two busy VCs, so the
        // node-level summary stays truthful and only the bit is wrong.
        let (node, f) = (0..net.vc_busy.len())
            .find(|&n| net.vc_busy[n].count_ones() >= 2)
            .map(|n| (n, net.vc_busy[n].trailing_zeros() as usize))
            .expect("no node with two busy VCs in a saturated net");
        net.vc_busy[node] &= !(1u64 << f);
        assert_exactly(&net, AuditKind::WorklistBit);
    }

    /// Desyncs the switch plane three ways — the port of a busy routed
    /// VC's slot, its `movable_at`, and an active injection's slot — each
    /// from a fresh network.
    #[test]
    fn detects_switch_plane_desync() {
        let fpn = hot_net().vc_assign.len() / 16;
        let vc_at = |net: &Network| {
            (0..net.vc_busy.len())
                .find_map(|n| {
                    let m = net.vc_busy[n] & net.vc_switchable[n];
                    (m != 0).then(|| n * (fpn + 1) + m.trailing_zeros() as usize)
                })
                .expect("no busy routed VC in a saturated net")
        };
        let wrong_port = |slot: Slot| Slot::new(slot.port() ^ 1, slot.dnode(), slot.dbit());

        let mut net = hot_net();
        let at = vc_at(&net);
        let slot = net.plane.slot(at);
        net.plane.view().set_slot(at, wrong_port(slot));
        assert_exactly(&net, AuditKind::SwitchPlane);

        let mut net = hot_net();
        let at = vc_at(&net);
        let movable_at = net.plane.movable_at(at);
        net.plane.view().set_movable_at(at, movable_at + 1);
        assert_exactly(&net, AuditKind::SwitchPlane);

        let mut net = hot_net();
        let node = (0..net.inj.len())
            .find(|&n| net.inj[n].active.is_some())
            .expect("no active injection in a saturated net");
        let at = node * (fpn + 1) + fpn;
        let slot = net.plane.slot(at);
        net.plane.view().set_slot(at, wrong_port(slot));
        assert_exactly(&net, AuditKind::SwitchPlane);
    }

    #[test]
    fn detects_phantom_token_queue_flag() {
        let mut net = hot_net();
        let idx = (0..net.vc_queued.len())
            .find(|&i| !net.vc_queued[i])
            .expect("every VC queued");
        net.vc_queued[idx] = true;
        assert_exactly(&net, AuditKind::TokenQueue);
    }

    #[test]
    fn detects_packet_ledger_drift() {
        let mut net = hot_net();
        net.counters.generated_packets += 1;
        assert_exactly(&net, AuditKind::PacketLedger);
    }

    /// A live packet whose source or destination is not a node — queued or
    /// already in the network — is a packet-ledger violation, and only that.
    #[test]
    fn detects_a_live_packet_outside_the_network() {
        let net = hot_net();
        let queued = (0..net.inj.len())
            .find(|&n| !net.source_q.is_empty(n))
            .map(|n| net.source_q.front(n))
            .expect("no queued packet in a saturated net");
        let moving = (0..net.vc_assign.len())
            .find(|&r| !net.vc_bufs.is_empty(r))
            .map(|r| net.vc_bufs.front_packet(r))
            .expect("no buffered flit in a saturated net");
        // A queued packet's source is checked against its queue too, so only
        // its destination is moved out.
        for (id, src) in [(queued, false), (moving, false), (moving, true)] {
            let mut net = hot_net();
            let p = net.packets.get_mut(id);
            *(if src { &mut p.src } else { &mut p.dst }) = 1_000_000;
            assert_exactly(&net, AuditKind::PacketLedger);
        }
    }

    /// A ring holds in-order runs: a body flit of another packet planted in
    /// the middle of one is a flit-ledger violation, even when every
    /// packet's flit count still adds up — two VCs trade the packet ids of
    /// a body flit.
    #[test]
    fn detects_a_flit_planted_out_of_its_run() {
        let mut net = hot_net();
        let runs: Vec<usize> = (0..net.vc_assign.len())
            .filter(|&r| net.vc_bufs.len(r) >= 2 && net.vc_bufs.get(r, 1).idx != 0)
            .filter(|&r| net.vc_assign[r] != Assign::Recovery)
            .collect();
        let (a, b) = runs
            .iter()
            .flat_map(|&a| runs.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| net.vc_bufs.front_packet(a) != net.vc_bufs.front_packet(b))
            .expect("vacuous: no two VCs hold body runs of different packets");
        let (pa, pb) = (net.vc_bufs.front_packet(a), net.vc_bufs.front_packet(b));
        net.vc_bufs.set_packet(a, 1, pb);
        net.vc_bufs.set_packet(b, 1, pa);
        assert_exactly(&net, AuditKind::FlitLedger);
        let report = net.audit();
        assert!(report.to_string().contains("behind packet"), "{report}");
    }

    #[test]
    fn detects_injection_ledger_drift() {
        let mut net = hot_net();
        net.counters.injected_packets += 1;
        assert_exactly(&net, AuditKind::InjectionLedger);
    }

    #[test]
    fn detects_phantom_out_alloc() {
        let mut net = hot_net();
        let oidx = (0..net.out_alloc.len())
            .find(|&i| !net.out_alloc[i])
            .expect("every output VC allocated");
        net.out_alloc[oidx] = true;
        assert_exactly(&net, AuditKind::OutAllocOwnership);
    }

    #[test]
    fn clean_when_sharded() {
        let mut net = hot_net();
        for shards in [2usize, 3, 4] {
            net.set_shards(shards);
            let report = net.audit();
            assert!(report.is_clean(), "shards={shards}: {report}");
            drive(&mut net, 4, 60, 64);
            let report = net.audit();
            assert!(report.is_clean(), "shards={shards} after traffic: {report}");
        }
    }

    #[test]
    fn detects_leftovers_in_the_mailbox() {
        let flit = Flit {
            packet: 0,
            idx: 0,
            ready_at: 0,
        };
        let parked = Parked {
            node: 0,
            feeder: 0,
            flit,
        };
        // Only a tail reaches the fold's list.
        let tail = Flit {
            idx: crate::testnet::small_cfg().packet_len as u16 - 1,
            ..flit
        };
        // A suspect or a starvation trip the fold never committed to the
        // token queue; a flit a switch pass took off its feeder that no
        // handoff pass put downstream — still outbound, or already handed
        // to its owner — or a delivered tail the fold never finished: one
        // strand per list.
        let strands: [&dyn Fn(&mut ShardStage); 5] = [
            &|st| st.suspects.push(0),
            &|st| st.starved.push(0),
            &|st| st.outbound[0].push(parked),
            &|st| st.inbound[0].push(parked),
            &|st| st.delivered.push(tail),
        ];
        for strand in strands {
            let mut net = hot_net();
            net.set_shards(2);
            strand(&mut net.plan.stages[1]);
            assert_exactly(&net, AuditKind::MailboxConservation);
        }
    }

    #[test]
    fn detects_shard_partition_break() {
        let mut net = hot_net();
        net.set_shards(2);
        // Move the shared edge of the two ranges past the end of the
        // second: still a cover of the right shape, no longer ascending.
        net.plan.bounds[1] = net.plan.bounds[2];
        assert_exactly(&net, AuditKind::ShardPartition);
    }

    #[test]
    fn report_display_is_readable() {
        let report = AuditReport {
            cycle: 7,
            violations: vec![AuditViolation {
                kind: AuditKind::Census,
                detail: "running census 3 but occupancy planes popcount to 2".into(),
            }],
        };
        let s = report.to_string();
        assert!(s.contains("cycle 7"), "{s}");
        assert!(s.contains("[census]"), "{s}");
        assert!(AuditReport {
            cycle: 0,
            violations: vec![]
        }
        .is_clean());
    }
}
