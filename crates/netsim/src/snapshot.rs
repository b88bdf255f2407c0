//! Full-state capture of a [`Network`] for deterministic checkpoint/restore.
//!
//! The serialized state is the ground truth the cycle pipeline reads or
//! writes: edge buffers and routing assignments of every input VC, output
//! VC allocations, injection interfaces, source queues (each entry a
//! destination and a generation cycle: a queued packet has no record), the
//! packet store's live records with their sticky escape flags (and its
//! free-list order, which determines future id assignment;
//! [`PacketStore::save_state`] has the record layout), the Disha deadlock
//! buffers and in-progress recovery job, the token queue, both round-robin
//! cursor families, counters and watchdog markers. Everything derived from it — the worklist, occupancy
//! and assignment words, node summaries, the census, the switch plane and
//! the token-queue flags — is not serialized: restore rebuilds it through
//! the derivation the audit checks against ([`Network::derive_node`]).
//! Configuration (`NetConfig`, topology, installed fault plan) is not
//! serialized either: a snapshot is restored into a network freshly built
//! from the same configuration, and the caller guards that with a
//! configuration fingerprint at the container level.
//!
//! Queues live in ring-buffer arenas ([`crate::ring`]) but serialize as
//! their *logical* FIFO contents (front to back), so the byte format is
//! independent of each ring's physical head position — a restored ring
//! starts at head 0, which is behaviorally and serially equivalent.
//!
//! The golden property — restore + run to end is bit-identical to the
//! uninterrupted run — holds because after [`Network::restore_state`] every
//! field that influences any future cycle equals the original's: derived
//! state by derivation, the rest by decoding. The only other skipped fields
//! are per-cycle scratch (the injection allowance, the recovery path's
//! recycled backing storage), which the pipeline rewrites before reading.

use crate::network::{Assign, InjState, Network, RecoveryJob};
use crate::packet::{Flit, PacketStore, QueueEntry};
use crate::ring::{DeliveryRing, FlitRings, Rings};
use checkpoint::{CheckpointError, Dec, Enc};

use crate::counters::Counters;

/// Most bytes [`enc_assign`] writes (the `Out` variant's tag, port, VC).
const ASSIGN_MAX_LEN: usize = 3;

/// Bytes of one serialized [`crate::packet::DeliveredRecord`]: `src` and
/// `dst` (`u32`), three cycle stamps, the recovered flag.
const DELIVERY_ENCODED_LEN: usize = 2 * 4 + 3 * 8 + 1;

fn enc_assign(enc: &mut Enc, a: Assign) {
    match a {
        Assign::None => enc.u8(0),
        Assign::Out { port, vc } => {
            enc.u8(1);
            enc.u8(port);
            enc.u8(vc);
        }
        Assign::Delivery => enc.u8(2),
        Assign::AwaitToken => enc.u8(3),
        Assign::Recovery => enc.u8(4),
    }
}

/// Decodes an assignment on a router with `d` network ports of `v` VCs
/// each. An `Out` naming a port or VC the router does not have is rejected
/// here: restore indexes the output-slot table with it.
fn dec_assign(dec: &mut Dec<'_>, d: usize, v: usize) -> Result<Assign, CheckpointError> {
    Ok(match dec.u8()? {
        0 => Assign::None,
        1 => {
            let (port, vc) = (dec.u8()?, dec.u8()?);
            if usize::from(port) >= d || usize::from(vc) >= v {
                return Err(CheckpointError::Corrupt("assigned output out of range"));
            }
            Assign::Out { port, vc }
        }
        2 => Assign::Delivery,
        3 => Assign::AwaitToken,
        4 => Assign::Recovery,
        _ => return Err(CheckpointError::Corrupt("bad assignment tag")),
    })
}

fn enc_flit(enc: &mut Enc, f: Flit) {
    let at = enc.len();
    enc.u32(f.packet);
    enc.u16(f.idx);
    enc.u64(f.ready_at);
    debug_assert_eq!(enc.len() - at, Flit::ENCODED_LEN);
}

fn dec_flit(dec: &mut Dec<'_>) -> Result<Flit, CheckpointError> {
    Ok(Flit {
        packet: dec.u32()?,
        idx: dec.u16()?,
        ready_at: dec.u64()?,
    })
}

/// Serializes ring `r` of a flit arena as its logical front-to-back
/// contents (the same bytes a `VecDeque` walk would produce).
fn enc_flit_ring(enc: &mut Enc, rings: &FlitRings, r: usize) {
    enc.usize(rings.len(r));
    for i in 0..rings.len(r) {
        enc_flit(enc, rings.get(r, i));
    }
}

/// Bytes [`enc_flit_ring`] writes for ring `r`.
fn flit_ring_len(rings: &FlitRings, r: usize) -> usize {
    8 + rings.len(r) * Flit::ENCODED_LEN
}

/// Decodes a flit queue into ring `r` of a (freshly reset) arena whose
/// clock is the checkpoint's. A ring buffers in-order runs of packets ready
/// within one hop latency ([`FlitRings::admit`]); a queue that is not is
/// refused.
fn dec_flit_ring(
    dec: &mut Dec<'_>,
    rings: &mut FlitRings,
    r: usize,
    max: usize,
) -> Result<(), CheckpointError> {
    let n = dec.usize()?;
    if n > max {
        return Err(CheckpointError::Corrupt("flit queue exceeds capacity"));
    }
    for _ in 0..n {
        let f = rings.admit(r, dec_flit(dec)?);
        rings.push_back(r, f.map_err(CheckpointError::Corrupt)?);
    }
    Ok(())
}

impl Network {
    /// An upper bound on the bytes [`Network::save_state`] writes for the
    /// current state, so a caller can size its buffer once. Exact but for
    /// the routing assignments (one per input VC and injection interface),
    /// which are counted at their widest.
    #[must_use]
    pub fn state_len_bound(&self) -> usize {
        let nodes = self.inj.len();
        let n_vcs = self.vc_assign.len();
        let vc_flits: usize = (0..n_vcs).map(|r| flit_ring_len(&self.vc_bufs, r)).sum();
        let dl_flits: usize = (0..nodes).map(|r| flit_ring_len(&self.dl_bufs, r)).sum();
        let queued = nodes * 8 + self.source_q.total() * QueueEntry::ENCODED_LEN;
        let recovery = self
            .recovery
            .as_ref()
            .map_or(0, |job| 4 + 8 + 8 * job.path.len() + 8 + 1);
        (3 * 8 + Counters::ENCODED_LEN)
            + (8 + vc_flits + n_vcs * (ASSIGN_MAX_LEN + 8 + 8))
            + self.out_alloc.len()
            + nodes * (1 + 4 + 2 + ASSIGN_MAX_LEN + 8)
            + queued
            + self.packets.encoded_len()
            + dl_flits
            + (1 + recovery)
            + 8 * (self.route_rr.len() + self.out_rr.len())
            + (8 + 8 * self.token_queue.len(0))
            + (8 + self.deliveries.len() * DELIVERY_ENCODED_LEN)
    }

    /// Serializes the complete mutable state into `enc`, sized for it
    /// first.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.reserve(self.state_len_bound());
        self.save_state_presized(enc);
    }

    /// [`Network::save_state`] into an `enc` the caller has already sized
    /// with [`Network::state_len_bound`] — one walk of the state for a
    /// whole checkpoint.
    pub fn save_state_presized(&self, enc: &mut Enc) {
        #[cfg(debug_assertions)]
        let start = enc.len();
        enc.u64(self.now);
        enc.u64(self.last_delivery_at);
        enc.u64(self.last_progress_at);
        self.counters.save_state(enc);

        let n_vcs = self.vc_assign.len();
        enc.usize(n_vcs);
        for idx in 0..n_vcs {
            enc_flit_ring(enc, &self.vc_bufs, idx);
            enc_assign(enc, self.vc_assign[idx]);
            enc.u64(self.vc_routed_at[idx]);
            enc.u64(self.vc_blocked[idx]);
        }
        enc.bools(&self.out_alloc);
        for inj in &self.inj {
            enc.bool(inj.active.is_some());
            enc.u32(inj.active.unwrap_or(0));
            enc.u16(inj.sent);
            enc_assign(enc, inj.assign);
            enc.u64(inj.routed_at);
        }
        for node in 0..self.inj.len() {
            enc.usize(self.source_q.len(node));
            for i in 0..self.source_q.len(node) {
                let q = self.source_q.get(node, i);
                enc.u32(q.dst);
                enc.u64(q.generated_at);
            }
        }
        self.packets.save_state(enc);
        for node in 0..self.inj.len() {
            enc_flit_ring(enc, &self.dl_bufs, node);
        }
        match &self.recovery {
            None => enc.bool(false),
            Some(job) => {
                enc.bool(true);
                enc.u32(job.packet);
                enc.usize(job.path.len());
                for &n in &job.path {
                    enc.usize(n);
                }
                enc.usize(job.src_vc);
                enc.bool(job.tail_in);
            }
        }
        for &c in &self.route_rr {
            enc.usize(c);
        }
        for &c in &self.out_rr {
            enc.usize(c);
        }
        enc.usize(self.token_queue.len(0));
        for i in 0..self.token_queue.len(0) {
            enc.usize(self.token_queue.get(0, i) as usize);
        }
        enc.usize(self.deliveries.len());
        for i in 0..self.deliveries.len() {
            let d = self.deliveries.get(i);
            // Node ids fit `u32`: config validation caps the node count.
            enc.u32(d.src as u32);
            enc.u32(d.dst as u32);
            enc.u64(d.generated_at);
            enc.u64(d.injected_at);
            enc.u64(d.delivered_at);
            enc.bool(d.recovered);
        }
        #[cfg(debug_assertions)]
        {
            let (written, bound) = (enc.len() - start, self.state_len_bound());
            let narrow_assigns = self.vc_assign.len() + self.inj.len();
            debug_assert!(
                written <= bound && bound - written <= (ASSIGN_MAX_LEN - 1) * narrow_assigns,
                "state_len_bound {bound} out of step with the {written} bytes written"
            );
        }
    }

    /// Restores state captured with [`Network::save_state`] into a network
    /// built from the *same* configuration (same radix, dimensions, VCs,
    /// buffer depth). Any installed fault plan is left untouched. A failed
    /// restore leaves the network unmodified.
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream, a
    /// structurally impossible value, or a shape mismatch against this
    /// network's configuration.
    pub fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        let nodes = self.torus().node_count();
        let n_vcs = self.vc_assign.len();
        let depth = self.config().buf_depth;
        let (d, v) = (self.torus().channels_per_node(), self.config().vcs);
        let (plen, hop) = (self.packet_len, self.config().hop_latency);

        let now = dec.u64()?;
        let last_delivery_at = dec.u64()?;
        let last_progress_at = dec.u64()?;
        let counters = Counters::restore_state(dec)?;

        if dec.usize()? != n_vcs {
            return Err(CheckpointError::Corrupt("input VC count mismatch"));
        }
        let mut vc_bufs = FlitRings::new(n_vcs, depth, plen, hop);
        vc_bufs.set_now(now);
        let mut vc_assign = Vec::with_capacity(n_vcs);
        let mut vc_routed_at = Vec::with_capacity(n_vcs);
        let mut vc_blocked = Vec::with_capacity(n_vcs);
        for idx in 0..n_vcs {
            dec_flit_ring(dec, &mut vc_bufs, idx, depth)?;
            vc_assign.push(dec_assign(dec, d, v)?);
            vc_routed_at.push(dec.u64()?);
            vc_blocked.push(dec.u64()?);
        }
        let out_alloc = dec.bools(n_vcs)?;
        let mut inj = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let some = dec.bool()?;
            let id = dec.u32()?;
            inj.push(InjState {
                active: some.then_some(id),
                sent: dec.u16()?,
                assign: dec_assign(dec, d, v)?,
                routed_at: dec.u64()?,
            });
        }
        let cap = self.config().source_queue_cap;
        let mut source_q = Rings::new(nodes, cap);
        for node in 0..nodes {
            let n = dec.usize()?;
            if n > cap {
                return Err(CheckpointError::Corrupt("source queue exceeds capacity"));
            }
            for _ in 0..n {
                let dst = dec.u32()?;
                if dst as usize >= nodes {
                    return Err(CheckpointError::Corrupt(
                        "packet endpoint outside the network",
                    ));
                }
                let generated_at = dec.u64()?;
                source_q.push_back(node, QueueEntry { dst, generated_at });
            }
        }
        let packets = PacketStore::restore_state(dec, nodes)?;
        let mut dl_bufs = FlitRings::new(nodes, crate::network::DL_DEPTH, plen, hop);
        dl_bufs.set_now(now);
        for node in 0..nodes {
            dec_flit_ring(dec, &mut dl_bufs, node, crate::network::DL_DEPTH)?;
        }
        let recovery = if dec.bool()? {
            let packet = dec.u32()?;
            let path_len = dec.usize()?;
            if path_len == 0 || path_len > nodes {
                return Err(CheckpointError::Corrupt("recovery path length"));
            }
            let mut path = Vec::with_capacity(path_len);
            for _ in 0..path_len {
                let n = dec.usize()?;
                if n >= nodes {
                    return Err(CheckpointError::Corrupt("recovery path node"));
                }
                path.push(n);
            }
            let src_vc = dec.usize()?;
            if src_vc >= n_vcs {
                return Err(CheckpointError::Corrupt("recovery source VC"));
            }
            Some(RecoveryJob {
                packet,
                path,
                src_vc,
                tail_in: dec.bool()?,
            })
        } else {
            None
        };
        let mut route_rr = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            route_rr.push(dec.usize()?);
        }
        let n_out_rr = self.out_rr.len();
        let mut out_rr = Vec::with_capacity(n_out_rr);
        for _ in 0..n_out_rr {
            out_rr.push(dec.usize()?);
        }
        let n_tok = dec.usize()?;
        if n_tok > n_vcs {
            return Err(CheckpointError::Corrupt("token queue implausibly long"));
        }
        let mut token_queue = Rings::new(1, n_vcs);
        for _ in 0..n_tok {
            let idx = dec.usize()?;
            if idx >= n_vcs {
                return Err(CheckpointError::Corrupt("token queue entry out of range"));
            }
            token_queue.push_back(0, idx as u32);
        }
        let n_del = dec.usize()?;
        if n_del > counters.delivered_packets as usize {
            return Err(CheckpointError::Corrupt("undrained delivery count"));
        }
        let mut deliveries = DeliveryRing::default();
        for _ in 0..n_del {
            let (src, dst) = (dec.u32()? as usize, dec.u32()? as usize);
            if src >= nodes || dst >= nodes {
                return Err(CheckpointError::Corrupt(
                    "delivery endpoint outside the network",
                ));
            }
            deliveries.push(crate::packet::DeliveredRecord {
                src,
                dst,
                generated_at: dec.u64()?,
                injected_at: dec.u64()?,
                delivered_at: dec.u64()?,
                len: self.packet_len,
                recovered: dec.bool()?,
            });
        }

        self.now = now;
        self.last_delivery_at = last_delivery_at;
        self.last_progress_at = last_progress_at;
        self.counters = counters;
        self.vc_bufs = vc_bufs;
        self.vc_assign = vc_assign;
        self.vc_routed_at = vc_routed_at;
        self.vc_blocked = vc_blocked;
        self.out_alloc = out_alloc;
        self.inj = inj;
        self.source_q = source_q;
        self.packets = packets;
        self.dl_bufs = dl_bufs;
        self.recovery = recovery;
        self.route_rr = route_rr;
        self.out_rr = out_rr;
        self.token_queue = token_queue;
        self.deliveries = deliveries;
        self.rebuild_derived();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DeadlockMode, NetConfig};
    use crate::control::NoControl;
    use crate::counters::Counters;
    use crate::network::Assign;
    use crate::packet::{Flit, PacketInfo, QueueEntry};
    use crate::testnet::{self, hot_net, small_cfg};
    use crate::{Network, Offer};
    use checkpoint::{CheckpointError, Dec, Enc};

    /// A deterministic little traffic source: every node sends to the
    /// opposite node every `interval` cycles.
    fn source(interval: u64) -> impl FnMut(u64, &mut Offer<'_>) {
        move |now, offer| {
            let nodes = 16usize;
            for node in 0..nodes {
                if now % interval == node as u64 % interval {
                    offer(node, (node + nodes / 2) % nodes);
                }
            }
        }
    }

    fn snapshot(net: &Network) -> Vec<u8> {
        let mut enc = Enc::new();
        net.save_state(&mut enc);
        enc.into_vec()
    }

    #[test]
    fn save_restore_resume_is_bit_identical() {
        let cfg = small_cfg();
        let mut src_a = source(3);
        let mut a = Network::new(cfg.clone()).unwrap();
        for _ in 0..500 {
            a.cycle_from(&mut src_a, &mut NoControl);
        }
        let snap = snapshot(&a);

        // Restore into a fresh network and run both 500 more cycles.
        let mut b = Network::new(cfg).unwrap();
        let mut dec = Dec::new(&snap);
        b.restore_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(snapshot(&b), snap, "restore must reproduce the snapshot");

        let mut src_b = source(3);
        // The source is a pure function of (now, node); fast-forward needs
        // nothing, but keep the closures separate to prove independence.
        for _ in 0..500 {
            a.cycle_from(&mut src_a, &mut NoControl);
            b.cycle_from(&mut src_b, &mut NoControl);
        }
        assert_eq!(snapshot(&a), snapshot(&b), "diverged after restore");
        assert_eq!(a.counters(), b.counters());
    }

    /// Ring-buffer physical layout must not leak into the byte format: a
    /// network whose rings have wrapped (heads far from zero) and a
    /// restored copy (heads at zero) serialize identically, and both
    /// continue identically.
    #[test]
    fn wrapped_rings_serialize_position_independently() {
        let cfg = small_cfg();
        let mut src = source(2); // heavy traffic: rings wrap many times
        let mut a = Network::new(cfg.clone()).unwrap();
        for _ in 0..2_000 {
            a.cycle_from(&mut src, &mut NoControl);
        }
        let snap = snapshot(&a);
        let mut b = Network::new(cfg).unwrap();
        let mut dec = Dec::new(&snap);
        b.restore_state(&mut dec).unwrap();
        dec.finish().unwrap();
        // b's rings all start at head 0; a's are arbitrarily wrapped.
        assert_eq!(snapshot(&b), snap);
        let mut src_a = source(2);
        let mut src_b = source(2);
        for _ in 0..300 {
            a.cycle_from(&mut src_a, &mut NoControl);
            b.cycle_from(&mut src_b, &mut NoControl);
        }
        assert_eq!(snapshot(&a), snapshot(&b));
    }

    /// A checkpoint carries only ground truth: the worklist, occupancy
    /// words, census and token-queue flags a restored network derives equal
    /// the ones the original maintained incrementally — taken while a VC
    /// waits in the token queue, so the flags are not all clear.
    #[test]
    fn restore_derives_what_the_checkpoint_omits() {
        let mut a = hot_net();
        let mut src = testnet::arrivals(1, 16, 60);
        for _ in 0..5_000 {
            if a.token_queue_len() > 0 {
                break;
            }
            a.cycle_from(&mut src, &mut NoControl);
        }
        assert!(
            a.token_queue_len() > 0,
            "vacuous: no VC queued for the token"
        );
        let snap = snapshot(&a);
        let mut b = Network::new(small_cfg()).unwrap();
        b.restore_state(&mut Dec::new(&snap)).unwrap();
        let derived = |n: &Network| {
            let words = (n.vc_busy.clone(), n.vc_full.clone(), n.vc_queued.clone());
            (words, n.full_buffers)
        };
        assert_eq!(derived(&a), derived(&b));
        assert!(b.audit().is_clean());
    }

    /// A freed slot is not ground truth: `alloc` overwrites it whole and
    /// nothing reads it before, so scribbling over its fields, escape flag
    /// included, changes no byte of the checkpoint.
    #[test]
    fn a_freed_slot_writes_nothing() {
        let mut net = hot_net();
        let before = snapshot(&net);
        let &id = net
            .packets
            .free_ids()
            .first()
            .expect("vacuous: no freed slot");
        *net.packets.get_mut(id) = PacketInfo {
            src: 3,
            dst: 1_000_000,
            generated_at: 77,
            injected_at: 5,
            delivered_flits: 9,
            last_move: 123,
            escaped: !net.packets.get(id).escaped,
        };
        assert_eq!(snapshot(&net), before);
    }

    /// A packet still in its source queue costs its 12-byte entry and no
    /// record: deterministic bytes, so this pins the size without timing
    /// anything.
    #[test]
    fn a_queued_packet_costs_its_queue_entry_alone() {
        let mut net = Network::new(small_cfg()).unwrap();
        net.offer(0, 3, 5);
        let one = snapshot(&net);
        net.offer(0, 4, 6);
        let two = snapshot(&net);
        assert_eq!(QueueEntry::ENCODED_LEN, 12);
        assert_eq!(two.len() - one.len(), 12);
        assert_eq!((net.live_packets(), net.packet_records()), (2, 0));
    }

    /// [`hot_net`] with `poke` applied.
    fn net_with(poke: impl FnOnce(&mut Network)) -> Network {
        let mut net = hot_net();
        poke(&mut net);
        net
    }

    /// Restores `net`'s snapshot into a fresh network and returns the
    /// decoder's complaint.
    fn corrupt_reason(net: &Network) -> &'static str {
        refusal(&snapshot(net))
    }

    /// Restores `snap` into a fresh network and returns the decoder's
    /// complaint.
    fn refusal(snap: &[u8]) -> &'static str {
        let mut fresh = Network::new(small_cfg()).unwrap();
        match fresh.restore_state(&mut Dec::new(snap)) {
            Err(CheckpointError::Corrupt(why)) => why,
            other => panic!("restored a corrupt checkpoint: {other:?}"),
        }
    }

    /// A live packet or an undrained delivery whose source or destination
    /// is not a node would index past the routing digits or the per-source
    /// counts on the next step: the decoder refuses it, typed.
    #[test]
    fn restore_rejects_endpoints_outside_the_network() {
        let net = hot_net();
        let queued = (0..16)
            .find(|&n| !net.source_q.is_empty(n))
            .expect("vacuous: no queued packet");
        let moving = (0..net.vc_assign.len())
            .find(|&r| !net.vc_bufs.is_empty(r))
            .map(|r| net.vc_bufs.front_packet(r))
            .expect("vacuous: no buffered flit");
        let mut far = net_with(|net| {
            let q = net.source_q.front(queued);
            let far = QueueEntry {
                dst: 1_000_000,
                ..q
            };
            net.source_q.set(queued, 0, far);
        });
        assert_eq!(corrupt_reason(&far), "packet endpoint outside the network");
        for src in [false, true] {
            far = net_with(|net| {
                let p = net.packets.get_mut(moving);
                *(if src { &mut p.src } else { &mut p.dst }) = 1_000_000;
            });
            assert_eq!(corrupt_reason(&far), "packet endpoint outside the network");
        }
        for src in [false, true] {
            let mut net = hot_net();
            let mut rec = net.drain_deliveries().next().expect("vacuous: no delivery");
            *(if src { &mut rec.src } else { &mut rec.dst }) = 16;
            net.deliveries.push(rec);
            assert_eq!(
                corrupt_reason(&net),
                "delivery endpoint outside the network"
            );
        }
    }

    /// Byte offset of flit `i` of input VC `r` in `net`'s snapshot: past
    /// the clock, the progress markers, the counters and the VC count, and
    /// every earlier VC's queue, assignment and two stamps.
    fn flit_offset(net: &Network, r: usize, i: usize) -> usize {
        let earlier: usize = (0..r)
            .map(|idx| {
                let assign = if matches!(net.vc_assign[idx], Assign::Out { .. }) {
                    3
                } else {
                    1
                };
                8 + net.vc_bufs.len(idx) * Flit::ENCODED_LEN + assign + 16
            })
            .sum();
        3 * 8 + Counters::ENCODED_LEN + 8 + earlier + 8 + i * Flit::ENCODED_LEN
    }

    /// A checkpoint's flit queues are what the slot does not store — each
    /// flit's index and a `ready_at` past the stamp window — so the decoder
    /// refuses, typed, any queue the simulator cannot buffer: an index
    /// past the packet, a gap in a run's indices, a packet change inside a
    /// run, and a flit ready later than one hop latency from the clock.
    /// One hand-built payload per refusal.
    #[test]
    fn restore_refuses_flits_outside_an_in_order_run() {
        let net = hot_net();
        let plen = net.packet_len;
        // A VC whose first two flits are one packet's body run.
        let r = (0..net.vc_assign.len())
            .find(|&r| net.vc_bufs.len(r) >= 2 && net.vc_bufs.get(r, 1).idx != 0)
            .expect("vacuous: no buffered body run");
        let other = (0..net.vc_assign.len())
            .filter_map(|q| net.vc_bufs.front(q))
            .map(|f| f.packet)
            .find(|&p| p != net.vc_bufs.front_packet(r))
            .expect("vacuous: one packet buffered");
        let snap = snapshot(&net);
        let (first, second) = (flit_offset(&net, r, 0), flit_offset(&net, r, 1));
        assert_eq!(
            snap[first..first + 4],
            net.vc_bufs.front_packet(r).to_le_bytes(),
            "not the flit's packet id"
        );
        let idx_at = |at: usize| at + 4;
        let ready_at = |at: usize| at + 6;
        let gap = (net.vc_bufs.get(r, 1).idx + 1) % plen;
        let too_late = net.now() + net.config().hop_latency + 1;
        let cases: [(usize, Vec<u8>, &str); 4] = [
            (
                idx_at(first),
                plen.to_le_bytes().to_vec(),
                "flit index past the packet length",
            ),
            (
                idx_at(second),
                gap.to_le_bytes().to_vec(),
                "buffered flits out of packet order",
            ),
            (
                second,
                other.to_le_bytes().to_vec(),
                "buffered flits out of packet order",
            ),
            (
                ready_at(first),
                too_late.to_le_bytes().to_vec(),
                "flit ready beyond one hop latency",
            ),
        ];
        for (at, bytes, why) in cases {
            let mut built = snap.clone();
            built[at..at + bytes.len()].copy_from_slice(&bytes);
            assert_eq!(refusal(&built), why, "{bytes:?} at byte {at}");
        }
        // The latest stamp the window allows restores.
        let mut built = snap.clone();
        let latest = too_late - 1;
        built[ready_at(first)..ready_at(first) + 8].copy_from_slice(&latest.to_le_bytes());
        let mut fresh = Network::new(small_cfg()).unwrap();
        fresh.restore_state(&mut Dec::new(&built)).unwrap();
        assert_eq!(fresh.vc_bufs.front_ready_at(r), latest);
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let mut a = Network::new(small_cfg()).unwrap();
        let mut src = source(3);
        for _ in 0..100 {
            a.cycle_from(&mut src, &mut NoControl);
        }
        let snap = snapshot(&a);
        // A network with a different radix has different vector shapes.
        let mut b = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        let mut dec = Dec::new(&snap);
        assert!(b.restore_state(&mut dec).is_err());
    }
}
