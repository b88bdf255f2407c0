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
//! serialized either: a snapshot is restored under the configuration that
//! took it — into a network built from it ([`Network::restore_state`]), or
//! as the network [`Network::restore`] builds from it, which allocates
//! every arena once, in the decoder — and the caller guards that with a
//! configuration fingerprint at the container level.
//!
//! Each section writes what its state holds, not the network's shape
//! (formats v9 and v10). Counts, ids and nodes are varints, and every cycle stamp
//! is a varint offset back from the clock (`now`; `now + hop_latency` for
//! a flit's `ready_at`), so a stamp costs what its age takes. An input VC
//! is one tag byte — assignment kind, ring non-empty, blocked count
//! non-zero — followed only by what that state reads: the `Out` port and
//! VC, the blocked count of a VC holding a header assigned `None`, the
//! ring, and last the routing cycle of a switchable VC whose front is a
//! header (the only front whose switch-plane entry reads it; elsewhere
//! the word is stale and a restore leaves it 0). An idle VC is one
//! byte: its blocked count is zero (a count grows only under a waiting
//! header and restarts when that header routes or is suspected). A ring writes its
//! length, its front flit's index (the rest follow in ring order), the
//! packet id once per packet run and each flit's ready offset.
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

use crate::config::NetConfig;
use crate::counters::Counters;
use crate::network::{Assign, InjState, Network, RecoveryJob, DL_DEPTH};
use crate::packet::{DeliveredRecord, Flit, PacketStore, QueueEntry};
use crate::ring::{FlitRings, Rings};
use checkpoint::{CheckpointError, Dec, Enc};
use std::ops::RangeInclusive;

/// Low three bits of an input-VC or injection tag: the assignment kind
/// ([`kind_of`]).
const KIND: u8 = 0b111;
/// Input-VC tag bit: the ring holds a flit (and is written).
const BUSY: u8 = 1 << 3;
/// Input-VC tag bit: the blocked count is non-zero (and is written).
const BLOCKED: u8 = 1 << 4;
/// Injection tag bit: the interface streams a packet (its id is written).
const ACTIVE: u8 = 1 << 3;
/// Injection tag bit: the interface is not idle (its fields are written).
const STARTED: u8 = 1 << 4;

/// The assignment kind a tag's [`KIND`] bits hold.
fn kind_of(a: Assign) -> u8 {
    match a {
        Assign::None => 0,
        Assign::Out { .. } => 1,
        Assign::Delivery => 2,
        Assign::AwaitToken => 3,
        Assign::Recovery => 4,
    }
}

/// Whether VC `idx`'s routing cycle is written: the VC is switchable and
/// its front flit is a header, the only front whose switch-plane entry
/// reads the cycle ([`crate::plane::vc_movable_at`]). Anywhere else the
/// word is stale and a restore leaves it 0.
fn routed_header(rings: &FlitRings, idx: usize, a: Assign) -> bool {
    matches!(a, Assign::Out { .. } | Assign::Delivery)
        && rings.front(idx).is_some_and(|f| f.idx == 0)
}

/// Writes what an assignment holds beyond its kind: an `Out`'s port and VC.
fn enc_out(enc: &mut Enc, a: Assign) {
    if let Assign::Out { port, vc } = a {
        enc.u8(port);
        enc.u8(vc);
    }
}

/// Decodes an assignment of kind `kind` on a router with `d` network ports
/// of `v` VCs each. An `Out` naming a port or VC the router does not have
/// is rejected here: restore derives a switch-plane slot from it.
fn dec_assign(dec: &mut Dec<'_>, kind: u8, d: usize, v: usize) -> Result<Assign, CheckpointError> {
    Ok(match kind {
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

/// Writes `stamp` as its offset back from `from`.
#[inline]
pub(crate) fn enc_back(enc: &mut Enc, from: u64, stamp: u64) {
    debug_assert!(stamp <= from, "stamp {stamp} past the clock {from}");
    enc.varint(from.wrapping_sub(stamp));
}

/// Reads a stamp written by [`enc_back`] against the same `from`.
#[inline]
pub(crate) fn dec_back(dec: &mut Dec<'_>, from: u64) -> Result<u64, CheckpointError> {
    from.checked_sub(dec.varint()?)
        .ok_or(CheckpointError::Corrupt("cycle stamp before cycle 0"))
}

/// Reads a varint that must be below `end` (a count, index or id bounded
/// by the configuration), refusing anything else as `what`.
#[inline]
fn dec_below(dec: &mut Dec<'_>, end: usize, what: &'static str) -> Result<usize, CheckpointError> {
    usize::try_from(dec.varint()?)
        .ok()
        .filter(|&x| x < end)
        .ok_or(CheckpointError::Corrupt(what))
}

/// Reads a packet id (a `u32`).
#[inline]
fn dec_packet(dec: &mut Dec<'_>) -> Result<u32, CheckpointError> {
    u32::try_from(dec.varint()?).map_err(|_| CheckpointError::Corrupt("packet id out of range"))
}

/// Serializes ring `r` of a flit arena as its logical front-to-back
/// contents: its length, then, if it holds any, the front flit's index,
/// and per flit its packet id where a packet run starts (the front, and
/// every index 0) and its `ready_at` back from `ready_base`, the clock plus
/// one hop latency.
fn enc_flits(enc: &mut Enc, rings: &FlitRings, r: usize, ready_base: u64) {
    let len = rings.len(r);
    enc.varint(len as u64);
    for i in 0..len {
        let f = rings.get(r, i);
        if i == 0 {
            enc.varint(u64::from(f.idx));
        }
        if i == 0 || f.idx == 0 {
            enc.varint(u64::from(f.packet));
        }
        enc_back(enc, ready_base, f.ready_at);
    }
}

/// Decodes a flit queue of a length in `lens` into ring `r` of a (freshly
/// reset) arena whose clock is the checkpoint's, for packets of `plen`
/// flits. The indices follow from the front's in ring order, so every
/// queue decodes as in-order packet runs; a front index past the packet
/// is refused.
fn dec_flits(
    dec: &mut Dec<'_>,
    rings: &mut FlitRings,
    r: usize,
    lens: RangeInclusive<usize>,
    plen: u16,
    ready_base: u64,
) -> Result<(), CheckpointError> {
    let len = usize::try_from(dec.varint()?)
        .ok()
        .filter(|n| lens.contains(n))
        .ok_or(CheckpointError::Corrupt("flit queue length out of range"))?;
    if len == 0 {
        return Ok(());
    }
    let front = dec_below(dec, usize::from(plen), "flit index past the packet length")?;
    let mut packet = 0;
    for i in 0..len {
        let idx = ((front + i) % usize::from(plen)) as u16;
        if i == 0 || idx == 0 {
            packet = dec_packet(dec)?;
        }
        let ready_at = rings.restamped(dec_back(dec, ready_base)?);
        rings.push_back(
            r,
            Flit {
                packet,
                idx,
                ready_at,
            },
        );
    }
    Ok(())
}

impl Network {
    /// The base a buffered flit's `ready_at` is written back from: no flit
    /// is ready later than one hop latency past the clock.
    fn ready_base(&self) -> u64 {
        self.now.saturating_add(self.config().hop_latency)
    }

    /// Serializes the complete mutable state into `enc`.
    pub fn save_state(&self, enc: &mut Enc) {
        let now = self.now;
        let ready_base = self.ready_base();
        enc.u64(now);
        enc_back(enc, now, self.last_delivery_at);
        enc_back(enc, now, self.last_progress_at);
        self.counters.save_state(enc);

        let n_vcs = self.vc_assign.len();
        enc.varint(n_vcs as u64);
        for idx in 0..n_vcs {
            let a = self.vc_assign[idx];
            let busy = !self.vc_bufs.is_empty(idx);
            let unrouted = matches!(a, Assign::None | Assign::AwaitToken);
            let blocked = if unrouted && busy {
                self.vc_routing[idx]
            } else {
                0
            };
            let mut tag = kind_of(a);
            if busy {
                tag |= BUSY;
            }
            if blocked != 0 {
                tag |= BLOCKED;
            }
            enc.u8(tag);
            enc_out(enc, a);
            if blocked != 0 {
                enc.varint(blocked);
            }
            if busy {
                enc_flits(enc, &self.vc_bufs, idx, ready_base);
            }
            if routed_header(&self.vc_bufs, idx, a) {
                enc_back(enc, now, self.vc_routing[idx]);
            }
        }
        for flags in self.out_alloc.chunks(8) {
            let byte = flags
                .iter()
                .enumerate()
                .fold(0u8, |b, (i, &set)| b | u8::from(set) << i);
            enc.u8(byte);
        }
        for inj in &self.inj {
            if *inj == InjState::idle() {
                enc.u8(0);
                continue;
            }
            let active = if inj.active.is_some() { ACTIVE } else { 0 };
            enc.u8(STARTED | active | kind_of(inj.assign));
            if let Some(id) = inj.active {
                enc.varint(u64::from(id));
            }
            enc.varint(u64::from(inj.sent));
            enc_out(enc, inj.assign);
            enc_back(enc, now, inj.routed_at);
        }
        for node in 0..self.inj.len() {
            let n = self.source_q.len(node);
            enc.varint(n as u64);
            // The first entry's generation cycle back from the clock, each
            // later one's as the gap from the entry before it.
            let mut prev = now;
            for i in 0..n {
                let q = self.source_q.get(node, i);
                let generated_at = q.generated_at;
                enc.varint(u64::from(q.dst));
                if i == 0 {
                    enc_back(enc, now, generated_at);
                } else {
                    enc.varint(generated_at - prev);
                }
                prev = generated_at;
            }
        }
        self.packets.save_state(enc, now);
        for node in 0..self.inj.len() {
            enc_flits(enc, &self.dl_bufs, node, ready_base);
        }
        match &self.recovery {
            None => enc.bool(false),
            Some(job) => {
                enc.bool(true);
                enc.varint(u64::from(job.packet));
                enc.varint(job.path.len() as u64);
                for &n in &job.path {
                    enc.varint(n as u64);
                }
                enc.varint(job.src_vc as u64);
                enc.bool(job.tail_in);
            }
        }
        // A cursor is at most the feeder count plus one (`fpn + 1 <= 64`).
        for &c in self.route_rr.iter().chain(&self.out_rr) {
            enc.u8(c);
        }
        enc.varint(self.token_queue.len(0) as u64);
        for i in 0..self.token_queue.len(0) {
            enc.varint(u64::from(self.token_queue.get(0, i)));
        }
        enc.varint(self.deliveries.len() as u64);
        for d in &self.deliveries {
            enc.varint(d.src as u64);
            enc.varint(d.dst as u64);
            enc_back(enc, now, d.generated_at);
            enc_back(enc, now, d.injected_at);
            enc_back(enc, now, d.delivered_at);
        }
    }

    /// Builds a network of `cfg` holding the state [`Network::save_state`]
    /// wrote under the same configuration: unsharded, fault-free, phase
    /// stats off. Every arena is the decoder's, allocated once, and the
    /// derived state is rebuilt in place — no empty network is built first
    /// and dropped, so a restore's peak heap is the restored network's.
    ///
    /// # Errors
    ///
    /// As [`Network::restore_state`]; and `Corrupt` when `cfg` does not
    /// validate ([`NetConfig::validate`] says why): no checkpoint holds
    /// the state of a network that cannot be built.
    pub fn restore(cfg: NetConfig, dec: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let mut net = Network::build(cfg, false)
            .map_err(|_| CheckpointError::Corrupt("network configuration does not validate"))?;
        net.restore_state(dec)?;
        Ok(net)
    }

    /// Restores state captured with [`Network::save_state`] into a network
    /// built from the *same* configuration (same radix, dimensions, VCs,
    /// buffer depth). The network's shard plan, installed fault plan and
    /// phase stats are its own and stay: the decoded flit lines go into the
    /// plan's pools. A failed restore leaves the network unmodified. This
    /// is the one decode body; [`Network::restore`] runs it on a network
    /// with no state yet.
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream, a
    /// structurally impossible value, or a shape mismatch against this
    /// network's configuration.
    pub fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        use CheckpointError::Corrupt;
        let nodes = self.torus().node_count();
        let (d, v) = (self.torus().channels_per_node(), self.config().vcs);
        let n_vcs = nodes * d * v;
        let depth = self.config().buf_depth;
        let (plen, hop) = (self.packet_len, self.config().hop_latency);

        let now = dec.u64()?;
        let ready_base = now.saturating_add(hop);
        let last_delivery_at = dec_back(dec, now)?;
        let last_progress_at = dec_back(dec, now)?;
        let counters = Counters::restore_state(dec)?;

        if dec.varint()? != n_vcs as u64 {
            return Err(Corrupt("input VC count mismatch"));
        }
        let mut vc_bufs = FlitRings::new(n_vcs, depth, plen, hop);
        vc_bufs.set_pools(&self.vc_pool_bounds().collect::<Vec<_>>());
        vc_bufs.set_now(now);
        let mut vc_assign = Vec::with_capacity(n_vcs);
        let mut vc_routing = vec![0; n_vcs];
        for (idx, routing) in vc_routing.iter_mut().enumerate() {
            let tag = dec.u8()?;
            if tag & !(KIND | BUSY | BLOCKED) != 0 {
                return Err(Corrupt("bad input VC tag"));
            }
            let a = dec_assign(dec, tag & KIND, d, v)?;
            vc_assign.push(a);
            if tag & BLOCKED != 0 {
                // Only a header assigned `None` counts: a suspect's count
                // restarted when it was suspected.
                *routing = dec.varint()?;
                if a != Assign::None || tag & BUSY == 0 || *routing == 0 {
                    return Err(Corrupt("blocked count where no header waits"));
                }
            }
            if tag & BUSY != 0 {
                dec_flits(dec, &mut vc_bufs, idx, 1..=depth, plen, ready_base)?;
            }
            if routed_header(&vc_bufs, idx, a) {
                *routing = dec_back(dec, now)?;
            }
        }
        let mut out_alloc = Vec::with_capacity(n_vcs);
        for _ in 0..n_vcs.div_ceil(8) {
            let byte = dec.u8()?;
            let bits = (n_vcs - out_alloc.len()).min(8);
            if u16::from(byte) >> bits != 0 {
                return Err(Corrupt("output VC flag past the last VC"));
            }
            out_alloc.extend((0..bits).map(|i| byte >> i & 1 == 1));
        }
        let mut inj = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let tag = dec.u8()?;
            if tag == 0 {
                inj.push(InjState::idle());
                continue;
            }
            if tag & STARTED == 0 || tag & !(KIND | ACTIVE | STARTED) != 0 {
                return Err(Corrupt("bad injection tag"));
            }
            let active = if tag & ACTIVE != 0 {
                Some(dec_packet(dec)?)
            } else {
                None
            };
            let sent = dec_below(dec, usize::from(plen), "injection past the packet length")?;
            inj.push(InjState {
                active,
                sent: sent as u16,
                assign: dec_assign(dec, tag & KIND, d, v)?,
                routed_at: dec_back(dec, now)?,
            });
        }
        let cap = self.config().source_queue_cap;
        let mut source_q = Rings::new(nodes, cap);
        for node in 0..nodes {
            let n = dec_below(dec, cap + 1, "source queue exceeds capacity")?;
            let mut prev = now;
            for i in 0..n {
                let dst = dec_below(dec, nodes, "packet endpoint outside the network")? as u32;
                let generated_at = if i == 0 {
                    dec_back(dec, now)?
                } else {
                    prev.checked_add(dec.varint()?)
                        .filter(|&g| g <= now)
                        .ok_or(Corrupt("queued packet generated after the checkpoint"))?
                };
                prev = generated_at;
                source_q.push_back(node, QueueEntry { dst, generated_at });
            }
        }
        let packets = PacketStore::restore_state(dec, nodes, now)?;
        let mut dl_bufs = FlitRings::new(nodes, DL_DEPTH, plen, hop);
        dl_bufs.set_now(now);
        for node in 0..nodes {
            dec_flits(dec, &mut dl_bufs, node, 0..=DL_DEPTH, plen, ready_base)?;
        }
        let recovery = if dec.bool()? {
            let packet = dec_packet(dec)?;
            let path_len = dec_below(dec, nodes + 1, "recovery path length")?;
            if path_len == 0 {
                return Err(Corrupt("recovery path length"));
            }
            let mut path = Vec::with_capacity(path_len);
            for _ in 0..path_len {
                path.push(dec_below(dec, nodes, "recovery path node")?);
            }
            Some(RecoveryJob {
                packet,
                path,
                src_vc: dec_below(dec, n_vcs, "recovery source VC")?,
                tail_in: dec.bool()?,
            })
        } else {
            None
        };
        let fpn = d * v;
        let mut cursor = || -> Result<u8, CheckpointError> {
            let c = dec.u8()?;
            if usize::from(c) > fpn + 1 {
                return Err(Corrupt("round-robin cursor out of range"));
            }
            Ok(c)
        };
        let route_rr = (0..nodes)
            .map(|_| cursor())
            .collect::<Result<Vec<_>, _>>()?;
        let out_rr = (0..nodes * (d + 1))
            .map(|_| cursor())
            .collect::<Result<Vec<_>, _>>()?;
        // Avoidance queues nothing for the token and reserves no queue.
        let tok_cap = if self.config().deadlock.recovers() {
            n_vcs
        } else {
            0
        };
        let n_tok = dec_below(dec, tok_cap + 1, "token queue implausibly long")?;
        let mut token_queue = Rings::new(1, tok_cap);
        for _ in 0..n_tok {
            let idx = dec_below(dec, n_vcs, "token queue entry out of range")?;
            token_queue.push_back(0, idx as u32);
        }
        let n_del = usize::try_from(dec.varint()?)
            .ok()
            .filter(|&n| n as u64 <= counters.delivered_packets)
            .ok_or(Corrupt("undrained delivery count"))?;
        let mut deliveries = Vec::with_capacity(n_del.min(dec.remaining()));
        for _ in 0..n_del {
            let endpoint = "delivery endpoint outside the network";
            let (src, dst) = (
                dec_below(dec, nodes, endpoint)?,
                dec_below(dec, nodes, endpoint)?,
            );
            deliveries.push(DeliveredRecord {
                src,
                dst,
                generated_at: dec_back(dec, now)?,
                injected_at: dec_back(dec, now)?,
                delivered_at: dec_back(dec, now)?,
            });
        }

        self.now = now;
        self.last_delivery_at = last_delivery_at;
        self.last_progress_at = last_progress_at;
        self.counters = counters;
        self.vc_bufs = vc_bufs;
        self.vc_assign = vc_assign;
        self.vc_routing = vc_routing;
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
    use super::{BLOCKED, BUSY, KIND};
    use crate::config::{DeadlockMode, NetConfig};
    use crate::control::NoControl;
    use crate::counters::Counters;
    use crate::network::Assign;
    use crate::packet::{PacketInfo, QueueEntry};
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

    /// An idle input VC's routing word is 0 — the routing cycle gave way
    /// to a blocked count when its last tail left, and a count grows only
    /// under a waiting header — and its switch-plane entry is stale by
    /// design: only a switchable VC's entry is read. So the VC writes its
    /// tag alone, and scribbling over its plane entry changes no byte of
    /// the checkpoint.
    #[test]
    fn a_stale_vc_field_writes_nothing() {
        let mut net = hot_net();
        let before = snapshot(&net);
        let idx = (0..net.vc_assign.len())
            .find(|&i| net.vc_assign[i] == Assign::None && net.vc_bufs.is_empty(i))
            .expect("vacuous: no idle VC");
        assert_eq!(net.vc_routing[idx], 0);
        let fpn = net.vc_assign.len() / net.torus().node_count();
        let at = idx / fpn * (fpn + 1) + idx % fpn;
        let view = net.plane.view();
        view.set_movable_at(at, 12_345);
        view.set_slot(at, crate::plane::Slot::delivery(3, 1));
        assert_eq!(snapshot(&net), before);
        let (tag_at, ring_at, end) = vc_span(&before, &net, idx);
        assert_eq!((before[tag_at], ring_at, end), (0, tag_at + 1, tag_at + 1));
    }

    /// A switchable VC's routing cycle is read only while its front is a
    /// header ([`crate::plane::vc_movable_at`]), so it is written there
    /// alone: scribbling over the word of a routed VC whose header has
    /// left changes no byte of the checkpoint, and over a routed header's
    /// it does.
    #[test]
    fn a_routing_cycle_is_written_under_a_header_alone() {
        let mut net = hot_net();
        let before = snapshot(&net);
        let switchable = |net: &Network, header: bool| {
            (0..net.vc_assign.len())
                .find(|&i| {
                    matches!(net.vc_assign[i], Assign::Out { .. } | Assign::Delivery)
                        && net.vc_bufs.front(i).is_some_and(|f| f.idx == 0) == header
                })
                .expect("vacuous: no such switchable VC")
        };
        let (body, header) = (switchable(&net, false), switchable(&net, true));
        assert_ne!(net.vc_routing[body], 0, "vacuous: no stale routing cycle");
        net.vc_routing[body] = 0;
        assert_eq!(snapshot(&net), before);
        net.vc_routing[header] = u64::from(net.vc_routing[header] == 0);
        assert_ne!(snapshot(&net), before);
    }

    /// A checkpoint's size follows the live state, not the network's
    /// shape: a freshly built 12-ary 3-cube (31,104 input VCs, all idle)
    /// writes a tag byte per VC and little else, where a fixed-width
    /// layout of 25 bytes per VC wrote about 1 MB.
    #[test]
    fn an_idle_network_checkpoints_in_a_byte_per_vc() {
        let cfg = NetConfig {
            radix: 12,
            dimensions: 3,
            ..NetConfig::paper(DeadlockMode::PAPER_RECOVERY)
        };
        let net = Network::new(cfg).unwrap();
        let bytes = snapshot(&net);
        assert_eq!(net.vc_assign.len(), 31_104);
        assert!(bytes.len() < 100_000, "{} bytes", bytes.len());
    }

    /// A packet still in its source queue costs its entry and no record:
    /// its destination and its generation cycle back from the clock, a
    /// byte each here. Deterministic bytes, so this pins the size without
    /// timing anything.
    #[test]
    fn a_queued_packet_costs_its_queue_entry_alone() {
        let mut net = Network::new(small_cfg()).unwrap();
        net.offer(0, 3, 5);
        let one = snapshot(&net);
        net.offer(0, 4, 6);
        let two = snapshot(&net);
        assert_eq!(two.len() - one.len(), 2);
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
            let mut drain = net.drain_deliveries();
            let mut rec = drain.next().expect("vacuous: no delivery");
            assert!(drain.len() > 0, "vacuous: a single delivery");
            drop(drain);
            // A dropped drain removes what it did not yield.
            assert_eq!(net.drain_deliveries().next(), None);
            *(if src { &mut rec.src } else { &mut rec.dst }) = 16;
            net.deliveries.push(rec);
            assert_eq!(
                corrupt_reason(&net),
                "delivery endpoint outside the network"
            );
        }
    }

    /// Where input VC `r` sits in `net`'s snapshot `snap`: its tag byte,
    /// the start of its ring (past the tag, the `Out` port and VC and the
    /// blocked count) and the end of that ring, ahead of any routed-at
    /// stamp. Walks the VC section the way the decoder reads it.
    fn vc_span(snap: &[u8], net: &Network, r: usize) -> (usize, usize, usize) {
        let mut dec = Dec::new(snap);
        let at = |dec: &Dec<'_>| snap.len() - dec.remaining();
        dec.u64().unwrap();
        dec.varint().unwrap();
        dec.varint().unwrap();
        Counters::restore_state(&mut dec).unwrap();
        assert_eq!(dec.varint().unwrap() as usize, net.vc_assign.len());
        let plen = u64::from(net.packet_len);
        for idx in 0.. {
            let tag_at = at(&dec);
            let tag = dec.u8().unwrap();
            let kind = tag & KIND;
            if kind == 1 {
                dec.u16().unwrap(); // port, VC
            }
            if tag & BLOCKED != 0 {
                dec.varint().unwrap();
            }
            let ring_at = at(&dec);
            let mut header = false;
            if tag & BUSY != 0 {
                let len = dec.varint().unwrap();
                let front = dec.varint().unwrap();
                header = front == 0;
                for i in 0..len {
                    if i == 0 || (front + i).is_multiple_of(plen) {
                        dec.varint().unwrap(); // packet id
                    }
                    dec.varint().unwrap(); // ready offset
                }
            }
            let end = at(&dec);
            if header && (kind == 1 || kind == 2) {
                dec.varint().unwrap(); // routed-at
            }
            if idx == r {
                return (tag_at, ring_at, end);
            }
        }
        unreachable!()
    }

    /// A checkpoint's flit queue is a length, the front's index and per
    /// flit a ready offset (a packet id where a run starts), so every
    /// queue it can express is in-order packet runs; the decoder refuses,
    /// typed, the rest of what the simulator cannot buffer: a busy VC with
    /// no flit or more than its depth, a front index past the packet, a
    /// packet id past `u32`, a flit ready before cycle 0, and a tag or
    /// blocked count no VC writes (on an idle VC, on a suspect). One
    /// hand-built payload per refusal.
    #[test]
    fn restore_refuses_flit_queues_no_ring_holds() {
        let net = hot_net();
        let (plen, depth) = (u64::from(net.packet_len), net.config().buf_depth as u64);
        // A header waiting to route: no routed-at stamp follows its ring,
        // whatever ring replaces it.
        let r = (0..net.vc_assign.len())
            .find(|&i| net.vc_assign[i] == Assign::None && !net.vc_bufs.is_empty(i))
            .expect("vacuous: no waiting header");
        let idle = (0..net.vc_assign.len())
            .find(|&i| net.vc_assign[i] == Assign::None && net.vc_bufs.is_empty(i))
            .expect("vacuous: no idle VC");
        let snap = snapshot(&net);
        let (_, ring_at, end) = vc_span(&snap, &net, r);
        let ready_base = net.now() + net.config().hop_latency;
        // VC `r`'s ring replaced by `ring`, varints each.
        let with_ring = |ring: &[u64]| {
            let mut enc = Enc::new();
            for &v in ring {
                enc.varint(v);
            }
            let mut built = snap[..ring_at].to_vec();
            built.extend(enc.into_vec());
            built.extend_from_slice(&snap[end..]);
            built
        };
        let (tag_at, _, _) = vc_span(&snap, &net, idle);
        let with_tag = |tag: u8, extra: &[u8]| {
            let mut built = snap.clone();
            built[tag_at] = tag;
            built.splice(tag_at + 1..tag_at + 1, extra.iter().copied());
            built
        };
        // The waiting header turned suspect (kind 3) keeping a count,
        // which restarts when a header is suspected.
        let (waiting_at, waiting_ring, _) = vc_span(&snap, &net, r);
        let mut counted = snap.clone();
        if counted[waiting_at] & BLOCKED == 0 {
            counted.insert(waiting_ring, 1);
        }
        counted[waiting_at] = 3 | BUSY | BLOCKED;
        let too_long: Vec<u64> = [depth + 1, 0, 1].into_iter().chain([1; 9]).collect();
        let cases: [(Vec<u8>, &str); 8] = [
            (with_ring(&[0]), "flit queue length out of range"),
            (with_ring(&too_long), "flit queue length out of range"),
            (
                with_ring(&[1, plen, 1, 1]),
                "flit index past the packet length",
            ),
            (with_ring(&[1, 0, 1 << 32, 1]), "packet id out of range"),
            (
                with_ring(&[1, 0, 1, ready_base + 1]),
                "cycle stamp before cycle 0",
            ),
            (with_tag(1 << 5, &[]), "bad input VC tag"),
            (
                with_tag(BLOCKED, &[1]),
                "blocked count where no header waits",
            ),
            (counted, "blocked count where no header waits"),
        ];
        for (built, why) in cases {
            assert_eq!(refusal(&built), why);
        }
        // The latest stamp the offsets allow, one hop latency past the
        // clock, restores.
        let packet = net.vc_bufs.front_packet(r);
        let built = with_ring(&[1, 0, u64::from(packet), 0]);
        let mut fresh = Network::new(small_cfg()).unwrap();
        fresh.restore_state(&mut Dec::new(&built)).unwrap();
        assert_eq!(fresh.vc_bufs.front_ready_at(r), ready_base);
    }

    /// A restore is all or nothing and the receiver's own settings stay. A
    /// refused container — cut short by its last byte, or with a tag no VC
    /// writes — leaves a busy receiver's bytes as they were, at one shard
    /// and at three, with a fault plan installed: it then steps exactly as
    /// its twin that was never asked, across the plan's hotspot. A good
    /// container restored into a three-shard network keeps the plan and
    /// splits its flit lines into the plan's pools, and 500 cycles on it
    /// end in the bytes of [`Network::restore`]'s unsharded network.
    #[test]
    fn restore_writes_all_or_nothing_and_keeps_the_receiver() {
        use faults::{FaultPlan, HotspotFault};
        let faults = FaultPlan {
            hotspots: vec![HotspotFault {
                node: 5,
                start: 1_600,
                end: 1_800,
            }],
            ..FaultPlan::none(3)
        };
        let hot = hot_net();
        let snap = snapshot(&hot);
        let idle = (0..hot.vc_assign.len())
            .find(|&i| hot.vc_assign[i] == Assign::None && hot.vc_bufs.is_empty(i))
            .expect("vacuous: no idle VC");
        let (tag_at, _, _) = vc_span(&snap, &hot, idle);
        let mut bad_tag = snap.clone();
        bad_tag[tag_at] = 1 << 5;
        let truncated = &snap[..snap.len() - 1];

        // A busy network unlike the snapshot's, at `shards`, faulted.
        let receiver = |shards: usize| {
            let mut net = Network::new(small_cfg()).unwrap();
            net.install_faults(faults.clone()).unwrap();
            net.set_shards(shards);
            let mut src = testnet::arrivals(2, 16, 40);
            for _ in 0..1_550 {
                net.cycle_from(&mut src, &mut NoControl);
            }
            net
        };
        // `net` stepped across the hotspot; its bytes and its counters.
        let step = |mut net: Network, seed: u64| {
            let mut src = testnet::arrivals(seed, 16, 60);
            for _ in 0..500 {
                net.cycle_from(&mut src, &mut NoControl);
            }
            assert!(net.audit().is_clean());
            (snapshot(&net), *net.counters())
        };
        for shards in [1, 3] {
            let mut net = receiver(shards);
            let before = snapshot(&net);
            assert!(net.restore_state(&mut Dec::new(truncated)).is_err());
            assert!(matches!(
                net.restore_state(&mut Dec::new(&bad_tag)),
                Err(CheckpointError::Corrupt("bad input VC tag"))
            ));
            assert_eq!(snapshot(&net), before, "a refused restore wrote");
            assert_eq!(net.shards(), shards);
            let (bytes, counters) = step(net, 2);
            assert!(counters.hotspot_stall_cycles > 0, "vacuous: no stall");
            assert_eq!((bytes, counters), step(receiver(shards), 2));
        }

        let mut sharded = receiver(3);
        sharded.restore_state(&mut Dec::new(&snap)).unwrap();
        assert_eq!(snapshot(&sharded), snap);
        assert_eq!(sharded.shards(), 3);
        assert!(sharded.pools_match_plan(), "lines outside the plan's pools");
        assert!(sharded.audit().is_clean());
        let mut dec = Dec::new(&snap);
        let mut unsharded = Network::restore(small_cfg(), &mut dec).unwrap();
        dec.finish().unwrap();
        unsharded.install_faults(faults.clone()).unwrap();
        assert_eq!(unsharded.shards(), 1);
        let (bytes, counters) = step(sharded, 1);
        assert!(counters.hotspot_stall_cycles > 0, "vacuous: no stall");
        assert_eq!((bytes, counters), step(unsharded, 1));
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
