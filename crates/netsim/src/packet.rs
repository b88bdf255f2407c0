use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64};

use crate::shard::Cells;
use kncube::NodeId;

/// Identifier of an in-flight packet (an index into the packet store; slots
/// are recycled after delivery).
pub type PacketId = u32;

/// One flit of a packet.
///
/// All flits of a packet are identical except for their index: index 0 is
/// the header (carries routing information), index `packet_len - 1` (the
/// network's [`crate::NetConfig::packet_len`]) is the tail (releases
/// resources as it passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Position within the packet (0 = header).
    pub idx: u16,
    /// First cycle at which this flit is usable at its current location
    /// (models crossbar + link pipeline latency).
    pub ready_at: u64,
}

impl Flit {
    /// Bytes of one serialized flit: packet id, index, ready cycle.
    pub(crate) const ENCODED_LEN: usize = 4 + 2 + 8;
}

/// Metadata of an in-flight packet. Every packet has the network's
/// [`crate::NetConfig::packet_len`] flits, so the record carries no length:
/// a flit move tests for the tail against the configured value and touches
/// the record only to store its `last_move` stamp — and, at the
/// destination, its delivered count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketInfo {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle the packet was generated (entered the source queue).
    pub generated_at: u64,
    /// Cycle the header flit left the source (entered the network), or
    /// `u64::MAX` while still queued.
    pub injected_at: u64,
    /// Flits already consumed at the destination. Flits arrive in order,
    /// so a delivery stores its flit's index + 1.
    pub delivered_flits: u16,
    /// Cycle any flit of this packet last moved (drives Disha's
    /// whole-worm-inactive deadlock detection).
    pub last_move: u64,
    /// Whether the packet ever took an escape VC: escape is sticky, so it
    /// then routes on the escape sub-network to its destination.
    pub escaped: bool,
}

// The escape flag rides in what was padding.
const _: () = assert!(std::mem::size_of::<PacketInfo>() <= 48);

impl PacketInfo {
    /// Bytes of an untouched packet's record in [`PacketStore::save_state`]:
    /// tag, `src` and `dst` (`u32`), `generated_at`.
    pub(crate) const OFFERED_LEN: usize = 1 + 2 * 4 + 8;
    /// Bytes of any other live packet's record: tag, `src`, `dst`,
    /// `generated_at`, `injected_at`, `delivered_flits`, `last_move`.
    pub(crate) const MOVED_LEN: usize = 1 + 2 * 4 + 2 * 8 + 2 + 8;

    /// The record `Network::offer` writes for a packet `src` generated at
    /// `now` for `dst`: queued, nothing sent, nothing delivered.
    #[must_use]
    pub(crate) fn offered(src: NodeId, dst: NodeId, now: u64) -> Self {
        PacketInfo {
            src,
            dst,
            generated_at: now,
            injected_at: u64::MAX,
            delivered_flits: 0,
            last_move: now,
            escaped: false,
        }
    }

    /// Whether this record is still exactly what `offer` wrote: then
    /// `src`, `dst` and `generated_at` are all a checkpoint needs of it.
    fn untouched(&self) -> bool {
        *self == PacketInfo::offered(self.src, self.dst, self.generated_at)
    }

    /// Bytes of this live packet's record.
    fn encoded_len(&self) -> usize {
        if self.untouched() {
            PacketInfo::OFFERED_LEN
        } else {
            PacketInfo::MOVED_LEN
        }
    }
}

/// Tag of a live packet's record: still what `offer` wrote.
const OFFERED: u8 = 0;
/// Tag of any other live packet's record, never escaped.
const MOVED: u8 = 1;
/// Tag of any other live packet's record, sticky-escaped.
const MOVED_ESCAPED: u8 = 2;

/// Record emitted when a packet's tail is consumed at its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredRecord {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Generation cycle.
    pub generated_at: u64,
    /// Injection cycle (header left the source).
    pub injected_at: u64,
    /// Delivery cycle (tail consumed).
    pub delivered_at: u64,
    /// Packet length in flits.
    pub len: u16,
    /// Whether the packet finished through the Disha recovery network.
    pub recovered: bool,
}

impl DeliveredRecord {
    /// Network latency: injection of the header to consumption of the tail.
    #[must_use]
    pub fn network_latency(&self) -> u64 {
        self.delivered_at - self.injected_at
    }

    /// End-to-end latency including source queueing.
    #[must_use]
    pub fn total_latency(&self) -> u64 {
        self.delivered_at - self.generated_at
    }
}

/// A slab of packet metadata with slot recycling, so long simulations do not
/// accumulate memory proportional to the number of packets ever sent.
#[derive(Debug, Default, Clone)]
pub struct PacketStore {
    slots: Vec<PacketInfo>,
    free: Vec<PacketId>,
}

impl PacketStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        PacketStore::default()
    }

    /// Allocates a slot for a new packet and returns its id.
    pub fn alloc(&mut self, info: PacketInfo) -> PacketId {
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = info;
            id
        } else {
            let id = PacketId::try_from(self.slots.len()).expect("too many live packets");
            self.slots.push(info);
            id
        }
    }

    /// Releases a delivered packet's slot for reuse.
    pub fn release(&mut self, id: PacketId) {
        debug_assert!(!self.free.contains(&id), "double release of packet {id}");
        self.free.push(id);
    }

    /// Read access to a live packet.
    #[must_use]
    pub fn get(&self, id: PacketId) -> &PacketInfo {
        &self.slots[id as usize]
    }

    /// Write access to a live packet.
    pub fn get_mut(&mut self, id: PacketId) -> &mut PacketInfo {
        &mut self.slots[id as usize]
    }

    /// Number of currently live (allocated, not yet released) packets.
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slot count (live + recycled), for audit-side liveness scans.
    #[must_use]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The recycled-slot free list (audit ground truth for liveness).
    #[must_use]
    pub(crate) fn free_ids(&self) -> &[PacketId] {
        &self.free
    }

    /// The slot array as checked cells, for the pass views
    /// ([`crate::shard::ApplyCtx`]), which reach a packet only through
    /// [`Cells::packet`].
    pub(crate) fn view(&mut self) -> Cells<'_, PacketInfo> {
        Cells::new(&mut self.slots)
    }

    /// Serializes what the store holds: the slot count, the free list in
    /// order (which determines future id assignment), then one record per
    /// live slot, ascending. A freed slot writes nothing — [`PacketStore::alloc`]
    /// overwrites it whole — and no record holds a length: every packet
    /// has the network's packet length. A live packet's escape
    /// flag rides in its record's tag.
    pub fn save_state(&self, enc: &mut checkpoint::Enc) {
        let start = enc.len();
        enc.usize(self.slots.len());
        enc.usize(self.free.len());
        for &id in &self.free {
            enc.u32(id);
        }
        let mut freed = self.free.clone();
        freed.sort_unstable();
        let mut freed = freed.into_iter().peekable();
        for (id, p) in self.slots.iter().enumerate() {
            if freed.next_if_eq(&(id as PacketId)).is_some() {
                continue;
            }
            let untouched = p.untouched();
            enc.u8(match (untouched, p.escaped) {
                (true, _) => OFFERED,
                (false, false) => MOVED,
                (false, true) => MOVED_ESCAPED,
            });
            // Node ids fit `u32`: config validation caps the node count.
            enc.u32(p.src as u32);
            enc.u32(p.dst as u32);
            enc.u64(p.generated_at);
            if !untouched {
                enc.u64(p.injected_at);
                enc.u16(p.delivered_flits);
                enc.u64(p.last_move);
            }
        }
        debug_assert_eq!(enc.len() - start, self.encoded_len());
    }

    /// Bytes [`PacketStore::save_state`] writes for the current store: every
    /// slot's record, less the freed slots'.
    pub(crate) fn encoded_len(&self) -> usize {
        let record = |id: usize| self.slots[id].encoded_len();
        let all: usize = (0..self.slots.len()).map(record).sum();
        let freed: usize = self.free.iter().map(|&id| record(id as usize)).sum();
        8 + 8 + 4 * self.free.len() + all - freed
    }

    /// Reads a store serialized with [`PacketStore::save_state`] on a
    /// network of `nodes` nodes. A freed slot comes
    /// back as an offered record of node 0; nothing reads it before `alloc`
    /// overwrites it.
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream, a
    /// free list that is longer than the slot array, names a slot outside
    /// it or names one twice, an unknown record tag, or a packet whose
    /// source or destination is not a node of the network.
    pub fn restore_state(
        dec: &mut checkpoint::Dec<'_>,
        nodes: usize,
    ) -> Result<Self, checkpoint::CheckpointError> {
        use checkpoint::CheckpointError::Corrupt;
        let nslots = dec.usize()?;
        let nfree = dec.usize()?;
        if nfree > nslots {
            return Err(Corrupt("free list longer than slot array"));
        }
        // A hostile count cannot force an allocation beyond what the stream
        // could actually satisfy: a free id is four bytes, a live record at
        // least `OFFERED_LEN`.
        let mut free = Vec::with_capacity(nfree.min(dec.remaining() / 4));
        for _ in 0..nfree {
            let id = dec.u32()?;
            if id as usize >= nslots {
                return Err(Corrupt("free list entry out of range"));
            }
            free.push(id);
        }
        let mut freed = free.clone();
        freed.sort_unstable();
        if freed.windows(2).any(|w| w[0] == w[1]) {
            return Err(Corrupt("free list names a slot twice"));
        }
        let cap = nslots.min(nfree + dec.remaining() / PacketInfo::OFFERED_LEN);
        let mut slots = Vec::with_capacity(cap);
        let mut freed = freed.into_iter().peekable();
        for id in 0..nslots {
            if freed.next_if_eq(&(id as PacketId)).is_some() {
                slots.push(PacketInfo::offered(0, 0, 0));
                continue;
            }
            let tag = dec.u8()?;
            if tag > MOVED_ESCAPED {
                return Err(Corrupt("unknown packet record tag"));
            }
            let (src, dst) = (dec.u32()? as usize, dec.u32()? as usize);
            if src >= nodes || dst >= nodes {
                return Err(Corrupt("packet endpoint outside the network"));
            }
            let mut p = PacketInfo::offered(src, dst, dec.u64()?);
            if tag != OFFERED {
                p.injected_at = dec.u64()?;
                p.delivered_flits = dec.u16()?;
                p.last_move = dec.u64()?;
            }
            p.escaped = tag == MOVED_ESCAPED;
            slots.push(p);
        }
        Ok(PacketStore { slots, free })
    }
}

/// What a route/switch pass may touch of one in-flight packet (built by
/// [`Cells::packet`]): its immutable destination, its escape flag, its two
/// stamps and its delivered count. The delivery record and the slot's
/// release are a tail's, done sequentially through [`PacketStore`] itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PacketCell<'a> {
    /// [`PacketInfo::dst`].
    pub dst: NodeId,
    /// [`PacketInfo::escaped`], set by the route win that takes an escape
    /// VC and read by the routing of the packet's header — one router's.
    pub escaped: &'a AtomicBool,
    /// [`PacketInfo::last_move`]. Several flits of one worm can move at
    /// routers of different shards in one cycle, all storing that cycle.
    pub last_move: &'a AtomicU64,
    /// [`PacketInfo::injected_at`], stored once, by the source node's op.
    pub injected_at: &'a AtomicU64,
    /// [`PacketInfo::delivered_flits`], stored by each delivery move — the
    /// destination's, so one shard's pass is its only writer.
    pub delivered: &'a AtomicU16,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(src: NodeId) -> PacketInfo {
        PacketInfo::offered(src, 0, 0)
    }

    #[test]
    fn alloc_release_recycles_slots() {
        let mut s = PacketStore::new();
        let a = s.alloc(info(1));
        let b = s.alloc(info(2));
        assert_ne!(a, b);
        assert_eq!(s.live(), 2);
        s.release(a);
        assert_eq!(s.live(), 1);
        let c = s.alloc(info(3));
        assert_eq!(c, a, "released slot should be reused");
        assert_eq!(s.get(c).src, 3);
        assert_eq!(s.live(), 2);
    }

    /// Slots 0..4: offered, freed, moved, moved and escaped — freed last
    /// pushed, so it is the next `alloc`'s.
    fn mixed_store() -> PacketStore {
        let mut s = PacketStore::new();
        for src in 0..4 {
            s.alloc(PacketInfo::offered(src, 7, 10 + src as u64));
        }
        s.get_mut(1).escaped = true;
        s.release(1);
        for id in [2, 3] {
            let p = s.get_mut(id);
            p.injected_at = 20;
            p.delivered_flits = 3;
            p.last_move = 25;
        }
        s.get_mut(3).escaped = true;
        s
    }

    fn save(s: &PacketStore) -> Vec<u8> {
        let mut enc = checkpoint::Enc::new();
        s.save_state(&mut enc);
        enc.into_vec()
    }

    fn restore(bytes: &[u8]) -> Result<PacketStore, checkpoint::CheckpointError> {
        let mut dec = checkpoint::Dec::new(bytes);
        let out = PacketStore::restore_state(&mut dec, 8)?;
        dec.finish()?;
        Ok(out)
    }

    #[test]
    fn records_round_trip_at_their_sizes() {
        let s = mixed_store();
        let bytes = save(&s);
        // Counts, one free id, one offered and two moved records.
        let want = 8 + 8 + 4 + PacketInfo::OFFERED_LEN + 2 * PacketInfo::MOVED_LEN;
        assert_eq!((bytes.len(), s.encoded_len()), (want, want));
        let back = restore(&bytes).unwrap();
        for id in [0, 2, 3] {
            assert_eq!(back.get(id), s.get(id), "slot {id}");
        }
        assert_eq!(back.free_ids(), s.free_ids());
        assert_eq!(save(&back), bytes);
    }

    #[test]
    fn restore_refuses_what_no_store_writes() {
        use checkpoint::CheckpointError::{Corrupt, Truncated};
        let good = save(&mixed_store());
        let with = |at: usize, bytes: &[u8]| {
            let mut built = good.clone();
            built[at..at + bytes.len()].copy_from_slice(bytes);
            built
        };
        let first_record = 8 + 8 + 4;
        let cases = [
            (
                "unknown tag",
                with(first_record, &[3]),
                "unknown packet record tag",
            ),
            (
                "destination past the nodes",
                with(first_record + 5, &8u32.to_le_bytes()),
                "packet endpoint outside the network",
            ),
            (
                "free id past the slots",
                with(16, &4u32.to_le_bytes()),
                "free list entry out of range",
            ),
            (
                "more free ids than slots",
                with(8, &5u64.to_le_bytes()),
                "free list longer than slot array",
            ),
        ];
        for (what, bytes, why) in cases {
            assert_eq!(restore(&bytes).err(), Some(Corrupt(why)), "{what}");
        }
        // One slot freed twice (and so never written) is refused however the
        // list got there.
        let mut twice = with(8, &2u64.to_le_bytes());
        twice.splice(20..20, 1u32.to_le_bytes());
        assert_eq!(
            restore(&twice).err(),
            Some(Corrupt("free list names a slot twice"))
        );
        // A hostile slot count allocates nothing the stream cannot fill.
        let hostile = with(0, &(1u64 << 40).to_le_bytes());
        assert!(matches!(restore(&hostile), Err(Truncated { .. })));
        for cut in 0..good.len() {
            assert!(restore(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn latency_accessors() {
        let r = DeliveredRecord {
            src: 0,
            dst: 1,
            generated_at: 10,
            injected_at: 25,
            delivered_at: 100,
            len: 16,
            recovered: false,
        };
        assert_eq!(r.network_latency(), 75);
        assert_eq!(r.total_latency(), 90);
    }
}
