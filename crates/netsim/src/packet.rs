use std::sync::atomic::AtomicU64;

use crate::shard::Cells;
use kncube::NodeId;

/// Identifier of an in-flight packet (an index into the packet store; slots
/// are recycled after delivery).
pub type PacketId = u32;

/// One flit of a packet.
///
/// All flits of a packet are identical except for their index: index 0 is
/// the header (carries routing information), index `len - 1` is the tail
/// (releases resources as it passes).
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

/// Metadata of an in-flight packet.
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
    /// Packet length in flits.
    pub len: u16,
    /// Flits already consumed at the destination.
    pub delivered_flits: u16,
    /// Cycle any flit of this packet last moved (drives Disha's
    /// whole-worm-inactive deadlock detection).
    pub last_move: u64,
}

impl PacketInfo {
    /// Bytes of one serialized slot: the seven fields in declaration
    /// order, node ids as `u64`.
    pub(crate) const ENCODED_LEN: usize = 4 * 8 + 2 * 2 + 8;
}

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

    /// Serializes the whole store — live slots, recycled slots and the free
    /// list order (which determines future id assignment) — into `enc`.
    pub fn save_state(&self, enc: &mut checkpoint::Enc) {
        enc.reserve(self.encoded_len());
        enc.usize(self.slots.len());
        for p in &self.slots {
            let at = enc.len();
            enc.usize(p.src);
            enc.usize(p.dst);
            enc.u64(p.generated_at);
            enc.u64(p.injected_at);
            enc.u16(p.len);
            enc.u16(p.delivered_flits);
            enc.u64(p.last_move);
            debug_assert_eq!(enc.len() - at, PacketInfo::ENCODED_LEN);
        }
        enc.usize(self.free.len());
        for &id in &self.free {
            enc.u32(id);
        }
    }

    /// Bytes [`PacketStore::save_state`] writes for the current store.
    pub(crate) fn encoded_len(&self) -> usize {
        8 + self.slots.len() * PacketInfo::ENCODED_LEN + 8 + self.free.len() * 4
    }

    /// Reads a store serialized with [`PacketStore::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream or a
    /// free-list entry outside the slot range.
    pub fn restore_state(
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<Self, checkpoint::CheckpointError> {
        let nslots = dec.usize()?;
        // A hostile count cannot force an allocation beyond what the stream
        // could actually satisfy.
        let mut slots = Vec::with_capacity(nslots.min(dec.remaining() / PacketInfo::ENCODED_LEN));
        for _ in 0..nslots {
            slots.push(PacketInfo {
                src: dec.usize()?,
                dst: dec.usize()?,
                generated_at: dec.u64()?,
                injected_at: dec.u64()?,
                len: dec.u16()?,
                delivered_flits: dec.u16()?,
                last_move: dec.u64()?,
            });
        }
        let nfree = dec.usize()?;
        if nfree > nslots {
            return Err(checkpoint::CheckpointError::Corrupt(
                "free list longer than slot array",
            ));
        }
        let mut free = Vec::with_capacity(nfree);
        for _ in 0..nfree {
            let id = dec.u32()?;
            if id as usize >= nslots {
                return Err(checkpoint::CheckpointError::Corrupt(
                    "free list entry out of range",
                ));
            }
            free.push(id);
        }
        Ok(PacketStore { slots, free })
    }
}

/// What a route/switch pass may touch of one in-flight packet (built by
/// [`Cells::packet`]): its immutable length and destination and its two
/// stamps. Delivery accounting and release are boundary work, done
/// sequentially through [`PacketStore`] itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PacketCell<'a> {
    /// [`PacketInfo::len`].
    pub len: u16,
    /// [`PacketInfo::dst`].
    pub dst: NodeId,
    /// [`PacketInfo::last_move`]. Several flits of one worm can move at
    /// routers of different shards in one cycle, all storing that cycle.
    pub last_move: &'a AtomicU64,
    /// [`PacketInfo::injected_at`], stored once, by the source node's op.
    pub injected_at: &'a AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(src: NodeId) -> PacketInfo {
        PacketInfo {
            src,
            dst: 0,
            generated_at: 0,
            injected_at: u64::MAX,
            len: 16,
            delivered_flits: 0,
            last_move: 0,
        }
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
