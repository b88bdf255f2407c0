//! Fixed-capacity ring buffers over flat per-network arenas.
//!
//! The cycle pipeline must be allocation-free in steady state (a counting
//! test allocator enforces this; see `tests/zero_alloc.rs`). Every queue the
//! pipeline touches per cycle therefore lives in one of these arenas,
//! allocated once at [`Network`](crate::Network) construction:
//!
//! * [`FlitRings`] — all flit edge buffers of one family (the input VCs, or
//!   the Disha deadlock buffers) as one flat arena of 14-byte slots — a
//!   whole [`Flit`] each — plus one `head | len << 32` cursor word per
//!   ring. Ring `r` owns slots `r * cap .. (r + 1) * cap`. Every access the
//!   pipeline makes is a whole-flit pop, push or front peek, so a flit move
//!   touches one slot line and one cursor word per ring (DESIGN.md §4b).
//! * [`IdRing`] — the same shape for `u32` payloads (source queues of
//!   `PacketId`, the recovery token queue of VC indices).
//! * [`DeliveryRing`] — the drained delivery-record queue. Capacity grows
//!   (amortized doubling) only while the consumer is *not* draining; a
//!   consumer that drains every gather period bounds it to O(period), and
//!   the steady-state push path never allocates.
//!
//! All rings are FIFO and preserve exactly the ordering semantics of the
//! `VecDeque`s they replaced, so simulation results are bit-identical.

use crate::packet::{DeliveredRecord, Flit, PacketId};
use crate::shard::Cells;

/// Position `i` past `head` in a circular buffer of `cap` slots
/// (`head < cap`, `i <= cap`).
#[inline]
fn wrap(cap: u32, head: u32, i: u32) -> u32 {
    let pos = head + i;
    if pos >= cap {
        pos - cap
    } else {
        pos
    }
}

/// One slot of a [`FlitRings`] arena: a [`Flit`], widest field first and
/// packed to 2-byte alignment so a slot is the 14 bytes its fields add up
/// to (the natural layout pads it to 16). Fields are only ever copied out,
/// never borrowed — a reference into a packed struct may be misaligned.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(2))]
struct FlitSlot {
    ready: u64,
    packet: PacketId,
    idx: u16,
}

const _: () = assert!(std::mem::size_of::<FlitSlot>() == 14);

impl FlitSlot {
    const EMPTY: FlitSlot = FlitSlot {
        ready: 0,
        packet: 0,
        idx: 0,
    };

    #[inline]
    fn of(f: Flit) -> Self {
        FlitSlot {
            ready: f.ready_at,
            packet: f.packet,
            idx: f.idx,
        }
    }

    #[inline]
    fn flit(self) -> Flit {
        Flit {
            packet: self.packet,
            idx: self.idx,
            ready_at: self.ready,
        }
    }
}

/// A ring's cursor word: `head | len << 32`.
#[inline]
fn cursor(head: u32, len: u32) -> u64 {
    u64::from(head) | u64::from(len) << 32
}

#[inline]
fn head_of(cursor: u64) -> u32 {
    cursor as u32
}

#[inline]
fn len_of(cursor: u64) -> u32 {
    (cursor >> 32) as u32
}

/// Arena of `rings` fixed-capacity flit FIFOs: one slot array and one
/// cursor word per ring.
#[derive(Debug, Clone)]
pub(crate) struct FlitRings {
    cap: u32,
    /// Per ring, `head | len << 32`.
    cursors: Vec<u64>,
    slots: Vec<FlitSlot>,
}

impl FlitRings {
    /// An arena of `rings` empty rings of `cap` flits each.
    pub(crate) fn new(rings: usize, cap: usize) -> Self {
        let cap32 = u32::try_from(cap).expect("ring capacity fits u32");
        FlitRings {
            cap: cap32,
            cursors: vec![0; rings],
            slots: vec![FlitSlot::EMPTY; rings * cap],
        }
    }

    /// The slot at logical position `i` of ring `r`.
    #[inline]
    fn slot(&self, r: usize, i: u32) -> FlitSlot {
        let c = self.cursors[r];
        debug_assert!(i < len_of(c), "ring position out of range");
        self.slots[r * self.cap as usize + wrap(self.cap, head_of(c), i) as usize]
    }

    /// Number of flits currently in ring `r`.
    #[inline]
    pub(crate) fn len(&self, r: usize) -> usize {
        len_of(self.cursors[r]) as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self, r: usize) -> bool {
        len_of(self.cursors[r]) == 0
    }

    #[cfg(test)]
    pub(crate) fn is_full(&self, r: usize) -> bool {
        len_of(self.cursors[r]) == self.cap
    }

    /// The front flit of ring `r`, if any.
    #[inline]
    pub(crate) fn front(&self, r: usize) -> Option<Flit> {
        (!self.is_empty(r)).then(|| self.get(r, 0))
    }

    /// `ready_at` of the front flit (ring must be non-empty).
    #[inline]
    pub(crate) fn front_ready_at(&self, r: usize) -> u64 {
        self.slot(r, 0).ready
    }

    /// Owning packet of the front flit (ring must be non-empty).
    #[inline]
    pub(crate) fn front_packet(&self, r: usize) -> PacketId {
        self.slot(r, 0).packet
    }

    /// The flit at logical position `i` (0 = front) of ring `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize, i: usize) -> Flit {
        self.slot(r, i as u32).flit()
    }

    /// Appends `f` to ring `r`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the ring is full; callers check credit
    /// before pushing, exactly as they did with the bounded `VecDeque`s.
    #[inline]
    pub(crate) fn push_back(&mut self, r: usize, f: Flit) {
        self.view().push_back(r, f);
    }

    /// Removes and returns the front flit of ring `r`.
    #[inline]
    pub(crate) fn pop_front(&mut self, r: usize) -> Flit {
        self.view().pop_front(r)
    }

    /// Empties ring `r`, resetting its head to slot 0.
    #[cfg(test)]
    pub(crate) fn reset(&mut self, r: usize) {
        self.cursors[r] = 0;
    }

    /// The arena as checked cells owning every ring — what the mutators
    /// above and the pass views ([`crate::shard::ApplyCtx`]) write through.
    #[inline]
    pub(crate) fn view(&mut self) -> FlitRingsView<'_> {
        FlitRingsView {
            cap: self.cap,
            cursors: Cells::new(&mut self.cursors),
            slots: Cells::new(&mut self.slots),
        }
    }
}

/// A [`FlitRings`] arena as checked cells over a range of its rings: the
/// one implementation of its mutators. Touching a ring outside the range
/// panics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitRingsView<'a> {
    cap: u32,
    cursors: Cells<'a, u64>,
    slots: Cells<'a, FlitSlot>,
}

impl FlitRingsView<'_> {
    /// The same arena owning only rings `lo..hi`.
    pub(crate) fn narrow(self, lo: usize, hi: usize) -> Self {
        let cap = self.cap as usize;
        FlitRingsView {
            cap: self.cap,
            cursors: self.cursors.narrow(lo, hi),
            slots: self.slots.narrow(lo * cap, hi * cap),
        }
    }

    /// The front slot of ring `r`, whose cursor word is `c`.
    #[inline]
    fn front_slot(&self, r: usize, c: u64) -> FlitSlot {
        debug_assert!(len_of(c) != 0, "front of empty flit ring");
        self.slots.get(r * self.cap as usize + head_of(c) as usize)
    }

    /// See [`FlitRings::len`].
    #[inline]
    pub(crate) fn len(&self, r: usize) -> usize {
        len_of(self.cursors.get(r)) as usize
    }

    /// The front flit of ring `r` (ring must be non-empty).
    #[inline]
    pub(crate) fn front(&self, r: usize) -> Flit {
        self.front_slot(r, self.cursors.get(r)).flit()
    }

    /// See [`FlitRings::front_packet`].
    #[inline]
    pub(crate) fn front_packet(&self, r: usize) -> PacketId {
        self.front_slot(r, self.cursors.get(r)).packet
    }

    /// See [`FlitRings::front_ready_at`].
    #[inline]
    pub(crate) fn front_ready_at(&self, r: usize) -> u64 {
        self.front_slot(r, self.cursors.get(r)).ready
    }

    /// See [`FlitRings::push_back`].
    #[inline]
    pub(crate) fn push_back(&self, r: usize, f: Flit) {
        let c = self.cursors.get(r);
        let (head, len) = (head_of(c), len_of(c));
        debug_assert!(len < self.cap, "flit ring overflow");
        let pos = wrap(self.cap, head, len);
        self.slots
            .set(r * self.cap as usize + pos as usize, FlitSlot::of(f));
        self.cursors.set(r, cursor(head, len + 1));
    }

    /// See [`FlitRings::pop_front`].
    #[inline]
    pub(crate) fn pop_front(&self, r: usize) -> Flit {
        let c = self.cursors.get(r);
        debug_assert!(len_of(c) != 0, "pop from empty flit ring");
        let f = self.front_slot(r, c).flit();
        self.cursors
            .set(r, cursor(wrap(self.cap, head_of(c), 1), len_of(c) - 1));
        f
    }
}

/// Arena of `rings` fixed-capacity `u32` FIFOs (packet ids, VC indices).
#[derive(Debug, Clone)]
pub(crate) struct IdRing {
    cap: u32,
    head: Vec<u32>,
    len: Vec<u32>,
    data: Vec<u32>,
}

impl IdRing {
    /// An arena of `rings` empty rings of `cap` entries each.
    pub(crate) fn new(rings: usize, cap: usize) -> Self {
        let cap32 = u32::try_from(cap).expect("ring capacity fits u32");
        IdRing {
            cap: cap32,
            head: vec![0; rings],
            len: vec![0; rings],
            data: vec![0; rings * cap],
        }
    }

    #[inline]
    pub(crate) fn len(&self, r: usize) -> usize {
        self.len[r] as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self, r: usize) -> bool {
        self.len[r] == 0
    }

    #[inline]
    pub(crate) fn is_full(&self, r: usize) -> bool {
        self.len[r] == self.cap
    }

    /// The entry at logical position `i` (0 = front) of ring `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize, i: usize) -> u32 {
        debug_assert!((i as u32) < self.len[r], "ring position out of range");
        self.data[r * self.cap as usize + wrap(self.cap, self.head[r], i as u32) as usize]
    }

    /// The front entry of ring `r` (ring must be non-empty).
    #[inline]
    pub(crate) fn front(&self, r: usize) -> u32 {
        self.get(r, 0)
    }

    /// Appends `v` to ring `r`.
    #[inline]
    pub(crate) fn push_back(&mut self, r: usize, v: u32) {
        self.view().push_back(r, v);
    }

    /// Removes and returns the front entry of ring `r`.
    #[inline]
    pub(crate) fn pop_front(&mut self, r: usize) -> u32 {
        self.view().pop_front(r)
    }

    /// Empties ring `r`, resetting its head to slot 0.
    #[cfg(test)]
    pub(crate) fn reset(&mut self, r: usize) {
        self.head[r] = 0;
        self.len[r] = 0;
    }

    /// The arena as checked cells owning every ring; see
    /// [`FlitRings::view`].
    #[inline]
    pub(crate) fn view(&mut self) -> IdRingView<'_> {
        IdRingView {
            cap: self.cap,
            head: Cells::new(&mut self.head),
            len: Cells::new(&mut self.len),
            data: Cells::new(&mut self.data),
        }
    }
}

/// An [`IdRing`] arena as checked cells over a range of its rings; see
/// [`FlitRingsView`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdRingView<'a> {
    cap: u32,
    head: Cells<'a, u32>,
    len: Cells<'a, u32>,
    data: Cells<'a, u32>,
}

impl IdRingView<'_> {
    /// The same arena owning only rings `lo..hi`.
    pub(crate) fn narrow(self, lo: usize, hi: usize) -> Self {
        let cap = self.cap as usize;
        IdRingView {
            cap: self.cap,
            head: self.head.narrow(lo, hi),
            len: self.len.narrow(lo, hi),
            data: self.data.narrow(lo * cap, hi * cap),
        }
    }

    /// See [`IdRing::is_empty`].
    #[inline]
    pub(crate) fn is_empty(&self, r: usize) -> bool {
        self.len.get(r) == 0
    }

    /// See [`IdRing::front`].
    #[inline]
    pub(crate) fn front(&self, r: usize) -> u32 {
        debug_assert!(!self.is_empty(r), "front of empty id ring");
        self.data
            .get(r * self.cap as usize + self.head.get(r) as usize)
    }

    /// See [`IdRing::push_back`].
    #[inline]
    pub(crate) fn push_back(&self, r: usize, v: u32) {
        let len = self.len.get(r);
        debug_assert!(len < self.cap, "id ring overflow");
        let pos = wrap(self.cap, self.head.get(r), len);
        self.data.set(r * self.cap as usize + pos as usize, v);
        self.len.set(r, len + 1);
    }

    /// See [`IdRing::pop_front`].
    #[inline]
    pub(crate) fn pop_front(&self, r: usize) -> u32 {
        let v = self.front(r);
        self.head.set(r, wrap(self.cap, self.head.get(r), 1));
        self.len.set(r, self.len.get(r) - 1);
        v
    }
}

/// The delivery-record queue: a circular buffer drained by the consumer.
///
/// Pushing never allocates while spare capacity exists; when the ring is
/// full it doubles (the only allocation), so a consumer that drains every
/// gather period pins the capacity at the per-period high-water mark —
/// memory is O(period), not O(run length).
#[derive(Debug, Default)]
pub(crate) struct DeliveryRing {
    buf: Vec<DeliveredRecord>,
    head: usize,
    len: usize,
}

impl DeliveryRing {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The record at logical position `i` (0 = oldest undrained).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> DeliveredRecord {
        debug_assert!(i < self.len, "delivery ring position out of range");
        let mut pos = self.head + i;
        if pos >= self.buf.len() {
            pos -= self.buf.len();
        }
        self.buf[pos]
    }

    /// Appends a record, doubling the backing storage only when full.
    pub(crate) fn push(&mut self, rec: DeliveredRecord) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let mut pos = self.head + self.len;
        if pos >= self.buf.len() {
            pos -= self.buf.len();
        }
        self.buf[pos] = rec;
        self.len += 1;
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.buf.len() * 2).max(64);
        let mut buf = Vec::with_capacity(new_cap);
        for i in 0..self.len {
            buf.push(self.get(i));
        }
        buf.resize(
            new_cap,
            DeliveredRecord {
                src: 0,
                dst: 0,
                generated_at: 0,
                injected_at: 0,
                delivered_at: 0,
                len: 0,
                recovered: false,
            },
        );
        self.buf = buf;
        self.head = 0;
    }

    /// Drains every record in FIFO order. Records not consumed by the
    /// returned iterator are still removed when it drops (the semantics of
    /// the `Vec::drain` this replaces).
    pub(crate) fn drain(&mut self) -> DeliveryDrain<'_> {
        DeliveryDrain { ring: self }
    }
}

/// Draining iterator over a [`DeliveryRing`]; see [`DeliveryRing::drain`].
#[derive(Debug)]
pub struct DeliveryDrain<'a> {
    ring: &'a mut DeliveryRing,
}

impl Iterator for DeliveryDrain<'_> {
    type Item = DeliveredRecord;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.ring.len == 0 {
            return None;
        }
        let rec = self.ring.get(0);
        self.ring.head += 1;
        if self.ring.head >= self.ring.buf.len() {
            self.ring.head = 0;
        }
        self.ring.len -= 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.ring.len, Some(self.ring.len))
    }
}

impl ExactSizeIterator for DeliveryDrain<'_> {}

impl Drop for DeliveryDrain<'_> {
    fn drop(&mut self) {
        // Unconsumed records are removed, as with `Vec::drain(..)`.
        self.ring.head = 0;
        self.ring.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Case count, widened under the `slow-proptests` feature (repo
    /// convention; see `tests/flow_prop.rs`).
    const CASES: u64 = if cfg!(feature = "slow-proptests") {
        64
    } else {
        8
    };

    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn flit(tag: u64) -> Flit {
        Flit {
            packet: (tag & 0xFFFF) as PacketId,
            idx: (tag >> 16) as u16 & 0xFF,
            ready_at: tag >> 24,
        }
    }

    /// Property: a FlitRings ring behaves exactly like a capacity-checked
    /// VecDeque under a random push/pop interleaving (wrap-around included:
    /// the sequences are much longer than the capacity).
    #[test]
    fn flit_ring_matches_vecdeque_model() {
        for case in 0..CASES {
            let mut rng = 0xF117_0000 + case;
            let cap = 1 + (mix(&mut rng) as usize) % 9; // 1..=9
            let rings = 3;
            let mut arena = FlitRings::new(rings, cap);
            let mut model: Vec<VecDeque<Flit>> = vec![VecDeque::new(); rings];
            for step in 0..2_000u64 {
                let r = (mix(&mut rng) as usize) % rings;
                if mix(&mut rng).is_multiple_of(2) && model[r].len() < cap {
                    let f = flit(step);
                    arena.push_back(r, f);
                    model[r].push_back(f);
                } else if !model[r].is_empty() {
                    assert_eq!(arena.pop_front(r), model[r].pop_front().unwrap());
                }
                assert_eq!(arena.len(r), model[r].len());
                assert_eq!(arena.is_empty(r), model[r].is_empty());
                assert_eq!(arena.is_full(r), model[r].len() == cap);
                assert_eq!(arena.front(r), model[r].front().copied());
                if let Some(&front) = model[r].front() {
                    assert_eq!(arena.front_ready_at(r), front.ready_at);
                    assert_eq!(arena.front_packet(r), front.packet);
                }
                for (i, &f) in model[r].iter().enumerate() {
                    assert_eq!(arena.get(r, i), f);
                }
            }
        }
    }

    /// Same model property for the u32 rings.
    #[test]
    fn id_ring_matches_vecdeque_model() {
        for case in 0..CASES {
            let mut rng = 0x1D00_0000 + case;
            let cap = 1 + (mix(&mut rng) as usize) % 7;
            let mut ring = IdRing::new(2, cap);
            let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); 2];
            for step in 0..1_500u32 {
                let r = (mix(&mut rng) as usize) % 2;
                if !mix(&mut rng).is_multiple_of(3) && model[r].len() < cap {
                    ring.push_back(r, step);
                    model[r].push_back(step);
                } else if !model[r].is_empty() {
                    assert_eq!(ring.pop_front(r), model[r].pop_front().unwrap());
                }
                assert_eq!(ring.len(r), model[r].len());
                assert_eq!(ring.is_full(r), model[r].len() == cap);
                for (i, &v) in model[r].iter().enumerate() {
                    assert_eq!(ring.get(r, i), v);
                }
            }
        }
    }

    fn rec(tag: u64) -> DeliveredRecord {
        DeliveredRecord {
            src: (tag & 0xFF) as usize,
            dst: ((tag >> 8) & 0xFF) as usize,
            generated_at: tag,
            injected_at: tag + 1,
            delivered_at: tag + 2,
            len: 16,
            recovered: tag.is_multiple_of(5),
        }
    }

    /// The delivery ring preserves FIFO order across partial drains and
    /// growth, and a dropped drain discards the remainder.
    #[test]
    fn delivery_ring_drains_fifo_across_growth() {
        for case in 0..CASES {
            let mut rng = 0xDE11_0000 + case;
            let mut ring = DeliveryRing::default();
            let mut model: VecDeque<DeliveredRecord> = VecDeque::new();
            for step in 0..800u64 {
                if !mix(&mut rng).is_multiple_of(4) {
                    ring.push(rec(step));
                    model.push_back(rec(step));
                } else {
                    let drained: Vec<_> = ring.drain().collect();
                    let expect: Vec<_> = model.drain(..).collect();
                    assert_eq!(drained, expect);
                }
                assert_eq!(ring.len(), model.len());
            }
            // A partially consumed drain still removes everything.
            ring.drain().for_each(drop);
            for step in 0..10u64 {
                ring.push(rec(step));
            }
            let mut d = ring.drain();
            assert_eq!(d.next(), Some(rec(0)));
            assert_eq!(d.len(), 9);
            drop(d);
            assert_eq!(ring.len(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "outside the view's owned range")]
    fn a_ring_outside_the_views_range_panics() {
        let mut arena = FlitRings::new(4, 2);
        arena.view().narrow(0, 2).push_back(3, flit(1));
    }

    /// A one-slot ring is full after one push and wraps on every one.
    #[test]
    fn a_ring_of_capacity_one_wraps_every_push() {
        let mut arena = FlitRings::new(2, 1);
        for step in 0..5 {
            assert!(arena.is_empty(1) && arena.front(1).is_none());
            arena.push_back(1, flit(step));
            assert!(arena.is_full(1));
            assert_eq!(arena.len(1), 1);
            assert_eq!(arena.front(1), Some(flit(step)));
            assert_eq!(arena.pop_front(1), flit(step));
        }
        assert!(arena.is_empty(0), "the neighbour ring was never touched");
    }

    /// The arena's last ring wraps inside its own slots — the last slot of
    /// the array, then back to the ring's first — and never into a
    /// neighbour's.
    #[test]
    fn the_last_ring_wraps_within_the_arena() {
        let (rings, cap) = (3, 3);
        let mut arena = FlitRings::new(rings, cap);
        let last = rings - 1;
        arena.push_back(last - 1, flit(77));
        for step in 0..2 {
            arena.push_back(last, flit(step));
        }
        arena.pop_front(last);
        arena.pop_front(last); // head = 2: the array's final slot
        for step in 10..13 {
            arena.push_back(last, flit(step));
        }
        assert!(arena.is_full(last));
        // A narrowed view owning only the last ring reaches all of it.
        let view = arena.view().narrow(last, rings);
        assert_eq!(view.len(last), cap);
        assert_eq!(view.front_packet(last), flit(10).packet);
        assert_eq!(view.front_ready_at(last), flit(10).ready_at);
        for step in 10..13 {
            assert_eq!(view.pop_front(last), flit(step));
        }
        assert_eq!(arena.get(last - 1, 0), flit(77));
        assert_eq!(arena.len(last - 1), 1);
    }

    /// Every field survives a slot at its extreme value: `u64::MAX` is the
    /// "never ready" cycle and must not be truncated by the packing.
    #[test]
    fn extreme_field_values_round_trip_through_a_slot() {
        let mut arena = FlitRings::new(1, 2);
        let extreme = Flit {
            packet: PacketId::MAX,
            idx: u16::MAX,
            ready_at: u64::MAX,
        };
        arena.push_back(0, extreme);
        arena.push_back(0, flit(3));
        assert_eq!(arena.front_ready_at(0), u64::MAX);
        assert_eq!(arena.front(0).map(|f| f.idx), Some(u16::MAX));
        assert_eq!(arena.front_packet(0), PacketId::MAX);
        assert_eq!(arena.view().front_ready_at(0), u64::MAX);
        assert_eq!(arena.pop_front(0), extreme);
        assert_eq!(arena.pop_front(0), flit(3));
    }

    #[test]
    fn reset_empties_a_wrapped_ring() {
        let mut arena = FlitRings::new(1, 4);
        for i in 0..4 {
            arena.push_back(0, flit(i));
        }
        arena.pop_front(0);
        arena.pop_front(0);
        arena.push_back(0, flit(9)); // head is now wrapped
        arena.reset(0);
        assert!(arena.is_empty(0));
        arena.push_back(0, flit(7));
        assert_eq!(arena.get(0, 0), flit(7));

        let mut ids = IdRing::new(1, 3);
        ids.push_back(0, 1);
        ids.push_back(0, 2);
        ids.pop_front(0);
        ids.push_back(0, 3);
        ids.reset(0);
        assert!(ids.is_empty(0));
    }
}
