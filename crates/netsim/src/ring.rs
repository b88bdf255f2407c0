//! Fixed-capacity ring buffers over flat per-network arenas.
//!
//! The cycle pipeline must be allocation-free in steady state (a counting
//! test allocator enforces this; see `tests/zero_alloc.rs`). Every queue the
//! pipeline touches per cycle therefore lives in one of these arenas,
//! allocated once at [`Network`](crate::Network) construction:
//!
//! * [`FlitRings`] — all flit edge buffers of one family (the input VCs, or
//!   the Disha deadlock buffers) as one flat arena of 8-byte slots, plus one
//!   `head | len << 24 | front_idx << 48` cursor word per ring. Ring `r`
//!   owns slots `r * cap .. (r + 1) * cap`, and slot 0 sits on a 64-byte
//!   boundary, so a ring of the paper's depth 8 is exactly one cache line.
//!   A slot holds a flit's packet id and the low 32 bits of its `ready_at`;
//!   the rest of the [`Flit`] is derived (DESIGN.md §4b):
//!   - *its index from ring order.* A worm enters a VC header first and
//!     leaves in order, so flit `i` of a ring has index `front_idx + i`
//!     modulo the packet length. A pop advances `front_idx` (to 0 after a
//!     tail); a push into an empty ring takes it from the flit.
//!   - *its `ready_at` from the arena's cycle.* No buffered flit is ready
//!     later than `now + hop_latency`, so a stamp in `(now, now +
//!     hop_latency]` (modulo 2³²) is that cycle and any other is past. At
//!     every multiple of 2³¹ cycles ([`FlitRings::set_now`]) flits ready
//!     for more than `2³¹ - hop_latency` cycles are re-stamped ready at the
//!     current cycle, so no past stamp ever ages into the future window.
//!
//!   Every access the pipeline makes is a pop, a push or a front peek, so
//!   a flit move touches one slot and one cursor word per ring, and telling
//!   a header from a body flit reads the cursor alone.
//! * [`IdRing`] — the same shape for `u32` payloads (source queues of
//!   `PacketId`, the recovery token queue of VC indices), with a
//!   `head | len << 32` cursor word per ring.
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

/// One slot of a [`FlitRings`] arena: `packet | ready_lo << 32`, the
/// flit's packet id and the low 32 bits of its `ready_at`.
type FlitSlot = u64;

const _: () = assert!(std::mem::size_of::<FlitSlot>() == 8);

/// Slots per 64-byte cache line.
const LINE_SLOTS: usize = 64 / std::mem::size_of::<FlitSlot>();

/// Cycles between two re-stampings of long-ready flits.
const EPOCH: u64 = 1 << 31;

#[inline]
fn slot(packet: PacketId, ready_at: u64) -> FlitSlot {
    u64::from(packet) | u64::from(ready_at as u32) << 32
}

#[inline]
fn slot_packet(s: FlitSlot) -> PacketId {
    s as u32
}

#[inline]
fn slot_stamp(s: FlitSlot) -> u32 {
    (s >> 32) as u32
}

/// A flit ring's cursor word: `head | len << 24 | front_idx << 48`. Head
/// and length cover [`crate::MAX_BUF_DEPTH`]; `front_idx` is the front
/// flit's index (the next pushed flit's, on an empty ring).
#[inline]
fn cursor(head: u32, len: u32, front_idx: u16) -> u64 {
    u64::from(head) | u64::from(len) << 24 | u64::from(front_idx) << 48
}

#[inline]
fn head_of(cursor: u64) -> u32 {
    cursor as u32 & 0xFF_FFFF
}

#[inline]
fn len_of(cursor: u64) -> u32 {
    (cursor >> 24) as u32 & 0xFF_FFFF
}

#[inline]
fn front_idx_of(cursor: u64) -> u16 {
    (cursor >> 48) as u16
}

/// The index after `idx` in a packet of `packet_len` flits: 0 after a tail.
#[inline]
fn next_idx(idx: u16, packet_len: u16) -> u16 {
    let next = idx + 1;
    if next == packet_len {
        0
    } else {
        next
    }
}

/// The index `i` flits past `front_idx` in ring order.
#[inline]
fn idx_at(front_idx: u16, i: u32, packet_len: u16) -> u16 {
    ((u32::from(front_idx) + i) % u32::from(packet_len)) as u16
}

/// The arena's clock and the constants a flit's derived fields need.
#[derive(Debug, Clone, Copy)]
struct Clock {
    now: u64,
    hop: u32,
    packet_len: u16,
}

impl Clock {
    /// How long ago, modulo 2³², the cycle a stamp names was.
    #[inline]
    fn back(self, stamp: u32) -> u32 {
        (self.now as u32).wrapping_sub(stamp)
    }

    /// Whether the flit stamped `stamp` is ready: it is not when the stamp
    /// names one of the next `hop` cycles.
    #[inline]
    fn is_ready(self, stamp: u32) -> bool {
        self.back(stamp).wrapping_add(self.hop) >= self.hop
    }

    /// The `ready_at` a stamp stands for: the latest past cycle whose low 32
    /// bits it is, or — one 2³² on — one of the next `hop` cycles. Without
    /// a branch: this is on every flit move.
    #[inline]
    fn ready_at(self, stamp: u32) -> u64 {
        let ahead = u64::from(!self.is_ready(stamp)) << 32;
        self.now
            .wrapping_sub(u64::from(self.back(stamp)))
            .wrapping_add(ahead)
    }

    /// `ready_at` as a flit buffered now may keep it: a flit ready for more
    /// than `EPOCH - hop` cycles is re-stamped ready now, so its stamp
    /// stays exact until the next multiple of `EPOCH`.
    #[inline]
    fn restamped(self, ready_at: u64) -> u64 {
        if self.now.saturating_sub(ready_at) > EPOCH - u64::from(self.hop) {
            self.now
        } else {
            ready_at
        }
    }

    #[inline]
    fn flit(self, s: FlitSlot, idx: u16) -> Flit {
        Flit {
            packet: slot_packet(s),
            idx,
            ready_at: self.ready_at(slot_stamp(s)),
        }
    }
}

/// Arena of `rings` fixed-capacity flit FIFOs: one 64-byte-aligned slot
/// array and one dense cursor array (the node-ordered passes stream it).
#[derive(Debug)]
pub(crate) struct FlitRings {
    cap: u32,
    clock: Clock,
    /// Per ring, `head | len << 24 | front_idx << 48`.
    cursors: Vec<u64>,
    /// The slots from `base` on, `LINE_SLOTS - 1` spare words ahead of
    /// them so that `base` can be a 64-byte boundary.
    words: Vec<FlitSlot>,
    base: usize,
}

impl FlitRings {
    /// An arena of `rings` empty rings of `cap` flits each, for packets of
    /// `packet_len` flits that wait `hop_latency` cycles per hop, at cycle
    /// 0.
    pub(crate) fn new(rings: usize, cap: usize, packet_len: u16, hop_latency: u64) -> Self {
        assert!(
            cap <= crate::MAX_BUF_DEPTH,
            "ring capacity exceeds MAX_BUF_DEPTH"
        );
        assert!(packet_len > 0, "empty packets");
        let words = vec![0; rings * cap + LINE_SLOTS - 1];
        FlitRings {
            cap: cap as u32,
            clock: Clock {
                now: 0,
                hop: u32::try_from(hop_latency).expect("hop latency fits u32"),
                packet_len,
            },
            cursors: vec![0; rings],
            base: line_offset(&words),
            words,
        }
    }

    /// The slots, ring 0's first.
    fn slots(&self) -> &[FlitSlot] {
        &self.words[self.base..self.base + self.cursors.len() * self.cap as usize]
    }

    /// Moves the arena's cycle forward to `now`, the cycle every read from
    /// then on reconstructs `ready_at` at. Crossing a multiple of 2³¹
    /// re-stamps every flit ready for more than `2³¹ - hop_latency` cycles
    /// ready at `now` — once per ~2·10⁹ cycles, over the buffered flits.
    /// Returns whether a re-stamp changed any flit.
    pub(crate) fn set_now(&mut self, now: u64) -> bool {
        let was = self.clock;
        debug_assert!(now >= was.now, "the arena's clock runs backwards");
        self.clock.now = now;
        if now / EPOCH == was.now / EPOCH {
            return false;
        }
        let cap = self.cap as usize;
        let mut changed = false;
        for (r, &c) in self.cursors.iter().enumerate() {
            for i in 0..len_of(c) {
                let at = self.base + r * cap + wrap(self.cap, head_of(c), i) as usize;
                let s = self.words[at];
                let ready_at = was.ready_at(slot_stamp(s));
                let kept = self.clock.restamped(ready_at);
                changed |= kept != ready_at;
                self.words[at] = slot(slot_packet(s), kept);
            }
        }
        changed
    }

    /// Checks `f` as the next flit of ring `r` read from outside the
    /// simulator (a checkpoint), and returns it as the ring would buffer
    /// it: its index continues the ring's run — consecutive modulo the
    /// packet length, a new packet only at index 0 — and it is ready no
    /// later than `now + hop_latency`. A flit ready for longer than a
    /// re-stamp allows is re-stamped as [`FlitRings::set_now`] would.
    pub(crate) fn admit(&self, r: usize, f: Flit) -> Result<Flit, &'static str> {
        let clock = self.clock;
        if f.idx >= clock.packet_len {
            return Err("flit index past the packet length");
        }
        let len = self.len(r);
        if len > 0 {
            let last = self.get(r, len - 1);
            let next = next_idx(last.idx, clock.packet_len);
            if f.idx != next || (f.idx != 0 && f.packet != last.packet) {
                return Err("buffered flits out of packet order");
            }
        }
        if f.ready_at > clock.now + u64::from(clock.hop) {
            return Err("flit ready beyond one hop latency");
        }
        Ok(Flit {
            ready_at: clock.restamped(f.ready_at),
            ..f
        })
    }

    /// The first position of ring `r` whose flit is not in its
    /// predecessor's packet although its (derived) index is not 0, if any:
    /// what the audit's flit ledger reports.
    pub(crate) fn run_break(&self, r: usize) -> Option<usize> {
        (1..self.len(r)).find(|&i| {
            let f = self.get(r, i);
            f.idx != 0 && f.packet != self.get(r, i - 1).packet
        })
    }

    /// The slot at logical position `i` of ring `r`.
    #[inline]
    fn slot(&self, r: usize, i: u32) -> FlitSlot {
        let c = self.cursors[r];
        debug_assert!(i < len_of(c), "ring position out of range");
        self.slots()[r * self.cap as usize + wrap(self.cap, head_of(c), i) as usize]
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
        self.clock.ready_at(slot_stamp(self.slot(r, 0)))
    }

    /// Owning packet of the front flit (ring must be non-empty).
    #[inline]
    pub(crate) fn front_packet(&self, r: usize) -> PacketId {
        slot_packet(self.slot(r, 0))
    }

    /// The flit at logical position `i` (0 = front) of ring `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize, i: usize) -> Flit {
        let idx = idx_at(
            front_idx_of(self.cursors[r]),
            i as u32,
            self.clock.packet_len,
        );
        self.clock.flit(self.slot(r, i as u32), idx)
    }

    /// Appends `f` to ring `r`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the ring is full — callers check credit
    /// before pushing, exactly as they did with the bounded `VecDeque`s —
    /// or if `f` is not the flit ring order implies.
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

    /// Overwrites the packet id of the flit at position `i` of ring `r`,
    /// stamp kept: how a test plants an out-of-run flit.
    #[cfg(test)]
    pub(crate) fn set_packet(&mut self, r: usize, i: usize, packet: PacketId) {
        let c = self.cursors[r];
        let at = self.base + r * self.cap as usize + wrap(self.cap, head_of(c), i as u32) as usize;
        self.words[at] = u64::from(packet) | self.words[at] & !0xFFFF_FFFF;
    }

    /// The arena as checked cells owning every ring — what the mutators
    /// above and the pass views ([`crate::shard::ApplyCtx`]) write through.
    #[inline]
    pub(crate) fn view(&mut self) -> FlitRingsView<'_> {
        let n = self.cursors.len() * self.cap as usize;
        FlitRingsView {
            cap: self.cap,
            clock: self.clock,
            cursors: Cells::new(&mut self.cursors),
            slots: Cells::new(&mut self.words[self.base..self.base + n]),
        }
    }
}

/// Words from the start of `words` to its first 64-byte boundary.
fn line_offset(words: &[FlitSlot]) -> usize {
    (words.as_ptr() as usize).wrapping_neg() % 64 / std::mem::size_of::<FlitSlot>()
}

/// A copy is aligned afresh: its slots start at its own allocation's first
/// 64-byte boundary, wherever that falls.
impl Clone for FlitRings {
    fn clone(&self) -> Self {
        let mut words = vec![0; self.words.len()];
        let base = line_offset(&words);
        let n = self.slots().len();
        words[base..base + n].copy_from_slice(self.slots());
        FlitRings {
            cap: self.cap,
            clock: self.clock,
            cursors: self.cursors.clone(),
            words,
            base,
        }
    }
}

/// A [`FlitRings`] arena as checked cells over a range of its rings: the
/// one implementation of its mutators. Touching a ring outside the range
/// panics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitRingsView<'a> {
    cap: u32,
    clock: Clock,
    cursors: Cells<'a, u64>,
    slots: Cells<'a, FlitSlot>,
}

impl FlitRingsView<'_> {
    /// The same arena owning only rings `lo..hi`.
    pub(crate) fn narrow(self, lo: usize, hi: usize) -> Self {
        let cap = self.cap as usize;
        FlitRingsView {
            cursors: self.cursors.narrow(lo, hi),
            slots: self.slots.narrow(lo * cap, hi * cap),
            ..self
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

    /// Whether the front flit of ring `r` (which must be non-empty) is a
    /// header ready to move: the cursor says whether it is a header, and
    /// only a header's slot is read.
    #[inline]
    pub(crate) fn ready_header(&self, r: usize) -> bool {
        let c = self.cursors.get(r);
        front_idx_of(c) == 0 && self.clock.is_ready(slot_stamp(self.front_slot(r, c)))
    }

    /// See [`FlitRings::front_packet`].
    #[inline]
    pub(crate) fn front_packet(&self, r: usize) -> PacketId {
        slot_packet(self.front_slot(r, self.cursors.get(r)))
    }

    /// See [`FlitRings::front_ready_at`].
    #[inline]
    pub(crate) fn front_ready_at(&self, r: usize) -> u64 {
        let c = self.cursors.get(r);
        self.clock.ready_at(slot_stamp(self.front_slot(r, c)))
    }

    /// See [`FlitRings::push_back`].
    #[inline]
    pub(crate) fn push_back(&self, r: usize, f: Flit) {
        let c = self.cursors.get(r);
        let (head, len, clock) = (head_of(c), len_of(c), self.clock);
        debug_assert!(len < self.cap, "flit ring overflow");
        debug_assert!(
            len == 0 || f.idx == idx_at(front_idx_of(c), len, clock.packet_len),
            "flit {} pushed out of ring order",
            f.idx
        );
        debug_assert!(
            f.ready_at <= clock.now + u64::from(clock.hop)
                && clock.restamped(f.ready_at) == f.ready_at,
            "flit ready at {} buffered at cycle {}",
            f.ready_at,
            clock.now
        );
        let front_idx = if len == 0 { f.idx } else { front_idx_of(c) };
        let pos = wrap(self.cap, head, len);
        self.slots.set(
            r * self.cap as usize + pos as usize,
            slot(f.packet, f.ready_at),
        );
        self.cursors.set(r, cursor(head, len + 1, front_idx));
    }

    /// See [`FlitRings::pop_front`].
    #[inline]
    pub(crate) fn pop_front(&self, r: usize) -> Flit {
        let c = self.cursors.get(r);
        debug_assert!(len_of(c) != 0, "pop from empty flit ring");
        let idx = front_idx_of(c);
        let f = self.clock.flit(self.front_slot(r, c), idx);
        let next = next_idx(idx, self.clock.packet_len);
        self.cursors.set(
            r,
            cursor(wrap(self.cap, head_of(c), 1), len_of(c) - 1, next),
        );
        f
    }
}

/// An id ring's cursor word: `head | len << 32`.
#[inline]
fn id_cursor(head: u32, len: u32) -> u64 {
    u64::from(head) | u64::from(len) << 32
}

/// Arena of `rings` fixed-capacity `u32` FIFOs (packet ids, VC indices).
#[derive(Debug, Clone)]
pub(crate) struct IdRing {
    cap: u32,
    /// Per ring, `head | len << 32`.
    cursors: Vec<u64>,
    data: Vec<u32>,
}

impl IdRing {
    /// An arena of `rings` empty rings of `cap` entries each.
    pub(crate) fn new(rings: usize, cap: usize) -> Self {
        let cap32 = u32::try_from(cap).expect("ring capacity fits u32");
        IdRing {
            cap: cap32,
            cursors: vec![0; rings],
            data: vec![0; rings * cap],
        }
    }

    #[inline]
    pub(crate) fn len(&self, r: usize) -> usize {
        (self.cursors[r] >> 32) as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self, r: usize) -> bool {
        self.len(r) == 0
    }

    #[inline]
    pub(crate) fn is_full(&self, r: usize) -> bool {
        self.len(r) == self.cap as usize
    }

    /// The entry at logical position `i` (0 = front) of ring `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize, i: usize) -> u32 {
        debug_assert!(i < self.len(r), "ring position out of range");
        let head = self.cursors[r] as u32;
        self.data[r * self.cap as usize + wrap(self.cap, head, i as u32) as usize]
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
        self.cursors[r] = 0;
    }

    /// The arena as checked cells owning every ring; see
    /// [`FlitRings::view`].
    #[inline]
    pub(crate) fn view(&mut self) -> IdRingView<'_> {
        IdRingView {
            cap: self.cap,
            cursors: Cells::new(&mut self.cursors),
            data: Cells::new(&mut self.data),
        }
    }
}

/// An [`IdRing`] arena as checked cells over a range of its rings; see
/// [`FlitRingsView`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdRingView<'a> {
    cap: u32,
    cursors: Cells<'a, u64>,
    data: Cells<'a, u32>,
}

impl IdRingView<'_> {
    /// The same arena owning only rings `lo..hi`.
    pub(crate) fn narrow(self, lo: usize, hi: usize) -> Self {
        let cap = self.cap as usize;
        IdRingView {
            cap: self.cap,
            cursors: self.cursors.narrow(lo, hi),
            data: self.data.narrow(lo * cap, hi * cap),
        }
    }

    /// See [`IdRing::is_empty`].
    #[inline]
    pub(crate) fn is_empty(&self, r: usize) -> bool {
        self.cursors.get(r) >> 32 == 0
    }

    /// See [`IdRing::front`].
    #[inline]
    pub(crate) fn front(&self, r: usize) -> u32 {
        let c = self.cursors.get(r);
        debug_assert!(c >> 32 != 0, "front of empty id ring");
        self.data.get(r * self.cap as usize + c as u32 as usize)
    }

    /// See [`IdRing::push_back`].
    #[inline]
    pub(crate) fn push_back(&self, r: usize, v: u32) {
        let c = self.cursors.get(r);
        let (head, len) = (c as u32, (c >> 32) as u32);
        debug_assert!(len < self.cap, "id ring overflow");
        let pos = wrap(self.cap, head, len);
        self.data.set(r * self.cap as usize + pos as usize, v);
        self.cursors.set(r, id_cursor(head, len + 1));
    }

    /// See [`IdRing::pop_front`].
    #[inline]
    pub(crate) fn pop_front(&self, r: usize) -> u32 {
        let v = self.front(r);
        let c = self.cursors.get(r);
        let (head, len) = (c as u32, (c >> 32) as u32);
        self.cursors
            .set(r, id_cursor(wrap(self.cap, head, 1), len - 1));
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

    /// The hop latency every test arena is built for.
    const HOP: u64 = 2;

    /// An arena of one-flit packets: every flit is a header, so any
    /// sequence of them is in ring order. Flit `tag` is ready within the
    /// window at cycle 0.
    fn arena(rings: usize, cap: usize) -> FlitRings {
        FlitRings::new(rings, cap, 1, HOP)
    }

    fn flit(tag: u64) -> Flit {
        Flit {
            packet: tag as PacketId,
            idx: 0,
            ready_at: tag % (HOP + 1),
        }
    }

    /// The next flit of a worm after `f` in a network of `packet_len`-flit
    /// packets: a tail is followed by the header of packet `fresh`.
    fn after(f: Flit, packet_len: u16, fresh: PacketId, ready_at: u64) -> Flit {
        match next_idx(f.idx, packet_len) {
            0 => Flit {
                packet: fresh,
                idx: 0,
                ready_at,
            },
            idx => Flit { idx, ready_at, ..f },
        }
    }

    /// Property: a FlitRings ring behaves exactly like a capacity-checked
    /// VecDeque under a random push/pop interleaving (wrap-around included:
    /// the sequences are much longer than the capacity). Each ring is fed
    /// what a VC buffers — in-order runs of packets, every flit ready within
    /// the stamp window — while the arena's clock runs, so reads
    /// reconstruct past and future stamps alike.
    #[test]
    fn flit_ring_matches_vecdeque_model() {
        for case in 0..CASES {
            let mut rng = 0xF117_0000 + case;
            let cap = 1 + (mix(&mut rng) as usize) % 9; // 1..=9
            let packet_len = [1, 2, 3, 5, 16][(mix(&mut rng) % 5) as usize];
            let rings = 3;
            let mut arena = FlitRings::new(rings, cap, packet_len, HOP);
            let mut model: Vec<VecDeque<Flit>> = vec![VecDeque::new(); rings];
            let mut last = vec![
                Flit {
                    packet: 0,
                    idx: packet_len - 1,
                    ready_at: 0,
                };
                rings
            ];
            for step in 0..2_000u64 {
                let now = step / 3;
                arena.set_now(now);
                let r = (mix(&mut rng) as usize) % rings;
                if mix(&mut rng).is_multiple_of(2) && model[r].len() < cap {
                    let ready_at =
                        now.saturating_sub(mix(&mut rng) % 7) + mix(&mut rng) % (HOP + 1);
                    let f = after(last[r], packet_len, step as PacketId, ready_at);
                    last[r] = f;
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
                    let header = front.idx == 0 && front.ready_at <= now;
                    assert_eq!(arena.view().ready_header(r), header);
                }
                for (i, &f) in model[r].iter().enumerate() {
                    assert_eq!(arena.get(r, i), f);
                }
                assert_eq!(arena.run_break(r), None);
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
        let mut arena = arena(4, 2);
        arena.view().narrow(0, 2).push_back(3, flit(1));
    }

    /// A one-slot ring is full after one push and wraps on every one.
    #[test]
    fn a_ring_of_capacity_one_wraps_every_push() {
        let mut arena = arena(2, 1);
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
        let mut arena = arena(rings, cap);
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

    /// Every field survives a slot at its extreme value: the largest
    /// packet id, the last index of the longest packet, and `u64::MAX` —
    /// the latest `ready_at` a flit can have, one hop past the clock — must
    /// not be truncated by the packing.
    #[test]
    fn extreme_field_values_round_trip_through_a_slot() {
        let mut arena = FlitRings::new(1, 2, u16::MAX, HOP);
        arena.set_now(u64::MAX - HOP);
        let extreme = Flit {
            packet: PacketId::MAX,
            idx: u16::MAX - 1,
            ready_at: u64::MAX,
        };
        let next = Flit {
            packet: 3,
            idx: 0,
            ready_at: u64::MAX - HOP - 5,
        };
        arena.push_back(0, extreme);
        arena.push_back(0, next);
        assert_eq!(arena.front_ready_at(0), u64::MAX);
        assert_eq!(arena.front(0).map(|f| f.idx), Some(u16::MAX - 1));
        assert_eq!(arena.front_packet(0), PacketId::MAX);
        assert_eq!(arena.view().front_ready_at(0), u64::MAX);
        assert_eq!(arena.pop_front(0), extreme);
        assert_eq!(arena.pop_front(0), next);
    }

    #[test]
    fn reset_empties_a_wrapped_ring() {
        let mut arena = arena(1, 4);
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

    /// A stamp keeps 32 bits of `ready_at`, yet every read is exact: across
    /// the 2³² wrap of the cycle — future stamps past the wrap, past ones
    /// before it — and, at each multiple of 2³¹, the flits ready for more
    /// than `2³¹ - hop_latency` cycles are re-stamped ready then, the rest
    /// kept. Without the re-stamp, a flit ready at cycle 1 would read as
    /// not ready again at cycle 2³² - 1.
    #[test]
    fn stamps_read_exactly_across_the_cycle_wrap_and_restamp_at_each_epoch() {
        const WRAP: u64 = 1 << 32;
        let mut arena = FlitRings::new(1, 4, 16, HOP);
        arena.set_now(WRAP - 1);
        let run = [WRAP - 5, WRAP, WRAP + 1];
        for (idx, &ready_at) in run.iter().enumerate() {
            let f = Flit {
                packet: 9,
                idx: idx as u16,
                ready_at,
            };
            arena.push_back(0, f);
        }
        for now in [WRAP - 1, WRAP, WRAP + 1, WRAP + 5, WRAP + EPOCH - 1] {
            let restamped = arena.set_now(now);
            assert!(!restamped, "cycle {now}: nothing is old enough");
            for (i, &ready_at) in run.iter().enumerate() {
                assert_eq!(arena.get(0, i).ready_at, ready_at, "cycle {now}");
            }
            assert_eq!(arena.view().ready_header(0), now >= WRAP - 5);
        }

        let mut arena = FlitRings::new(1, 4, 16, HOP);
        arena.set_now(10);
        let old = Flit {
            packet: 4,
            idx: 0,
            ready_at: 1,
        };
        arena.push_back(0, old);
        arena.set_now(EPOCH - 1);
        assert_eq!(arena.front_ready_at(0), 1, "exact within the epoch");
        let recent = Flit {
            idx: 1,
            ready_at: EPOCH - 1,
            ..old
        };
        arena.push_back(0, recent);
        assert!(arena.set_now(EPOCH), "the old flit is re-stamped");
        assert_eq!(arena.get(0, 0).ready_at, EPOCH);
        assert_eq!(arena.get(0, 1).ready_at, EPOCH - 1, "a recent one is kept");
        for now in [EPOCH + 1, WRAP - 1] {
            assert!(!arena.set_now(now));
            assert_eq!(arena.get(0, 0).ready_at, EPOCH, "cycle {now}");
            assert_eq!(arena.get(0, 1).ready_at, EPOCH - 1, "cycle {now}");
            assert!(arena.view().ready_header(0), "cycle {now}");
        }
        let clock = Clock {
            now: WRAP - 1,
            hop: HOP as u32,
            packet_len: 16,
        };
        assert!(!clock.is_ready(1));
        // A jump over the next multiple re-stamps both, at the new cycle.
        assert!(arena.set_now(WRAP + 3));
        assert_eq!(arena.get(0, 0).ready_at, WRAP + 3);
        assert_eq!(arena.get(0, 1).ready_at, WRAP + 3);
    }

    /// A flit's index is its ring position: `front_idx + i` modulo the
    /// packet length, on a wrapped ring holding one packet's tail and the
    /// next packet's head, for packets of 1, 2 and 16 flits. A push into an
    /// empty ring takes the index from the flit, as a restored ring's first
    /// push does mid-packet.
    #[test]
    fn indices_follow_ring_order_across_a_tail() {
        for packet_len in [1u16, 2, 16] {
            let mut arena = FlitRings::new(1, 4, packet_len, HOP);
            // Three flits through the ring leave its head at slot 3.
            let mut f = Flit {
                packet: 5,
                idx: 0,
                ready_at: 0,
            };
            for _ in 0..3 {
                arena.push_back(0, f);
                assert_eq!(arena.pop_front(0), f);
                f = after(f, packet_len, 5, 0);
            }
            // The last two flits of packet 7, then packet 8's first two.
            let mut f = Flit {
                packet: 7,
                idx: packet_len.saturating_sub(2),
                ready_at: 1,
            };
            let mut run = Vec::new();
            for _ in 0..4 {
                run.push(f);
                arena.push_back(0, f);
                f = after(f, packet_len, f.packet + 1, 2);
            }
            assert!(arena.is_full(0));
            assert!(run.iter().any(|f| f.packet == 8), "the run crosses a tail");
            for (i, &f) in run.iter().enumerate() {
                assert_eq!(arena.get(0, i), f, "packet_len {packet_len}");
            }
            assert_eq!(arena.run_break(0), None);
            arena.set_now(2);
            for &f in &run {
                assert_eq!(arena.view().ready_header(0), f.idx == 0);
                assert_eq!(arena.pop_front(0), f, "packet_len {packet_len}");
            }
        }
    }

    /// The ring a depth-8 arena's slot `r` starts: its address must be a
    /// 64-byte boundary and 64 bytes past ring `r - 1`'s.
    fn assert_one_line_per_ring(arena: &FlitRings) {
        assert_eq!(arena.cap, 8);
        assert_eq!(std::mem::size_of::<FlitSlot>(), 8);
        let slots = arena.slots();
        assert_eq!(slots.len(), arena.cursors.len() * 8);
        for r in 0..arena.cursors.len() {
            let line = slots[r * 8..(r + 1) * 8].as_ptr() as usize;
            assert_eq!(line % 64, 0, "ring {r} straddles a line");
        }
    }

    /// A buffered flit is one 8-byte slot, and every ring of a depth-8
    /// arena is exactly one 64-byte-aligned cache line — in a new arena,
    /// in a copy (whose allocation falls wherever it falls), and in a
    /// network's input VCs after a checkpoint restore.
    #[test]
    fn a_depth_8_ring_is_one_aligned_line() {
        let mut arena = FlitRings::new(37, 8, 16, HOP);
        assert_one_line_per_ring(&arena);
        for (r, i) in [(0, 0u16), (36, 3)] {
            arena.push_back(
                r,
                Flit {
                    packet: 1,
                    idx: i,
                    ready_at: 0,
                },
            );
        }
        // Copies kept alive side by side land at differing offsets from
        // a line; every one must be re-aligned and read the same flits.
        let copies: Vec<FlitRings> = (0..8).map(|_| arena.clone()).collect();
        for copy in &copies {
            assert_one_line_per_ring(copy);
            assert!((0..37).all(|r| copy.front(r) == arena.front(r)));
        }

        let net = crate::testnet::hot_net();
        assert_eq!(net.config().buf_depth, 8);
        assert_one_line_per_ring(&net.vc_bufs);
        let mut enc = checkpoint::Enc::new();
        net.save_state(&mut enc);
        let snap = enc.into_vec();
        let mut restored = crate::Network::new(net.config().clone()).unwrap();
        restored
            .restore_state(&mut checkpoint::Dec::new(&snap))
            .unwrap();
        assert_one_line_per_ring(&restored.vc_bufs);
        let fronts = |n: &crate::Network| {
            (0..n.vc_assign.len())
                .map(|r| n.vc_bufs.front(r))
                .collect::<Vec<_>>()
        };
        assert_eq!(fronts(&restored), fronts(&net));
    }
}
