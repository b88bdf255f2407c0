//! Fixed-capacity ring buffers over flat per-network arenas.
//!
//! The cycle pipeline must be allocation-free in steady state (a counting
//! test allocator enforces this; see `tests/zero_alloc.rs`). Every queue the
//! pipeline touches per cycle therefore lives in one of these arenas,
//! allocated once at [`Network`](crate::Network) construction:
//!
//! * [`FlitRings`] — all flit edge buffers of one family (the input VCs, or
//!   the Disha deadlock buffers) as a pool of *lines* of `cap` 8-byte slots,
//!   one per ring at most, plus one `head | len << 10 | line << 20 |
//!   front_idx << 48` cursor word per ring. A ring holds a line only while
//!   a worm occupies it: a push into an empty ring takes one, a pop that
//!   empties the ring behind a tail gives it back. Lines are handed out
//!   from the bottom of the arena (of each shard's range of it), so a line
//!   no ring ever needed is never written and never resident, and the
//!   arena's memory follows the traffic, not the network's size
//!   (DESIGN.md §4b). A free line's first slot names the next free line,
//!   so the free lists cost no memory beside the lines. Line 0 sits on a
//!   64-byte boundary, so a line of the paper's depth 8 is exactly one
//!   cache line. A slot holds a flit's
//!   packet id and the low 32 bits of its `ready_at`; the rest of the
//!   [`Flit`] is derived:
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
//! * [`Rings`] — FIFOs of small values touched only between the passes
//!   (the source queues' entries, the recovery token queue's VC indices),
//!   laid out slot-major so that shallow rings stay in the arena's first
//!   rows, the only ones ever written.
//!
//! All rings are FIFO and preserve exactly the ordering semantics of the
//! `VecDeque`s they replaced, so simulation results are bit-identical.

use crate::packet::{Flit, PacketId};
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

/// Width of a flit cursor's head and length fields, which cover
/// [`crate::MAX_BUF_DEPTH`].
const DEPTH_BITS: u32 = 10;

/// Width of a flit cursor's line field: a line per ring of the largest
/// network ([`crate::MAX_NODES`] routers of at most 63 input VCs each is
/// under 2²⁷ rings).
const LINE_BITS: u32 = 28;

const _: () = assert!(crate::MAX_BUF_DEPTH < 1 << DEPTH_BITS);
const _: () = assert!(2 * DEPTH_BITS + LINE_BITS == 48);

/// A flit ring's cursor word: `head | len << 10 | line << 20 | front_idx <<
/// 48`. `front_idx` is the front flit's index (the next pushed flit's, on
/// an empty ring). A ring holds its line while it is non-empty or inside a
/// worm (`front_idx != 0`), and a ring without a line has the cursor 0.
#[inline]
fn cursor(head: u32, len: u32, line: u32, front_idx: u16) -> u64 {
    u64::from(head)
        | u64::from(len) << DEPTH_BITS
        | u64::from(line) << (2 * DEPTH_BITS)
        | u64::from(front_idx) << 48
}

#[inline]
fn head_of(cursor: u64) -> u32 {
    cursor as u32 & ((1 << DEPTH_BITS) - 1)
}

#[inline]
fn len_of(cursor: u64) -> u32 {
    (cursor >> DEPTH_BITS) as u32 & ((1 << DEPTH_BITS) - 1)
}

#[inline]
fn line_of(cursor: u64) -> u32 {
    (cursor >> (2 * DEPTH_BITS)) as u32 & ((1 << LINE_BITS) - 1)
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

/// The arena's clock and the constants a flit's derived fields need. The
/// switch plane's move stamps ([`crate::plane`]) are read against it too.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
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
    pub(crate) fn is_ready(self, stamp: u32) -> bool {
        self.back(stamp).wrapping_add(self.hop) >= self.hop
    }

    /// The `ready_at` a stamp stands for: the latest past cycle whose low 32
    /// bits it is, or — one 2³² on — one of the next `hop` cycles. Without
    /// a branch: this is on every flit move.
    #[inline]
    pub(crate) fn ready_at(self, stamp: u32) -> u64 {
        let ahead = u64::from(!self.is_ready(stamp)) << 32;
        self.now
            .wrapping_sub(u64::from(self.back(stamp)))
            .wrapping_add(ahead)
    }

    /// `ready_at` as a flit buffered now may keep it: a flit ready for more
    /// than `EPOCH - hop` cycles is re-stamped ready now, so its stamp
    /// stays exact until the next multiple of `EPOCH`.
    #[inline]
    pub(crate) fn restamped(self, ready_at: u64) -> u64 {
        if self.now.saturating_sub(ready_at) > EPOCH - u64::from(self.hop) {
            self.now
        } else {
            ready_at
        }
    }

    /// Whether `stamp` stands for cycle `at`: it reads as `at`, or, where a
    /// re-stamp may have moved `at` ([`Clock::restamped`]), as any past
    /// cycle after it — a re-stamp leaves a past stamp past.
    pub(crate) fn reads_as(self, stamp: u32, at: u64) -> bool {
        let read = self.ready_at(stamp);
        read == at || (self.restamped(at) != at && at < read && read <= self.now)
    }

    /// Whether moving the clock from `was` to `now` crosses a multiple of
    /// 2³¹, where every stamp read against it is re-stamped.
    pub(crate) fn crosses_epoch(was: u64, now: u64) -> bool {
        now / EPOCH != was / EPOCH
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

/// One pool of a [`FlitRings`] arena: rings `lo..hi` take their lines from
/// lines `lo..hi` — first off the pool's LIFO free list of `spare` lines,
/// chained from `head` through each free line's first slot, which names
/// the next, then at `mark`, below which every line has been handed out
/// at least once. Each pool has a cache line of its own: the shards' passes
/// take and give lines at once, each from its own pool, and records that
/// shared a line would bounce it between their cores (in process, a
/// 12-ary 3-cube at two shards stepped 5 % slower per cycle with them
/// packed).
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub(crate) struct Pool {
    lo: u32,
    hi: u32,
    mark: u32,
    spare: u32,
    head: u32,
}

impl Pool {
    fn new(lo: usize, hi: usize) -> Self {
        let lo = u32::try_from(lo).expect("ring index fits u32");
        Pool {
            lo,
            hi: u32::try_from(hi).expect("ring index fits u32"),
            mark: lo,
            spare: 0,
            head: 0,
        }
    }
}

/// Arena of `rings` fixed-capacity flit FIFOs over a pool of lines: one
/// 64-byte-aligned slot array of a line per ring, one dense cursor array
/// (the node-ordered passes stream it), and the pools, whose free lists
/// are chained through the free lines themselves. The arena is one pool
/// until [`FlitRings::set_pools`] splits it by shard.
#[derive(Debug)]
pub(crate) struct FlitRings {
    cap: u32,
    clock: Clock,
    /// Per ring, `head | len << 10 | line << 20 | front_idx << 48`, or 0.
    cursors: Vec<u64>,
    /// Line `l` is slots `base + l * cap ..`, `LINE_SLOTS - 1` spare words
    /// ahead of line 0 so that `base` can be a 64-byte boundary. Zeroed at
    /// allocation: a line is first written when a ring takes it.
    words: Vec<FlitSlot>,
    base: usize,
    /// Ascending, covering the rings: pool `p` owns rings and lines
    /// `p.lo..p.hi`.
    pools: Vec<Pool>,
}

impl FlitRings {
    /// An arena of `rings` empty rings of `cap` flits each, for packets of
    /// `packet_len` flits that wait `hop_latency` cycles per hop, at cycle
    /// 0, as one pool.
    pub(crate) fn new(rings: usize, cap: usize, packet_len: u16, hop_latency: u64) -> Self {
        assert!(
            cap <= crate::MAX_BUF_DEPTH,
            "ring capacity exceeds MAX_BUF_DEPTH"
        );
        assert!(
            rings <= 1 << LINE_BITS,
            "more rings than lines a cursor names"
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
            pools: vec![Pool::new(0, rings)],
        }
    }

    /// The slots, line 0's first.
    fn slots(&self) -> &[FlitSlot] {
        &self.words[self.base..self.base + self.cursors.len() * self.cap as usize]
    }

    /// Moves the arena's cycle forward to `now`, the cycle every read from
    /// then on reconstructs `ready_at` at. Crossing a multiple of 2³¹
    /// re-stamps every flit ready for more than `2³¹ - hop_latency` cycles
    /// ready at `now` — once per ~2·10⁹ cycles, over the buffered flits.
    /// Returns whether the move crossed such a multiple
    /// ([`Clock::crosses_epoch`]), where stamps read against the arena's
    /// clock from outside it are re-stamped too.
    pub(crate) fn set_now(&mut self, now: u64) -> bool {
        let was = self.clock;
        debug_assert!(now >= was.now, "the arena's clock runs backwards");
        self.clock.now = now;
        if !Clock::crosses_epoch(was.now, now) {
            return false;
        }
        let cap = self.cap as usize;
        for &c in &self.cursors {
            for i in 0..len_of(c) {
                let at =
                    self.base + line_of(c) as usize * cap + wrap(self.cap, head_of(c), i) as usize;
                let s = self.words[at];
                let kept = self.clock.restamped(was.ready_at(slot_stamp(s)));
                self.words[at] = slot(slot_packet(s), kept);
            }
        }
        true
    }

    /// `ready_at` as the arena buffers a flit read from outside the
    /// simulator (a checkpoint): a flit ready for longer than a re-stamp
    /// allows is re-stamped as [`FlitRings::set_now`] would.
    pub(crate) fn restamped(&self, ready_at: u64) -> u64 {
        self.clock.restamped(ready_at)
    }

    /// Splits the arena into pools, pool `p` owning rings and lines
    /// `bounds[p]..bounds[p + 1]`, and moves every held line into its
    /// ring's new pool: each pool hands its lines out afresh from its
    /// bottom, in ring order, a ring's flits copied in ring order to the
    /// front of its new line. Where a line sits is layout: no flit, index
    /// or stamp changes. Not a pipeline operation — it allocates a copy of
    /// the buffered flits.
    pub(crate) fn set_pools(&mut self, bounds: &[usize]) {
        assert!(
            bounds.first() == Some(&0)
                && bounds.last() == Some(&self.cursors.len())
                && bounds.is_sorted(),
            "pools must cover the rings in order"
        );
        let rings = 0..self.cursors.len();
        let flits: Vec<FlitSlot> = rings
            .clone()
            .flat_map(|r| (0..len_of(self.cursors[r])).map(move |i| (r, i)))
            .map(|(r, i)| self.slot(r, i))
            .collect();
        let mut flits = flits.into_iter();
        self.pools = bounds.windows(2).map(|b| Pool::new(b[0], b[1])).collect();
        let (cap, mut p) = (self.cap as usize, 0);
        for r in rings {
            let c = self.cursors[r];
            if c == 0 {
                continue;
            }
            while self.pools[p].hi as usize <= r {
                p += 1;
            }
            let line = self.pools[p].mark;
            self.pools[p].mark += 1;
            let at = self.base + line as usize * cap;
            for (i, s) in flits.by_ref().take(len_of(c) as usize).enumerate() {
                self.words[at + i] = s;
            }
            self.cursors[r] = cursor(0, len_of(c), line, front_idx_of(c));
        }
    }

    /// The first ring of every pool, then the number of rings: the
    /// partition [`FlitRings::set_pools`] last set.
    pub(crate) fn pool_bounds(&self) -> impl Iterator<Item = usize> + '_ {
        let last = self.pools.last().map(|p| p.hi as usize);
        self.pools.iter().map(|p| p.lo as usize).chain(last)
    }

    /// Lines handed out at least once — the arena's written, resident
    /// part — and lines rings hold now, over all pools.
    pub(crate) fn lines(&self) -> (usize, usize) {
        self.pools.iter().fold((0, 0), |(reached, held), p| {
            let used = (p.mark - p.lo) as usize;
            (reached + used, held + used - p.spare as usize)
        })
    }

    /// The heap reserved for the lines, each first written when a ring
    /// takes it.
    pub(crate) fn line_bytes(&self) -> usize {
        self.words.capacity() * size_of::<FlitSlot>()
    }

    /// The line ring `r` holds, if any.
    pub(crate) fn line(&self, r: usize) -> Option<usize> {
        let c = self.cursors[r];
        (c != 0).then_some(line_of(c) as usize)
    }

    /// The arena's clock.
    #[inline]
    pub(crate) fn clock(&self) -> Clock {
        self.clock
    }

    /// The free list of `pool`, walked from its head: `spare` lines, each
    /// free line's first slot naming the next — or fewer, ending at the
    /// first line outside the pool's lines below its mark, whose slot is
    /// not read.
    fn free_chain(&self, pool: Pool) -> impl Iterator<Item = usize> + '_ {
        let (lines, cap) = (pool.lo as usize..pool.mark as usize, self.cap as usize);
        std::iter::successors(Some(pool.head as usize), move |&line| {
            lines
                .contains(&line)
                .then(|| usize::try_from(self.slots()[line * cap]).unwrap_or(usize::MAX))
        })
        .take(pool.spare as usize)
    }

    /// Checks the pool ledger and calls `fault` once per breach: the pools
    /// cover the rings in order, every line a ring holds is below its own
    /// pool's mark, and the free chain and the held lines together are the
    /// lines below the mark, each exactly once. Formats only on a breach
    /// and otherwise allocates nothing (the per-cycle audit of debug
    /// builds runs it): a stack bitmap, one pass over a pool's rings and
    /// one walk of its chain per 4 096 lines below its mark.
    pub(crate) fn pool_faults(&self, mut fault: impl FnMut(String)) {
        const WINDOW: usize = 64 * 64;
        let mut at = 0;
        for (p, pool) in self.pools.iter().enumerate() {
            let (lo, hi, mark) = (pool.lo as usize, pool.hi as usize, pool.mark as usize);
            if lo != at || hi < lo || !(lo..=hi).contains(&mark) || pool.spare as usize > mark - lo
            {
                fault(format!(
                    "pool {p} {lo}..{hi} (mark {mark}, {} free) after ring {at}",
                    pool.spare
                ));
                return;
            }
            at = hi;
            for r in lo..hi {
                match self.line(r) {
                    Some(line) if !(lo..mark).contains(&line) => fault(format!(
                        "ring {r} holds line {line}, outside pool {p}'s lines {lo}..{mark}"
                    )),
                    _ => {}
                }
            }
            for line in self.free_chain(*pool) {
                if !(lo..mark).contains(&line) {
                    fault(format!(
                        "free line {line} outside pool {p}'s lines {lo}..{mark}"
                    ));
                }
            }
            for w in (lo..mark).step_by(WINDOW) {
                let end = (w + WINDOW).min(mark);
                let bit = |line: usize| ((line - w) / 64, 1u64 << ((line - w) % 64));
                let (mut held, mut freed) = ([0u64; WINDOW / 64], [0u64; WINDOW / 64]);
                for r in lo..hi {
                    let Some(line) = self.line(r).filter(|l| (w..end).contains(l)) else {
                        continue;
                    };
                    let (word, b) = bit(line);
                    if held[word] & b != 0 {
                        fault(format!(
                            "line {line} of pool {p} is held twice, by ring {r} too"
                        ));
                    }
                    held[word] |= b;
                }
                for line in self.free_chain(*pool) {
                    if !(w..end).contains(&line) {
                        continue;
                    }
                    let (word, b) = bit(line);
                    if held[word] & b != 0 {
                        fault(format!("free line {line} of pool {p} is also held"));
                    }
                    if freed[word] & b != 0 {
                        fault(format!("line {line} of pool {p} is on the free list twice"));
                    }
                    freed[word] |= b;
                }
                for line in w..end {
                    let (word, b) = bit(line);
                    if (held[word] | freed[word]) & b == 0 {
                        fault(format!(
                            "line {line} of pool {p} is below its mark but neither held nor free"
                        ));
                    }
                }
            }
        }
        if at != self.cursors.len() {
            fault(format!("pools end at ring {at} of {}", self.cursors.len()));
        }
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

    /// Where logical position `i` of ring `r`, whose cursor word is `c`,
    /// sits in the slots.
    #[inline]
    fn at(&self, c: u64, i: u32) -> usize {
        debug_assert!(i < len_of(c), "ring position out of range");
        line_of(c) as usize * self.cap as usize + wrap(self.cap, head_of(c), i) as usize
    }

    /// The slot at logical position `i` of ring `r`.
    #[inline]
    fn slot(&self, r: usize, i: u32) -> FlitSlot {
        self.slots()[self.at(self.cursors[r], i)]
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

    /// Empties ring `r`, giving back its line.
    #[cfg(test)]
    pub(crate) fn reset(&mut self, r: usize) {
        if let Some(line) = self.line(r) {
            self.view().give_line(r, line as u32);
        }
        self.cursors[r] = 0;
    }

    /// Overwrites the packet id of the flit at position `i` of ring `r`,
    /// stamp kept: how a test plants an out-of-run flit.
    #[cfg(test)]
    pub(crate) fn set_packet(&mut self, r: usize, i: usize, packet: PacketId) {
        let at = self.base + self.at(self.cursors[r], i as u32);
        self.words[at] = u64::from(packet) | self.words[at] & !0xFFFF_FFFF;
    }

    /// The arena as checked cells owning every ring and every pool — what
    /// the mutators above and the pass views ([`crate::shard::ApplyCtx`])
    /// write through.
    #[inline]
    pub(crate) fn view(&mut self) -> FlitRingsView<'_> {
        let n = self.cursors.len() * self.cap as usize;
        FlitRingsView {
            cap: self.cap,
            clock: self.clock,
            cursors: Cells::new(&mut self.cursors),
            slots: Cells::new(&mut self.words[self.base..self.base + n]),
            pools: Cells::new(&mut self.pools),
            first_pool: 0,
        }
    }
}

/// Corruptions of the pool ledger, for the audit's tests.
#[cfg(test)]
impl FlitRings {
    /// Points ring `r`, which holds a line, at `line` instead, its flits
    /// moved there.
    pub(crate) fn set_line(&mut self, r: usize, line: usize) {
        let c = self.cursors[r];
        for i in 0..len_of(c) {
            let s = self.slot(r, i);
            let pos = self.at(c, i) - line_of(c) as usize * self.cap as usize;
            self.words[self.base + line * self.cap as usize + pos] = s;
        }
        let field = ((1u64 << LINE_BITS) - 1) << (2 * DEPTH_BITS);
        self.cursors[r] = c & !field | (line as u64) << (2 * DEPTH_BITS);
    }

    /// Takes a line off ring `r`'s pool for no ring: a leak.
    pub(crate) fn leak_line(&mut self, r: usize) -> usize {
        self.view().take_line(r) as usize
    }

    /// Puts `line` on the free list of ring `r`'s pool.
    pub(crate) fn free_line(&mut self, r: usize, line: usize) {
        self.view().give_line(r, line as u32);
    }

    /// The free lines of pool `p`, head first.
    pub(crate) fn free_lines(&self, p: usize) -> Vec<usize> {
        self.free_chain(self.pools[p]).collect()
    }

    /// Points free `line`'s link at `next`: a chain that loops or leaves
    /// its pool.
    pub(crate) fn set_free_link(&mut self, line: usize, next: usize) {
        self.words[self.base + line * self.cap as usize] = next as FlitSlot;
    }
}

/// Words from the start of `words` to its first 64-byte boundary.
fn line_offset(words: &[FlitSlot]) -> usize {
    (words.as_ptr() as usize).wrapping_neg() % 64 / std::mem::size_of::<FlitSlot>()
}

/// A [`FlitRings`] arena as checked cells over a range of its rings and
/// the pools they take lines from: the one implementation of its mutators.
/// Touching a ring, a line or a pool outside the range panics. A view
/// owns whole pools, so two views over rings of one pool must never be
/// used on two threads at once; the shard passes' views are narrowed to
/// the shard plan's ranges, which are the pools'.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitRingsView<'a> {
    cap: u32,
    clock: Clock,
    cursors: Cells<'a, u64>,
    slots: Cells<'a, FlitSlot>,
    pools: Cells<'a, Pool>,
    /// The view's first pool, its first ring's.
    first_pool: usize,
}

impl FlitRingsView<'_> {
    /// The same arena owning only rings `lo..hi` (non-empty) and the pools
    /// they lie in.
    pub(crate) fn narrow(self, lo: usize, hi: usize) -> Self {
        let (first, last) = (self.pool_of(lo), self.pool_of(hi - 1));
        let lines = self.pools.get(first).lo as usize..self.pools.get(last).hi as usize;
        let cap = self.cap as usize;
        FlitRingsView {
            cursors: self.cursors.narrow(lo, hi),
            slots: self.slots.narrow(lines.start * cap, lines.end * cap),
            pools: self.pools.narrow(first, last + 1),
            first_pool: first,
            ..self
        }
    }

    /// The pool ring `r` takes its lines from.
    #[inline]
    fn pool_of(&self, r: usize) -> usize {
        let mut p = self.first_pool;
        while self.pools.get(p).hi as usize <= r {
            p += 1;
        }
        p
    }

    /// The arena's clock.
    #[inline]
    pub(crate) fn clock(&self) -> Clock {
        self.clock
    }

    /// A line for ring `r`: the one its pool freed last, else the pool's
    /// first never-used line. Out of line: a move takes a line at about one
    /// pop in thirty, and keeping it out of `push_back` keeps the move short.
    #[inline(never)]
    fn take_line(&self, r: usize) -> u32 {
        let p = self.pool_of(r);
        let mut pool = self.pools.get(p);
        let line = if pool.spare > 0 {
            pool.spare -= 1;
            let line = pool.head;
            // The link names a line of the pool, which fits `u32`.
            pool.head = self.slots.get(line as usize * self.cap as usize) as u32;
            line
        } else {
            // Each ring holds one line at most, and this one holds none.
            debug_assert!(pool.mark < pool.hi, "flit pool {p} has no line left");
            pool.mark += 1;
            pool.mark - 1
        };
        self.pools.set(p, pool);
        line
    }

    /// Gives ring `r`'s `line` back to its pool, on top of its free chain
    /// (out of line, like [`FlitRingsView::take_line`]).
    #[inline(never)]
    fn give_line(&self, r: usize, line: u32) {
        let p = self.pool_of(r);
        let mut pool = self.pools.get(p);
        self.slots
            .set(line as usize * self.cap as usize, FlitSlot::from(pool.head));
        pool.head = line;
        pool.spare += 1;
        self.pools.set(p, pool);
    }

    /// The front slot of the ring whose cursor word is `c`.
    #[inline]
    fn front_slot(&self, c: u64) -> FlitSlot {
        debug_assert!(len_of(c) != 0, "front of empty flit ring");
        self.slots
            .get(line_of(c) as usize * self.cap as usize + head_of(c) as usize)
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
        front_idx_of(c) == 0 && self.clock.is_ready(slot_stamp(self.front_slot(c)))
    }

    /// See [`FlitRings::front_packet`].
    #[inline]
    pub(crate) fn front_packet(&self, r: usize) -> PacketId {
        slot_packet(self.front_slot(self.cursors.get(r)))
    }

    /// See [`FlitRings::front_ready_at`].
    #[inline]
    pub(crate) fn front_ready_at(&self, r: usize) -> u64 {
        self.clock
            .ready_at(slot_stamp(self.front_slot(self.cursors.get(r))))
    }

    /// See [`FlitRings::push_back`]. A ring without a line takes one.
    #[inline]
    pub(crate) fn push_back(&self, r: usize, f: Flit) {
        let c = self.cursors.get(r);
        let (len, clock) = (len_of(c), self.clock);
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
        let (head, line) = if c == 0 {
            (0, self.take_line(r))
        } else {
            (head_of(c), line_of(c))
        };
        let front_idx = if len == 0 { f.idx } else { front_idx_of(c) };
        let pos = wrap(self.cap, head, len);
        self.slots.set(
            line as usize * self.cap as usize + pos as usize,
            slot(f.packet, f.ready_at),
        );
        self.cursors.set(r, cursor(head, len + 1, line, front_idx));
    }

    /// See [`FlitRings::pop_front`]. A pop that empties the ring behind a
    /// tail gives its line back; a ring emptied inside a worm keeps it.
    #[inline]
    pub(crate) fn pop_front(&self, r: usize) -> Flit {
        let c = self.cursors.get(r);
        debug_assert!(len_of(c) != 0, "pop from empty flit ring");
        let idx = front_idx_of(c);
        let f = self.clock.flit(self.front_slot(c), idx);
        let (len, next) = (len_of(c) - 1, next_idx(idx, self.clock.packet_len));
        let after = if len == 0 && next == 0 {
            self.give_line(r, line_of(c));
            0
        } else {
            cursor(wrap(self.cap, head_of(c), 1), len, line_of(c), next)
        };
        self.cursors.set(r, after);
        f
    }
}

/// A [`Rings`] cursor word: `head | len << 32`.
#[inline]
fn fifo_cursor(head: u32, len: u32) -> u64 {
    u64::from(head) | u64::from(len) << 32
}

/// Arena of fixed-capacity FIFOs of small `W` values, touched only between
/// the passes: the source queues (`W` = a 12-byte
/// [`QueueEntry`](crate::packet::QueueEntry)) and the token queue (a VC
/// index). One `head | len << 32` cursor word per ring, and a running count
/// of the entries of all rings.
///
/// Slot `i` of ring `r` is entry `i * rings + r`, and a ring that empties
/// restarts at slot 0. A ring that stays shallow then only ever uses the
/// arena's first rows. The arena's capacity is reserved whole at
/// construction, but its rows are written (and so made resident) only as
/// the first push reaches each: a row no ring reached costs no memory, and
/// growing within the reserved capacity never allocates.
#[derive(Debug)]
pub(crate) struct Rings<W> {
    cap: u32,
    /// Per ring, `head | len << 32`.
    cursors: Vec<u64>,
    /// The rows reached so far, of the `rings * cap` entries reserved.
    data: Vec<W>,
    /// Entries in all rings.
    total: usize,
}

impl<W: Copy + Default> Rings<W> {
    /// An arena of `rings` empty rings of `cap` entries each.
    pub(crate) fn new(rings: usize, cap: usize) -> Self {
        let cap32 = u32::try_from(cap).expect("ring capacity fits u32");
        Rings {
            cap: cap32,
            cursors: vec![0; rings],
            data: Vec::with_capacity(rings * cap),
            total: 0,
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

    /// Entries in all rings together.
    #[inline]
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// The heap reserved for entries, each row first written when a push
    /// reaches it.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.data.capacity() * size_of::<W>()
    }

    /// Where logical position `i` of ring `r` sits in the arena.
    #[inline]
    fn at(&self, r: usize, i: u32) -> usize {
        let head = self.cursors[r] as u32;
        wrap(self.cap, head, i) as usize * self.cursors.len() + r
    }

    /// The entry at logical position `i` (0 = front) of ring `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize, i: usize) -> W {
        debug_assert!(i < self.len(r), "ring position out of range");
        self.data[self.at(r, i as u32)]
    }

    /// The front entry of ring `r` (ring must be non-empty).
    #[inline]
    pub(crate) fn front(&self, r: usize) -> W {
        self.get(r, 0)
    }

    /// Appends `v` to ring `r`.
    #[inline]
    pub(crate) fn push_back(&mut self, r: usize, v: W) {
        let c = self.cursors[r];
        let (head, len) = (c as u32, (c >> 32) as u32);
        debug_assert!(len < self.cap, "ring overflow");
        let at = self.at(r, len);
        if at >= self.data.len() {
            self.reach_row(at / self.cursors.len());
        }
        self.data[at] = v;
        self.cursors[r] = fifo_cursor(head, len + 1);
        self.total += 1;
    }

    /// Writes the arena's rows up to `row`, inside the reserved capacity.
    #[cold]
    fn reach_row(&mut self, row: usize) {
        self.data
            .resize((row + 1) * self.cursors.len(), W::default());
    }

    /// Removes and returns the front entry of ring `r`; a ring left empty
    /// restarts at slot 0.
    #[inline]
    pub(crate) fn pop_front(&mut self, r: usize) -> W {
        let v = self.front(r);
        let c = self.cursors[r];
        let (head, len) = (c as u32, (c >> 32) as u32);
        let head = if len == 1 { 0 } else { wrap(self.cap, head, 1) };
        self.cursors[r] = fifo_cursor(head, len - 1);
        self.total -= 1;
        v
    }

    /// Overwrites the entry at logical position `i` of ring `r`.
    #[cfg(test)]
    pub(crate) fn set(&mut self, r: usize, i: usize, v: W) {
        debug_assert!(i < self.len(r), "ring position out of range");
        let at = self.at(r, i as u32);
        self.data[at] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Seeded cases per property.
    const CASES: u64 = 8;

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

    /// Property: every ring of a FlitRings arena behaves exactly like a
    /// capacity-checked VecDeque under a random push/pop interleaving
    /// (wrap-around included: the sequences are much longer than the
    /// capacity). Each ring is fed what a VC buffers — in-order runs of
    /// packets, every flit ready within the stamp window — while the
    /// arena's clock runs, so reads reconstruct past and future stamps
    /// alike. The rings share their lines through pools, which the arena
    /// is split into afresh every few hundred steps, and a model of the
    /// pools predicts every line: a ring holds one exactly while it is
    /// non-empty or inside a worm, takes the line its pool freed last or
    /// else the pool's mark, and a re-split hands each pool's lines out
    /// from its bottom in ring order.
    #[test]
    fn flit_ring_matches_vecdeque_model() {
        /// The model of one pool: its rings, its mark and its free list.
        struct PoolModel {
            rings: std::ops::Range<usize>,
            mark: usize,
            free: Vec<usize>,
        }
        for case in 0..CASES {
            let mut rng = 0xF117_0000 + case;
            let cap = 1 + (mix(&mut rng) as usize) % 9; // 1..=9
            let packet_len = [1, 2, 3, 5, 16][(mix(&mut rng) % 5) as usize];
            let rings = 2 + (mix(&mut rng) as usize) % 11; // 2..=12
            let mut arena = FlitRings::new(rings, cap, packet_len, HOP);
            let mut model: Vec<VecDeque<Flit>> = vec![VecDeque::new(); rings];
            let mut pools = vec![PoolModel {
                rings: 0..rings,
                mark: 0,
                free: Vec::new(),
            }];
            // The last flit each ring took in, and whether a worm is
            // inside it (the next flit it takes in is not a header).
            let mut last = vec![
                Flit {
                    packet: 0,
                    idx: packet_len - 1,
                    ready_at: 0,
                };
                rings
            ];
            let mut in_worm = vec![false; rings];
            for step in 0..3_000u64 {
                let now = step / 3;
                arena.set_now(now);
                if step % 500 == 499 {
                    let mut bounds = vec![0, rings];
                    bounds.extend((0..mix(&mut rng) % 4).map(|_| mix(&mut rng) as usize % rings));
                    bounds.sort_unstable();
                    bounds.dedup();
                    arena.set_pools(&bounds);
                    pools = bounds
                        .windows(2)
                        .map(|b| {
                            let held = (b[0]..b[1]).filter(|&r| arena.line(r).is_some());
                            PoolModel {
                                rings: b[0]..b[1],
                                mark: b[0] + held.count(),
                                free: Vec::new(),
                            }
                        })
                        .collect();
                    let mut next = bounds[..bounds.len() - 1].to_vec();
                    for r in 0..rings {
                        if !model[r].is_empty() || in_worm[r] {
                            let p = pools.iter().position(|p| p.rings.contains(&r)).unwrap();
                            assert_eq!(arena.line(r), Some(next[p]), "ring {r} re-pooled");
                            next[p] += 1;
                        }
                    }
                }
                let r = (mix(&mut rng) as usize) % rings;
                let pool = pools.iter_mut().find(|p| p.rings.contains(&r)).unwrap();
                if mix(&mut rng).is_multiple_of(2) && model[r].len() < cap {
                    let ready_at =
                        now.saturating_sub(mix(&mut rng) % 7) + mix(&mut rng) % (HOP + 1);
                    let f = after(last[r], packet_len, step as PacketId, ready_at);
                    let taken = arena.line(r).is_none();
                    last[r] = f;
                    arena.push_back(r, f);
                    model[r].push_back(f);
                    if taken {
                        let want = pool.free.pop().unwrap_or_else(|| {
                            pool.mark += 1;
                            pool.mark - 1
                        });
                        assert_eq!(arena.line(r), Some(want), "ring {r} took a line");
                    }
                } else if !model[r].is_empty() {
                    let line = arena.line(r).expect("a non-empty ring holds a line");
                    let f = model[r].pop_front().unwrap();
                    assert_eq!(arena.pop_front(r), f);
                    in_worm[r] = next_idx(f.idx, packet_len) != 0;
                    if model[r].is_empty() && !in_worm[r] {
                        pool.free.push(line);
                    }
                }
                assert_eq!(arena.len(r), model[r].len());
                assert_eq!(arena.is_empty(r), model[r].is_empty());
                assert_eq!(arena.is_full(r), model[r].len() == cap);
                assert_eq!(arena.front(r), model[r].front().copied());
                assert_eq!(
                    arena.line(r).is_some(),
                    !model[r].is_empty() || in_worm[r],
                    "ring {r} holds a line exactly inside a worm"
                );
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
                let held = (0..rings).filter(|&r| arena.line(r).is_some()).count();
                let reached = pools.iter().map(|p| p.mark - p.rings.start).sum();
                assert_eq!(arena.lines(), (reached, held));
                arena.pool_faults(|fault| panic!("step {step}: {fault}"));
            }
        }
    }

    /// Same model property for the word rings, and their running total.
    #[test]
    fn rings_match_vecdeque_model() {
        for case in 0..CASES {
            let mut rng = 0x1D00_0000 + case;
            let cap = 1 + (mix(&mut rng) as usize) % 7;
            let mut ring = Rings::new(2, cap);
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
                assert_eq!(ring.total(), model[0].len() + model[1].len());
                for (i, &v) in model[r].iter().enumerate() {
                    assert_eq!(ring.get(r, i), v);
                }
            }
        }
    }

    /// Rings that never hold more than two entries reach only the arena's
    /// first two rows, however often they cycle: an emptied ring restarts
    /// at slot 0, and slot `i` of every ring shares row `i`.
    #[test]
    fn shallow_rings_stay_in_the_first_rows() {
        let (rings, cap) = (5, 8);
        let mut ring = Rings::new(rings, cap);
        let reserved = ring.data.capacity();
        for step in 0..1_000u32 {
            let r = step as usize % rings;
            ring.push_back(r, step);
            if ring.len(r) == 2 || step % 3 == 0 {
                while !ring.is_empty(r) {
                    ring.pop_front(r);
                }
            }
        }
        assert_eq!(ring.data.len(), 2 * rings, "a deep row written");
        assert!(reserved >= cap * rings && ring.data.capacity() == reserved);
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

    /// The arena's last line wraps inside itself — its final slot, the
    /// array's, then back to its first — and never into a neighbour's, and
    /// a view narrowed to the ring holding it reaches all of it.
    #[test]
    fn the_last_line_wraps_within_the_arena() {
        let (rings, cap) = (3, 3);
        let mut arena = arena(rings, cap);
        // Rings 1 and 0 take lines 0 and 1; ring 2 takes the last.
        arena.push_back(1, flit(77));
        arena.push_back(0, flit(78));
        for step in 0..3 {
            arena.push_back(2, flit(step));
        }
        assert_eq!(arena.line(2), Some(rings - 1));
        arena.pop_front(2);
        arena.pop_front(2); // head = 2: the array's final slot
        for step in 10..12 {
            arena.push_back(2, flit(step));
        }
        assert!(arena.is_full(2));
        let view = arena.view().narrow(2, rings);
        assert_eq!(view.len(2), cap);
        assert_eq!(view.front_packet(2), flit(2).packet);
        assert_eq!(view.front_ready_at(2), flit(2).ready_at);
        for step in [2, 10, 11] {
            assert_eq!(view.pop_front(2), flit(step));
        }
        assert_eq!(arena.get(1, 0), flit(77));
        assert_eq!(arena.get(0, 0), flit(78));
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
            assert_eq!(arena.set_now(now), now == WRAP, "cycle {now}");
            // Nothing is old enough to be re-stamped at WRAP.
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
        assert!(arena.set_now(EPOCH), "the move crosses a multiple");
        assert_eq!(
            arena.get(0, 0).ready_at,
            EPOCH,
            "the old flit is re-stamped"
        );
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
            // Three flits through the ring leave its head at slot 3 for
            // 16-flit packets; a shorter packet's tail empties the ring,
            // which gives its line back, and the run starts a line afresh.
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

    /// Every line of a depth-8 arena must start on a 64-byte boundary,
    /// 64 bytes past the line before.
    fn assert_one_aligned_line_per_ring(arena: &FlitRings) {
        assert_eq!(arena.cap, 8);
        assert_eq!(std::mem::size_of::<FlitSlot>(), 8);
        let slots = arena.slots();
        assert_eq!(slots.len(), arena.cursors.len() * 8);
        for line in 0..arena.cursors.len() {
            let at = slots[line * 8..(line + 1) * 8].as_ptr() as usize;
            assert_eq!(at % 64, 0, "line {line} straddles a cache line");
        }
    }

    /// A buffered flit is one 8-byte slot, and every line of a depth-8
    /// arena is exactly one 64-byte-aligned cache line — in a new arena and
    /// in a network's input VCs after a checkpoint restore, whose
    /// allocation falls wherever it falls.
    #[test]
    fn a_depth_8_line_is_one_aligned_cache_line() {
        assert_one_aligned_line_per_ring(&FlitRings::new(37, 8, 16, HOP));
        let net = crate::testnet::hot_net();
        assert_eq!(net.config().buf_depth, 8);
        assert_one_aligned_line_per_ring(&net.vc_bufs);
        let mut enc = checkpoint::Enc::new();
        net.save_state(&mut enc);
        let snap = enc.into_vec();
        let mut restored = crate::Network::new(net.config().clone()).unwrap();
        restored
            .restore_state(&mut checkpoint::Dec::new(&snap))
            .unwrap();
        assert_one_aligned_line_per_ring(&restored.vc_bufs);
        let fronts = |n: &crate::Network| {
            (0..n.vc_assign.len())
                .map(|r| n.vc_bufs.front(r))
                .collect::<Vec<_>>()
        };
        assert_eq!(fronts(&restored), fronts(&net));
    }
}
