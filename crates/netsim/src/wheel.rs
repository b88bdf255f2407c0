//! Deadline timer wheel for Disha starvation detection.
//!
//! The reference behavior (kept as the oracle `detect_starved_heads_scan`
//! in `difftest.rs`) walks every busy VC each `timeout` cycles looking for a
//! routed-but-credit-starved header. This wheel makes that O(candidates):
//! when a header is *routed* to an output VC — the only transition that can
//! create a starvable head — the VC is enrolled with the earliest scan
//! cycle at which the starvation predicate could possibly hold. At each
//! scan cycle the wheel visits only the VCs whose deadline is due;
//! forward progress since enrollment simply pushes the re-evaluated
//! deadline into a later bucket, and a departed header is dropped (its
//! successor re-enrolls through the routing stage).
//!
//! # Layout
//!
//! `slots` circular buckets, each a bitset over all VC indices, plus one
//! authoritative `deadline` per VC (`u64::MAX` = not enrolled). Deadlines
//! are always multiples of `timeout` — exactly the cycles the reference
//! scan runs on — and bucket `(&deadline / timeout) % slots` holds the bit.
//! The bitset gives three properties for free: entries per bucket are
//! deduplicated, a fired bucket is visited in ascending VC order (the same
//! order as the full scan, so recovery-token FIFO order is preserved
//! decision-for-decision), and the whole structure is allocation-free
//! after construction (`tests/zero_alloc.rs` covers it).
//!
//! A bucket bit can be stale — the VC was re-enrolled with a different
//! deadline, or progressed and re-parked in a later bucket — so the
//! `deadline` array is the source of truth: a fired bucket processes only
//! bits whose deadline is exactly `now`, keeps bits whose deadline maps to
//! the same bucket one revolution later, and discards the rest. The slot
//! count is sized so that every *reachable* deadline (at most
//! `max(2*timeout, timeout + hop_latency)` cycles ahead) lands in a bucket
//! other than the one currently firing, which is what makes the
//! keep/discard rule unambiguous.
//!
//! Checkpointing serializes only the `deadline` array; buckets are derived
//! and rebuilt on restore, making the byte format independent of bucket
//! occupancy history (mirroring the ring arenas' position independence).

use crate::shard::Cells;

/// Timer wheel over all input-VC indices. Disabled (zero-footprint) for
/// deadlock-avoidance networks, which have no starvation stage.
#[derive(Debug, Clone)]
pub(crate) struct TimerWheel {
    /// Scan period; 0 means the wheel is disabled.
    timeout: u64,
    /// Bucket count (wheel revolution = `slots * timeout` cycles).
    slots: usize,
    /// `u64` words per bucket bitset.
    words: usize,
    /// Bucket bitsets, `slots * words` flat.
    bits: Vec<u64>,
    /// Authoritative deadline per VC; `u64::MAX` = not enrolled.
    deadline: Vec<u64>,
}

impl TimerWheel {
    /// A wheel for `n_vcs` VCs scanning every `timeout` cycles.
    pub fn new(n_vcs: usize, timeout: u64, hop_latency: u64) -> Self {
        debug_assert!(timeout > 0);
        // Furthest reachable deadline: enrollment schedules at most
        // `2*timeout` ahead, a re-park at most `timeout + hop_latency`
        // (see `Network::recheck_starved_head`). One extra slot keeps the
        // firing bucket disjoint from every schedule target.
        let horizon = (2 * timeout).max(timeout + hop_latency);
        let slots = usize::try_from(horizon.div_ceil(timeout)).expect("tiny quotient") + 1;
        let words = n_vcs.div_ceil(64);
        TimerWheel {
            timeout,
            slots,
            words,
            bits: vec![0; slots * words],
            deadline: vec![u64::MAX; n_vcs],
        }
    }

    /// A disabled wheel (deadlock-avoidance mode): no storage, no entries.
    pub fn disabled() -> Self {
        TimerWheel {
            timeout: 0,
            slots: 0,
            words: 0,
            bits: Vec::new(),
            deadline: Vec::new(),
        }
    }

    /// Number of tracked VCs (0 when disabled).
    #[inline]
    pub fn len(&self) -> usize {
        self.deadline.len()
    }

    /// `u64` words per bucket.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words
    }

    /// The bucket a deadline lives in.
    #[inline]
    pub fn slot_of(&self, deadline: u64) -> usize {
        ((deadline / self.timeout) as usize) % self.slots
    }

    /// Word `w` of bucket `slot`.
    #[inline]
    pub fn slot_word(&self, slot: usize, w: usize) -> u64 {
        self.bits[slot * self.words + w]
    }

    /// Overwrites word `w` of bucket `slot` (the fire loop writes back the
    /// bits it decided to keep).
    #[inline]
    pub fn set_slot_word(&mut self, slot: usize, w: usize, word: u64) {
        self.bits[slot * self.words + w] = word;
    }

    /// Current deadline of `idx` (`u64::MAX` = not enrolled).
    #[inline]
    pub fn deadline(&self, idx: usize) -> u64 {
        self.deadline[idx]
    }

    /// Every VC's deadline, indexed like [`TimerWheel::deadline`] (the
    /// array a checkpoint serializes).
    #[inline]
    pub fn deadlines(&self) -> &[u64] {
        &self.deadline
    }

    /// Scan period (0 when disabled). The audit layer checks every
    /// enrolled deadline is a multiple of it.
    #[inline]
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Test-only raw deadline write that bypasses [`TimerWheel::schedule`]'s
    /// alignment assertion and bucket insertion — for corruption-injection
    /// tests that need a deliberately inconsistent wheel.
    #[cfg(test)]
    pub fn set_deadline_raw(&mut self, idx: usize, deadline: u64) {
        self.deadline[idx] = deadline;
    }

    /// Marks `idx` processed: its bucket bit (already cleared or kept by
    /// the fire loop) no longer speaks for it.
    #[inline]
    pub fn clear_deadline(&mut self, idx: usize) {
        self.deadline[idx] = u64::MAX;
    }

    /// Empties every bucket and deadline (checkpoint restore rebuilds the
    /// wheel from the serialized deadline array).
    pub fn reset(&mut self) {
        self.bits.fill(0);
        self.deadline.fill(u64::MAX);
    }

    /// Enrolls (or re-enrolls) `idx` to fire at `deadline`, a multiple of
    /// `timeout`. A previous enrollment's bucket bit may linger; the
    /// deadline overwrite makes it stale, and the fire loop discards it.
    #[inline]
    pub fn schedule(&mut self, idx: usize, deadline: u64) {
        self.view().schedule(idx, deadline);
    }

    /// The wheel as checked cells owning every VC's deadline — what
    /// [`TimerWheel::schedule`] and the pass views
    /// ([`crate::shard::ApplyCtx`]) enroll through.
    #[inline]
    pub(crate) fn view(&mut self) -> TimerWheelView<'_> {
        TimerWheelView {
            timeout: self.timeout,
            slots: self.slots,
            words: self.words,
            bits: Cells::new(&mut self.bits),
            deadline: Cells::new(&mut self.deadline),
        }
    }
}

/// A [`TimerWheel`] as checked cells over a range of its VCs: the one
/// implementation of enrollment. Deadlines are per-VC, so plain writes
/// inside the owned range; bucket words pack 64 VCs and straddle shard
/// edges, so their bits are set atomically.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerWheelView<'a> {
    timeout: u64,
    slots: usize,
    words: usize,
    bits: Cells<'a, u64>,
    deadline: Cells<'a, u64>,
}

impl TimerWheelView<'_> {
    /// The same wheel owning only the deadlines of VCs `lo..hi` (a
    /// disabled wheel has none to own).
    pub(crate) fn narrow(self, lo: usize, hi: usize) -> Self {
        if self.timeout == 0 {
            return self;
        }
        TimerWheelView {
            bits: self.bits.narrow(0, 0),
            deadline: self.deadline.narrow(lo, hi),
            ..self
        }
    }

    /// See [`TimerWheel::schedule`].
    #[inline]
    pub(crate) fn schedule(&self, idx: usize, deadline: u64) {
        debug_assert!(self.timeout > 0, "scheduling on a disabled wheel");
        debug_assert!(deadline.is_multiple_of(self.timeout));
        self.deadline.set(idx, deadline);
        let slot = ((deadline / self.timeout) as usize) % self.slots;
        self.bits.insert_bit(slot * self.words * 64 + idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sets_deadline_and_bucket_bit() {
        let mut w = TimerWheel::new(100, 8, 2);
        assert_eq!(w.len(), 100);
        assert!(w.slots >= 3, "2*timeout horizon needs >= 3 slots");
        assert_eq!(w.deadline(7), u64::MAX);
        w.schedule(7, 16);
        assert_eq!(w.deadline(7), 16);
        let slot = w.slot_of(16);
        assert_eq!(w.slot_word(slot, 0) >> 7 & 1, 1);
        // Re-enrolling moves the authoritative deadline; the old bit is
        // stale but the new bucket gains one too.
        w.schedule(7, 24);
        assert_eq!(w.deadline(7), 24);
        assert_eq!(w.slot_word(w.slot_of(24), 0) >> 7 & 1, 1);
        w.clear_deadline(7);
        assert_eq!(w.deadline(7), u64::MAX);
    }

    #[test]
    fn reachable_deadlines_never_map_to_the_firing_bucket() {
        // For any `now` that is a scan cycle and any schedule target in
        // `now+timeout ..= now+horizon`, the target's bucket differs from
        // `now`'s — the property the fire loop's keep/discard rule needs.
        for (timeout, hop) in [(8u64, 2u64), (3, 2), (1, 4), (5, 1), (2, 11)] {
            let w = TimerWheel::new(64, timeout, hop);
            // Reachable deadlines are multiples of `timeout`, at most
            // max(2, ceil(hop/timeout)) periods ahead of the firing cycle.
            let max_periods = 2u64.max(hop.div_ceil(timeout));
            for now in (0..20 * timeout).step_by(timeout as usize) {
                for k in 1..=max_periods {
                    let d = now + k * timeout;
                    assert_ne!(
                        w.slot_of(d),
                        w.slot_of(now),
                        "timeout {timeout} hop {hop}: deadline {d} collides with firing {now}"
                    );
                }
            }
        }
    }

    #[test]
    fn disabled_wheel_is_empty() {
        let w = TimerWheel::disabled();
        assert_eq!(w.len(), 0);
        assert_eq!(w.word_count(), 0);
    }
}
