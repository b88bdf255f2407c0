//! Deadline wheel over nodes: which nodes may have a packet due at a cycle.
//!
//! The runner's `next_gen` array is the truth — the cycle of each node's
//! next packet. This wheel only makes *finding* the due nodes cost one slot
//! instead of one compare per node: [`SLOTS`] circular slots, each a bitset
//! over the nodes, with node `n` filed in slot `next_gen[n] % SLOTS` (the
//! shape of netsim's starvation `TimerWheel`). Bits are hints:
//!
//! * a set bit may be **stale** (the node fired through
//!   `WorkloadRunner::poll`, which re-files but cannot unfile) or speak of a
//!   **later revolution** (a deadline `SLOTS` or more cycles ahead), so the
//!   scan re-checks every candidate against `next_gen`;
//! * a due node is **never missing**: every finite deadline is at or past
//!   [`ArrivalWheel::cursor`] — the first cycle not yet scanned — and has
//!   its bit set, and a scan covers every cycle from the cursor up to `now`
//!   (all slots, once the caller skipped a revolution or more).
//!
//! A scan takes the candidate bits out and re-files each candidate under
//! its current deadline, so a bitset gives, as in netsim's wheel: one entry
//! per node and slot, candidates in ascending node order (the order the
//! stream is defined in), and no allocation after construction. Nothing of
//! the wheel is serialized; it is rebuilt from `next_gen`.

/// Slots per revolution. A power of two, so a deadline's slot is a mask.
/// More slots mean fewer later-revolution candidates per scan (`nodes /
/// SLOTS` per cycle when gaps are long) for `SLOTS · nodes / 8` bytes:
/// 8 KB for the paper's 256 nodes, 54 KB for the 12-ary 3-cube, 8 MB for
/// the 262 144-node `big` preset (under 2 % of its network state).
pub(crate) const SLOTS: usize = 256;

/// The slots one scan covers: `count` consecutive ones from `first`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    first: usize,
    count: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct ArrivalWheel {
    /// `u64` words per slot bitset.
    words: usize,
    /// Slot bitsets, `SLOTS * words` flat.
    bits: Vec<u64>,
    /// The first cycle whose slot has not been scanned.
    cursor: u64,
}

impl ArrivalWheel {
    /// An empty wheel over `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        let words = nodes.div_ceil(64);
        ArrivalWheel {
            words,
            bits: vec![0; SLOTS * words],
            cursor: u64::MAX,
        }
    }

    /// `u64` words per slot: candidates of word `w` are nodes `64·w..`.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Files `node` under `deadline` (`u64::MAX`, never, is not filed). An
    /// earlier filing's bit may linger; it is a stale hint.
    #[inline]
    pub(crate) fn insert(&mut self, node: usize, deadline: u64) {
        if deadline != u64::MAX {
            let slot = deadline as usize & (SLOTS - 1);
            self.bits[slot * self.words + (node >> 6)] |= 1 << (node & 63);
        }
    }

    /// Empties the wheel and files every node under its entry of
    /// `deadlines`; nothing before the earliest of them needs a scan.
    pub(crate) fn rebuild(&mut self, deadlines: &[u64]) {
        self.bits.fill(0);
        self.cursor = deadlines.iter().copied().min().unwrap_or(u64::MAX);
        for (node, &deadline) in deadlines.iter().enumerate() {
            self.insert(node, deadline);
        }
    }

    /// Opens the scan for cycle `now`: the slots of every cycle not yet
    /// scanned, or `None` when there is none (nothing can be due).
    #[inline]
    pub(crate) fn advance(&mut self, now: u64) -> Option<Span> {
        if now < self.cursor {
            return None;
        }
        let span = Span {
            first: self.cursor as usize & (SLOTS - 1),
            count: (now - self.cursor).min(SLOTS as u64 - 1) as usize + 1,
        };
        self.cursor = now.saturating_add(1);
        Some(span)
    }

    /// Takes the candidates of word `w` out of every slot of `span`. The
    /// caller re-files each under its current deadline.
    #[inline]
    pub(crate) fn take(&mut self, span: Span, w: usize) -> u64 {
        let mut candidates = 0;
        for slot in span.first..span.first + span.count {
            let word = &mut self.bits[(slot & (SLOTS - 1)) * self.words + w];
            // Most words are empty: read without dirtying the line.
            if *word != 0 {
                candidates |= std::mem::take(word);
            }
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scans the wheel at `now` against `deadlines` the way the runner
    /// does, returning the due nodes; a due node's deadline moves to
    /// `now + gap`.
    fn scan(w: &mut ArrivalWheel, deadlines: &mut [u64], now: u64, gap: u64) -> Vec<usize> {
        let mut due = Vec::new();
        let Some(span) = w.advance(now) else {
            return due;
        };
        for word in 0..w.words() {
            let mut candidates = w.take(span, word);
            while candidates != 0 {
                let node = word * 64 + candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                if deadlines[node] <= now {
                    due.push(node);
                    deadlines[node] = now + gap;
                }
                w.insert(node, deadlines[node]);
            }
        }
        due
    }

    #[test]
    fn yields_due_nodes_ascending_across_words() {
        let mut deadlines = vec![u64::MAX; 200];
        for node in [3, 64, 65, 130, 199] {
            deadlines[node] = 10;
        }
        deadlines[7] = 11;
        let mut w = ArrivalWheel::new(200);
        w.rebuild(&deadlines);
        for now in 0..10 {
            assert!(scan(&mut w, &mut deadlines, now, 1_000).is_empty());
        }
        assert_eq!(
            scan(&mut w, &mut deadlines, 10, 1_000),
            [3, 64, 65, 130, 199]
        );
        // Asked twice about one cycle: nothing is due the second time.
        assert!(scan(&mut w, &mut deadlines, 10, 1_000).is_empty());
        assert_eq!(scan(&mut w, &mut deadlines, 11, 1_000), [7]);
    }

    #[test]
    fn a_deadline_revolutions_ahead_fires_only_when_due() {
        let slots = SLOTS as u64;
        for ahead in [slots, 5 * slots, 5 * slots + 17] {
            let mut deadlines = vec![u64::MAX; 70];
            deadlines[66] = 40 + ahead;
            deadlines[2] = 40; // shares the slot when `ahead` is whole turns
            let mut w = ArrivalWheel::new(70);
            w.rebuild(&deadlines);
            let mut fired = Vec::new();
            for now in 0..=40 + ahead {
                for node in scan(&mut w, &mut deadlines, now, u64::MAX - now) {
                    fired.push((now, node));
                }
            }
            assert_eq!(fired, [(40, 2), (40 + ahead, 66)], "{ahead} ahead");
        }
    }

    #[test]
    fn a_stale_bit_fires_nothing() {
        let mut deadlines = vec![5u64, 5];
        let mut w = ArrivalWheel::new(2);
        w.rebuild(&deadlines);
        // Node 0 fires outside a scan (as `poll` does): re-filed under its
        // new deadline, its old bit left behind.
        deadlines[0] = 9;
        w.insert(0, 9);
        assert_eq!(scan(&mut w, &mut deadlines, 5, 100), [1]);
        assert_eq!(scan(&mut w, &mut deadlines, 9, 100), [0]);
    }

    #[test]
    fn a_late_scan_covers_every_skipped_cycle_once() {
        // Short of a revolution and well past one: each overdue node fires
        // once, in node order, whatever slot its deadline sat in.
        for late in [20u64, 3 * SLOTS as u64 + 5] {
            let mut deadlines: Vec<u64> = (0..100).map(|n| 1 + (n * 7) % 19).collect();
            deadlines[50] = late + 1; // not yet due
            let mut w = ArrivalWheel::new(100);
            w.rebuild(&deadlines);
            let due = scan(&mut w, &mut deadlines, late, 1_000);
            let want: Vec<usize> = (0..100).filter(|&n| n != 50).collect();
            assert_eq!(due, want, "late by {late}");
            assert_eq!(scan(&mut w, &mut deadlines, late + 1, 1_000), [50]);
        }
    }

    #[test]
    fn never_is_not_filed_and_the_last_cycle_does_not_overflow() {
        let mut deadlines = vec![u64::MAX, u64::MAX - 1];
        let mut w = ArrivalWheel::new(2);
        w.rebuild(&deadlines);
        assert!(scan(&mut w, &mut deadlines, u64::MAX - 2, 1).is_empty());
        assert_eq!(scan(&mut w, &mut deadlines, u64::MAX - 1, 1), [1]);
        // Node 1's next deadline is `u64::MAX`: never.
        assert!(scan(&mut w, &mut deadlines, u64::MAX, 1).is_empty());
        assert!(w.bits.iter().all(|&word| word == 0));
    }
}
