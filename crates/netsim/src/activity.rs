//! Node-level activity summaries: the top level of the two-level worklist
//! hierarchy.
//!
//! The bottom level is the per-node `vc_busy` feeder mask (one `u64` per
//! router, maintained by `note_vc_filled`/`note_vc_popped`). This module
//! adds the top level: a bit per *node*, packed 64 nodes to a word, so a
//! pipeline stage can skip 64 idle routers with one integer test and visit
//! the active ones in ascending order with `trailing_zeros`. The sets are
//! derived state — rebuildable from the structures they summarize — so they
//! are never serialized; `Network::restore_state` reconstructs them.
//!
//! Iteration convention (used by every stage in `network.rs`): copy one
//! word, walk its set bits, then move to the next word. Bits set *behind*
//! the walk by the stage's own mutations are intentionally not revisited;
//! the stages only ever set bits for work that could not have acted this
//! cycle anyway (e.g. a flit pushed downstream is not ready until
//! `now + hop_latency`), so the copy-a-word walk is behaviorally identical
//! to the full scan it replaces.

/// A set of node ids over a fixed universe `0..nodes`, packed into `u64`
/// words. All operations are branch-light and allocation-free after
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// An empty set over `0..nodes`.
    pub fn new(nodes: usize) -> Self {
        NodeSet {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    /// Number of backing words (shared by all sets over the same universe).
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Word `w` (nodes `64*w .. 64*w + 63`).
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    #[inline]
    pub fn insert(&mut self, node: usize) {
        self.words[node >> 6] |= 1u64 << (node & 63);
    }

    #[inline]
    pub fn contains(&self, node: usize) -> bool {
        self.words[node >> 6] >> (node & 63) & 1 == 1
    }

    /// Empties the set (used by the per-cycle injection-allowance scratch).
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The backing words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, mutably — the pass views update them with
    /// atomic bit operations, because one word packs 64 nodes and shard
    /// boundaries are not word-aligned (see `crate::shard::Cells`).
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_across_word_boundaries() {
        let mut s = NodeSet::new(130);
        assert_eq!(s.word_count(), 3);
        for n in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!s.contains(n));
            s.insert(n);
            assert!(s.contains(n));
        }
        assert_eq!(s.word(0), 1 | 2 | 1 << 63);
        assert_eq!(s.word(1), 1 | 2 | 1 << 63);
        assert_eq!(s.word(2), 0b11);
        s.clear();
        assert_eq!(s.word(0) | s.word(1) | s.word(2), 0);
    }
}
