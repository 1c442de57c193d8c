//! Incremental whole-state fingerprints for the schedule-space explorer.
//!
//! [`crate::sim::Simulator::state_fingerprint`] folds every word of
//! [`crate::sim::Simulator::state_words`] through
//! [`crate::event::fingerprint_words`], a Horner polynomial mod 2^128:
//! after the length word, word `i` of an `L`-word encoding contributes
//! `mix(w_i)·M^(L−1−i)`, and the contributions simply add. The encoding is
//! a fixed-length prefix of *blocks* — [`PROC_WORDS`] words per process,
//! then [`CELL_WORDS`] per memory cell — followed by the cost model's
//! variable-length cache-validity tail. A step changes one process block
//! and at most one cell block, so the prefix's polynomial can be kept as a
//! weighted sum of cached block hashes and updated by the difference of
//! the blocks a step touched:
//!
//! ```text
//! prefix = Σ_b hash(block_b) · M^(K − end_b)        (K = prefix words)
//! fp     = mix(L)·M^L + prefix·M^t + hash(tail)     (t = tail words, L = K + t)
//! ```
//!
//! [`FpCache`] holds the block hashes, the weighted sum and a stale-block
//! bitset; the simulator marks blocks stale as it mutates them and the
//! tail (empty under DSM, a few words per cell under CC) is refolded on
//! every read. The result equals the full fold bit for bit.

use crate::event::fp_absorb;
use std::sync::Arc;

/// Words per process block of the state encoding.
pub(crate) const PROC_WORDS: usize = 13;

/// Words per memory-cell block of the state encoding.
pub(crate) const CELL_WORDS: usize = 2;

/// Horner hash of one block, as [`crate::event::fingerprint_words`] folds
/// it (without the length word).
pub(crate) fn hash_block(words: &[u64]) -> u128 {
    words.iter().fold(0, |h, &w| fp_absorb(h, w))
}

/// Cached block hashes of a simulator's state encoding. Empty (the
/// default) means *off*: nothing is maintained until the first incremental
/// fingerprint builds it, so simulators that never deduplicate states pay
/// nothing beyond a branch per step.
#[derive(Clone, Debug, Default)]
pub(crate) struct FpCache {
    /// `pows[k]` = `M^k` for every length the encoding can reach; `None`
    /// while the cache is off. Shared by clones and checkpoints.
    pows: Option<Arc<[u128]>>,
    /// Number of process blocks (they precede the cell blocks).
    n: usize,
    /// Hash of each block: processes `0..n`, then cells.
    blocks: Vec<u128>,
    /// `Σ blocks[b] · M^(K − end_b)`: the fixed-length prefix's polynomial.
    sum: u128,
    /// Bitset over `blocks` of hashes gone stale since the last refresh.
    dirty: Vec<u64>,
}

impl FpCache {
    /// Whether the cache is built (and therefore maintained).
    #[inline]
    pub(crate) fn is_live(&self) -> bool {
        self.pows.is_some()
    }

    /// Drops the cache; the next fingerprint rebuilds it from scratch.
    pub(crate) fn invalidate(&mut self) {
        *self = FpCache::default();
    }

    /// Marks process `i`'s block stale.
    #[inline]
    pub(crate) fn touch_proc(&mut self, i: usize) {
        if self.is_live() {
            self.dirty[i / 64] |= 1 << (i % 64);
        }
    }

    /// Marks memory cell `a`'s block stale.
    #[inline]
    pub(crate) fn touch_cell(&mut self, a: usize) {
        if self.is_live() {
            let b = self.n + a;
            self.dirty[b / 64] |= 1 << (b % 64);
        }
    }

    /// Copies `src` into `self`, reusing allocations (checkpoint
    /// snapshot and restore).
    pub(crate) fn copy_from(&mut self, src: &FpCache) {
        match (&self.pows, &src.pows) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => {}
            _ => self.pows.clone_from(&src.pows),
        }
        self.n = src.n;
        self.blocks.clone_from(&src.blocks);
        self.sum = src.sum;
        self.dirty.clone_from(&src.dirty);
    }

    /// Builds the cache for `n` process blocks and `cells` cell blocks,
    /// with room for a tail of up to `max_tail` words. `hash(b)` is the
    /// current hash of block `b`.
    pub(crate) fn build(
        &mut self,
        n: usize,
        cells: usize,
        max_tail: usize,
        hash: impl Fn(usize) -> u128,
    ) {
        let max_len = n * PROC_WORDS + cells * CELL_WORDS + max_tail;
        let mut pows = Vec::with_capacity(max_len + 1);
        let mut p = 1u128;
        for _ in 0..=max_len {
            pows.push(p);
            p = p.wrapping_mul(crate::event::FP_MUL);
        }
        self.pows = Some(pows.into());
        self.n = n;
        self.blocks = (0..n + cells).map(&hash).collect();
        self.dirty = vec![0; (n + cells).div_ceil(64)];
        self.sum = self.blocks.iter().enumerate().fold(0, |s, (b, &h)| {
            s.wrapping_add(h.wrapping_mul(self.weight(b)))
        });
    }

    /// `M^(K − end_b)`: block `b`'s weight within the prefix.
    fn weight(&self, b: usize) -> u128 {
        let cells = self.blocks.len() - self.n;
        let after = if b < self.n {
            (self.n - 1 - b) * PROC_WORDS + cells * CELL_WORDS
        } else {
            (self.n + cells - 1 - b) * CELL_WORDS
        };
        self.pows.as_ref().expect("live cache")[after]
    }

    /// Rehashes every stale block and folds the differences into the sum.
    pub(crate) fn refresh(&mut self, hash: impl Fn(usize) -> u128) {
        for wi in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[wi]);
            while bits != 0 {
                let b = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let fresh = hash(b);
                let delta = fresh.wrapping_sub(self.blocks[b]);
                self.sum = self.sum.wrapping_add(delta.wrapping_mul(self.weight(b)));
                self.blocks[b] = fresh;
            }
        }
    }

    /// The full fingerprint, given the (fresh) prefix sum and the tail's
    /// Horner hash over `tail_len` words.
    pub(crate) fn finish(&self, tail_hash: u128, tail_len: usize) -> u128 {
        let pows = self.pows.as_ref().expect("live cache");
        let cells = self.blocks.len() - self.n;
        let len = self.n * PROC_WORDS + cells * CELL_WORDS + tail_len;
        u128::from(crate::rng::mix64(len as u64))
            .wrapping_mul(pows[len])
            .wrapping_add(self.sum.wrapping_mul(pows[tail_len]))
            .wrapping_add(tail_hash)
    }
}
