//! Delta-compressed sorted key runs: the on-disk (and in-memory) format of
//! the cold tier of the visited store.
//!
//! A *run* is a strictly ascending sequence of dedup [`Key`]s encoded in
//! blocks of [`KEYS_PER_BLOCK`]. Each block opens with its first key in
//! absolute form and continues with per-key deltas: the 128-bit fingerprint
//! lead is varint-encoded as the difference from the previous key, and the
//! three trailing words (sleep set, bound word, oracle context) are
//! varint-encoded XORed against their predecessors (they repeat heavily
//! across neighboring states, so the XOR is usually a one-byte zero).
//! Fingerprints are uniform 128-bit hashes, so even sorted neighbors differ
//! by ~2^120 and a fingerprint delta takes ~17 bytes: a block is mostly
//! fingerprint bytes, and decoding them dominates a block scan. Blocks
//! decode independently, so a membership probe touches exactly one block.
//!
//! Probing is a three-stage funnel:
//!
//! 1. a [`Prefilter`] (four-probe Bloom-style bitset over the whole key,
//!    fingerprint and trailing words alike) rejects most absent keys —
//!    including a visited state's siblings under other sleep sets — without
//!    touching the fences or the backing bytes at all;
//! 2. in-memory *fence pointers* ([`Fence`]: first key + byte extent per
//!    block) binary-search to the single candidate block;
//! 3. the block is decoded (from an in-memory slice or one file read) and
//!    scanned with early exit on the sorted order.
//!
//! The encoding is exact — membership answers have no false positives or
//! negatives — so the visited-set *semantics* are identical with or without
//! spilling; only the byte location of the keys changes. That is the whole
//! determinism argument: tiering moves keys, never answers.

/// A dedup key: the 128-bit state fingerprint followed by the sleep set,
/// the preemption-bound word, and the oracle order-witness context (see
/// `explorer.rs` for the semantics of each word). Ordered
/// fingerprint-first.
pub type Key = (u128, u64, u64, u64);

/// Logical size of a key in bytes (16 + 3 × 8).
pub const KEY_BYTES: usize = 40;

/// Keys per encoded block. Each block decodes independently from its fence.
pub const KEYS_PER_BLOCK: usize = 256;

pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn push_varint128(out: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = buf[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Decodes a [`push_varint128`] value. Groups accumulate nine at a time
/// (63 bits) in a `u64` and only then merge into the `u128`: three chunks
/// cover all 19 groups of a full-width value, and the wide shifts run
/// once per chunk instead of once per byte.
fn read_varint128(buf: &[u8], pos: &mut usize) -> u128 {
    let mut v = 0u128;
    let mut shift = 0u32;
    loop {
        let mut acc = 0u64;
        for group in 0..9 {
            let b = buf[*pos];
            *pos += 1;
            acc |= u64::from(b & 0x7f) << (7 * group);
            if b < 0x80 {
                return v | u128::from(acc) << shift;
            }
        }
        v |= u128::from(acc) << shift;
        shift += 63;
    }
}

/// In-memory index entry for one encoded block: its first key (absolute)
/// and the block's byte extent within the run.
#[derive(Clone, Debug)]
pub struct Fence {
    /// First key of the block (also the block's decode seed).
    pub first: Key,
    /// Byte offset of the block within the run stream.
    pub offset: u64,
    /// Encoded length of the block in bytes.
    pub len: u32,
    /// Number of keys in the block (≤ [`KEYS_PER_BLOCK`]).
    pub count: u32,
}

/// Streaming encoder: push strictly ascending keys, drain encoded bytes at
/// any point (the fences carry absolute offsets, so a run can be written to
/// a file incrementally without buffering the whole stream).
pub struct RunEncoder {
    buf: Vec<u8>,
    drained: u64,
    fences: Vec<Fence>,
    count: u64,
    in_block: u32,
    block_offset: u64,
    prev: Key,
    last: Option<Key>,
}

impl Default for RunEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RunEncoder {
    /// A fresh encoder with no keys.
    #[must_use]
    pub fn new() -> Self {
        RunEncoder {
            buf: Vec::new(),
            drained: 0,
            fences: Vec::new(),
            count: 0,
            in_block: 0,
            block_offset: 0,
            prev: (0, 0, 0, 0),
            last: None,
        }
    }

    fn abs_offset(&self) -> u64 {
        self.drained + self.buf.len() as u64
    }

    fn end_block(&mut self) {
        if self.in_block == 0 {
            return;
        }
        let len = (self.abs_offset() - self.block_offset) as u32;
        let f = self.fences.last_mut().expect("open block has a fence");
        f.len = len;
        f.count = self.in_block;
        self.in_block = 0;
    }

    /// Appends `key`, which must be strictly greater than every key pushed
    /// so far.
    pub fn push(&mut self, key: Key) {
        assert!(
            self.last.is_none_or(|l| l < key),
            "run keys must be strictly ascending"
        );
        if self.in_block as usize == KEYS_PER_BLOCK {
            self.end_block();
        }
        if self.in_block == 0 {
            self.block_offset = self.abs_offset();
            self.fences.push(Fence {
                first: key,
                offset: self.block_offset,
                len: 0,
                count: 0,
            });
            push_varint128(&mut self.buf, key.0);
            push_varint(&mut self.buf, key.1);
            push_varint(&mut self.buf, key.2);
            push_varint(&mut self.buf, key.3);
        } else {
            push_varint128(&mut self.buf, key.0 - self.prev.0);
            push_varint(&mut self.buf, key.1 ^ self.prev.1);
            push_varint(&mut self.buf, key.2 ^ self.prev.2);
            push_varint(&mut self.buf, key.3 ^ self.prev.3);
        }
        self.prev = key;
        self.last = Some(key);
        self.in_block += 1;
        self.count += 1;
    }

    /// Takes the encoded bytes accumulated since the last drain (for
    /// incremental file writes). Fence offsets remain valid: they are
    /// absolute within the concatenation of every drained chunk.
    pub fn drain(&mut self) -> Vec<u8> {
        self.drained += self.buf.len() as u64;
        std::mem::take(&mut self.buf)
    }

    /// Bytes currently buffered (not yet drained).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Closes the final block and returns `(remaining bytes, fences, key
    /// count, total encoded bytes)`.
    #[must_use]
    pub fn finish(mut self) -> (Vec<u8>, Vec<Fence>, u64, u64) {
        self.end_block();
        let total = self.abs_offset();
        (self.buf, self.fences, self.count, total)
    }
}

/// Decodes the block starting at `block` (its fence said it holds `count`
/// keys) and appends the keys to `out`.
pub fn decode_block_into(block: &[u8], count: u32, out: &mut Vec<Key>) {
    let mut pos = 0usize;
    let mut prev: Key = (
        read_varint128(block, &mut pos),
        read_varint(block, &mut pos),
        read_varint(block, &mut pos),
        read_varint(block, &mut pos),
    );
    out.push(prev);
    for _ in 1..count {
        prev = (
            prev.0 + read_varint128(block, &mut pos),
            prev.1 ^ read_varint(block, &mut pos),
            prev.2 ^ read_varint(block, &mut pos),
            prev.3 ^ read_varint(block, &mut pos),
        );
        out.push(prev);
    }
}

/// Whether `key` occurs in the encoded block. Scans in sorted order with
/// early exit (fingerprints are non-decreasing within a block).
#[must_use]
pub fn block_contains(block: &[u8], count: u32, key: &Key) -> bool {
    let mut pos = 0usize;
    let mut prev: Key = (
        read_varint128(block, &mut pos),
        read_varint(block, &mut pos),
        read_varint(block, &mut pos),
        read_varint(block, &mut pos),
    );
    if prev == *key {
        return true;
    }
    for _ in 1..count {
        prev = (
            prev.0 + read_varint128(block, &mut pos),
            prev.1 ^ read_varint(block, &mut pos),
            prev.2 ^ read_varint(block, &mut pos),
            prev.3 ^ read_varint(block, &mut pos),
        );
        if prev == *key {
            return true;
        }
        if prev > *key {
            return false;
        }
    }
    false
}

/// Index of the fence whose block could contain `key` (the last fence with
/// `first <= key`), or `None` when `key` sorts before the whole run.
#[must_use]
pub fn fence_for(fences: &[Fence], key: &Key) -> Option<usize> {
    let idx = fences.partition_point(|f| f.first <= *key);
    idx.checked_sub(1)
}

// ------------------------------------------------------------ prefilter ----

/// The murmur3 64-bit finalizer: a bijective avalanche mix.
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Four-probe Bloom-style membership prefilter over the whole [`Key`]. No
/// false negatives: a clear probe proves absence, so most absent-key
/// lookups never touch the fences or the backing bytes. False positives
/// only cost a (still exact) block probe. Hashing the trailing words too
/// matters: one state is commonly reached under several sleep sets, and a
/// fingerprint-only filter would pass every such sibling key.
#[derive(Clone, Debug)]
pub struct Prefilter {
    bits: Vec<u64>,
    mask: u64,
}

impl Prefilter {
    /// A filter sized for about `n` keys (~8 bits per key, rounded up to a
    /// power of two, at least 512 bits).
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let bits = (n.max(64) * 8).next_power_of_two();
        Prefilter {
            bits: vec![0u64; bits / 64],
            mask: (bits - 1) as u64,
        }
    }

    fn probes(&self, key: &Key) -> [u64; 4] {
        // The fingerprint halves are already polynomial-hash output; the
        // low-entropy trailing words are spread by odd multipliers before
        // one finalizer per half. Double hashing (h1 + i·h2, h2 odd)
        // derives the four bit positions.
        let (fp, sleep, bound, ctx) = *key;
        let h1 = fmix64(fp as u64 ^ sleep.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let h2 = fmix64(
            (fp >> 64) as u64
                ^ bound.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ ctx.wrapping_mul(0x1656_67B1_9E37_79F9),
        ) | 1;
        [0u64, 1, 2, 3].map(|i| h1.wrapping_add(i.wrapping_mul(h2)) & self.mask)
    }

    /// Marks `key` present.
    pub fn insert(&mut self, key: &Key) {
        for bit in self.probes(key) {
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// `false` proves `key` was never inserted; `true` means "probe the
    /// run".
    #[must_use]
    pub fn maybe_contains(&self, key: &Key) -> bool {
        self.probes(key)
            .iter()
            .all(|&bit| self.bits[(bit / 64) as usize] >> (bit % 64) & 1 == 1)
    }

    /// Resident size of the bit array in bytes.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

// ------------------------------------------------- in-memory key set ----

/// An immutable, delta-compressed sorted key set held in memory: the same
/// block encoding as a disk run, fronted by the same fences and prefilter.
/// Used as the shared cross-bound *base* tier of [`crate::store::CarryStore`]
/// (many workers probe one `Arc`'d set concurrently).
pub struct CompressedKeySet {
    bytes: Vec<u8>,
    fences: Vec<Fence>,
    filter: Prefilter,
    count: u64,
}

impl CompressedKeySet {
    /// Builds the set from strictly ascending `keys`.
    #[must_use]
    pub fn from_sorted(keys: &[Key]) -> Self {
        let mut enc = RunEncoder::new();
        let mut filter = Prefilter::with_capacity(keys.len());
        for &k in keys {
            enc.push(k);
            filter.insert(&k);
        }
        let (bytes, fences, count, total) = enc.finish();
        debug_assert_eq!(bytes.len() as u64, total, "nothing drained");
        CompressedKeySet {
            bytes,
            fences,
            filter,
            count,
        }
    }

    /// Number of keys in the set.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact membership.
    #[must_use]
    pub fn contains(&self, key: &Key) -> bool {
        if !self.filter.maybe_contains(key) {
            return false;
        }
        let Some(fi) = fence_for(&self.fences, key) else {
            return false;
        };
        let f = &self.fences[fi];
        let start = f.offset as usize;
        block_contains(&self.bytes[start..start + f.len as usize], f.count, key)
    }

    /// Decodes every key, in ascending order, into `out`.
    pub fn decode_into(&self, out: &mut Vec<Key>) {
        for f in &self.fences {
            let start = f.offset as usize;
            decode_block_into(&self.bytes[start..start + f.len as usize], f.count, out);
        }
    }

    /// Resident size in bytes (encoded stream + fences + prefilter).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.bytes.len()
            + self.fences.len() * std::mem::size_of::<Fence>()
            + self.filter.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64, stride: u128) -> Vec<Key> {
        (0..n)
            .map(|i| {
                (
                    u128::from(i) * stride + 7,
                    i % 5,
                    (i / 3) % 4,
                    i.wrapping_mul(0x9E37),
                )
            })
            .collect()
    }

    #[test]
    fn varints_round_trip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0u128, 127, 128, u128::from(u64::MAX) + 1, u128::MAX] {
            buf.clear();
            push_varint128(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint128(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn encode_decode_round_trips_across_block_boundaries() {
        for n in [0u64, 1, 2, 255, 256, 257, 1000] {
            let ks = keys(n, 1 << 64);
            let set = CompressedKeySet::from_sorted(&ks);
            let mut out = Vec::new();
            set.decode_into(&mut out);
            assert_eq!(out, ks, "n={n}");
        }
    }

    #[test]
    fn membership_is_exact() {
        let ks = keys(700, 3);
        let set = CompressedKeySet::from_sorted(&ks);
        for k in &ks {
            assert!(set.contains(k));
        }
        for k in &ks {
            let absent = (k.0, k.1, k.2, k.3 ^ 1);
            assert!(!set.contains(&absent));
            let absent = (k.0 + 1, k.1, k.2, k.3);
            if ks.binary_search(&absent).is_err() {
                assert!(!set.contains(&absent));
            }
        }
        assert!(!set.contains(&(0, 0, 0, 0)), "before-the-run probe");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn encoder_rejects_unsorted_input() {
        let mut enc = RunEncoder::new();
        enc.push((5, 0, 0, 0));
        enc.push((4, 0, 0, 0));
    }
}
