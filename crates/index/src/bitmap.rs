//! Record-id bitmaps, per-value bitmap indexes and dense-key flag tables.
//!
//! Used in three places in the study:
//!
//! * the row engine's **"traditional (bitmap)"** configuration (Figure 6,
//!   `T(B)`), where plans are biased toward bitmap-index access paths, and
//!   per-predicate rid bitmaps are merged with bitwise AND;
//! * position-list representations in the column engine (Section 5.2
//!   describes "a bit string where a 1 in the ith bit indicates that the ith
//!   value passed the predicate"); `cvr-core` reuses [`RidBitmap`] for that;
//! * join probes over reassigned (dense) dimension keys, where membership is
//!   one flag per dimension row ([`KeyBits`]).

use cvr_storage::io::{pages_for, FileId, IoSession, PageId, PAGE_SIZE};

/// A fixed-universe bitset over record ids `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RidBitmap {
    words: Vec<u64>,
    len: u32,
}

impl RidBitmap {
    /// Empty bitmap over a universe of `len` rids.
    pub fn new(len: u32) -> RidBitmap {
        RidBitmap { words: vec![0; (len as usize).div_ceil(64)], len }
    }

    /// Bitmap with every rid set.
    pub fn full(len: u32) -> RidBitmap {
        let mut b = RidBitmap::new(len);
        for (i, w) in b.words.iter_mut().enumerate() {
            let base = (i * 64) as u32;
            let bits = (len.saturating_sub(base)).min(64);
            *w = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        }
        b
    }

    /// Universe size.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set `rid`.
    #[inline]
    pub fn set(&mut self, rid: u32) {
        debug_assert!(rid < self.len);
        self.words[(rid / 64) as usize] |= 1u64 << (rid % 64);
    }

    /// Test `rid`.
    #[inline]
    pub fn get(&self, rid: u32) -> bool {
        self.words[(rid / 64) as usize] & (1u64 << (rid % 64)) != 0
    }

    /// OR a whole 64-rid word into the bitmap — the bulk path scan kernels
    /// use to land 64 predicate results at once. `word` indexes rids
    /// `[word·64, word·64 + 64)`; bits beyond the universe must be zero.
    #[inline]
    pub fn or_word(&mut self, word: usize, bits: u64) {
        debug_assert!(
            bits == 0 || word as u64 * 64 + (64 - bits.leading_zeros() as u64) <= self.len as u64,
            "mask bits beyond the rid universe"
        );
        self.words[word] |= bits;
    }

    /// OR a 64-bit mask anchored at an arbitrary rid `base`: bit `j` of
    /// `mask` sets rid `base + j`. Splits across at most two words; aligned
    /// bases take the single-word fast path.
    #[inline]
    pub fn or_mask_at(&mut self, base: u32, mask: u64) {
        if mask == 0 {
            return;
        }
        let word = (base / 64) as usize;
        let off = base % 64;
        if off == 0 {
            self.or_word(word, mask);
        } else {
            self.or_word(word, mask << off);
            let hi = mask >> (64 - off);
            if hi != 0 {
                self.or_word(word + 1, hi);
            }
        }
    }

    /// Set every rid in `[start, end)`, whole words at a time.
    pub fn set_range(&mut self, start: u32, end: u32) {
        debug_assert!(end <= self.len);
        if start >= end {
            return;
        }
        let (first, last) = ((start / 64) as usize, ((end - 1) / 64) as usize);
        let lo_bits = u64::MAX << (start % 64);
        let hi_bits = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            self.words[first] |= lo_bits & hi_bits;
            return;
        }
        self.words[first] |= lo_bits;
        for w in &mut self.words[first + 1..last] {
            *w = u64::MAX;
        }
        self.words[last] |= hi_bits;
    }

    /// OR a span of mask words starting at word index `start_word` — the
    /// bulk ingestion path for kernel-produced selection masks.
    pub fn extend_from_words(&mut self, start_word: usize, masks: &[u64]) {
        for (i, &m) in masks.iter().enumerate() {
            if m != 0 {
                self.or_word(start_word + i, m);
            }
        }
    }

    /// The backing words, 64 rids each (LSB first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// In-place intersection (`self &= other`).
    pub fn and_with(&mut self, other: &RidBitmap) {
        assert_eq!(self.len, other.len, "bitmap universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union (`self |= other`).
    pub fn or_with(&mut self, other: &RidBitmap) {
        assert_eq!(self.len, other.len, "bitmap universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Iterate set rids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = (i * 64) as u32;
            BitIter { word: w, base }
        })
    }

    /// Collect set rids into a vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.count() as usize);
        v.extend(self.iter());
        v
    }

    /// Build from sorted-or-not rid list.
    pub fn from_rids(len: u32, rids: impl IntoIterator<Item = u32>) -> RidBitmap {
        let mut b = RidBitmap::new(len);
        for r in rids {
            b.set(r);
        }
        b
    }

    /// Bytes of the raw bitmap (uncompressed).
    pub fn bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

/// Key membership over a dense key domain `0..domain`: one flag per key.
///
/// Section 5.4.1 reassigns dimension keys so that a key *is* its row's
/// position, which turns the join probe into "a fast array look-up": a
/// foreign key is a member iff its flag is set, and the dimension position it
/// joins to is the key itself. The probe structure for every dimension whose
/// keys are dense; non-dense keys (DATE's `yyyymmdd`) stay on
/// [`crate::hashidx`].
///
/// A flag is a whole byte, not a bit: the probe is then one bounds-checked
/// load with no shift or mask behind it, and a scan kernel that looks 64
/// foreign keys up back to back runs at 0.5 ns a key where the bit test ran
/// at 0.8. The price is one byte per dimension row — 6 KB for CUSTOMER at
/// sf 0.2 — zeroed per query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBits {
    flags: Box<[u8]>,
}

impl KeyBits {
    /// The set of `keys` over the domain `0..domain`. Panics on a key
    /// outside the domain — a dense dimension has none.
    pub fn from_keys(domain: u32, keys: impl IntoIterator<Item = i64>) -> KeyBits {
        let mut flags = vec![0u8; domain as usize].into_boxed_slice();
        for k in keys {
            assert!((k as u64) < domain as u64, "key {k} outside the dense domain 0..{domain}");
            flags[k as usize] = 1;
        }
        KeyBits { flags }
    }

    /// Membership probe — the dense-key join hot path. Keys outside the
    /// domain (negative included) are simply absent.
    #[inline]
    pub fn contains(&self, key: i64) -> bool {
        self.flags.get(key as usize).is_some_and(|&f| f != 0)
    }

    /// Number of member keys.
    pub fn len(&self) -> usize {
        self.flags.iter().filter(|&&f| f != 0).count()
    }

    /// True when no key is a member.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

/// A bitmap index: one rid bitmap per distinct value of an integer column
/// (string columns are indexed through their dictionary codes).
#[derive(Debug)]
pub struct BitmapIndex {
    /// Sorted distinct values.
    values: Vec<i64>,
    /// `bitmaps[i]` holds the rids where the column equals `values[i]`.
    bitmaps: Vec<RidBitmap>,
    file: FileId,
    rows: u32,
}

impl BitmapIndex {
    /// Build over an integer column.
    pub fn build(column: &[i64]) -> BitmapIndex {
        let mut values: Vec<i64> = column.to_vec();
        values.sort_unstable();
        values.dedup();
        let rows = column.len() as u32;
        let mut bitmaps: Vec<RidBitmap> = values.iter().map(|_| RidBitmap::new(rows)).collect();
        for (rid, v) in column.iter().enumerate() {
            let idx = values.binary_search(v).unwrap();
            bitmaps[idx].set(rid as u32);
        }
        BitmapIndex { values, bitmaps, file: FileId::fresh(), rows }
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// Total on-disk bytes of all bitmaps.
    pub fn bytes(&self) -> u64 {
        self.bitmaps.iter().map(RidBitmap::bytes).sum()
    }

    /// Rids matching `pred` over the indexed values, OR-ing the per-value
    /// bitmaps that satisfy it. Charges the pages of each bitmap read.
    pub fn select(&self, pred: impl Fn(i64) -> bool, io: &IoSession) -> RidBitmap {
        let mut out = RidBitmap::new(self.rows);
        let mut page_cursor = 0u32;
        for (i, v) in self.values.iter().enumerate() {
            let bm_pages = pages_for(self.bitmaps[i].bytes());
            if pred(*v) {
                for p in 0..bm_pages {
                    io.read_page(
                        PageId { file: self.file, page: page_cursor + p },
                        PAGE_SIZE.min(self.bitmaps[i].bytes()),
                    );
                }
                out.or_with(&self.bitmaps[i]);
            }
            page_cursor += bm_pages;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = RidBitmap::new(200);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(199);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(199));
        assert!(!b.get(1) && !b.get(100));
        assert_eq!(b.count(), 4);
        assert_eq!(b.to_vec(), vec![0, 63, 64, 199]);
    }

    #[test]
    fn bulk_word_paths_match_per_bit_sets() {
        // set_range vs per-bit set, across word boundaries.
        for (start, end) in [(0u32, 0u32), (3, 3), (0, 64), (5, 64), (63, 65), (10, 200), (64, 128)]
        {
            let mut bulk = RidBitmap::new(200);
            bulk.set_range(start, end);
            let mut bits = RidBitmap::new(200);
            for p in start..end {
                bits.set(p);
            }
            assert_eq!(bulk, bits, "set_range({start}, {end})");
        }
        // or_mask_at at aligned and unaligned bases.
        for base in [0u32, 64, 7, 63] {
            let mask = 0b1011u64 | (1 << 40);
            let mut bulk = RidBitmap::new(200);
            bulk.or_mask_at(base, mask);
            let mut bits = RidBitmap::new(200);
            for j in 0..64u32 {
                if mask & (1 << j) != 0 {
                    bits.set(base + j);
                }
            }
            assert_eq!(bulk, bits, "or_mask_at({base})");
        }
        // extend_from_words lands whole mask words.
        let mut bulk = RidBitmap::new(256);
        bulk.extend_from_words(1, &[u64::MAX, 0, 1]);
        assert_eq!(bulk.count(), 65);
        assert!(bulk.get(64) && bulk.get(127) && bulk.get(192));
        assert_eq!(bulk.words()[0], 0);
    }

    #[test]
    fn and_or_semantics() {
        let a = RidBitmap::from_rids(100, [1u32, 2, 3, 50]);
        let b = RidBitmap::from_rids(100, [2u32, 3, 4, 99]);
        let mut and = a.clone();
        and.and_with(&b);
        assert_eq!(and.to_vec(), vec![2, 3]);
        let mut or = a.clone();
        or.or_with(&b);
        assert_eq!(or.to_vec(), vec![1, 2, 3, 4, 50, 99]);
    }

    #[test]
    fn full_bitmap() {
        let b = RidBitmap::full(130);
        assert_eq!(b.count(), 130);
        assert!(b.get(129));
        let empty = RidBitmap::full(0);
        assert_eq!(empty.count(), 0);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universes_panic() {
        let mut a = RidBitmap::new(10);
        a.and_with(&RidBitmap::new(20));
    }

    #[test]
    fn key_bits_membership() {
        let keys = KeyBits::from_keys(130, [0i64, 64, 129]);
        assert_eq!(keys.len(), 3);
        for k in -2i64..140 {
            assert_eq!(keys.contains(k), matches!(k, 0 | 64 | 129), "key {k}");
        }
        assert!(!keys.contains(i64::MIN) && !keys.contains(i64::MAX));
        assert!(KeyBits::from_keys(0, []).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the dense domain")]
    fn key_bits_reject_keys_outside_the_domain() {
        KeyBits::from_keys(10, [10i64]);
    }

    #[test]
    fn bitmap_index_select() {
        // Column with values 0..4 cycling over 1000 rows.
        let col: Vec<i64> = (0..1000).map(|i| i % 5).collect();
        let idx = BitmapIndex::build(&col);
        assert_eq!(idx.cardinality(), 5);
        let io = IoSession::unmetered();
        let sel = idx.select(|v| v == 2 || v == 4, &io);
        assert_eq!(sel.count(), 400);
        for rid in sel.iter() {
            assert!(col[rid as usize] == 2 || col[rid as usize] == 4);
        }
        // Reading 2 of 5 bitmaps charges fewer bytes than all 5.
        assert!(io.stats().pages_read >= 2);
    }

    #[test]
    fn bitmap_index_empty_selection() {
        let col: Vec<i64> = (0..100).collect();
        let idx = BitmapIndex::build(&col);
        let io = IoSession::unmetered();
        assert_eq!(idx.select(|_| false, &io).count(), 0);
        assert_eq!(io.stats().pages_read, 0);
    }

    #[test]
    fn bitmap_bytes_scale_with_cardinality() {
        let low: Vec<i64> = (0..10_000).map(|i| i % 2).collect();
        let high: Vec<i64> = (0..10_000).map(|i| i % 100).collect();
        assert!(BitmapIndex::build(&high).bytes() > BitmapIndex::build(&low).bytes());
    }
}
