//! Truly bit-packed integer arrays: the physical substrate for
//! word-parallel scans.
//!
//! A [`PackedInts`] stores unsigned codes of a fixed bit width `w` inside
//! `u64` words using a **lane-aligned (banked) layout** in the style of
//! BitWeaving/H: each code occupies a lane of `w + 1` bits — `w` value bits
//! plus one always-zero *delimiter* bit at the lane's top — and
//! `⌊64 / (w + 1)⌋` lanes sit side by side in every word. No code ever
//! straddles a word boundary.
//!
//! The delimiter bit is what buys word-parallel predicate evaluation: a
//! single 64-bit subtraction compares every lane of a word at once, with
//! carries confined to their lane and the comparison outcome landing in the
//! delimiter position (see `cvr-core::kernels`). The price is one bit per
//! value plus per-word padding — and that price is charged honestly:
//! [`PackedInts::bytes`] is the size of the actual word image, which is what
//! the I/O model reads. Like a plain column's byte-aligned array
//! (`encode::PlainInts`), the packed image is held in memory at the size it
//! is charged; unlike it, one value costs a shift and a mask to read, which
//! is why plain wins a size tie.
//!
//! Unused tail lanes of the last word are guaranteed zero, so kernels may
//! evaluate whole words and mask the result.

/// Largest supported code width, in bits. A lane is `width + 1` bits, so
/// this keeps at least two lanes per word — the point where packing stops
/// beating 4-byte plain storage anyway.
pub const MAX_VALUE_BITS: u8 = 31;

/// A fixed-width, lane-aligned, bit-packed array of unsigned codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedInts {
    words: Vec<u64>,
    len: u32,
    value_bits: u8,
}

impl PackedInts {
    /// Pack `codes` at `value_bits` bits each. Panics if `value_bits` is 0
    /// or exceeds [`MAX_VALUE_BITS`], or if any code needs more bits.
    pub fn pack(value_bits: u8, codes: impl IntoIterator<Item = u64>) -> PackedInts {
        assert!(
            (1..=MAX_VALUE_BITS).contains(&value_bits),
            "value_bits must be 1..={MAX_VALUE_BITS}, got {value_bits}"
        );
        let lane_bits = value_bits as u32 + 1;
        let lanes = 64 / lane_bits;
        let max = max_code_for(value_bits);
        let codes = codes.into_iter();
        let mut words = Vec::with_capacity(codes.size_hint().0.div_ceil(lanes as usize));
        let mut word = 0u64;
        let mut lane = 0u32;
        let mut len = 0u32;
        for code in codes {
            assert!(code <= max, "code {code} exceeds {value_bits} bits");
            word |= code << (lane * lane_bits);
            lane += 1;
            if lane == lanes {
                words.push(word);
                word = 0;
                lane = 0;
            }
            len += 1;
        }
        if lane > 0 {
            words.push(word);
        }
        PackedInts { words, len, value_bits }
    }

    /// Reassemble a `PackedInts` from a persisted word image, validating
    /// every structural invariant the kernels rely on: `value_bits` in
    /// range, the word count matching `len` exactly, every delimiter bit
    /// zero, and the unused tail lanes of the last word zero. A corrupted
    /// image that happens to pass the file checksum must still never reach
    /// a kernel, so this is the decode-side gate.
    pub fn from_raw_parts(words: Vec<u64>, len: u32, value_bits: u8) -> Result<PackedInts, String> {
        if !(1..=MAX_VALUE_BITS).contains(&value_bits) {
            return Err(format!("packed value_bits {value_bits} out of 1..={MAX_VALUE_BITS}"));
        }
        let lane_bits = value_bits as u32 + 1;
        let lanes = 64 / lane_bits;
        let expect_words = (len as usize).div_ceil(lanes as usize);
        if words.len() != expect_words {
            return Err(format!(
                "packed image has {} words, {len} codes at {value_bits} bits need {expect_words}",
                words.len()
            ));
        }
        // Every lane's delimiter bit must be zero (kernels write comparison
        // outcomes there), including the unused tail lanes.
        let mut delim_mask = 0u64;
        for lane in 0..lanes {
            delim_mask |= 1u64 << (lane * lane_bits + value_bits as u32);
        }
        // ... as must the leftover bits above the last lane (64 mod lane
        // bits), which pack() never writes.
        if lanes * lane_bits < 64 {
            delim_mask |= u64::MAX << (lanes * lane_bits);
        }
        for (i, w) in words.iter().enumerate() {
            if w & delim_mask != 0 {
                return Err(format!("packed word {i} has a set delimiter or padding bit"));
            }
        }
        if let Some(&last) = words.last() {
            let used = len % lanes;
            if used != 0 && last >> (used * lane_bits) != 0 {
                return Err("packed tail lanes past len are not zero".to_string());
            }
        }
        Ok(PackedInts { words, len, value_bits })
    }

    /// Number of codes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per code (`w`).
    pub fn value_bits(&self) -> u8 {
        self.value_bits
    }

    /// Bits per lane (`w + 1`: value bits plus the delimiter bit).
    pub fn lane_bits(&self) -> u8 {
        self.value_bits + 1
    }

    /// Codes per 64-bit word.
    pub fn lanes_per_word(&self) -> u8 {
        (64 / (self.value_bits as u32 + 1)) as u8
    }

    /// Largest code representable at this width.
    pub fn max_code(&self) -> u64 {
        max_code_for(self.value_bits)
    }

    /// The packed word image (kernel input). Unused tail lanes are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size of the packed image in bytes — the honest on-disk footprint.
    pub fn bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// [`PackedInts::bytes`] of `len` codes packed at `value_bits`, without
    /// packing them: how an encoder sizes a candidate before building it.
    pub fn bytes_for(value_bits: u8, len: usize) -> u64 {
        let lanes = 64 / (value_bits as usize + 1);
        len.div_ceil(lanes) as u64 * 8
    }

    /// Code at position `i`.
    #[inline]
    pub fn get(&self, i: u32) -> u64 {
        debug_assert!(i < self.len);
        let lane_bits = self.value_bits as u32 + 1;
        let (lanes, reciprocal) = LANE_DIVISION[self.value_bits as usize];
        // `i / lanes` without a divide instruction — the positional fetch is
        // the unit cost of every candidate test and gather.
        let word = ((i as u128 * reciprocal as u128) >> RECIPROCAL_SHIFT) as u32;
        let lane = i - word * lanes;
        (self.words[word as usize] >> (lane * lane_bits)) & max_code_for(self.value_bits)
    }

    /// Visit the codes of positions `[start, end)` in order, unpacking one
    /// word at a time (the bulk decode path; faster than repeated
    /// [`PackedInts::get`]).
    #[inline]
    pub fn for_each_in(&self, start: u32, end: u32, mut f: impl FnMut(u64)) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let lane_bits = self.value_bits as u32 + 1;
        let lanes = 64 / lane_bits;
        let mask = max_code_for(self.value_bits);
        let mut wi = (start / lanes) as usize;
        let last = ((end - 1) / lanes) as usize;
        let mut lane0 = start % lanes;
        while wi <= last {
            let lane_end = if wi == last { (end - 1) % lanes + 1 } else { lanes };
            let word = self.words[wi] >> (lane0 * lane_bits);
            let mut w = word;
            for _ in lane0..lane_end {
                f(w & mask);
                w >>= lane_bits;
            }
            lane0 = 0;
            wi += 1;
        }
    }

    /// Iterate the codes of positions `[start, end)`.
    pub fn iter_range(&self, start: u32, end: u32) -> PackedIter<'_> {
        let end = end.min(self.len);
        PackedIter { packed: self, pos: start.min(end), end }
    }

    /// Iterate all codes in position order.
    pub fn iter(&self) -> PackedIter<'_> {
        self.iter_range(0, self.len)
    }

    /// Decode every code to a fresh vector.
    pub fn decode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.for_each_in(0, self.len, |c| out.push(c));
        out
    }
}

/// `2^RECIPROCAL_SHIFT` scales the lane-count reciprocals of
/// [`LANE_DIVISION`]: 32 bits of numerator plus 5 ≥ log₂ of the largest lane
/// count (32), which makes the rounded-up reciprocal exact for every `u32`
/// (Granlund & Montgomery, *Division by Invariant Integers using
/// Multiplication*, Theorem 4.2).
const RECIPROCAL_SHIFT: u32 = 37;

/// Per code width: the lanes per word and `⌈2^37 / lanes⌉`, so that
/// `i / lanes == (i · reciprocal) >> 37` for every `u32` position `i`.
const LANE_DIVISION: [(u32, u64); MAX_VALUE_BITS as usize + 1] = {
    let mut table = [(0, 0); MAX_VALUE_BITS as usize + 1];
    let mut value_bits = 1;
    while value_bits <= MAX_VALUE_BITS as usize {
        let lanes = 64 / (value_bits as u64 + 1);
        table[value_bits] = (lanes as u32, (1u64 << RECIPROCAL_SHIFT).div_ceil(lanes));
        value_bits += 1;
    }
    table
};

/// Largest code representable in `value_bits` bits.
#[inline]
pub fn max_code_for(value_bits: u8) -> u64 {
    (1u64 << value_bits) - 1
}

/// Iterator over a range of packed codes.
pub struct PackedIter<'a> {
    packed: &'a PackedInts,
    pos: u32,
    end: u32,
}

impl Iterator for PackedIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.pos >= self.end {
            return None;
        }
        let c = self.packed.get(self.pos);
        self.pos += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.pos) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PackedIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value_bits: u8, codes: &[u64]) {
        let p = PackedInts::pack(value_bits, codes.iter().copied());
        assert_eq!(p.len() as usize, codes.len());
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(p.get(i as u32), c, "get({i}) at w={value_bits}");
        }
        assert_eq!(p.decode(), codes);
        assert_eq!(p.iter().collect::<Vec<_>>(), codes);
    }

    #[test]
    fn pack_round_trips_across_widths_and_boundaries() {
        for w in [1u8, 2, 3, 5, 7, 8, 13, 16, 21, 31] {
            let max = max_code_for(w);
            for n in [0usize, 1, 62, 63, 64, 65, 200] {
                let codes: Vec<u64> =
                    (0..n).map(|i| (i as u64).wrapping_mul(2_654_435_761) % (max + 1)).collect();
                round_trip(w, &codes);
            }
        }
    }

    #[test]
    fn reciprocal_division_is_exact_for_every_lane_count() {
        for (value_bits, &(lanes, reciprocal)) in LANE_DIVISION.iter().enumerate().skip(1) {
            assert_eq!(lanes, 64 / (value_bits as u32 + 1));
            // Multiples of the divisor and their neighbours are where a
            // rounded reciprocal goes wrong first; the top of the range is
            // where the error term is largest.
            let edges = (0..2_000u32).chain((0..2_000).map(|k| u32::MAX - k));
            let multiples = (1..40_000u32).flat_map(|k| {
                let m = (k as u64 * 107_371 * lanes as u64).min(u32::MAX as u64) as u32;
                [m.wrapping_sub(1), m, m.wrapping_add(1)]
            });
            for i in edges.chain(multiples) {
                let got = ((i as u128 * reciprocal as u128) >> RECIPROCAL_SHIFT) as u32;
                assert_eq!(got, i / lanes, "{i} / {lanes}");
            }
        }
    }

    #[test]
    fn bytes_for_predicts_the_packed_image() {
        for bits in [1u8, 3, 7, 15, 20, 31] {
            for len in [0usize, 1, 2, 63, 64, 65, 1000] {
                let packed =
                    PackedInts::pack(bits, (0..len as u64).map(|i| i & max_code_for(bits)));
                assert_eq!(PackedInts::bytes_for(bits, len), packed.bytes(), "{bits} bits, {len}");
            }
        }
    }

    #[test]
    fn geometry_and_bytes() {
        // w=6 → 7-bit lanes → 9 lanes/word.
        let p = PackedInts::pack(6, (0..100u64).map(|i| i % 50));
        assert_eq!(p.lane_bits(), 7);
        assert_eq!(p.lanes_per_word(), 9);
        assert_eq!(p.words().len(), 100usize.div_ceil(9));
        assert_eq!(p.bytes(), p.words().len() as u64 * 8);
        assert_eq!(p.max_code(), 63);
    }

    #[test]
    fn tail_lanes_are_zero() {
        let p = PackedInts::pack(6, (0..10u64).map(|_| 63));
        // 10 codes in 9-lane words: second word has 8 unused lanes.
        let last = *p.words().last().unwrap();
        assert_eq!(last >> 7, 0, "unused tail lanes must stay zero");
    }

    #[test]
    fn for_each_in_matches_get_on_subranges() {
        let codes: Vec<u64> = (0..257u64).map(|i| i % 30).collect();
        let p = PackedInts::pack(5, codes.iter().copied());
        for (start, end) in [(0u32, 257u32), (1, 256), (9, 10), (63, 65), (128, 128), (250, 257)] {
            let mut got = Vec::new();
            p.for_each_in(start, end, |c| got.push(c));
            let want: Vec<u64> = (start..end).map(|i| p.get(i)).collect();
            assert_eq!(got, want, "[{start}, {end})");
        }
    }

    #[test]
    fn from_raw_parts_validates_geometry_and_bits() {
        let p = PackedInts::pack(6, (0..100u64).map(|i| i % 50));
        let rebuilt =
            PackedInts::from_raw_parts(p.words().to_vec(), p.len(), p.value_bits()).unwrap();
        assert_eq!(rebuilt, p);
        // Wrong word count.
        let mut short = p.words().to_vec();
        short.pop();
        assert!(PackedInts::from_raw_parts(short, p.len(), p.value_bits()).is_err());
        // A set delimiter bit.
        let mut delim = p.words().to_vec();
        delim[0] |= 1u64 << 6;
        assert!(PackedInts::from_raw_parts(delim, p.len(), p.value_bits()).is_err());
        // Dirty tail lanes.
        let mut tail = p.words().to_vec();
        *tail.last_mut().unwrap() |= 1u64 << 63;
        assert!(PackedInts::from_raw_parts(tail, p.len(), p.value_bits()).is_err());
        // Out-of-range width.
        assert!(PackedInts::from_raw_parts(vec![], 0, 0).is_err());
        assert!(PackedInts::from_raw_parts(vec![], 0, 32).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overflowing_code_panics() {
        PackedInts::pack(3, [8u64]);
    }

    #[test]
    #[should_panic(expected = "value_bits")]
    fn zero_width_panics() {
        PackedInts::pack(0, [0u64]);
    }
}
