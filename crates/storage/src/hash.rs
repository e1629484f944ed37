//! A small word-at-a-time hasher for build-time maps.
//!
//! `std`'s default SipHash is keyed against hostile input; the maps here —
//! dictionary coding and the planner's catalog counts — hash the store's own
//! values and never expose their iteration order (codes are ranked by sort,
//! frequency tables are sorted), so they use this Fx-style hasher instead:
//! one rotate, xor and multiply per 8-byte word.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (rustc's `FxHasher`).
const SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

/// An Fx-style [`Hasher`]: fast, deterministic, not collision-resistant.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.add(u64::from_le_bytes(w));
        }
        // A tail is read as overlapping loads, never copied at its own
        // length: 4..=7 bytes as their first and last four, 1..=3 as their
        // first, middle and last byte. The length takes the top bits, so
        // trailing zero bytes still count.
        let tail = words.remainder();
        let n = tail.len();
        let word = match n {
            0 => return,
            1..=3 => tail[0] as u64 | (tail[n / 2] as u64) << 8 | (tail[n - 1] as u64) << 16,
            _ => {
                let (head, end) = (&tail[..4], &tail[n - 4..]);
                u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as u64
                    | (u32::from_le_bytes([end[0], end[1], end[2], end[3]]) as u64) << 32
            }
        };
        self.add(word ^ (n as u64) << 61);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits high; the table indexes by
        // the low ones.
        self.hash.rotate_left(26)
    }
}

/// A [`HashMap`] over [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn strings_differing_in_any_byte_or_length_hash_apart() {
        let words = [
            "",
            "a",
            "aaa",
            "ab",
            "ab\0",
            "abcd",
            "abcdbcd",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghi",
            "MAIL",
            "RAIL",
            "REG AIR",
        ];
        let mut hashes: Vec<u64> = words.iter().map(hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), words.len());
        assert_eq!(hash("SHIP"), hash(String::from("SHIP")), "deterministic across types");
    }
}
