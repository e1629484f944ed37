//! Property-style tests for the segment codecs: randomized round trips
//! and an exhaustive corruption sweep, with a hand-rolled deterministic
//! PRNG (the build environment carries no proptest crate).
//!
//! Two invariants, per the durability contract:
//!
//! 1. **Round trip**: `decode_segment(encode_segment(p)) == p` for every
//!    payload the constructors can produce, and re-encoding the decoded
//!    payload reproduces the original image byte for byte (the CRC pins
//!    the physical encoding, so logical equality alone would be too weak).
//! 2. **Corruption is detected, never decoded**: for every truncation
//!    length of a valid image — every length class: inside the magic, the
//!    header, the payload, the CRC — and for sampled single-bit flips at
//!    every byte offset, `decode_segment` returns a typed error. No
//!    corrupted image ever yields a payload.

use cvr_storage::encode::{Column, IntColumn, StrColumn};
use cvr_storage::persist::{decode_segment, encode_segment};

/// splitmix64: deterministic, no state beyond one u64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Random integer data shaped to exercise a specific codec: small domains
/// (dict/packed friendly), runs (RLE friendly), and full-range values
/// (plain at every byte width).
fn int_values(rng: &mut Rng, shape: u64) -> Vec<i64> {
    let n = rng.below(600) as usize;
    match shape % 4 {
        // Long runs over a small domain.
        0 => {
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let v = rng.below(8) as i64;
                let run = (rng.below(40) + 1) as usize;
                out.extend(std::iter::repeat_n(v, run.min(n - out.len())));
            }
            out
        }
        // Narrow range around an arbitrary reference (packed friendly).
        1 => {
            let base = rng.next() as i64 >> 16;
            (0..n).map(|_| base + rng.below(1 << 12) as i64).collect()
        }
        // One byte-width class per round, including negatives.
        2 => {
            let width_bits = [7, 15, 31, 62][rng.below(4) as usize];
            (0..n).map(|_| (rng.next() as i64) >> (63 - width_bits)).collect()
        }
        // Anything.
        _ => (0..n).map(|_| rng.next() as i64).collect(),
    }
}

fn str_values(rng: &mut Rng, shape: u64) -> Vec<String> {
    let n = rng.below(300) as usize;
    let alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ#0123456789";
    let word = |rng: &mut Rng| {
        let len = rng.below(24) as usize;
        (0..len).map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char).collect()
    };
    if shape % 2 == 0 {
        // Small vocabulary, dict friendly.
        let vocab: Vec<String> = (0..rng.below(12) + 1).map(|_| word(rng)).collect();
        (0..n).map(|_| vocab[rng.below(vocab.len() as u64) as usize].clone()).collect()
    } else {
        (0..n).map(|_| word(rng)).collect()
    }
}

/// One payload per round, cycling through every codec the store writes.
fn payload(rng: &mut Rng, round: u64) -> Column {
    match round % 7 {
        0 => Column::Int(IntColumn::plain(int_values(rng, round))),
        1 => Column::Int(IntColumn::plain_fixed(int_values(rng, round))),
        2 => Column::Int(IntColumn::rle(&int_values(rng, 0))),
        3 => {
            let vals = int_values(rng, 1);
            match IntColumn::packed(&vals) {
                Some(c) => Column::Int(c),
                None => Column::Int(IntColumn::plain(vals)),
            }
        }
        4 => Column::Int(IntColumn::auto(int_values(rng, round))),
        5 => Column::Str(StrColumn::plain(str_values(rng, round))),
        _ => Column::Str(StrColumn::dict(&str_values(rng, 0))),
    }
}

#[test]
fn every_codec_round_trips_under_randomized_inputs() {
    let mut rng = Rng(0xC0FF_EE00_2008_0001);
    for round in 0..64 {
        let p = payload(&mut rng, round);
        let image = encode_segment(&p);
        let back = decode_segment(&image)
            .unwrap_or_else(|e| panic!("round {round}: valid image failed to decode: {e}"));
        assert!(back == p, "round {round}: decoded payload differs");
        assert_eq!(encode_segment(&back), image, "round {round}: re-encoding not byte-identical");
    }
}

#[test]
fn every_truncation_length_is_detected() {
    let mut rng = Rng(0xC0FF_EE00_2008_0002);
    for round in 0..12 {
        let image = encode_segment(&payload(&mut rng, round));
        // Every proper prefix — covers every length class: empty, inside
        // the magic, each header field, the payload, and the CRC itself.
        for cut in 0..image.len() {
            assert!(
                decode_segment(&image[..cut]).is_err(),
                "round {round}: truncation to {cut}/{} bytes decoded",
                image.len()
            );
        }
    }
}

#[test]
fn single_bit_flips_are_detected_at_every_byte_offset() {
    let mut rng = Rng(0xC0FF_EE00_2008_0003);
    for round in 0..12 {
        let image = encode_segment(&payload(&mut rng, round));
        for at in 0..image.len() {
            let mut damaged = image.clone();
            damaged[at] ^= 1 << rng.below(8);
            // A flip may strike anywhere — magic, header, payload, CRC —
            // and must always surface as a typed error: the CRC covers
            // every byte before it, and the CRC field itself then
            // mismatches the recomputation.
            assert!(
                decode_segment(&damaged).is_err(),
                "round {round}: bit flip at byte {at}/{} decoded",
                image.len()
            );
        }
    }
}

#[test]
fn multi_bit_and_extension_corruptions_are_detected() {
    let mut rng = Rng(0xC0FF_EE00_2008_0004);
    for round in 0..24 {
        let image = encode_segment(&payload(&mut rng, round));
        // Random multi-bit garbage splices.
        let mut damaged = image.clone();
        let flips = rng.below(8) + 2;
        for _ in 0..flips {
            let at = rng.below(damaged.len() as u64) as usize;
            damaged[at] ^= (rng.next() as u8).max(1);
        }
        if damaged != image {
            assert!(decode_segment(&damaged).is_err(), "round {round}: splice decoded");
        }
        // Trailing garbage after a valid image (a torn write of the *next*
        // file concatenated, or a lying filesystem reporting extra bytes).
        let mut extended = image.clone();
        extended.extend_from_slice(&[0xAB; 7]);
        assert!(decode_segment(&extended).is_err(), "round {round}: extension decoded");
    }
}
