//! Property tests for the word-parallel scan kernels: every kernel must be
//! position-for-position equivalent to its scalar loop — across random
//! value widths, predicates, selectivities, and universes that straddle the
//! 64-value mask-word boundary (63/64/65) — and the bulk accumulator paths
//! must finish to the same representation-level verdicts as per-position
//! pushes.

use cvr_core::kernels::{self, scalar, CmpOp};
use cvr_core::scan::{
    scan_int, scan_int_where, scan_pred, scan_str_pred, IntScanPred, PosAccumulator,
};
use cvr_data::queries::Pred;
use cvr_data::value::Value;
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, IntColumn, StrColumn};
use cvr_storage::io::IoSession;
use cvr_storage::packed::PackedInts;
use proptest::prelude::*;

/// Lengths that straddle mask-word and packed-word boundaries.
fn boundary_len() -> impl Strategy<Value = usize> {
    (0usize..10).prop_map(|i| [1usize, 9, 63, 64, 65, 127, 128, 129, 200, 321][i])
}

/// A packed array of `len` codes at `value_bits`, deterministic in `seed`.
fn packed_codes(value_bits: u8, len: usize, seed: u64) -> (Vec<u64>, PackedInts) {
    let max = (1u64 << value_bits) - 1;
    let codes: Vec<u64> = (0..len as u64)
        .map(|i| seed.wrapping_mul(i.wrapping_add(1)).wrapping_mul(2_654_435_761) % (max + 1))
        .collect();
    let p = PackedInts::pack(value_bits, codes.iter().copied());
    (codes, p)
}

proptest! {
    #[test]
    fn packed_cmp_kernel_matches_scalar(
        value_bits in 1u8..25,
        len in boundary_len(),
        seed in any::<u64>(),
        op_kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let max = (1u64 << value_bits) - 1;
        let (_, p) = packed_codes(value_bits, len, seed);
        // Predicate constants biased into (and slightly beyond) the code
        // domain so every selectivity regime appears.
        let (a, b) = (a % (max + 2), b % (max + 2));
        let op = match op_kind {
            0 => CmpOp::Eq(a),
            1 => CmpOp::Le(a),
            2 => CmpOp::Lt(a),
            _ => CmpOp::Range(a.min(b), a.max(b)),
        };
        let (start, end) = (seed as u32 % len as u32, len as u32);
        let mut got = Vec::new();
        kernels::packed_cmp_masks(&p, start, end, op, |base, mut m| {
            while m != 0 {
                got.push(base + m.trailing_zeros());
                m &= m - 1;
            }
        });
        prop_assert_eq!(got, scalar::packed_cmp_positions(&p, start, end, op));
    }

    #[test]
    fn packed_test_kernel_matches_scalar(
        value_bits in 1u8..25,
        len in boundary_len(),
        seed in any::<u64>(),
        modulus in 2u64..7,
    ) {
        let (_, p) = packed_codes(value_bits, len, seed);
        let test = |c: u64| c % modulus == 0;
        let start = seed as u32 % len as u32;
        let mut got = Vec::new();
        kernels::packed_test_masks(&p, start, len as u32, test, |base, mut m| {
            while m != 0 {
                got.push(base + m.trailing_zeros());
                m &= m - 1;
            }
        });
        prop_assert_eq!(got, scalar::packed_test_positions(&p, start, len as u32, test));
    }

    #[test]
    fn slice_cmp_kernel_matches_scalar(
        values in prop::collection::vec(-1000i64..1000, 1..200),
        lo in -1100i64..1100,
        span in 0i64..500,
    ) {
        let hi = lo + span;
        let mut got = Vec::new();
        kernels::slice_cmp_masks(&values, 7, lo, hi, |base, mut m| {
            while m != 0 {
                got.push(base + m.trailing_zeros());
                m &= m - 1;
            }
        });
        prop_assert_eq!(got, scalar::slice_cmp_positions(&values, 7, lo, hi));
    }

    #[test]
    fn packed_column_scan_matches_plain_column_scan(
        reference in -5000i64..5000,
        deltas in prop::collection::vec(0i64..3000, 1..300),
        lo in -6000i64..9000,
        span in 0i64..4000,
        block in any::<bool>(),
    ) {
        // The full scan path: a packed column and a plain column holding
        // the same values must produce identical PosLists for interval and
        // opaque predicates, under both iteration interfaces.
        let values: Vec<i64> = deltas.iter().map(|&d| reference + d).collect();
        let packed = StoredColumn::new(
            "p",
            Column::Int(IntColumn::packed(&values).expect("small deltas pack")),
        );
        let plain = StoredColumn::new("q", Column::Int(IntColumn::plain(values.clone())));
        let io = IoSession::unmetered();
        let hi = lo + span;
        let range = IntScanPred::Range { lo, hi };
        prop_assert_eq!(
            scan_int(&packed, packed.positions(), &range, block, &io).to_vec(),
            scan_int(&plain, plain.positions(), &range, block, &io).to_vec()
        );
        let test = |v: i64| v % 5 == 0;
        prop_assert_eq!(
            scan_int_where(&packed, packed.positions(), test, block, &io).to_vec(),
            scan_int_where(&plain, plain.positions(), test, block, &io).to_vec()
        );
        // Morsel fragments tile to the full scan.
        let n = values.len() as u32;
        let cut = n / 3;
        let mut tiled = scan_int(&packed, 0..cut, &range, block, &io).to_vec();
        tiled.extend(scan_int(&packed, cut..n, &range, block, &io).iter());
        prop_assert_eq!(tiled, scan_int(&packed, packed.positions(), &range, block, &io).to_vec());
    }

    #[test]
    fn dict_scan_matches_plain_string_scan(
        cardinality in 1usize..40,
        len in boundary_len(),
        seed in any::<u64>(),
        pred_kind in 0u8..3,
        a in 0usize..45,
        b in 0usize..45,
    ) {
        let values: Vec<String> = (0..len as u64)
            .map(|i| format!("V{:02}", seed.wrapping_mul(i.wrapping_add(3)) % cardinality as u64))
            .collect();
        let name = |i: usize| format!("V{:02}", i % cardinality);
        let pred = match pred_kind {
            // Contiguous in the sorted dictionary → range-kernel path.
            0 => Pred::Between(Value::str(name(a.min(b)).as_str()), Value::str(name(a.max(b)).as_str())),
            1 => Pred::Eq(Value::str(name(a).as_str())),
            // Possibly disjoint → table path.
            _ => Pred::InSet(vec![Value::str(name(a).as_str()), Value::str(name(b).as_str())]),
        };
        let dict = StoredColumn::new("d", Column::Str(StrColumn::dict(&values)));
        let plain = StoredColumn::new("s", Column::Str(StrColumn::plain(values)));
        let io = IoSession::unmetered();
        for block in [true, false] {
            prop_assert_eq!(
                scan_str_pred(&dict, dict.positions(), &pred, block, &io).to_vec(),
                scan_str_pred(&plain, plain.positions(), &pred, block, &io).to_vec()
            );
        }
    }

    #[test]
    fn int_pred_compilation_preserves_semantics(
        values in prop::collection::vec(-300i64..300, 1..200),
        pred_kind in 0u8..4,
        a in -350i64..350,
        b in -350i64..350,
        c in -350i64..350,
    ) {
        // scan_pred (which compiles Eq/Between/Lt/InSet to intervals when
        // possible) must agree with the uncompiled matches_int closure.
        let pred = match pred_kind {
            0 => Pred::Eq(Value::Int(a)),
            1 => Pred::Between(Value::Int(a.min(b)), Value::Int(a.max(b))),
            2 => Pred::Lt(Value::Int(a)),
            _ => Pred::InSet(vec![Value::Int(a), Value::Int(b), Value::Int(c)]),
        };
        for compress in [true, false] {
            let col = StoredColumn::new(
                "c",
                Column::Int(if compress {
                    IntColumn::auto(values.clone())
                } else {
                    IntColumn::plain(values.clone())
                }),
            );
            let io = IoSession::unmetered();
            for block in [true, false] {
                prop_assert_eq!(
                    scan_pred(&col, col.positions(), &pred, block, &io).to_vec(),
                    scan_int_where(&col, col.positions(), |v| pred.matches_int(v), block, &io).to_vec(),
                    "compress={} block={}", compress, block
                );
            }
        }
    }

    #[test]
    fn accumulator_masks_equal_per_position_pushes(
        universe_sel in 0usize..3,
        masks in prop::collection::vec(any::<u64>(), 1..6),
        offset in 0u32..64,
    ) {
        // Feed the same positions through push_mask and through per-bit
        // push; the finished PosLists must be identical in content AND
        // contiguity verdict, at universes straddling word boundaries.
        let universe = [383u32, 384, 449][universe_sel];
        let mut bulk = PosAccumulator::new(0..universe);
        let mut bits = PosAccumulator::new(0..universe);
        for (k, &mask) in masks.iter().enumerate() {
            let base = offset + k as u32 * 64;
            if base + 64 > universe {
                break;
            }
            bulk.push_mask(base, mask);
            for j in 0..64 {
                if mask & (1u64 << j) != 0 {
                    bits.push(base + j);
                }
            }
        }
        let (a, b) = (bulk.finish(), bits.finish());
        prop_assert_eq!(a.to_vec(), b.to_vec());
        prop_assert_eq!(a.is_contiguous(), b.is_contiguous());
    }

    #[test]
    fn accumulator_ranges_equal_per_position_pushes(
        ranges in prop::collection::vec((0u32..500, 0u32..80), 1..8),
    ) {
        // Ascending, possibly-adjacent ranges through the O(words) bulk
        // path vs per-position pushes.
        let mut sorted: Vec<(u32, u32)> =
            ranges.iter().map(|&(s, l)| (s, (s + l).min(500))).collect();
        sorted.sort_unstable();
        let mut bulk = PosAccumulator::new(0..500);
        let mut bits = PosAccumulator::new(0..500);
        let mut cursor = 0u32;
        for (s, e) in sorted {
            let s = s.max(cursor);
            if s >= e {
                continue;
            }
            bulk.push_range(s, e);
            for p in s..e {
                bits.push(p);
            }
            cursor = e;
        }
        let (a, b) = (bulk.finish(), bits.finish());
        prop_assert_eq!(a.to_vec(), b.to_vec());
        prop_assert_eq!(a.is_contiguous(), b.is_contiguous());
    }
}
