//! Property tests for the word-parallel scan kernels: every kernel must be
//! position-for-position equivalent to its scalar loop — across random
//! value widths, predicates, selectivities, and universes that straddle the
//! 64-value mask-word boundary (63/64/65) — the bulk accumulator paths
//! must finish to the same representation-level verdicts as per-position
//! pushes, refining any candidate list must equal intersecting it with the
//! window scan (positions *and* recorded I/O) — over plain columns of every
//! byte width, under bounds and key domains that do not fit the width — and
//! the dense-key flag table must answer like the hash tables it replaces.

use cvr_core::kernels::{self, scalar, CmpOp};
use cvr_core::poslist::PosList;
use cvr_core::scan::{refine, PosAccumulator, ScanPred};
use cvr_data::queries::Pred;
use cvr_data::value::Value;
use cvr_index::bitmap::{KeyBits, RidBitmap};
use cvr_index::hashidx::{IntHashMap, IntHashSet};
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, IntColumn, PlainInts, StrColumn};
use cvr_storage::io::{BufferPool, IoLog, IoSession};
use cvr_storage::packed::PackedInts;
use proptest::prelude::*;
use std::ops::Range;

/// The plain window scan: every position of `window` is a candidate.
fn scan(
    col: &StoredColumn,
    window: Range<u32>,
    pred: &ScanPred<'_>,
    block: bool,
    io: &IoSession,
) -> PosList {
    refine(col, window.clone(), &PosList::all(window), pred, block, io)
}

/// [`refine`] on a fresh recording session: the survivors and the I/O log.
fn recorded(
    col: &StoredColumn,
    window: &Range<u32>,
    candidates: &PosList,
    pred: &ScanPred<'_>,
    block: bool,
) -> (PosList, IoLog) {
    let io = IoSession::recording(BufferPool::unbounded());
    let out = refine(col, window.clone(), candidates, pred, block, &io);
    (out, io.take_log())
}

/// A cheap deterministic hash of `(seed, i)`.
fn mix(seed: u64, i: u32) -> u64 {
    (seed ^ i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 29
}

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
        if let Some(cmp) = kernels::PackedCmp::new(&p, op) {
            cmp.masks(start, end, |base, mut m| {
                while m != 0 {
                    got.push(base + m.trailing_zeros());
                    m &= m - 1;
                }
            });
        }
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
    fn plain_kernel_matches_scalar_at_every_width(
        raw in prop::collection::vec(any::<u64>(), 1..200),
        lo in -1100i64..70_000,
        span in -5i64..70_000,
    ) {
        // The same values at each width that holds them, under bounds that
        // may be negative, inverted, or past the width's largest value.
        let hi = lo + span;
        let wanted = |v: i64| (lo..=hi).contains(&v);
        fn check<T: kernels::Lane>(
            values: Vec<T>,
            lo: i64,
            hi: i64,
            wanted: impl Fn(i64) -> bool,
        ) -> Result<(), TestCaseError> {
            let mut got = Vec::new();
            if let Some(range) = kernels::RangeTest::<T>::clamped(lo, hi) {
                range.masks(&values, 7, |base, mut m| {
                    while m != 0 {
                        got.push(base + m.trailing_zeros());
                        m &= m - 1;
                    }
                });
            }
            prop_assert_eq!(got, scalar::plain_positions(&values, 7, |v| wanted(v.widen())));
            Ok(())
        }
        check(raw.iter().map(|&r| r as u8).collect(), lo, hi, wanted)?;
        check(raw.iter().map(|&r| r as u16).collect(), lo, hi, wanted)?;
        check(raw.iter().map(|&r| (r % 70_000) as u32).collect(), lo, hi, wanted)?;
        check(raw.iter().map(|&r| (r % 70_000) as i64 - 1_000).collect(), lo, hi, wanted)?;
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
        let range = ScanPred::Range { lo, hi };
        prop_assert_eq!(
            scan(&packed, packed.positions(), &range, block, &io).to_vec(),
            scan(&plain, plain.positions(), &range, block, &io).to_vec()
        );
        let fifth = |v: i64| v % 5 == 0;
        let test = ScanPred::Test(&fifth);
        prop_assert_eq!(
            scan(&packed, packed.positions(), &test, block, &io).to_vec(),
            scan(&plain, plain.positions(), &test, block, &io).to_vec()
        );
        // Morsel fragments tile to the full scan.
        let n = values.len() as u32;
        let cut = n / 3;
        let mut tiled = scan(&packed, 0..cut, &range, block, &io).to_vec();
        tiled.extend(scan(&packed, cut..n, &range, block, &io).iter());
        prop_assert_eq!(tiled, scan(&packed, packed.positions(), &range, block, &io).to_vec());
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
            let pred = ScanPred::Logical(&pred);
            prop_assert_eq!(
                scan(&dict, dict.positions(), &pred, block, &io).to_vec(),
                scan(&plain, plain.positions(), &pred, block, &io).to_vec()
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
        // A logical predicate (which compiles Eq/Between/Lt/InSet to intervals
        // when possible) must agree with the uncompiled matches_int closure.
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
                let by_value = |v: i64| pred.matches_int(v);
                prop_assert_eq!(
                    scan(&col, col.positions(), &ScanPred::Logical(&pred), block, &io).to_vec(),
                    scan(&col, col.positions(), &ScanPred::Test(&by_value), block, &io).to_vec(),
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
    #[test]
    fn refine_equals_candidates_intersected_with_the_window_scan(
        len_sel in 0usize..4,
        start in 0u32..130,
        seed in any::<u64>(),
        density_sel in 0usize..5,
        lo in 0i64..45,
        span in 0i64..20,
    ) {
        // A window of 63/64/65/1000 positions at an unaligned start inside a
        // longer column; clustered values so the RLE column has real runs.
        let len = [63u32, 64, 65, 1000][len_sel];
        let window = start..start + len;
        let n = start + len + 37;
        let values: Vec<i64> = (0..n).map(|i| (mix(seed, i / 5) % 50) as i64).collect();
        let strs: Vec<String> = values.iter().map(|v| format!("V{v:02}")).collect();
        let hi = lo + span;

        // Candidates: a pseudo-random subset at 0/1/5/20/50 % in both sparse
        // representations, a contiguous sub-range, everything, nothing.
        let percent = [0u64, 1, 5, 20, 50][density_sel];
        let keep: Vec<u32> =
            window.clone().filter(|&p| mix(!seed, p) % 100 < percent).collect();
        let candidates = [
            PosList::Explicit { positions: keep.clone(), universe: len },
            PosList::Bitmap {
                base: start,
                bits: RidBitmap::from_rids(len, keep.iter().map(|p| p - start)),
            },
            PosList::Range { start: start + len / 4, end: start + len - len / 3, universe: len },
            PosList::all(window.clone()),
            PosList::empty(len),
        ];

        let keys = KeyBits::from_keys(50, (0..50).filter(|k| k % 3 == 0));
        let seventh = |v: i64| v % 7 == 1;
        let listed = Pred::InSet(vec![Value::Int(lo), Value::Int(lo + 2), Value::Int(hi)]);
        let name = |v: i64| Value::str(format!("V{v:02}").as_str());
        let between = Pred::Between(name(lo), name(hi));
        let either = Pred::InSet(vec![name(lo), name(hi)]);
        // (predicate, its scalar model over the integer behind each value)
        type Model<'a> = Box<dyn Fn(i64) -> bool + 'a>;
        let int_preds: Vec<(ScanPred<'_>, Model<'_>)> = vec![
            (ScanPred::Range { lo, hi }, Box::new(|v| (lo..=hi).contains(&v))),
            (ScanPred::Keys(&keys), Box::new(|v| v % 3 == 0)),
            (ScanPred::Test(&seventh), Box::new(|v| v % 7 == 1)),
            (ScanPred::Logical(&listed), Box::new(|v| v == lo || v == lo + 2 || v == hi)),
        ];
        let str_preds: Vec<(ScanPred<'_>, Model<'_>)> = vec![
            (ScanPred::Logical(&between), Box::new(|v| (lo..=hi).contains(&v))),
            (ScanPred::Logical(&either), Box::new(|v| v == lo || v == hi)),
        ];
        let int_cols = [
            StoredColumn::new("plain", Column::Int(IntColumn::plain(values.clone()))),
            StoredColumn::new("rle", Column::Int(IntColumn::rle(&values))),
            StoredColumn::new("packed", Column::Int(IntColumn::packed(&values).expect("packs"))),
        ];
        let str_cols = [
            StoredColumn::new("dict", Column::Str(StrColumn::dict(&strs))),
            StoredColumn::new("strs", Column::Str(StrColumn::plain(strs.clone()))),
        ];

        let cells = int_cols.iter().map(|c| (c, &int_preds)).chain(str_cols.iter().map(|c| (c, &str_preds)));
        for (col, preds) in cells {
            for (pred, model) in preds {
                let matching: Vec<u32> =
                    window.clone().filter(|&p| model(values[p as usize])).collect();
                for block in [true, false] {
                    let (full, full_log) =
                        recorded(col, &window, &PosList::all(window.clone()), pred, block);
                    prop_assert_eq!(full.to_vec(), matching.clone(), "{} scan block={}", &col.name, block);
                    for cand in &candidates {
                        let (got, log) = recorded(col, &window, cand, pred, block);
                        prop_assert_eq!(
                            got.to_vec(),
                            cand.intersect(&full).to_vec(),
                            "{} block={} candidates={:?}", &col.name, block, cand
                        );
                        prop_assert_eq!(got.universe(), len);
                        prop_assert_eq!(&log, &full_log, "{}: the charge must not follow the candidates", &col.name);
                    }
                }
            }
        }
    }

    #[test]
    fn plain_refine_matches_the_scalar_model_at_every_width(
        width_sel in 0usize..4,
        len_sel in 0usize..6,
        start in 0u32..130,
        seed in any::<u64>(),
        density_sel in 0usize..4,
        bound_sel in (0usize..9, 0usize..9),
        domain_sel in 0usize..4,
    ) {
        // A window at an unaligned start, with a tail shorter than a mask
        // word for most lengths, inside a longer column whose values sit at
        // both ends of the width's domain (and, at width 8, of `i64`).
        let width = [1u8, 2, 4, 8][width_sel];
        let top = [u8::MAX as i64, u16::MAX as i64, u32::MAX as i64, i64::MAX][width_sel];
        let bottom = if width == 8 { i64::MIN } else { 0 };
        let len = [1u32, 63, 64, 65, 130, 1000][len_sel];
        let window = start..start + len;
        let n = start + len + 37;
        let values: Vec<i64> = (0..n)
            .map(|i| {
                let r = mix(seed, i / 3);
                let near = (r >> 3) as i64 % 40;
                match r % 3 {
                    _ if i == 0 => top, // pins the byte width
                    0 => top - near,
                    1 => bottom + near,
                    _ => 100 + near,
                }
            })
            .collect();
        let col = StoredColumn::new("plain", Column::Int(IntColumn::plain(values.clone())));
        match col.column.as_int() {
            IntColumn::Plain(plain) => prop_assert_eq!(plain.width(), width),
            other => prop_assert!(false, "not plain: {:?}", other),
        }
        let held_narrow = matches!(
            col.column.as_int(),
            IntColumn::Plain(PlainInts::U8(_) | PlainInts::U16(_) | PlainInts::U32(_))
        );
        prop_assert_eq!(held_narrow, width < 8, "values live at their width");

        // Bounds inside, at the edges of, and outside the width's domain —
        // in either order, so `lo > hi` occurs.
        let bounds = [
            i64::MIN, -1, 0, 110, bottom.saturating_add(20), top - 20, top,
            top.saturating_add(1), i64::MAX,
        ];
        let (lo, hi) = (bounds[bound_sel.0], bounds[bound_sel.1]);
        // Key domains smaller and larger than the value range.
        let domain = [10u32, 130, 300, 70_000][domain_sel];
        let keys = KeyBits::from_keys(domain, (0..domain as i64).filter(|k| k % 3 != 1));
        let seventh = |v: i64| v % 7 == 1;
        let listed = Pred::InSet(vec![Value::Int(lo), Value::Int(top - 3), Value::Int(hi)]);
        let between = Pred::Between(Value::Int(lo), Value::Int(hi));
        let below = Pred::Lt(Value::Int(lo));
        type Model<'a> = Box<dyn Fn(i64) -> bool + 'a>;
        let preds: Vec<(ScanPred<'_>, Model<'_>)> = vec![
            (ScanPred::Range { lo, hi }, Box::new(|v| (lo..=hi).contains(&v))),
            (ScanPred::Keys(&keys), Box::new(|v| (0..domain as i64).contains(&v) && v % 3 != 1)),
            (ScanPred::Test(&seventh), Box::new(|v| v % 7 == 1)),
            (ScanPred::Logical(&listed), Box::new(|v| v == lo || v == top - 3 || v == hi)),
            (ScanPred::Logical(&between), Box::new(|v| (lo..=hi).contains(&v))),
            (ScanPred::Logical(&below), Box::new(|v| v < lo)),
        ];

        let percent = [3u64, 20, 60, 95][density_sel];
        let keep: Vec<u32> =
            window.clone().filter(|&p| mix(!seed, p) % 100 < percent).collect();
        let candidates = [
            PosList::Explicit { positions: keep.clone(), universe: len },
            PosList::Bitmap {
                base: start,
                bits: RidBitmap::from_rids(len, keep.iter().map(|p| p - start)),
            },
            PosList::Range { start: start + len / 4, end: start + len - len / 3, universe: len },
            PosList::all(window.clone()),
        ];
        let io = IoSession::unmetered();
        for (pred, model) in &preds {
            for cand in &candidates {
                let want: Vec<u32> =
                    cand.iter().filter(|&p| model(values[p as usize])).collect();
                for block in [true, false] {
                    let got = refine(&col, window.clone(), cand, pred, block, &io);
                    prop_assert_eq!(
                        got.to_vec(),
                        want.clone(),
                        "width {} bounds [{}, {}] domain {} block={} candidates={:?}",
                        width, lo, hi, domain, block, cand
                    );
                    prop_assert_eq!(got.universe(), len);
                }
            }
        }
    }

    #[test]
    fn key_bits_agree_with_the_hash_tables(
        domain in 1u32..300,
        picks in prop::collection::vec(any::<u32>(), 0..400),
        shape in 0u8..4,
    ) {
        // Empty, full, only the first and last key, and random key sets.
        let keys: Vec<i64> = match shape {
            0 => Vec::new(),
            1 => (0..domain as i64).collect(),
            2 => vec![0, domain as i64 - 1],
            _ => picks.iter().map(|p| (p % domain) as i64).collect(),
        };
        let bits = KeyBits::from_keys(domain, keys.iter().copied());
        let set = IntHashSet::from_keys(keys.iter().copied());
        // Dense keys are row positions: the join table maps a key to itself.
        let map = IntHashMap::from_pairs(keys.iter().map(|&k| (k, k as u32)));
        prop_assert_eq!(bits.len(), set.len());
        for k in -3..domain as i64 + 3 {
            prop_assert_eq!(bits.contains(k), set.contains(k), "key {}", k);
            prop_assert_eq!(bits.contains(k).then_some(k as u32), map.get(k), "key {}", k);
        }
    }
}
