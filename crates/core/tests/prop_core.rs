//! Property tests for the column engine's building blocks: position-list
//! algebra across representations, scan/extraction equivalence across
//! encodings and iteration interfaces.

use cvr_core::extract::{extract_at, gather_ints};
use cvr_core::poslist::PosList;
use cvr_core::scan::{refine, ScanPred};
use cvr_data::queries::Pred;
use cvr_data::value::Value;
use cvr_index::bitmap::RidBitmap;
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, IntColumn, StrColumn};
use cvr_storage::io::IoSession;
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: u32 = 512;

/// Arbitrary position set + representation choice.
fn poslist_strategy() -> impl Strategy<Value = (BTreeSet<u32>, u8)> {
    (prop::collection::btree_set(0u32..UNIVERSE, 0..200), 0u8..3)
}

fn build(set: &BTreeSet<u32>, repr: u8) -> PosList {
    let positions: Vec<u32> = set.iter().copied().collect();
    match repr {
        0 => PosList::from_ascending(positions, UNIVERSE),
        1 => PosList::Bitmap { base: 0, bits: RidBitmap::from_rids(UNIVERSE, positions) },
        _ => PosList::Explicit { positions, universe: UNIVERSE },
    }
}

/// The plain whole-column scan: every position is a candidate.
fn scan(col: &StoredColumn, pred: &ScanPred<'_>, block: bool, io: &IoSession) -> PosList {
    refine(col, col.positions(), &PosList::all(col.positions()), pred, block, io)
}

fn clustered_ints() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec((0i64..40, 1usize..12), 1..50)
        .prop_map(|runs| runs.into_iter().flat_map(|(v, n)| std::iter::repeat_n(v, n)).collect())
}

proptest! {
    #[test]
    fn poslist_intersection_matches_set_model((xs, rx) in poslist_strategy(), (ys, ry) in poslist_strategy()) {
        let a = build(&xs, rx);
        let b = build(&ys, ry);
        let expected: Vec<u32> = xs.intersection(&ys).copied().collect();
        prop_assert_eq!(a.intersect(&b).to_vec(), expected.clone());
        prop_assert_eq!(b.intersect(&a).to_vec(), expected);
    }

    #[test]
    fn poslist_accessors_agree((xs, repr) in poslist_strategy()) {
        let pl = build(&xs, repr);
        prop_assert_eq!(pl.count() as usize, xs.len());
        prop_assert_eq!(pl.first(), xs.iter().next().copied());
        prop_assert_eq!(pl.last(), xs.iter().next_back().copied());
        prop_assert_eq!(pl.to_vec(), xs.iter().copied().collect::<Vec<u32>>());
        let contiguous = xs.is_empty()
            || (*xs.iter().next_back().unwrap() - *xs.iter().next().unwrap() + 1) as usize
                == xs.len();
        prop_assert_eq!(pl.is_contiguous(), contiguous);
    }

    #[test]
    fn int_scans_agree_across_encodings_and_interfaces(
        values in clustered_ints(),
        lo in 0i64..40,
        span in 0i64..15,
    ) {
        let hi = lo + span;
        let io = IoSession::unmetered();
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| (lo..=hi).contains(*v))
            .map(|(i, _)| i as u32)
            .collect();
        let rle = StoredColumn::new("c", Column::Int(IntColumn::rle(&values)));
        let plain = StoredColumn::new("c", Column::Int(IntColumn::plain_fixed(values.clone())));
        for col in [&rle, &plain] {
            for block in [true, false] {
                let in_range = |v: i64| (lo..=hi).contains(&v);
                let got = scan(col, &ScanPred::Test(&in_range), block, &io);
                prop_assert_eq!(got.to_vec(), expected.clone());
            }
        }
    }

    #[test]
    fn str_scans_agree_across_encodings(
        values in prop::collection::vec("[a-f]{1,3}", 1..150),
        needle in "[a-f]{1,3}",
    ) {
        let io = IoSession::unmetered();
        let pred = Pred::Eq(Value::str(needle.as_str()));
        let dict = StoredColumn::new("c", Column::Str(StrColumn::dict(&values)));
        let plain = StoredColumn::new("c", Column::Str(StrColumn::plain(values.clone())));
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == needle)
            .map(|(i, _)| i as u32)
            .collect();
        for col in [&dict, &plain] {
            for block in [true, false] {
                prop_assert_eq!(scan(col, &ScanPred::Logical(&pred), block, &io).to_vec(), expected.clone());
            }
        }
    }

    #[test]
    fn gather_matches_index_access(
        values in clustered_ints(),
        picks in prop::collection::btree_set(0usize..200, 0..40),
    ) {
        let n = values.len();
        let positions: Vec<u32> =
            picks.into_iter().filter(|&p| p < n).map(|p| p as u32).collect();
        let pl = PosList::from_ascending(positions.clone(), n as u32);
        let io = IoSession::unmetered();
        let expected: Vec<i64> = positions.iter().map(|&p| values[p as usize]).collect();
        let rle = StoredColumn::new("c", Column::Int(IntColumn::rle(&values)));
        let plain = StoredColumn::new("c", Column::Int(IntColumn::plain(values.clone())));
        prop_assert_eq!(gather_ints(&rle, &pl, &io), expected.clone());
        prop_assert_eq!(gather_ints(&plain, &pl, &io), expected);
    }

    #[test]
    fn extract_at_handles_any_order(
        values in clustered_ints(),
        order in prop::collection::vec(0usize..200, 0..40),
    ) {
        let n = values.len();
        let positions: Vec<u32> =
            order.into_iter().filter(|&p| p < n).map(|p| p as u32).collect();
        let io = IoSession::unmetered();
        let col = StoredColumn::new("c", Column::Int(IntColumn::rle(&values)));
        let got = extract_at(&col, &positions, &io);
        let expected: Vec<Value> =
            positions.iter().map(|&p| Value::Int(values[p as usize])).collect();
        prop_assert_eq!(got, expected);
    }
}
