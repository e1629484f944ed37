//! Property tests for the index substrate, each structure checked against a
//! std-library model.

use cvr_data::value::Value;
use cvr_index::bitmap::{BitmapIndex, RidBitmap};
use cvr_index::bloom::BloomFilter;
use cvr_index::btree::{ikey, BPlusTree, Key};
use cvr_index::hashidx::{IntHashMap, IntHashSet};
use cvr_storage::io::IoSession;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn lo(range: (i64, i64)) -> i64 {
    range.0
}

fn hi(range: (i64, i64)) -> i64 {
    range.0 + range.1
}

proptest! {
    #[test]
    fn btree_matches_sorted_multiset_model(
        entries in prop::collection::vec((0i64..500, 0u32..10_000), 0..400),
        order in 4usize..64,
        probe in 0i64..600,
        range in (0i64..500, 0i64..200),
    ) {
        // The tree is a multiset: duplicate (key, rid) pairs are kept, like
        // an unclustered index over a column with repeated values.
        let mut tree = BPlusTree::with_order(order);
        let mut model: Vec<(i64, u32)> = Vec::new();
        for &(k, rid) in &entries {
            tree.insert(ikey(k), rid);
            model.push((k, rid));
        }
        model.sort_unstable();
        let io = IoSession::unmetered();
        // Point lookups. Rid order within one key is unspecified (like any
        // secondary index); compare as multisets.
        let mut got: Vec<u32> = tree.lookup(&ikey(probe), &io);
        got.sort_unstable();
        let want: Vec<u32> =
            model.iter().filter(|(k, _)| *k == probe).map(|&(_, r)| r).collect();
        prop_assert_eq!(got, want);
        // Range scans (inclusive): key-sorted output, rid order within a key
        // unspecified.
        let raw = tree.range_scan(Some(&ikey(lo(range))), Some(&ikey(hi(range))), &io);
        let keys_only: Vec<i64> = raw.iter().map(|(k, _)| k[0].as_int()).collect();
        prop_assert!(keys_only.windows(2).all(|w| w[0] <= w[1]), "output must be key-sorted");
        let mut got: Vec<(i64, u32)> =
            raw.into_iter().map(|(k, r)| (k[0].as_int(), r)).collect();
        got.sort_unstable();
        let want: Vec<(i64, u32)> = model
            .iter()
            .filter(|(k, _)| (lo(range)..=hi(range)).contains(k))
            .copied()
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Bulk load ≡ incremental insert, for each key shape the designs use:
    /// single int (fact-column indexes), single string, and composite
    /// `(value, pk)` (dimension indexes) — same entries in key order, same
    /// lookups, and a key reads back as the parts it was made from.
    #[test]
    fn btree_bulk_load_equals_inserts(
        entries in prop::collection::vec((0i64..300, "[a-e]{0,2}", 0u32..10_000), 0..300),
        order in 4usize..48,
        shape in 0u8..3,
        probe in (0i64..300, "[a-e]{0,2}"),
    ) {
        let parts_of = |k: i64, s: &str| -> Vec<Value> {
            match shape {
                0 => vec![Value::Int(k)],
                1 => vec![Value::str(s)],
                _ => vec![Value::str(s), Value::Int(k)],
            }
        };
        let keyed: Vec<(Key, u32)> =
            entries.iter().map(|(k, s, r)| (Key::from(parts_of(*k, s)), *r)).collect();
        let mut inserted = BPlusTree::with_order(order);
        for (k, rid) in keyed.clone() {
            inserted.insert(k, rid);
        }
        let bulk = BPlusTree::bulk_load_with_order(keyed.clone(), order);
        prop_assert_eq!(bulk.len(), inserted.len());
        let io = IoSession::unmetered();
        // Same multiset of entries (rid order within duplicate keys is
        // unspecified for the insert path), both key-sorted.
        let scan = |t: &BPlusTree| -> Vec<(Vec<Value>, u32)> {
            t.full_scan(&io).map(|(k, r)| (k.to_vec(), r)).collect()
        };
        let (mut a, mut b) = (scan(&inserted), scan(&bulk));
        prop_assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        prop_assert!(b.windows(2).all(|w| w[0] <= w[1]), "bulk load orders rids within a key");
        a.sort();
        b.sort();
        let mut want: Vec<(Vec<Value>, u32)> =
            entries.iter().map(|(k, s, r)| (parts_of(*k, s), *r)).collect();
        want.sort();
        prop_assert_eq!(&a, &want);
        prop_assert_eq!(&b, &want);
        // Point lookups agree, as multisets.
        let probe = Key::from(parts_of(probe.0, &probe.1));
        let (mut x, mut y) = (inserted.lookup(&probe, &io), bulk.lookup(&probe, &io));
        x.sort_unstable();
        y.sort_unstable();
        prop_assert_eq!(x, y);
    }

    #[test]
    fn btree_composite_prefix_scan(
        entries in prop::collection::vec(("[a-d]{1}", 0i64..50), 0..200),
        probe in "[a-e]{1}",
    ) {
        let mut tree = BPlusTree::with_order(8);
        for (i, (s, k)) in entries.iter().enumerate() {
            tree.insert(vec![Value::str(s.as_str()), Value::Int(*k)].into(), i as u32);
        }
        let io = IoSession::unmetered();
        let bound = Key::new(Value::str(probe.as_str()));
        let got = tree.range_scan(Some(&bound), Some(&bound), &io);
        let want = entries.iter().filter(|(s, _)| *s == probe).count();
        prop_assert_eq!(got.len(), want);
        for (k, _) in got {
            prop_assert_eq!(k[0].as_str(), probe.as_str());
        }
    }

    #[test]
    fn bitmap_ops_match_hashset_model(
        xs in prop::collection::btree_set(0u32..2_000, 0..300),
        ys in prop::collection::btree_set(0u32..2_000, 0..300),
    ) {
        let a = RidBitmap::from_rids(2_000, xs.iter().copied());
        let b = RidBitmap::from_rids(2_000, ys.iter().copied());
        let mut and = a.clone();
        and.and_with(&b);
        let mut or = a.clone();
        or.or_with(&b);
        let want_and: Vec<u32> = xs.intersection(&ys).copied().collect();
        let want_or: Vec<u32> = xs.union(&ys).copied().collect();
        prop_assert_eq!(and.to_vec(), want_and);
        prop_assert_eq!(or.to_vec(), want_or);
        prop_assert_eq!(a.count() as usize, xs.len());
    }

    #[test]
    fn bitmap_index_select_matches_filter(
        col in prop::collection::vec(0i64..20, 1..500),
        wanted in prop::collection::btree_set(0i64..25, 0..6),
    ) {
        let idx = BitmapIndex::build(&col);
        let io = IoSession::unmetered();
        let got = idx.select(|v| wanted.contains(&v), &io).to_vec();
        let want: Vec<u32> = col
            .iter()
            .enumerate()
            .filter(|(_, v)| wanted.contains(v))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn int_hash_set_matches_std(keys in prop::collection::vec(-1_000i64..1_000, 0..600)) {
        let ours = IntHashSet::from_keys(keys.iter().copied());
        let std: HashSet<i64> = keys.iter().copied().collect();
        prop_assert_eq!(ours.len(), std.len());
        for k in -1_050i64..1_050 {
            prop_assert_eq!(ours.contains(k), std.contains(&k), "key {}", k);
        }
    }

    #[test]
    fn int_hash_map_matches_std(pairs in prop::collection::vec((-500i64..500, any::<u32>()), 0..400)) {
        let ours = IntHashMap::from_pairs(pairs.iter().copied());
        let mut std: HashMap<i64, u32> = HashMap::new();
        for &(k, v) in &pairs {
            std.entry(k).or_insert(v); // first-wins, like IntHashMap
        }
        for k in -550i64..550 {
            prop_assert_eq!(ours.get(k), std.get(&k).copied());
        }
    }

    #[test]
    fn bloom_has_no_false_negatives(keys in prop::collection::vec(any::<i64>(), 0..500)) {
        let mut f = BloomFilter::new(keys.len().max(8), 0.02);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            prop_assert!(f.may_contain(k));
        }
    }
}
