//! Property tests for the column encodings and the row codec: round-trips,
//! size accounting, and direct-operation equivalence for arbitrary data.

use cvr_data::table::{ColumnData, PlainInts, Strs};
use cvr_data::value::{DataType, Value};
use cvr_storage::encode::{byte_width, Column, IntColumn, StrColumn, RLE_RUN_BYTES};
use cvr_storage::packed::PackedInts;
use cvr_storage::rowcodec::{encode_row, encoded_size, record_len, RecordView};
use proptest::prelude::*;

/// Values with clustering so RLE sees runs sometimes.
fn clustered_ints() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec((0i64..50, 1usize..20), 0..60)
        .prop_map(|runs| runs.into_iter().flat_map(|(v, n)| std::iter::repeat_n(v, n)).collect())
}

fn small_strings() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{0,12}", 0..200)
}

proptest! {
    #[test]
    fn rle_round_trips(values in clustered_ints()) {
        let col = IntColumn::rle(&values);
        prop_assert_eq!(col.decode(), values.clone());
        prop_assert_eq!(col.len(), values.len());
    }

    #[test]
    fn rle_value_at_matches_decode(values in clustered_ints()) {
        let col = IntColumn::rle(&values);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(col.value_at(i as u32), v);
        }
    }

    #[test]
    fn rle_runs_are_maximal_and_cover(values in clustered_ints()) {
        let col = IntColumn::rle(&values);
        if values.is_empty() {
            return Ok(());
        }
        let runs = col.runs();
        // Coverage: runs tile [0, n) exactly.
        let mut next = 0u32;
        for r in runs {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.len >= 1);
            next = r.start + r.len;
        }
        prop_assert_eq!(next as usize, values.len());
        // Maximality: adjacent runs differ in value.
        for w in runs.windows(2) {
            prop_assert_ne!(w[0].value, w[1].value);
        }
        prop_assert_eq!(col.encoded_bytes(), runs.len() as u64 * RLE_RUN_BYTES);
    }

    #[test]
    fn auto_never_bigger_than_plain(values in clustered_ints()) {
        let auto = IntColumn::auto(values.clone());
        let plain = IntColumn::plain(values);
        prop_assert!(auto.encoded_bytes() <= plain.encoded_bytes());
    }

    #[test]
    fn auto_int_round_trips(values in clustered_ints()) {
        // Whatever encoding `auto` picks: decode == input, point lookups
        // agree with the bulk decode, and the footprint never regresses.
        let col = IntColumn::auto(values.clone());
        let decoded = col.decode();
        prop_assert_eq!(&decoded, &values);
        prop_assert_eq!(col.len(), values.len());
        for (i, v) in decoded.iter().enumerate() {
            prop_assert_eq!(col.value_at(i as u32), *v);
        }
        prop_assert!(col.encoded_bytes() <= IntColumn::plain(values).encoded_bytes());
    }

    #[test]
    fn auto_int_round_trips_on_random_data(
        values in prop::collection::vec(-1000i64..1_000_000, 0..300)
    ) {
        // No clustering: auto should fall back to plain and still round-trip.
        let col = IntColumn::auto(values.clone());
        prop_assert_eq!(col.decode(), values.clone());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(col.value_at(i as u32), v);
        }
        prop_assert!(col.encoded_bytes() <= IntColumn::plain(values).encoded_bytes());
    }

    #[test]
    fn auto_str_round_trips(values in small_strings()) {
        let col = StrColumn::auto(values.clone());
        let decoded = col.decode();
        prop_assert_eq!(decoded.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(&*decoded[i], v.as_str());
            prop_assert_eq!(col.value_at(i as u32), v.as_str());
        }
        prop_assert!(col.encoded_bytes() <= StrColumn::plain(values).encoded_bytes());
    }

    #[test]
    fn auto_str_round_trips_on_low_cardinality(
        values in prop::collection::vec("[ab]{1,2}", 0..400)
    ) {
        // Heavy repetition: auto should pick the dictionary and still
        // round-trip exactly.
        let col = StrColumn::auto(values.clone());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(col.value_at(i as u32), v.as_str());
        }
        prop_assert!(col.encoded_bytes() <= StrColumn::plain(values).encoded_bytes());
    }

    #[test]
    fn packed_ints_round_trip(
        value_bits in 1u8..32,
        // Lengths straddle the 64-value mask-word boundary on purpose.
        len in (0usize..9).prop_map(|i| [0usize, 1, 63, 64, 65, 127, 128, 129, 300][i]),
        seed in any::<u64>(),
    ) {
        let max = (1u64 << value_bits) - 1;
        let codes: Vec<u64> = (0..len as u64)
            .map(|i| (seed.wrapping_mul(i.wrapping_add(1)).wrapping_mul(2_654_435_761)) % (max + 1))
            .collect();
        let p = PackedInts::pack(value_bits, codes.iter().copied());
        prop_assert_eq!(p.len() as usize, codes.len());
        prop_assert_eq!(p.decode(), codes.clone());
        for (i, &c) in codes.iter().enumerate() {
            prop_assert_eq!(p.get(i as u32), c);
        }
        // The byte count is the literal word image.
        let lanes = (64 / (value_bits as u32 + 1)) as usize;
        prop_assert_eq!(p.bytes(), (codes.len().div_ceil(lanes) * 8) as u64);
    }

    #[test]
    fn packed_column_round_trips(
        base in -1_000_000i64..1_000_000,
        deltas in prop::collection::vec(0i64..2_000_000, 1..200),
    ) {
        let values: Vec<i64> = deltas.iter().map(|&d| base + d).collect();
        let col = IntColumn::packed(&values).expect("21-bit deltas must pack");
        prop_assert!(col.is_packed());
        prop_assert_eq!(col.decode(), values.clone());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(col.value_at(i as u32), v);
        }
    }

    #[test]
    fn byte_width_is_sufficient(values in prop::collection::vec(any::<i64>(), 0..50)) {
        let w = byte_width(&values);
        for &v in &values {
            match w {
                1 => prop_assert!((0..256).contains(&v)),
                2 => prop_assert!((0..65536).contains(&v)),
                4 => prop_assert!((0..(1i64 << 32)).contains(&v)),
                8 => {} // anything fits
                _ => prop_assert!(false, "invalid width {w}"),
            }
        }
    }

    #[test]
    fn dict_round_trips_and_is_order_preserving(values in small_strings()) {
        let col = StrColumn::dict(&values);
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(col.value_at(i as u32), v.as_str());
        }
        let (dict, codes) = col.dict_parts();
        // Sorted dictionary ⇒ code comparison == string comparison.
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                prop_assert_eq!(
                    codes.get(i as u32).cmp(&codes.get(j as u32)),
                    a.cmp(b),
                    "order must be preserved through codes"
                );
            }
            let _ = dict;
            if i > 8 { break; } // quadratic check capped
        }
    }

    /// `auto` sizes its three candidates arithmetically and builds only the
    /// winner; the choice and the payload must be those of building all
    /// three and keeping the smallest (plain < packed < RLE on ties).
    #[test]
    fn int_auto_equals_build_all_and_pick(
        clustered in clustered_ints(),
        spread in prop::collection::vec(-40i64..3_000_000, 0..200),
        wild in prop::collection::vec(any::<i64>(), 0..20),
        kind in 0u8..3,
    ) {
        let values = vec![clustered, spread, wild].swap_remove(kind as usize);
        let mut want = IntColumn::plain(values.clone());
        if let Some(p) = IntColumn::packed(&values) {
            if p.encoded_bytes() < want.encoded_bytes() {
                want = p;
            }
        }
        let rle = IntColumn::rle(&values);
        if rle.encoded_bytes() < want.encoded_bytes() {
            want = rle;
        }
        prop_assert_eq!(IntColumn::auto(values), want);
    }

    /// The dictionary is the sorted distinct values, whatever structure
    /// built it.
    #[test]
    fn dict_is_the_sorted_distinct_values(values in small_strings()) {
        let col = StrColumn::dict(&values);
        let (dict, codes) = col.dict_parts();
        let mut want: Vec<&str> = values.iter().map(String::as_str).collect();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(dict.iter().map(|d| &**d).collect::<Vec<_>>(), want);
        prop_assert_eq!(codes.len() as usize, values.len());
    }

    /// Encoding through a permutation, or through a gather that skips and
    /// repeats rows, equals gathering first and encoding the copy, for both
    /// settings; the returned plain size is the plain encoder's.
    #[test]
    fn encode_rows_equals_gather_then_encode(
        high_ndv in small_strings(),
        low_ndv in prop::collection::vec("[ab]{0,2}", 0..200),
        seed in any::<u64>(),
    ) {
        let values = if seed % 2 == 0 { high_ndv } else { low_ndv };
        let n = values.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for k in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(k, (state % (k as u64 + 1)) as usize);
        }
        let picks: Vec<usize> = perm.iter().map(|&p| p / 3).collect();
        let strs = Strs::from(values.clone());
        for rows in [&perm, &picks] {
            let gathered: Vec<String> = rows.iter().map(|&p| values[p].clone()).collect();
            for compress in [true, false] {
                let got = StrColumn::encode_rows(&strs, rows.iter().copied(), compress);
                let plain = StrColumn::plain(gathered.clone());
                let want = if compress {
                    let dict = StrColumn::dict(&gathered);
                    if dict.encoded_bytes() < plain.encoded_bytes() { dict } else { plain.clone() }
                } else {
                    plain.clone()
                };
                prop_assert_eq!(got, (want, plain.encoded_bytes()));
            }
        }
        let gathered: Vec<String> = perm.iter().map(|&p| values[p].clone()).collect();
        prop_assert_eq!(
            StrColumn::encode_rows(&strs, 0..n, false).1,
            StrColumn::plain(gathered).encoded_bytes()
        );
    }

    /// The uncompressed sizes a store records as it encodes, compressed or
    /// not, are the uncompressed encoder's.
    #[test]
    fn plain_bytes_is_the_uncompressed_encoders_size(
        values in prop::collection::vec(-5i64..(1 << 33), 0..50),
        strings in small_strings(),
    ) {
        let ints = PlainInts::from(values);
        let plain = Column::encode(&ColumnData::Int(ints.clone()), false).encoded_bytes();
        prop_assert_eq!(IntColumn::plain_fixed_bytes(&ints), plain);
        let strs = Strs::from(strings);
        let plain = Column::encode(&ColumnData::Str(strs.clone()), false).encoded_bytes();
        for compress in [true, false] {
            prop_assert_eq!(StrColumn::encode_rows(&strs, 0..strs.len(), compress).1, plain);
        }
    }

    #[test]
    fn plain_str_round_trips(values in small_strings()) {
        let col = StrColumn::plain(values.clone());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(col.value_at(i as u32), v.as_str());
        }
    }

    #[test]
    fn row_codec_round_trips(
        ints in prop::collection::vec(0i64..1 << 31, 1..6),
        strs in prop::collection::vec("[ -~]{0,40}", 0..4),
    ) {
        let mut row: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        row.extend(strs.iter().map(|s| Value::str(s.as_str())));
        let types: Vec<DataType> = row.iter().map(Value::dtype).collect();
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        prop_assert_eq!(record_len(&buf), buf.len());
        prop_assert_eq!(encoded_size(&row), buf.len());
        let view = RecordView::new(&buf);
        prop_assert_eq!(view.decode_all(&types), row);
        // Offset-based access agrees with walking access.
        let mut offsets = Vec::new();
        view.field_offsets(&types, &mut offsets);
        for (i, t) in types.iter().enumerate() {
            prop_assert_eq!(view.value_at(*t, offsets[i]), view.field(&types, i));
        }
    }
}
