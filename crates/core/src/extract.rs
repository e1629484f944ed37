//! Positional value extraction — the materialization half of late
//! materialization.
//!
//! Once predicates have produced a position list, the surviving plan needs
//! actual values: measure columns at fact positions (ascending — cheap,
//! page-local) and dimension attributes at foreign-key-derived positions
//! (arbitrary order — the "out-of-order extraction" cost the invisible join
//! is designed to minimize, Section 5.4).

use crate::agg::CodeDecoder;
use crate::poslist::PosList;
use cvr_data::value::Value;
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, IntColumn, PlainValue, RunCursor, StrColumn};
use cvr_storage::io::IoSession;
use cvr_storage::with_plain_values;

/// Gather integer values at the (ascending) positions of `pos`.
pub fn gather_ints(col: &StoredColumn, pos: &PosList, io: &IoSession) -> Vec<i64> {
    let mut out = Vec::new();
    gather_ints_into(col, &pos.to_vec(), io, &mut out);
    out
}

/// Gather integer values at `positions` into `out` (cleared first),
/// charging the positional gather in their order.
pub fn gather_ints_into(col: &StoredColumn, positions: &[u32], io: &IoSession, out: &mut Vec<i64>) {
    col.charge_gather(positions.iter().copied(), io);
    map_ints_at(col, positions, out, |v| v);
}

/// `f` of the integer value at each of `positions`, into `out` (cleared
/// first), uncharged: for an operator that charges its read of those pages
/// itself, or has already (a join reading back the keys its own membership
/// scan matched). One loop per encoding, any position order: RLE columns
/// walk their runs with a [`RunCursor`], so ascending positions cost O(1)
/// each without decompressing.
pub(crate) fn map_ints_at<T>(
    col: &StoredColumn,
    positions: &[u32],
    out: &mut Vec<T>,
    mut f: impl FnMut(i64) -> T,
) {
    out.clear();
    out.reserve(positions.len());
    match col.column.as_int() {
        IntColumn::Plain(plain) => with_plain_values!(plain, |values| {
            out.extend(positions.iter().map(|&p| f(values[p as usize].widen())))
        }),
        IntColumn::Rle { runs, .. } => {
            let mut cursor = RunCursor::new(runs);
            out.extend(positions.iter().map(|&p| f(cursor.value_at(p))));
        }
        IntColumn::Packed { reference, packed } => {
            out.extend(positions.iter().map(|&p| f(reference + packed.get(p) as i64)))
        }
    }
}

/// Extract values at *arbitrary-order* positions (dimension lookups keyed by
/// fact order). Charges a positional gather in the given order — page
/// re-touches resolve through the buffer pool, but the access pattern is
/// honest.
pub fn extract_at(col: &StoredColumn, positions: &[u32], io: &IoSession) -> Vec<Value> {
    col.charge_gather(positions.iter().copied(), io);
    let mut out = Vec::with_capacity(positions.len());
    match &col.column {
        Column::Int(int) => match int {
            IntColumn::Plain(plain) => with_plain_values!(plain, |values| {
                for &p in positions {
                    out.push(Value::Int(values[p as usize].widen()));
                }
            }),
            IntColumn::Rle { runs, .. } => {
                // An empty run directory with non-empty positions panics
                // inside the cursor, at the fault site, like the binary
                // search it replaced.
                let mut cursor = RunCursor::new(runs);
                for &p in positions {
                    out.push(Value::Int(cursor.value_at(p)));
                }
            }
            IntColumn::Packed { reference, packed } => {
                for &p in positions {
                    out.push(Value::Int(reference + packed.get(p) as i64));
                }
            }
        },
        Column::Str(s) => match s {
            StrColumn::Plain { values, .. } => {
                for &p in positions {
                    out.push(Value::Str(values[p as usize].clone()));
                }
            }
            StrColumn::Dict { dict, codes } => {
                for &p in positions {
                    out.push(Value::Str(dict[codes.get(p) as usize].clone()));
                }
            }
        },
    }
    out
}

/// The code space of a stored column — how positions map to dense `u32`
/// codes and how codes decode back to [`Value`]s. This is the extraction
/// half of code-level aggregation: group columns are read as codes (no
/// string materialization, no per-row clones) and decoded once per group at
/// finish.
///
/// Derived purely from column-header metadata
/// ([`IntColumn::code_bounds`], the dictionary length), so every morsel
/// derives the *same* space and codes stay globally consistent. Plain
/// string columns have no global code assignment and return `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeSpace {
    /// Integer column: `code = value - reference`, `code < domain`.
    Int {
        /// The column minimum (frame of reference).
        reference: i64,
        /// One past the largest code.
        domain: u64,
    },
    /// Dictionary string column: codes are the dictionary codes.
    Dict {
        /// Number of dictionary entries.
        domain: u64,
    },
}

impl CodeSpace {
    /// The code space of `col`, when it has one.
    pub fn of(col: &StoredColumn) -> Option<CodeSpace> {
        match &col.column {
            Column::Int(_) => col
                .int_code_bounds()
                .map(|(reference, domain)| CodeSpace::Int { reference, domain }),
            Column::Str(s @ StrColumn::Dict { .. }) => {
                Some(CodeSpace::Dict { domain: s.dict_parts().0.len() as u64 })
            }
            Column::Str(StrColumn::Plain { .. }) => None,
        }
    }

    /// Number of distinct codes (`codes < domain`).
    pub fn domain(&self) -> u64 {
        match self {
            CodeSpace::Int { domain, .. } | CodeSpace::Dict { domain } => *domain,
        }
    }

    /// The finish-time decoder for this space over `col`: a dictionary
    /// column decodes through its own dictionary, borrowed.
    pub fn decoder<'d>(&self, col: &'d StoredColumn) -> CodeDecoder<'d> {
        match self {
            CodeSpace::Int { reference, .. } => CodeDecoder::IntOffset(*reference),
            CodeSpace::Dict { .. } => CodeDecoder::Dict(col.column.as_str().dict_parts().0),
        }
    }
}

/// Compose one group column into group ids: `ids[i] += code × stride` for
/// the code at `positions[i]`, in any position order — the code-level
/// counterpart of [`extract_at`], charging the identical positional gather.
/// No code is materialized; codes are read straight from the storage layout
/// (a dictionary's packed codes, an integer's frame-of-reference delta).
/// `space` must be [`CodeSpace::of`] this column.
pub fn add_codes_at(
    space: &CodeSpace,
    col: &StoredColumn,
    positions: &[u32],
    stride: u64,
    io: &IoSession,
    ids: &mut [u64],
) {
    assert_eq!(ids.len(), positions.len(), "one group id per position");
    col.charge_gather(positions.iter().copied(), io);
    #[inline]
    fn compose_with(
        ids: &mut [u64],
        positions: &[u32],
        stride: u64,
        mut code: impl FnMut(u32) -> u64,
    ) {
        for (id, &p) in ids.iter_mut().zip(positions) {
            *id += code(p) * stride;
        }
    }
    match (&col.column, space) {
        (Column::Int(int), CodeSpace::Int { reference, .. }) => match int {
            IntColumn::Plain(plain) => with_plain_values!(plain, |values| {
                compose_with(ids, positions, stride, |p| {
                    (values[p as usize].widen() - reference) as u64
                })
            }),
            IntColumn::Rle { runs, .. } => {
                let mut cursor = RunCursor::new(runs);
                compose_with(ids, positions, stride, |p| (cursor.value_at(p) - reference) as u64)
            }
            // `code_bounds` reference for packed columns is the frame of
            // reference itself, so the stored delta *is* the code.
            IntColumn::Packed { packed, .. } => {
                compose_with(ids, positions, stride, |p| packed.get(p))
            }
        },
        (Column::Str(StrColumn::Dict { codes, .. }), CodeSpace::Dict { .. }) => {
            compose_with(ids, positions, stride, |p| codes.get(p))
        }
        _ => panic!("code space does not match column encoding"),
    }
}

/// Decode an entire column to owned [`Value`]s (early materialization /
/// tuple construction). Charges a full scan.
pub fn decode_all(col: &StoredColumn, io: &IoSession) -> Vec<Value> {
    col.charge_scan(io);
    match &col.column {
        Column::Int(int) => int.decode().into_iter().map(Value::Int).collect(),
        Column::Str(s) => s.decode().into_iter().map(Value::Str).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_storage::encode::{IntColumn, StrColumn};

    fn rle_col() -> StoredColumn {
        let mut values = Vec::new();
        for v in 0..20i64 {
            values.extend(std::iter::repeat_n(v * 10, 7));
        }
        StoredColumn::new("c", Column::Int(IntColumn::rle(&values)))
    }

    #[test]
    fn gather_ints_plain_and_rle_agree() {
        let mut values = Vec::new();
        for v in 0..20i64 {
            values.extend(std::iter::repeat_n(v * 10, 7));
        }
        let plain = StoredColumn::new("c", Column::Int(IntColumn::plain(values)));
        let rle = rle_col();
        let pos = PosList::Explicit { positions: vec![0, 6, 7, 69, 139], universe: 140 };
        let io = IoSession::unmetered();
        assert_eq!(gather_ints(&plain, &pos, &io), gather_ints(&rle, &pos, &io));
        assert_eq!(gather_ints(&rle, &pos, &io), vec![0, 0, 10, 90, 190]);
    }

    #[test]
    fn gather_over_range() {
        let col = rle_col();
        let io = IoSession::unmetered();
        let pos = PosList::Range { start: 5, end: 9, universe: 140 };
        assert_eq!(gather_ints(&col, &pos, &io), vec![0, 0, 10, 10]);
    }

    #[test]
    fn extract_at_arbitrary_order() {
        let col = rle_col();
        let io = IoSession::unmetered();
        let got = extract_at(&col, &[139, 0, 70], &io);
        assert_eq!(got, vec![Value::Int(190), Value::Int(0), Value::Int(100)]);
    }

    #[test]
    fn extract_at_memoized_rle_handles_all_access_patterns() {
        let col = rle_col();
        let io = IoSession::unmetered();
        // Bursty (same run), forward-adjacent, and random back-jumps: the
        // memoized cursor must agree with per-position binary search.
        let patterns: [&[u32]; 3] =
            [&[0, 1, 2, 3, 4], &[0, 7, 14, 21, 28], &[139, 0, 70, 69, 70, 1, 138]];
        for positions in patterns {
            let got = extract_at(&col, positions, &io);
            let want: Vec<Value> =
                positions.iter().map(|&p| Value::Int(col.column.as_int().value_at(p))).collect();
            assert_eq!(got, want, "{positions:?}");
        }
    }

    #[test]
    fn code_space_per_encoding() {
        let rle = rle_col();
        let space = CodeSpace::of(&rle).expect("rle ints have a code space");
        assert_eq!(space, CodeSpace::Int { reference: 0, domain: 191 });
        let vals: Vec<String> = (0..100).map(|i| format!("v{}", i % 9)).collect();
        let dict = StoredColumn::new("c", Column::Str(StrColumn::dict(&vals)));
        assert_eq!(CodeSpace::of(&dict), Some(CodeSpace::Dict { domain: 9 }));
        let plain = StoredColumn::new("c", Column::Str(StrColumn::plain(vals)));
        assert_eq!(CodeSpace::of(&plain), None, "plain strings have no global codes");
    }

    #[test]
    fn composed_codes_decode_back_to_extracted_values() {
        let vals: Vec<String> = (0..100).map(|i| format!("v{}", i % 9)).collect();
        let cols = [
            rle_col(),
            StoredColumn::new(
                "p",
                Column::Int(
                    IntColumn::packed(&(0..140i64).map(|i| 1992 + i % 7).collect::<Vec<_>>())
                        .unwrap(),
                ),
            ),
            StoredColumn::new("s", Column::Str(StrColumn::dict(&vals))),
            StoredColumn::new(
                "u",
                Column::Int(IntColumn::plain((0..140).map(|i| 300 + i % 11).collect())),
            ),
        ];
        let io = IoSession::unmetered();
        let positions = [99u32, 0, 63, 64, 65, 7, 99];
        for col in &cols {
            let space = CodeSpace::of(col).expect("code space");
            let decoder = space.decoder(col);
            // Onto ids that already hold another column's digit: the code
            // lands at its stride and leaves the lower digit alone.
            let stride = space.domain() + 3;
            let mut ids = vec![2u64; positions.len()];
            add_codes_at(&space, col, &positions, stride, &io, &mut ids);
            let want = extract_at(col, &positions, &io);
            let got: Vec<Value> = ids
                .iter()
                .map(|&id| {
                    assert_eq!(id % stride, 2);
                    let c = id / stride;
                    assert!(c < space.domain());
                    decoder.decode(c as u32)
                })
                .collect();
            assert_eq!(got, want, "{}", col.name);
        }
    }

    #[test]
    fn code_composition_charges_what_the_value_gathers_charge() {
        let vals: Vec<String> = (0..140).map(|i| format!("v{}", i % 9)).collect();
        let dict = StoredColumn::new("s", Column::Str(StrColumn::dict(&vals)));
        let positions = vec![0u32, 6, 7, 69, 139];
        for col in [&rle_col(), &dict] {
            let space = CodeSpace::of(col).unwrap();
            let a = IoSession::unmetered();
            add_codes_at(&space, col, &positions, 1, &a, &mut vec![0; positions.len()]);
            let b = IoSession::unmetered();
            extract_at(col, &positions, &b);
            assert_eq!(a.stats(), b.stats(), "{}", col.name);
        }
    }

    #[test]
    fn gathers_into_reused_buffers_match_fresh_ones() {
        let col = rle_col();
        let io = IoSession::unmetered();
        let mut out = vec![-1i64; 500];
        for positions in [vec![0u32, 6, 7, 69, 139], vec![], vec![70, 3, 139]] {
            gather_ints_into(&col, &positions, &io, &mut out);
            let want: Vec<i64> =
                positions.iter().map(|&p| col.column.as_int().value_at(p)).collect();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn decode_all_round_trips() {
        let col = rle_col();
        let io = IoSession::unmetered();
        let vals = decode_all(&col, &io);
        assert_eq!(vals.len(), 140);
        assert_eq!(vals[0], Value::Int(0));
        assert_eq!(vals[139], Value::Int(190));
        assert_eq!(io.stats().bytes_read, col.bytes());
    }
}
