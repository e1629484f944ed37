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
use cvr_storage::encode::{Column, IntColumn, PlainValue, Run, StrColumn};
use cvr_storage::io::IoSession;
use cvr_storage::with_plain_values;

/// A memoized cursor over an RLE run directory for arbitrary-order
/// position lookups. Fact-ordered dimension probes hit the same run in
/// bursts (fact rows sharing a foreign key cluster), so remembering the
/// last-hit run and checking it (and its successor) before binary-searching
/// turns the common case into O(1).
struct RunCursor<'a> {
    runs: &'a [Run],
    last: usize,
}

impl<'a> RunCursor<'a> {
    fn new(runs: &'a [Run]) -> RunCursor<'a> {
        RunCursor { runs, last: 0 }
    }

    #[inline]
    fn value_at(&mut self, col: &IntColumn, p: u32) -> i64 {
        let r = &self.runs[self.last];
        if p < r.start || p >= r.start + r.len {
            let next = self.last + 1;
            self.last = match self.runs.get(next) {
                Some(n) if p >= n.start && p < n.start + n.len => next,
                _ => col.run_containing(p),
            };
        }
        self.runs[self.last].value
    }
}

/// Gather integer values at the (ascending) positions of `pos`.
pub fn gather_ints(col: &StoredColumn, pos: &PosList, io: &IoSession) -> Vec<i64> {
    col.charge_gather(pos.iter(), io);
    ints_at(col, pos)
}

/// The integer values at the (ascending) positions of `pos`, uncharged: for
/// an operator that has already charged its read of those pages (a join
/// reading back the keys its own membership scan matched).
///
/// RLE columns are walked run-by-run with a cursor (positions are ascending,
/// so this is O(positions + runs) without decompressing).
pub(crate) fn ints_at(col: &StoredColumn, pos: &PosList) -> Vec<i64> {
    let int = col.column.as_int();
    let mut out = Vec::with_capacity(pos.count() as usize);
    match int {
        IntColumn::Plain(plain) => with_plain_values!(plain, |values| {
            for p in pos.iter() {
                out.push(values[p as usize].widen());
            }
        }),
        IntColumn::Rle { runs, .. } => {
            let mut run = 0usize;
            for p in pos.iter() {
                while runs[run].start + runs[run].len <= p {
                    run += 1;
                }
                out.push(runs[run].value);
            }
        }
        IntColumn::Packed { reference, packed } => {
            for p in pos.iter() {
                out.push(reference + packed.get(p) as i64);
            }
        }
    }
    out
}

/// Gather string values (as [`Value`]s) at ascending positions.
pub fn gather_strs(col: &StoredColumn, pos: &PosList, io: &IoSession) -> Vec<Value> {
    col.charge_gather(pos.iter(), io);
    match col.column.as_str() {
        StrColumn::Plain { values, .. } => {
            pos.iter().map(|p| Value::Str(values[p as usize].clone())).collect()
        }
        StrColumn::Dict { dict, codes } => {
            pos.iter().map(|p| Value::Str(dict[codes.get(p) as usize].clone())).collect()
        }
    }
}

/// Gather any column at ascending positions as [`Value`]s.
pub fn gather_values(col: &StoredColumn, pos: &PosList, io: &IoSession) -> Vec<Value> {
    match &col.column {
        Column::Int(_) => gather_ints(col, pos, io).into_iter().map(Value::Int).collect(),
        Column::Str(_) => gather_strs(col, pos, io),
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
                    out.push(Value::Int(cursor.value_at(int, p)));
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

    /// The finish-time decoder for this space over `col`. Dictionary
    /// entries are cloned once per *distinct value* here — never per row.
    pub fn decoder(&self, col: &StoredColumn) -> CodeDecoder {
        match self {
            CodeSpace::Int { reference, .. } => CodeDecoder::IntOffset(*reference),
            CodeSpace::Dict { .. } => {
                let (dict, _) = col.column.as_str().dict_parts();
                CodeDecoder::Values(dict.iter().map(|s| Value::Str(s.clone())).collect())
            }
        }
    }
}

/// Extract codes at *arbitrary-order* positions — the code-level
/// counterpart of [`extract_at`], charging the identical positional gather.
/// `space` must be [`CodeSpace::of`] this column.
pub fn extract_codes_at(
    space: &CodeSpace,
    col: &StoredColumn,
    positions: &[u32],
    io: &IoSession,
) -> Vec<u32> {
    col.charge_gather(positions.iter().copied(), io);
    let mut out = Vec::with_capacity(positions.len());
    match (&col.column, space) {
        (Column::Int(int), CodeSpace::Int { reference, .. }) => match int {
            IntColumn::Plain(plain) => with_plain_values!(plain, |values| {
                for &p in positions {
                    out.push((values[p as usize].widen() - reference) as u32);
                }
            }),
            IntColumn::Rle { runs, .. } => {
                let mut cursor = RunCursor::new(runs);
                for &p in positions {
                    out.push((cursor.value_at(int, p) - reference) as u32);
                }
            }
            // `code_bounds` reference for packed columns is the frame of
            // reference itself, so the stored delta *is* the code.
            IntColumn::Packed { packed, .. } => {
                for &p in positions {
                    out.push(packed.get(p) as u32);
                }
            }
        },
        (Column::Str(s @ StrColumn::Dict { .. }), CodeSpace::Dict { .. }) => {
            for &p in positions {
                out.push(s.code_at(p));
            }
        }
        _ => panic!("code space does not match column encoding"),
    }
    out
}

/// Gather codes at the *ascending* positions of `pos` — the code-level
/// counterpart of [`gather_values`], charging the identical gather. RLE
/// columns are walked run-by-run with a cursor, like [`gather_ints`].
pub fn gather_codes(
    space: &CodeSpace,
    col: &StoredColumn,
    pos: &PosList,
    io: &IoSession,
) -> Vec<u32> {
    col.charge_gather(pos.iter(), io);
    let mut out = Vec::with_capacity(pos.count() as usize);
    match (&col.column, space) {
        (Column::Int(int), CodeSpace::Int { reference, .. }) => match int {
            IntColumn::Plain(plain) => with_plain_values!(plain, |values| {
                for p in pos.iter() {
                    out.push((values[p as usize].widen() - reference) as u32);
                }
            }),
            IntColumn::Rle { runs, .. } => {
                let mut run = 0usize;
                for p in pos.iter() {
                    while runs[run].start + runs[run].len <= p {
                        run += 1;
                    }
                    out.push((runs[run].value - reference) as u32);
                }
            }
            IntColumn::Packed { packed, .. } => {
                for p in pos.iter() {
                    out.push(packed.get(p) as u32);
                }
            }
        },
        (Column::Str(s @ StrColumn::Dict { .. }), CodeSpace::Dict { .. }) => {
            for p in pos.iter() {
                out.push(s.code_at(p));
            }
        }
        _ => panic!("code space does not match column encoding"),
    }
    out
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
    fn gather_strs_dict_and_plain_agree() {
        let values: Vec<String> = (0..100).map(|i| format!("v{}", i % 9)).collect();
        let plain = StoredColumn::new("c", Column::Str(StrColumn::plain(values.clone())));
        let dict = StoredColumn::new("c", Column::Str(StrColumn::dict(&values)));
        let pos = PosList::Explicit { positions: vec![0, 8, 9, 99], universe: 100 };
        let io = IoSession::unmetered();
        assert_eq!(gather_strs(&plain, &pos, &io), gather_strs(&dict, &pos, &io));
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
    fn codes_decode_back_to_extracted_values() {
        let vals: Vec<String> = (0..100).map(|i| format!("v{}", i % 9)).collect();
        let cols = [
            rle_col(),
            StoredColumn::new(
                "p",
                Column::Int(
                    IntColumn::packed(&(0..140).map(|i| 1992 + i % 7).collect::<Vec<_>>()).unwrap(),
                ),
            ),
            StoredColumn::new("s", Column::Str(StrColumn::dict(&vals))),
        ];
        let io = IoSession::unmetered();
        let positions = [99u32, 0, 63, 64, 65, 7, 99];
        for col in &cols {
            let space = CodeSpace::of(col).expect("code space");
            let decoder = space.decoder(col);
            let codes = extract_codes_at(&space, col, &positions, &io);
            let want = extract_at(col, &positions, &io);
            let got: Vec<Value> = codes
                .iter()
                .map(|&c| {
                    assert!((c as u64) < space.domain());
                    match &decoder {
                        crate::agg::CodeDecoder::IntOffset(r) => Value::Int(r + c as i64),
                        crate::agg::CodeDecoder::Values(v) => v[c as usize].clone(),
                    }
                })
                .collect();
            assert_eq!(got, want, "{}", col.name);
        }
    }

    #[test]
    fn gather_codes_matches_extract_codes_and_charges_identically() {
        let col = rle_col();
        let space = CodeSpace::of(&col).unwrap();
        let positions = vec![0u32, 6, 7, 69, 139];
        let pos = PosList::Explicit { positions: positions.clone(), universe: 140 };
        let a = IoSession::unmetered();
        let gathered = gather_codes(&space, &col, &pos, &a);
        let b = IoSession::unmetered();
        let extracted = extract_codes_at(&space, &col, &positions, &b);
        assert_eq!(gathered, extracted);
        assert_eq!(a.stats().bytes_read, b.stats().bytes_read);
        // And the charge equals the Value-materializing gather's.
        let c = IoSession::unmetered();
        gather_ints(&col, &pos, &c);
        assert_eq!(a.stats().bytes_read, c.stats().bytes_read);
        assert_eq!(a.stats().pages_read, c.stats().pages_read);
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
