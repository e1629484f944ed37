//! Row (N-ary) tuple serialization — the row-store's on-page format.
//!
//! The layout mirrors what the paper charges the row-store for:
//!
//! * an 8-byte **tuple header** per record (`"most row-stores store a
//!   relatively large header on every tuple"` — Section 4);
//! * 4-byte integers (SSBM values all fit; this matches the paper's
//!   arithmetic of "about 4 bytes ... for the column attribute");
//! * length-prefixed varchar strings.
//!
//! Decoding is deliberately *per-field work*: the row engine extracts
//! attributes through this interface one tuple at a time, which is exactly
//! the "1-2 function calls to extract needed data from a tuple" overhead the
//! paper attributes to row-store executors (Section 5.3).

use crate::with_plain_values;
use cvr_data::ints::PlainValue;
use cvr_data::table::ColumnData;
use cvr_data::value::{DataType, Value};

/// Bytes of per-tuple header overhead charged by the row format.
pub const TUPLE_HEADER_BYTES: usize = 8;

/// Width of an encoded integer field.
pub const INT_FIELD_BYTES: usize = 4;

/// Serialize one row (with header) into `out`. Values must fit the SSBM
/// domains: integers must fit in `u32`, strings must be shorter than 256
/// bytes.
pub fn encode_row(values: &[Value], out: &mut Vec<u8>) {
    let start = begin_record(out);
    for v in values {
        match v {
            Value::Int(i) => push_int(*i, out),
            Value::Str(s) => push_str(s, out),
        }
    }
    finish_record(out, start, values.len());
}

/// Writes one column's field of a row into `out`; the column's type and
/// width are dispatched once, when [`column_fields`] builds it.
pub type FieldWriter<'a> = Box<dyn Fn(usize, &mut Vec<u8>) + 'a>;

/// One [`FieldWriter`] for each of `columns`, in order.
pub fn column_fields<'a>(columns: &[&'a ColumnData]) -> Vec<FieldWriter<'a>> {
    let field = |column: &'a ColumnData| -> FieldWriter<'a> {
        match column {
            ColumnData::Int(v) => with_plain_values!(v, |v| Box::new(|row, out: &mut Vec<u8>| {
                push_int(v[row].widen(), out)
            })),
            ColumnData::Str(v) => Box::new(|row, out: &mut Vec<u8>| push_str(&v[row], out)),
        }
    };
    columns.iter().map(|&c| field(c)).collect()
}

/// Serialize row `row` of the columns behind `fields` (one field per
/// column, in order) into `out`: the bytes [`encode_row`] writes for that
/// row, read straight from the columns — no row is materialized.
pub fn encode_columns_row(fields: &[FieldWriter<'_>], row: usize, out: &mut Vec<u8>) {
    let start = begin_record(out);
    for field in fields {
        field(row, out);
    }
    finish_record(out, start, fields.len());
}

/// Encoded size of row `row` of `columns`: the length of the record
/// [`encode_columns_row`] writes, computed without writing it.
pub fn columns_row_size(columns: &[&ColumnData], row: usize) -> usize {
    TUPLE_HEADER_BYTES
        + columns
            .iter()
            .map(|column| match column {
                ColumnData::Int(_) => INT_FIELD_BYTES,
                ColumnData::Str(v) => 1 + v[row].len(),
            })
            .sum::<usize>()
}

/// Reserve the header: record length placeholder (u32) + attribute count
/// (u16) + 2 flag bytes. Real systems store MVCC/visibility data here; we
/// only need the space cost to be honest. Returns the record's start.
fn begin_record(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; TUPLE_HEADER_BYTES]);
    start
}

fn push_int(i: i64, out: &mut Vec<u8>) {
    let u = u32::try_from(i).unwrap_or_else(|_| panic!("int {i} out of u32 range"));
    out.extend_from_slice(&u.to_le_bytes());
}

fn push_str(s: &str, out: &mut Vec<u8>) {
    assert!(s.len() < 256, "string too long for varchar codec");
    out.push(s.len() as u8);
    out.extend_from_slice(s.as_bytes());
}

/// Fill in the header of the record begun at `start`.
fn finish_record(out: &mut [u8], start: usize, arity: usize) {
    let len = (out.len() - start) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 6].copy_from_slice(&(arity as u16).to_le_bytes());
}

/// Total encoded length of the record starting at `buf[0]` (from its header).
pub fn record_len(buf: &[u8]) -> usize {
    u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize
}

/// A decoded view over one encoded record.
///
/// Field access walks the variable-length layout from the start — the same
/// attribute-extraction cost a real slotted row layout pays for fields after
/// the first varchar.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    buf: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Wrap an encoded record.
    pub fn new(buf: &'a [u8]) -> RecordView<'a> {
        RecordView { buf }
    }

    /// Number of fields recorded in the header.
    pub fn arity(&self) -> usize {
        u16::from_le_bytes(self.buf[4..6].try_into().unwrap()) as usize
    }

    /// Extract field `idx` given the table's column types.
    ///
    /// `types[i]` must describe field `i`; extraction walks fields
    /// `0..=idx`.
    pub fn field(&self, types: &[DataType], idx: usize) -> Value {
        let mut off = TUPLE_HEADER_BYTES;
        for (i, t) in types.iter().enumerate().take(idx + 1) {
            match t {
                DataType::Int => {
                    if i == idx {
                        let u = u32::from_le_bytes(self.buf[off..off + 4].try_into().unwrap());
                        return Value::Int(u as i64);
                    }
                    off += INT_FIELD_BYTES;
                }
                DataType::Str => {
                    let len = self.buf[off] as usize;
                    if i == idx {
                        let s = std::str::from_utf8(&self.buf[off + 1..off + 1 + len])
                            .expect("corrupt varchar");
                        return Value::str(s);
                    }
                    off += 1 + len;
                }
            }
        }
        unreachable!("idx checked by take()")
    }

    /// Extract an integer field without allocating (hot path for the row
    /// engine's predicate evaluation).
    pub fn int_field(&self, types: &[DataType], idx: usize) -> i64 {
        let mut off = TUPLE_HEADER_BYTES;
        for (i, t) in types.iter().enumerate().take(idx + 1) {
            match t {
                DataType::Int => {
                    if i == idx {
                        return u32::from_le_bytes(self.buf[off..off + 4].try_into().unwrap())
                            as i64;
                    }
                    off += INT_FIELD_BYTES;
                }
                DataType::Str => {
                    assert!(i != idx, "int_field on varchar column");
                    off += 1 + self.buf[off] as usize;
                }
            }
        }
        unreachable!()
    }

    /// Extract a string field as a borrowed slice.
    pub fn str_field(&self, types: &[DataType], idx: usize) -> &'a str {
        let mut off = TUPLE_HEADER_BYTES;
        for (i, t) in types.iter().enumerate().take(idx + 1) {
            match t {
                DataType::Int => {
                    assert!(i != idx, "str_field on int column");
                    off += INT_FIELD_BYTES;
                }
                DataType::Str => {
                    let len = self.buf[off] as usize;
                    if i == idx {
                        return std::str::from_utf8(&self.buf[off + 1..off + 1 + len])
                            .expect("corrupt varchar");
                    }
                    off += 1 + len;
                }
            }
        }
        unreachable!()
    }

    /// Decode every field (slow path: used when materializing full rows).
    pub fn decode_all(&self, types: &[DataType]) -> Vec<Value> {
        (0..types.len()).map(|i| self.field(types, i)).collect()
    }

    /// Compute the byte offset of every field in one walk, appending into
    /// `out` (cleared first). Scans keep a scratch vector and use
    /// [`RecordView::value_at`] / [`RecordView::int_at`] for O(1) typed
    /// access afterwards — one layout walk per record instead of one per
    /// field.
    pub fn field_offsets(&self, types: &[DataType], out: &mut Vec<usize>) {
        out.clear();
        let mut off = TUPLE_HEADER_BYTES;
        for t in types {
            out.push(off);
            match t {
                DataType::Int => off += INT_FIELD_BYTES,
                DataType::Str => off += 1 + self.buf[off] as usize,
            }
        }
    }

    /// Decode the field at a known byte offset.
    pub fn value_at(&self, dtype: DataType, off: usize) -> Value {
        match dtype {
            DataType::Int => Value::Int(self.int_at(off)),
            DataType::Str => Value::str(self.str_at(off)),
        }
    }

    /// Integer field at a known byte offset.
    #[inline]
    pub fn int_at(&self, off: usize) -> i64 {
        u32::from_le_bytes(self.buf[off..off + 4].try_into().unwrap()) as i64
    }

    /// String field at a known byte offset.
    #[inline]
    pub fn str_at(&self, off: usize) -> &'a str {
        let len = self.buf[off] as usize;
        std::str::from_utf8(&self.buf[off + 1..off + 1 + len]).expect("corrupt varchar")
    }
}

/// Encoded size of a row without building it (used for page planning and the
/// Section 6.2 size accounting).
pub fn encoded_size(values: &[Value]) -> usize {
    TUPLE_HEADER_BYTES
        + values
            .iter()
            .map(|v| match v {
                Value::Int(_) => INT_FIELD_BYTES,
                Value::Str(s) => 1 + s.len(),
            })
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<Value>, Vec<DataType>) {
        (
            vec![Value::Int(42), Value::str("ASIA"), Value::Int(19970101), Value::str("")],
            vec![DataType::Int, DataType::Str, DataType::Int, DataType::Str],
        )
    }

    #[test]
    fn round_trip() {
        let (row, types) = sample();
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let view = RecordView::new(&buf);
        assert_eq!(view.arity(), 4);
        assert_eq!(view.decode_all(&types), row);
    }

    #[test]
    fn record_len_matches_encoded_size() {
        let (row, _) = sample();
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(record_len(&buf), buf.len());
        assert_eq!(encoded_size(&row), buf.len());
    }

    #[test]
    fn column_records_are_the_row_records() {
        let columns = [
            ColumnData::Int(vec![42, 0, u32::MAX as i64].into()),
            ColumnData::Str(vec!["ASIA".into(), String::new(), "x".repeat(255)].into()),
            ColumnData::Int(vec![19970101, 7, 1].into()),
        ];
        let refs: Vec<&ColumnData> = columns.iter().collect();
        for row in 0..3 {
            let values: Vec<Value> = columns.iter().map(|c| c.value(row)).collect();
            let (mut want, mut got) = (Vec::new(), vec![9u8]);
            encode_row(&values, &mut want);
            encode_columns_row(&column_fields(&refs), row, &mut got);
            assert_eq!(got[1..], want[..], "row {row}");
            assert_eq!(columns_row_size(&refs, row), encoded_size(&values));
            // A subset of the columns, in another order.
            let (mut want, mut got) = (Vec::new(), Vec::new());
            encode_row(&[values[2].clone(), values[1].clone()], &mut want);
            encode_columns_row(&column_fields(&[refs[2], refs[1]]), row, &mut got);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn typed_field_access() {
        let (row, types) = sample();
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let view = RecordView::new(&buf);
        assert_eq!(view.int_field(&types, 0), 42);
        assert_eq!(view.str_field(&types, 1), "ASIA");
        assert_eq!(view.int_field(&types, 2), 19970101);
        assert_eq!(view.str_field(&types, 3), "");
    }

    #[test]
    fn multiple_records_in_buffer() {
        let (row, types) = sample();
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let first_len = buf.len();
        encode_row(&row, &mut buf);
        let second = RecordView::new(&buf[first_len..]);
        assert_eq!(second.int_field(&types, 2), 19970101);
    }

    #[test]
    fn header_overhead_present() {
        let row = vec![Value::Int(1)];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(buf.len(), TUPLE_HEADER_BYTES + INT_FIELD_BYTES);
    }

    #[test]
    #[should_panic(expected = "out of u32 range")]
    fn rejects_oversized_ints() {
        let mut buf = Vec::new();
        encode_row(&[Value::Int(1 << 40)], &mut buf);
    }
}
