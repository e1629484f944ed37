//! In-memory logical tables produced by the generator.
//!
//! [`TableData`] is the *logical* interchange format: column-major vectors of
//! native values. It is not an execution format — the row engine serializes
//! it into slotted heap pages and the column engine into compressed column
//! segments. Keeping the interchange format column-major makes both
//! conversions cheap and keeps the generator simple.
//!
//! Both column types hold each value in the bytes it needs. An integer
//! column is a [`PlainInts`]: `u8`, `u16`, `u32` or `i64`, the narrowest
//! width its values fit. A string column is a [`Strs`]: every value's bytes
//! back to back in one buffer plus one end offset a value, so a column costs
//! two allocations and 4 bytes a value beyond its text, not a `String`
//! header and a heap chunk a value.

use std::fmt;
use std::ops::Index;

pub use crate::ints::PlainInts;
use crate::schema::TableSchema;
use crate::value::{DataType, Row, Value};

/// A string column at its bytes: all values' UTF-8 back to back in one
/// `String`, and each value's end offset into it.
///
/// Every offset ends a pushed `&str`, so every slice between two offsets lies
/// on character boundaries.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Strs {
    text: String,
    ends: Vec<u32>,
}

impl Strs {
    /// Most bytes of text one column holds: offsets are `u32`.
    pub const MAX_TEXT: usize = u32::MAX as usize;

    /// An empty column.
    pub fn new() -> Strs {
        Strs::default()
    }

    /// An empty column with room for `values` values of `text` bytes in all.
    pub fn with_capacity(values: usize, text: usize) -> Strs {
        Strs { text: String::with_capacity(text), ends: Vec::with_capacity(values) }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of text over all values.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Value `i`.
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The values in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { text: &self.text, ends: self.ends.iter(), start: 0 }
    }

    /// Append `s`.
    ///
    /// # Panics
    ///
    /// When the column's text would exceed [`Strs::MAX_TEXT`] bytes. That is
    /// an invariant of the column: its callers build it from generated values
    /// or from another column, and `cvr-storage`'s snapshot loader checks a
    /// decoded column's size before building one.
    pub fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.end_value();
    }

    /// Append the formatted `args` as one value, with no intermediate
    /// `String` ([`Strs::push`]'s bound holds).
    pub fn push_fmt(&mut self, args: fmt::Arguments<'_>) {
        // Writing to a `String` fails only when a `Display` impl does, as in
        // `format!`.
        fmt::Write::write_fmt(&mut self.text, args)
            .expect("a Display implementation returned an error");
        self.end_value();
    }

    /// End the value whose bytes were just appended to `text`.
    fn end_value(&mut self) {
        assert!(self.text.len() <= Strs::MAX_TEXT, "a string column holds at most 4 GiB of text");
        self.ends.push(self.text.len() as u32);
    }

    /// The values at `positions`, in that order; the text is sized in one
    /// allocation.
    pub fn gather(&self, positions: &[u32]) -> Strs {
        let text = positions.iter().map(|&p| self.get(p as usize).len()).sum();
        let mut out = Strs::with_capacity(positions.len(), text);
        for &p in positions {
            out.push(self.get(p as usize));
        }
        out
    }

    /// The column whose value `j` is `dict[codes[j]]`: its offsets are one
    /// prefix sum over the entries' lengths and its text one copy a value,
    /// both sized up front. `None` when the text would exceed `max_text`
    /// bytes (at most [`Strs::MAX_TEXT`]).
    pub fn from_codes(
        dict: &[Box<str>],
        codes: impl ExactSizeIterator<Item = u32> + Clone,
        max_text: usize,
    ) -> Option<Strs> {
        let lens: Vec<u64> = dict.iter().map(|s| s.len() as u64).collect();
        let mut end = 0u64;
        let mut ends = Vec::with_capacity(codes.len());
        ends.extend(codes.clone().map(|c| {
            end += lens[c as usize];
            end as u32
        }));
        // Offsets past `u32` wrapped above; they are dropped here unread.
        if end > max_text.min(Strs::MAX_TEXT) as u64 {
            return None;
        }
        let mut text = String::with_capacity(end as usize);
        codes.for_each(|c| text.push_str(&dict[c as usize]));
        Some(Strs { text, ends })
    }

    /// Release spare capacity of both buffers.
    pub fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

impl Index<usize> for Strs {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl fmt::Debug for Strs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> FromIterator<S> for Strs {
    fn from_iter<I: IntoIterator<Item = S>>(values: I) -> Strs {
        let values = values.into_iter();
        let mut out = Strs::with_capacity(values.size_hint().0, 0);
        for s in values {
            out.push(s.as_ref());
        }
        out
    }
}

impl<S: AsRef<str>> From<Vec<S>> for Strs {
    fn from(values: Vec<S>) -> Strs {
        let text = values.iter().map(|s| s.as_ref().len()).sum();
        let mut out = Strs::with_capacity(values.len(), text);
        for s in &values {
            out.push(s.as_ref());
        }
        out
    }
}

impl<'a> IntoIterator for &'a Strs {
    type Item = &'a str;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Strs`]'s values.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    text: &'a str,
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let end = *self.ends.next()? as usize;
        let s = &self.text[self.start..end];
        self.start = end;
        Some(s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Column-major data for one column.
///
/// Equality compares values: two integer columns holding the same values at
/// different widths are equal.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Integer column.
    Int(PlainInts),
    /// String column.
    Str(Strs),
}

impl PartialEq for ColumnData {
    fn eq(&self, other: &ColumnData) -> bool {
        match (self, other) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a.values_eq(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ColumnData {}

impl ColumnData {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Str(_) => DataType::Str,
        }
    }

    /// Value at `row` as a [`Value`] (slow path; for tests and stitching).
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v.get(row)),
            ColumnData::Str(v) => Value::str(&v[row]),
        }
    }

    /// Integer values, panicking for string columns.
    pub fn ints(&self) -> &PlainInts {
        match self {
            ColumnData::Int(v) => v,
            ColumnData::Str(_) => panic!("expected int column"),
        }
    }

    /// String values, panicking for int columns.
    pub fn strs(&self) -> &Strs {
        match self {
            ColumnData::Str(v) => v,
            ColumnData::Int(_) => panic!("expected string column"),
        }
    }

    /// Gather the values at `positions` into a new column.
    pub fn gather(&self, positions: &[u32]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(v.gather(positions)),
            ColumnData::Str(v) => ColumnData::Str(v.gather(positions)),
        }
    }
}

/// A complete logical table: schema plus column-major data.
#[derive(Debug, Clone)]
pub struct TableData {
    /// The table's schema.
    pub schema: TableSchema,
    /// One [`ColumnData`] per schema column, all the same length.
    pub columns: Vec<ColumnData>,
}

impl TableData {
    /// Create a table, validating column count and lengths.
    pub fn new(schema: TableSchema, columns: Vec<ColumnData>) -> Self {
        assert_eq!(schema.arity(), columns.len(), "column count mismatch for {}", schema.name);
        if let Some(first) = columns.first() {
            for (i, c) in columns.iter().enumerate() {
                assert_eq!(
                    c.len(),
                    first.len(),
                    "column {} of {} has inconsistent length",
                    schema.columns[i].name,
                    schema.name
                );
                assert_eq!(
                    c.dtype(),
                    schema.columns[i].dtype,
                    "column {} of {} has wrong type",
                    schema.columns[i].name,
                    schema.name
                );
            }
        }
        TableData { schema, columns }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, ColumnData::len)
    }

    /// Column data by name.
    pub fn column(&self, name: &str) -> &ColumnData {
        &self.columns[self.schema.col(name)]
    }

    /// Materialize row `i` (slow path).
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Value at (`row`, column `name`).
    pub fn value(&self, row: usize, name: &str) -> Value {
        self.column(name).value(row)
    }

    /// Keep only the named columns, in the given order (a logical projection).
    pub fn project(&self, names: &[&str]) -> TableData {
        let schema = TableSchema {
            name: self.schema.name,
            columns: names
                .iter()
                .map(|n| self.schema.columns[self.schema.col(n)].clone())
                .collect(),
        };
        let columns = names.iter().map(|n| self.column(n).clone()).collect();
        TableData { schema, columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn tiny() -> TableData {
        let schema = TableSchema {
            name: "t",
            columns: vec![
                ColumnDef { name: "a", dtype: DataType::Int },
                ColumnDef { name: "b", dtype: DataType::Str },
            ],
        };
        TableData::new(
            schema,
            vec![
                ColumnData::Int(vec![10, 20, 30].into()),
                ColumnData::Str(vec!["x", "y", "z"].into()),
            ],
        )
    }

    #[test]
    fn basic_access() {
        let t = tiny();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(1, "a"), Value::Int(20));
        assert_eq!(t.value(2, "b"), Value::str("z"));
        assert_eq!(t.row(0), vec![Value::Int(10), Value::str("x")]);
    }

    #[test]
    fn gather_and_permute() {
        let t = tiny();
        let g = t.column("a").gather(&[2, 0]);
        assert_eq!(g, ColumnData::Int(vec![30, 10].into()));
    }

    #[test]
    fn project_reorders_and_subsets() {
        let t = tiny();
        let p = t.project(&["b"]);
        assert_eq!(p.schema.arity(), 1);
        assert_eq!(p.value(0, "b"), Value::str("x"));
    }

    /// A seeded string drawn from ASCII, 2-, 3- and 4-byte characters, 0 to
    /// 255 bytes long.
    fn seeded_string(state: &mut u64) -> String {
        let mut next = || {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *state >> 33
        };
        let len = next() as usize % 256;
        let mut s = String::new();
        while s.len() < len {
            let c = ['a', 'Z', ' ', 'é', 'ß', '€', '中', '🦀'][next() as usize % 8];
            if s.len() + c.len_utf8() > len {
                break;
            }
            s.push(c);
        }
        s
    }

    #[test]
    fn strs_round_trip_empty_long_and_multibyte_values() {
        let mut state = 7;
        let mut values: Vec<String> = (0..500).map(|_| seeded_string(&mut state)).collect();
        values.extend(["".to_string(), "x".repeat(255), "".to_string(), "€".repeat(85)]);
        let mut strs = Strs::new();
        for v in &values {
            strs.push(v);
        }
        assert_eq!(strs.len(), values.len());
        assert_eq!(strs.text_len(), values.iter().map(String::len).sum::<usize>());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(strs.get(i), v);
            assert_eq!(&strs[i], v.as_str());
        }
        assert!(strs.iter().eq(values.iter().map(String::as_str)));
        assert_eq!(strs.iter().len(), values.len());
        assert_eq!(format!("{strs:?}"), format!("{values:?}"));
        assert!(Strs::new().is_empty());
        assert_eq!(Strs::new().iter().next(), None);
    }

    #[test]
    fn strs_from_a_vec_and_collected_are_equal() {
        let mut state = 11;
        let values: Vec<String> = (0..300).map(|_| seeded_string(&mut state)).collect();
        let collected: Strs = values.iter().collect();
        assert_eq!(Strs::from(values.clone()), collected);
        let mut fmt = Strs::new();
        for v in &values {
            fmt.push_fmt(format_args!("{v}"));
        }
        assert_eq!(fmt, collected);
        assert_ne!(collected, values[1..].iter().collect());
    }

    #[test]
    fn gather_and_permute_agree_with_a_vec_reference() {
        let mut state = 3;
        let n = 400;
        let values: Vec<String> = (0..n).map(|_| seeded_string(&mut state)).collect();
        // Up to 67 200: held at `u32`.
        let ints: Vec<i64> = (0..n as i64).map(|i| i * 31 % 97 * 700).collect();
        let schema = TableSchema {
            name: "t",
            columns: vec![
                ColumnDef { name: "a", dtype: DataType::Int },
                ColumnDef { name: "b", dtype: DataType::Str },
            ],
        };
        let t = TableData::new(
            schema,
            vec![ColumnData::Int(ints.clone().into()), ColumnData::Str(values.clone().into())],
        );
        // A seeded permutation, and a gather that repeats and skips rows.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..perm.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let picks: Vec<u32> = (0..n as u32).map(|i| i * 7 % 13 * 29 % n as u32).collect();
        for positions in [&perm, &picks] {
            let want: Vec<String> = positions.iter().map(|&p| values[p as usize].clone()).collect();
            let got = t.column("b").gather(positions);
            assert_eq!(got, ColumnData::Str(want.clone().into()));
            assert_eq!(got.strs().text_len(), want.iter().map(String::len).sum::<usize>());
            let want: Vec<i64> = positions.iter().map(|&p| ints[p as usize]).collect();
            assert_eq!(t.column("a").gather(positions), ColumnData::Int(want.into()));
        }
        assert_eq!(t.project(&["b"]).columns[0], *t.column("b"));
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn new_validates_lengths() {
        let schema = TableSchema {
            name: "t",
            columns: vec![
                ColumnDef { name: "a", dtype: DataType::Int },
                ColumnDef { name: "b", dtype: DataType::Int },
            ],
        };
        TableData::new(
            schema,
            vec![ColumnData::Int(vec![1].into()), ColumnData::Int(vec![1, 2].into())],
        );
    }

    #[test]
    #[should_panic(expected = "wrong type")]
    fn new_validates_types() {
        let schema =
            TableSchema { name: "t", columns: vec![ColumnDef { name: "a", dtype: DataType::Int }] };
        TableData::new(schema, vec![ColumnData::Str(vec!["x"].into())]);
    }
}
