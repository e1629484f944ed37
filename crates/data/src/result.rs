//! Canonical query results shared by every engine.
//!
//! All thirteen SSBM queries return grouped integer sums. Normalizing the
//! result shape here lets the integration tests assert *exact* equality of
//! outputs across the row engine's five physical designs and the column
//! engine's sixteen configurations — the study's correctness backbone.

use crate::value::Value;

/// One result row: group-by key values (empty for scalar aggregates) and the
/// aggregated sum.
pub type ResultRow = (Vec<Value>, i64);

/// A normalized query result: rows sorted by group key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// Sorted result rows.
    pub rows: Vec<ResultRow>,
}

impl QueryOutput {
    /// Normalize (sort by group key) and wrap.
    pub fn new(mut rows: Vec<ResultRow>) -> QueryOutput {
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        QueryOutput { rows }
    }

    /// A scalar result (no group-by).
    pub fn scalar(sum: i64) -> QueryOutput {
        QueryOutput { rows: vec![(Vec::new(), sum)] }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total of the aggregate column, useful as a checksum in benches.
    pub fn checksum(&self) -> i64 {
        self.rows.iter().map(|(_, v)| v).sum()
    }

    /// Heap bytes an exactly-sized copy of this output owns — what `clone`
    /// allocates — by arithmetic: the row array, each row's key array, each
    /// string's bytes. What a byte-budgeted cache charges for holding one: a
    /// row is 32 B plus 24 B per key value plus its strings, two to four
    /// times the [`QueryOutput::to_bytes`] encoding.
    pub fn heap_bytes(&self) -> usize {
        let value_bytes = |v: &Value| match v {
            Value::Int(_) => 0,
            Value::Str(s) => s.len(),
        };
        let row_bytes = |(key, _): &ResultRow| {
            key.len() * size_of::<Value>() + key.iter().map(value_bytes).sum::<usize>()
        };
        self.rows.len() * size_of::<ResultRow>() + self.rows.iter().map(row_bytes).sum::<usize>()
    }

    /// Serialize to the stable binary format (see [`QueryOutput::from_bytes`]).
    ///
    /// This is the one wire representation of a query result: the server
    /// protocol ships these bytes verbatim, and the differential/bench
    /// harnesses compare them to assert byte-identity across execution
    /// paths. Layout (all integers little-endian):
    ///
    /// ```text
    /// u8  version (currently 1)
    /// u32 row count
    /// per row:
    ///   u16 key arity
    ///   per key value: u8 tag (0 = int, 1 = str), then
    ///     int: i64
    ///     str: u32 byte length + UTF-8 bytes
    ///   i64 aggregated sum
    /// ```
    ///
    /// Rows serialize in the normalized (key-sorted) order [`QueryOutput::new`]
    /// establishes, so equal outputs always produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.rows.len() * 24);
        out.push(SERIAL_VERSION);
        out.extend_from_slice(&(self.rows.len() as u32).to_le_bytes());
        for (key, sum) in &self.rows {
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            for v in key {
                match v {
                    Value::Int(i) => {
                        out.push(0);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    Value::Str(s) => {
                        out.push(1);
                        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        out.extend_from_slice(s.as_bytes());
                    }
                }
            }
            out.extend_from_slice(&sum.to_le_bytes());
        }
        out
    }

    /// Decode the [`QueryOutput::to_bytes`] format, rejecting malformed or
    /// truncated input with a description of the first violation.
    pub fn from_bytes(bytes: &[u8]) -> Result<QueryOutput, String> {
        let mut r = Reader { bytes, at: 0 };
        let version = r.u8()?;
        if version != SERIAL_VERSION {
            return Err(format!("unsupported QueryOutput version {version}"));
        }
        let n = r.u32()? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let arity = r.u16()? as usize;
            let mut key = Vec::with_capacity(arity);
            for _ in 0..arity {
                key.push(match r.u8()? {
                    0 => Value::Int(r.i64()?),
                    1 => {
                        let len = r.u32()? as usize;
                        let s = std::str::from_utf8(r.take(len)?)
                            .map_err(|e| format!("invalid UTF-8 in string value: {e}"))?;
                        Value::str(s)
                    }
                    t => return Err(format!("unknown value tag {t}")),
                });
            }
            rows.push((key, r.i64()?));
        }
        if r.at != bytes.len() {
            return Err(format!("{} trailing bytes after {n} rows", bytes.len() - r.at));
        }
        Ok(QueryOutput { rows })
    }

    /// Render as an ASCII table (examples / debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, sum) in &self.rows {
            for k in key {
                out.push_str(&k.render());
                out.push('\t');
            }
            out.push_str(&sum.to_string());
            out.push('\n');
        }
        out
    }
}

/// Version byte leading every serialized [`QueryOutput`].
const SERIAL_VERSION: u8 = 1;

/// Bounds-checked little-endian cursor for [`QueryOutput::from_bytes`].
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated input at byte {}", self.at))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_rows() {
        let out = QueryOutput::new(vec![(vec![Value::Int(2)], 20), (vec![Value::Int(1)], 10)]);
        assert_eq!(out.rows[0].1, 10);
        assert_eq!(out.len(), 2);
        assert_eq!(out.checksum(), 30);
    }

    #[test]
    fn scalar_result() {
        let out = QueryOutput::scalar(42);
        assert_eq!(out.len(), 1);
        assert!(out.rows[0].0.is_empty());
        assert_eq!(out.checksum(), 42);
    }

    #[test]
    fn equality_after_normalization() {
        let a = QueryOutput::new(vec![(vec![Value::str("x")], 1), (vec![Value::str("y")], 2)]);
        let b = QueryOutput::new(vec![(vec![Value::str("y")], 2), (vec![Value::str("x")], 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn render_contains_values() {
        let out = QueryOutput::new(vec![(vec![Value::str("ASIA"), Value::Int(1997)], 5)]);
        let s = out.render();
        assert!(s.contains("ASIA") && s.contains("1997") && s.contains('5'));
    }

    #[test]
    fn bytes_round_trip() {
        for out in [
            QueryOutput::scalar(-42),
            QueryOutput::new(vec![]),
            QueryOutput::new(vec![
                (vec![Value::str("ASIA"), Value::Int(1997)], i64::MAX),
                (vec![Value::str(""), Value::Int(i64::MIN)], -1),
                (vec![Value::str("UNITED KI1"), Value::Int(0)], 0),
            ]),
        ] {
            let bytes = out.to_bytes();
            assert_eq!(QueryOutput::from_bytes(&bytes).unwrap(), out);
            // Stable: equal outputs serialize to equal bytes.
            assert_eq!(out.to_bytes(), bytes);
        }
    }

    #[test]
    fn equal_outputs_have_equal_bytes_after_normalization() {
        let a = QueryOutput::new(vec![(vec![Value::str("x")], 1), (vec![Value::str("y")], 2)]);
        let b = QueryOutput::new(vec![(vec![Value::str("y")], 2), (vec![Value::str("x")], 1)]);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn from_bytes_rejects_malformed_input() {
        let good = QueryOutput::scalar(7).to_bytes();
        // Wrong version byte.
        let mut bad = good.clone();
        bad[0] = 9;
        assert!(QueryOutput::from_bytes(&bad).unwrap_err().contains("version"));
        // Truncation anywhere in the payload.
        for cut in 0..good.len() {
            assert!(QueryOutput::from_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(QueryOutput::from_bytes(&long).unwrap_err().contains("trailing"));
        // Unknown value tag.
        let row = QueryOutput::new(vec![(vec![Value::Int(1)], 2)]).to_bytes();
        let mut bad_tag = row.clone();
        bad_tag[7] = 7; // version(1) + count(4) + arity(2) → first tag byte
        assert!(QueryOutput::from_bytes(&bad_tag).unwrap_err().contains("tag"));
    }
}
