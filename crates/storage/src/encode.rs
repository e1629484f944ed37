//! Column encodings: plain, run-length (RLE), and dictionary.
//!
//! These are the "lighter-weight schemes that sacrifice compression ratio
//! for decompression performance" of Section 5.1. Two properties matter to
//! the experiments and are preserved carefully here:
//!
//! 1. **Direct operation on compressed data.** RLE exposes its runs
//!    ([`IntColumn::runs`]) so predicates and aggregates can process a whole
//!    run at once; dictionaries are sorted, so order-preserving codes let
//!    string predicates become integer-code predicates evaluated once against
//!    the (tiny) dictionary.
//! 2. **Honest size accounting.** [`IntColumn::encoded_bytes`] /
//!    [`StrColumn::encoded_bytes`] report the on-disk footprint the I/O model
//!    charges: byte-width-minimized plain integers (a 4-byte int column at
//!    SF 10 is the paper's "just 240 MB"), 12-byte RLE runs, bit-packed
//!    dictionary codes.
//!
//! Both fixed-width representations are held in memory as the image the
//! I/O model charges, so `encoded_bytes` is the size of what a scan reads:
//!
//! * **Plain** columns are byte-aligned arrays at their charged width
//!   ([`PlainInts`]: `u8`/`u16`/`u32`, `i64` at width 8) — the array a block
//!   iterator hands the CPU (Section 5.3), which `cvr-core::kernels`
//!   compares as byte verdicts the compiler vectorizes, and a positional
//!   lookup reads with one index.
//! * **Bit-packed** columns — [`IntColumn::Packed`] (frame-of-reference
//!   deltas in lane-aligned [`PackedInts`] words, chosen by
//!   [`IntColumn::auto`] whenever the packed image beats byte-minimized
//!   plain) and [`StrColumn::Dict`] codes — are the packed word image the
//!   SWAR kernels compare 64 bits at a time without unpacking.

use crate::packed::{max_code_for, PackedInts, MAX_VALUE_BITS};
use cvr_data::table::ColumnData;
use std::collections::HashMap;

/// A maximal run of equal values in an RLE column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The repeated value.
    pub value: i64,
    /// Position of the first occurrence.
    pub start: u32,
    /// Number of repetitions (≥ 1).
    pub len: u32,
}

/// On-disk bytes per RLE run: 8-byte value + 4-byte length.
pub const RLE_RUN_BYTES: u64 = 12;

/// A value type a plain column is held at: `u8`/`u16`/`u32` for widths 1, 2
/// and 4 (non-negative by construction), `i64` for width 8.
pub trait PlainValue: Copy + PartialOrd {
    /// Smallest value of the type.
    const MIN: Self;
    /// Largest value of the type.
    const MAX: Self;
    /// The logical value.
    fn widen(self) -> i64;
    /// `v` at this width; `None` when it does not fit.
    fn narrow(v: i64) -> Option<Self>;
}

macro_rules! plain_value {
    ($($t:ty),*) => {$(
        impl PlainValue for $t {
            const MIN: $t = <$t>::MIN;
            const MAX: $t = <$t>::MAX;
            #[inline]
            fn widen(self) -> i64 {
                self as i64
            }
            #[inline]
            fn narrow(v: i64) -> Option<$t> {
                <$t>::try_from(v).ok()
            }
        }
    )*};
}
plain_value!(u8, u16, u32, i64);

/// The values of a plain column, held at the byte width the column is
/// charged and persisted under: in-memory bytes are
/// [`IntColumn::encoded_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlainInts {
    /// Width 1.
    U8(Vec<u8>),
    /// Width 2.
    U16(Vec<u16>),
    /// Width 4.
    U32(Vec<u32>),
    /// Width 8 (the only width that holds negative values).
    I64(Vec<i64>),
}

/// Evaluate `$body` with `$values` bound to the typed `Vec` of a
/// [`PlainInts`]: one monomorphic copy of the body per width, the dispatch
/// hoisted out of whatever loop the body runs.
#[macro_export]
macro_rules! with_plain_values {
    ($plain:expr, |$values:ident| $body:expr) => {
        match $plain {
            $crate::encode::PlainInts::U8($values) => $body,
            $crate::encode::PlainInts::U16($values) => $body,
            $crate::encode::PlainInts::U32($values) => $body,
            $crate::encode::PlainInts::I64($values) => $body,
        }
    };
}

impl PlainInts {
    /// `values` at `width` bytes each (1, 2, 4 or 8). Panics when a value
    /// does not fit: callers size `width` from the values.
    pub fn new(values: Vec<i64>, width: u8) -> PlainInts {
        fn narrowed<T: PlainValue>(values: &[i64]) -> Vec<T> {
            let fit = |&v| T::narrow(v).unwrap_or_else(|| panic!("{v} exceeds the plain width"));
            values.iter().map(fit).collect()
        }
        match width {
            1 => PlainInts::U8(narrowed(&values)),
            2 => PlainInts::U16(narrowed(&values)),
            4 => PlainInts::U32(narrowed(&values)),
            8 => PlainInts::I64(values),
            _ => panic!("invalid plain width {width}"),
        }
    }

    /// Bytes per value: 1, 2, 4 or 8.
    pub fn width(&self) -> u8 {
        match self {
            PlainInts::U8(_) => 1,
            PlainInts::U16(_) => 2,
            PlainInts::U32(_) => 4,
            PlainInts::I64(_) => 8,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        with_plain_values!(self, |v| v.len())
    }

    /// True when there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `pos`. Loops that read many values should hoist the width
    /// dispatch with [`with_plain_values!`](crate::with_plain_values).
    #[inline]
    pub fn get(&self, pos: u32) -> i64 {
        with_plain_values!(self, |v| v[pos as usize].widen())
    }

    /// Every value, widened.
    pub fn decode(&self) -> Vec<i64> {
        with_plain_values!(self, |v| v.iter().map(|x| x.widen()).collect())
    }

    /// Smallest and largest value; `None` when empty.
    fn min_max(&self) -> Option<(i64, i64)> {
        with_plain_values!(self, |v| min_max(v).map(|(lo, hi)| (lo.widen(), hi.widen())))
    }
}

/// An encoded integer column.
#[derive(Debug, Clone, PartialEq)]
pub enum IntColumn {
    /// Uncompressed values at a fixed byte width.
    Plain(PlainInts),
    /// Run-length encoded values.
    Rle {
        /// Maximal runs in position order.
        runs: Vec<Run>,
        /// Total logical values.
        num_values: u32,
    },
    /// Frame-of-reference + bit-packing: each value stored as the unsigned
    /// delta `value - reference` in a lane-aligned [`PackedInts`] image.
    /// This is the layout the SWAR scan kernels compare 64 bits at a time.
    Packed {
        /// Frame of reference (the column minimum).
        reference: i64,
        /// Bit-packed deltas; the word image is the on-disk bytes.
        packed: PackedInts,
    },
}

impl IntColumn {
    /// Encode `values` with byte-minimized width (the light-weight
    /// byte-packing a compressing store applies even to "uncompressed"
    /// columns).
    pub fn plain(values: Vec<i64>) -> IntColumn {
        let width = byte_width(&values);
        IntColumn::Plain(PlainInts::new(values, width))
    }

    /// Encode `values` at fixed machine width: 4 bytes (8 when values
    /// exceed `u32`). This is what "compression disabled" means on disk —
    /// byte-width minimization is itself a compression technique, so the
    /// Figure 7 `c` configurations must not get it for free.
    pub fn plain_fixed(values: Vec<i64>) -> IntColumn {
        let width = fixed_width(&values);
        IntColumn::Plain(PlainInts::new(values, width))
    }

    /// [`IntColumn::encoded_bytes`] of [`IntColumn::plain_fixed`] over
    /// `values`, from the same width function, without building the column.
    pub fn plain_fixed_bytes(values: &[i64]) -> u64 {
        values.len() as u64 * fixed_width(values) as u64
    }

    /// [`IntColumn::auto`] when `compress`, [`IntColumn::plain_fixed`]
    /// otherwise.
    pub fn encode(values: Vec<i64>, compress: bool) -> IntColumn {
        if compress {
            IntColumn::auto(values)
        } else {
            IntColumn::plain_fixed(values)
        }
    }

    /// Encode `values` with RLE.
    pub fn rle(values: &[i64]) -> IntColumn {
        let mut runs = Vec::new();
        let mut i = 0usize;
        while i < values.len() {
            let v = values[i];
            let start = i;
            while i < values.len() && values[i] == v {
                i += 1;
            }
            runs.push(Run { value: v, start: start as u32, len: (i - start) as u32 });
        }
        IntColumn::Rle { runs, num_values: values.len() as u32 }
    }

    /// Frame-of-reference bit-packing, when the value range permits it:
    /// `None` for empty columns and for ranges needing more than
    /// [`MAX_VALUE_BITS`] delta bits.
    pub fn packed(values: &[i64]) -> Option<IntColumn> {
        let (min, max) = min_max(values)?;
        let bits = packed_bits(min, max)?;
        let packed =
            PackedInts::pack(bits, values.iter().map(|&v| (v as i128 - min as i128) as u64));
        Some(IntColumn::Packed { reference: min, packed })
    }

    /// Pick the smallest encoding: RLE when run structure pays for the run
    /// overhead, frame-of-reference bit-packing when the packed word image
    /// beats byte-minimized plain, plain otherwise.
    ///
    /// All three candidates are sized from the run count, minimum and
    /// maximum of `values`, and only the winner is built.
    pub fn auto(values: Vec<i64>) -> IntColumn {
        let Some((min, max)) = min_max(&values) else {
            return IntColumn::plain(values);
        };
        let n = values.len();
        let runs = 1 + values.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        let mut best = n as u64 * width_for(min, max) as u64;
        let mut pack = false;
        if let Some(bits) = packed_bits(min, max) {
            let bytes = PackedInts::bytes_for(bits, n);
            if bytes < best {
                (best, pack) = (bytes, true);
            }
        }
        if runs * RLE_RUN_BYTES < best {
            IntColumn::rle(&values)
        } else if pack {
            IntColumn::packed(&values).expect("sized above")
        } else {
            IntColumn::plain(values)
        }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        match self {
            IntColumn::Plain(values) => values.len(),
            IntColumn::Rle { num_values, .. } => *num_values as usize,
            IntColumn::Packed { packed, .. } => packed.len() as usize,
        }
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk footprint in bytes. For [`IntColumn::Packed`] this is the
    /// size of the actual packed word image, not a formula.
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            IntColumn::Plain(values) => values.len() as u64 * values.width() as u64,
            IntColumn::Rle { runs, .. } => runs.len() as u64 * RLE_RUN_BYTES,
            IntColumn::Packed { packed, .. } => packed.bytes(),
        }
    }

    /// Value at `pos` (slow path: RLE does a binary search).
    pub fn value_at(&self, pos: u32) -> i64 {
        match self {
            IntColumn::Plain(values) => values.get(pos),
            IntColumn::Rle { runs, .. } => {
                let idx = run_index(runs, pos);
                runs[idx].value
            }
            IntColumn::Packed { reference, packed } => reference + packed.get(pos) as i64,
        }
    }

    /// Index of the run containing `pos` (RLE only).
    pub fn run_containing(&self, pos: u32) -> usize {
        match self {
            IntColumn::Rle { runs, .. } => run_index(runs, pos),
            _ => panic!("run_containing on non-RLE column"),
        }
    }

    /// The runs (RLE only) — the direct-operation interface.
    pub fn runs(&self) -> &[Run] {
        match self {
            IntColumn::Rle { runs, .. } => runs,
            _ => panic!("runs() on non-RLE column"),
        }
    }

    /// Decode to a fresh vector (the "remove compression" path: what a
    /// late-materializing plan must do before stitching tuples).
    pub fn decode(&self) -> Vec<i64> {
        match self {
            IntColumn::Plain(values) => values.decode(),
            IntColumn::Rle { runs, num_values } => {
                let mut out = Vec::with_capacity(*num_values as usize);
                for r in runs {
                    out.resize(out.len() + r.len as usize, r.value);
                }
                out
            }
            IntColumn::Packed { reference, packed } => {
                let r = *reference;
                let mut out = Vec::with_capacity(packed.len() as usize);
                packed.for_each_in(0, packed.len(), |c| out.push(r + c as i64));
                out
            }
        }
    }

    /// True for the RLE variant.
    pub fn is_rle(&self) -> bool {
        matches!(self, IntColumn::Rle { .. })
    }

    /// Code-level access metadata: `(reference, domain)` such that every
    /// stored value `v` satisfies `0 <= v - reference < domain`, and codes
    /// `(v - reference) as u32` are dense enough to index. This is column
    /// *header* metadata — `Packed` carries it by construction, `Rle` derives
    /// it from its (in-memory) run directory, `Plain` from a value sweep —
    /// the zone-map any real column store keeps next to the data. Returns
    /// `None` for empty columns or value ranges wider than `u32`.
    pub fn code_bounds(&self) -> Option<(i64, u64)> {
        let (min, max) = match self {
            IntColumn::Packed { reference, packed } => {
                return Some((*reference, packed.max_code() + 1));
            }
            IntColumn::Plain(values) => values.min_max()?,
            IntColumn::Rle { runs, .. } => {
                let (first, rest) = runs.split_first()?;
                rest.iter().fold((first.value, first.value), |(lo, hi), r| {
                    (lo.min(r.value), hi.max(r.value))
                })
            }
        };
        let domain = (max as i128 - min as i128) as u128 + 1;
        (domain <= u32::MAX as u128 + 1).then_some((min, domain as u64))
    }

    /// True for the frame-of-reference bit-packed variant.
    pub fn is_packed(&self) -> bool {
        matches!(self, IntColumn::Packed { .. })
    }
}

fn run_index(runs: &[Run], pos: u32) -> usize {
    match runs.binary_search_by(|r| {
        if pos < r.start {
            std::cmp::Ordering::Greater
        } else if pos >= r.start + r.len {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }) {
        Ok(i) => i,
        Err(_) => panic!("position {pos} out of range"),
    }
}

/// Minimal byte width (1/2/4/8) holding every value. Negative values force 8.
pub fn byte_width(values: &[i64]) -> u8 {
    let (min, max) = min_max(values).unwrap_or((0, 0));
    width_for(min, max)
}

/// Fixed machine width of an uncompressed column: 4 bytes, 8 when a value
/// does not fit `u32`.
fn fixed_width(values: &[i64]) -> u8 {
    byte_width(values).max(4)
}

/// Smallest and largest of `values`; `None` when empty.
fn min_max<T: PlainValue>(values: &[T]) -> Option<(T, T)> {
    let (&first, rest) = values.split_first()?;
    Some(rest.iter().fold((first, first), |(lo, hi), &v| {
        (if v < lo { v } else { lo }, if v > hi { v } else { hi })
    }))
}

/// [`byte_width`] of a column whose values span `[min, max]`.
fn width_for(min: i64, max: i64) -> u8 {
    if min < 0 {
        8
    } else if max < 1 << 8 {
        1
    } else if max < 1 << 16 {
        2
    } else if max < 1 << 32 {
        4
    } else {
        8
    }
}

/// Delta bits of a frame-of-reference packing over `[min, max]`; `None`
/// when the range needs more than [`MAX_VALUE_BITS`].
fn packed_bits(min: i64, max: i64) -> Option<u8> {
    let delta = max as i128 - min as i128;
    (delta <= max_code_for(MAX_VALUE_BITS) as i128).then(|| bits_for(delta as u64 + 1))
}

/// An encoded string column.
#[derive(Debug, Clone, PartialEq)]
pub enum StrColumn {
    /// Uncompressed, length-prefixed varchars.
    Plain {
        /// The values.
        values: Vec<Box<str>>,
        /// Total on-disk bytes (1-byte length prefix per value + payloads).
        bytes: u64,
    },
    /// Sorted dictionary + truly bit-packed codes. Because the dictionary
    /// is sorted, code order equals value order, so range predicates work on
    /// codes — the "operate directly on compressed data" property. The
    /// codes live in a lane-aligned [`PackedInts`] image, which is both what
    /// the word-parallel kernels scan and what the I/O model charges.
    Dict {
        /// Sorted distinct values.
        dict: Vec<Box<str>>,
        /// Per-position dictionary codes, bit-packed.
        codes: PackedInts,
    },
}

impl StrColumn {
    /// Encode without compression.
    pub fn plain(values: Vec<String>) -> StrColumn {
        let bytes = StrColumn::plain_bytes(&values);
        StrColumn::Plain { values: values.into_iter().map(Into::into).collect(), bytes }
    }

    /// [`StrColumn::encoded_bytes`] of [`StrColumn::plain`] over `values`:
    /// a 1-byte length prefix plus the payload per value.
    pub fn plain_bytes(values: &[String]) -> u64 {
        values.iter().map(|s| 1 + s.len() as u64).sum()
    }

    /// Dictionary-encode (always succeeds; callers choose when it pays off).
    pub fn dict(values: &[String]) -> StrColumn {
        let (dict, codes) = dict_codes(values);
        let code_bits = bits_for(dict.len() as u64);
        assert!(code_bits <= MAX_VALUE_BITS, "dictionary too large to bit-pack");
        StrColumn::Dict {
            dict,
            codes: PackedInts::pack(code_bits, codes.iter().map(|&c| c as u64)),
        }
    }

    /// Pick dictionary encoding when it shrinks the column, otherwise plain.
    pub fn auto(values: Vec<String>) -> StrColumn {
        StrColumn::encode_rows(&values, 0..values.len(), true)
    }

    /// Encode the column whose row `j` is `values[rows[j]]`, where `rows`
    /// visits every row of `values` once (a permutation): dictionary when
    /// `compress` and it shrinks the column, plain otherwise.
    ///
    /// The dictionary is built over `values` as they lie and only the
    /// integer codes are permuted, so sorting a table never copies a string
    /// into a dictionary column; both encodings' sizes are known before
    /// either is built.
    pub fn encode_rows(
        values: &[String],
        rows: impl ExactSizeIterator<Item = usize>,
        compress: bool,
    ) -> StrColumn {
        debug_assert_eq!(rows.len(), values.len());
        let bytes = StrColumn::plain_bytes(values);
        if compress {
            let (dict, codes) = dict_codes(values);
            let code_bits = bits_for(dict.len() as u64);
            if code_bits <= MAX_VALUE_BITS
                && dict_bytes(&dict) + PackedInts::bytes_for(code_bits, values.len()) < bytes
            {
                let codes = PackedInts::pack(code_bits, rows.map(|r| codes[r] as u64));
                return StrColumn::Dict { dict, codes };
            }
        }
        StrColumn::Plain { values: rows.map(|r| values[r].as_str().into()).collect(), bytes }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        match self {
            StrColumn::Plain { values, .. } => values.len(),
            StrColumn::Dict { codes, .. } => codes.len() as usize,
        }
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk footprint in bytes: for the dictionary variant, the
    /// length-prefixed dictionary plus the actual packed code image.
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            StrColumn::Plain { bytes, .. } => *bytes,
            StrColumn::Dict { dict, codes } => dict_bytes(dict) + codes.bytes(),
        }
    }

    /// Value at `pos`.
    pub fn value_at(&self, pos: u32) -> &str {
        match self {
            StrColumn::Plain { values, .. } => &values[pos as usize],
            StrColumn::Dict { dict, codes } => &dict[codes.get(pos) as usize],
        }
    }

    /// True for the dictionary variant.
    pub fn is_dict(&self) -> bool {
        matches!(self, StrColumn::Dict { .. })
    }

    /// Dictionary code at `pos` (panics on plain columns) — the code-level
    /// access path: group-by and join machinery can work on these `u32`
    /// codes and decode through the dictionary once at the very end.
    #[inline]
    pub fn code_at(&self, pos: u32) -> u32 {
        match self {
            StrColumn::Dict { codes, .. } => codes.get(pos) as u32,
            StrColumn::Plain { .. } => panic!("code_at() on plain column"),
        }
    }

    /// Dictionary + packed codes accessors (panics on plain).
    pub fn dict_parts(&self) -> (&[Box<str>], &PackedInts) {
        match self {
            StrColumn::Dict { dict, codes } => (dict, codes),
            StrColumn::Plain { .. } => panic!("dict_parts() on plain column"),
        }
    }

    /// Plain values accessor (panics on dict).
    pub fn plain_strs(&self) -> &[Box<str>] {
        match self {
            StrColumn::Plain { values, .. } => values,
            StrColumn::Dict { .. } => panic!("plain_strs() on dict column"),
        }
    }

    /// Decode to owned strings.
    pub fn decode(&self) -> Vec<Box<str>> {
        match self {
            StrColumn::Plain { values, .. } => values.clone(),
            StrColumn::Dict { dict, codes } => {
                codes.iter().map(|c| dict[c as usize].clone()).collect()
            }
        }
    }
}

/// On-disk bytes of a dictionary: a 1-byte length prefix plus the payload per
/// entry.
fn dict_bytes(dict: &[Box<str>]) -> u64 {
    dict.iter().map(|s| 1 + s.len() as u64).sum()
}

/// The sorted distinct values of `values` and, per row, its value's index
/// among them.
fn dict_codes(values: &[String]) -> (Vec<Box<str>>, Vec<u32>) {
    // Number the distinct values in first-seen order, then rank them.
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let mut distinct: Vec<&str> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(values.len());
    for s in values {
        codes.push(*ids.entry(s).or_insert_with(|| {
            distinct.push(s);
            distinct.len() as u32 - 1
        }));
    }
    let mut sorted: Vec<u32> = (0..distinct.len() as u32).collect();
    sorted.sort_unstable_by_key(|&id| distinct[id as usize]);
    let mut rank = vec![0u32; distinct.len()];
    for (r, &id) in sorted.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    for c in &mut codes {
        *c = rank[*c as usize];
    }
    (sorted.iter().map(|&id| distinct[id as usize].into()).collect(), codes)
}

/// Bits needed to distinguish `n` codes (at least 1).
pub fn bits_for(n: u64) -> u8 {
    let mut bits = 1u8;
    while (1u64 << bits) < n {
        bits += 1;
    }
    bits
}

/// An encoded column of either type.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(IntColumn),
    /// String column.
    Str(StrColumn),
}

impl Column {
    /// Encode `data`; `compress` enables RLE/dictionary selection and byte
    /// packing, `false` forces fixed-width plain (the Figure 7 "c"
    /// configurations).
    pub fn encode(data: &ColumnData, compress: bool) -> Column {
        match data {
            ColumnData::Int(v) => Column::Int(IntColumn::encode(v.clone(), compress)),
            ColumnData::Str(v) => Column::Str(StrColumn::encode_rows(v, 0..v.len(), compress)),
        }
    }

    /// [`Column::encoded_bytes`] of `Column::encode(data, false)`, computed
    /// by the functions that encoder sizes itself with — what lets a
    /// compressed store record each column's uncompressed footprint without
    /// an uncompressed store existing.
    pub fn plain_bytes(data: &ColumnData) -> u64 {
        match data {
            ColumnData::Int(v) => IntColumn::plain_fixed_bytes(v),
            ColumnData::Str(v) => StrColumn::plain_bytes(v),
        }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Str(c) => c.len(),
        }
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// On-disk footprint in bytes.
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            Column::Int(c) => c.encoded_bytes(),
            Column::Str(c) => c.encoded_bytes(),
        }
    }

    /// Integer accessor.
    pub fn as_int(&self) -> &IntColumn {
        match self {
            Column::Int(c) => c,
            Column::Str(_) => panic!("expected int column"),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> &StrColumn {
        match self {
            Column::Str(c) => c,
            Column::Int(_) => panic!("expected string column"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_round_trip() {
        let vals = vec![1, 1, 1, 2, 2, 5, 5, 5, 5, 3];
        let col = IntColumn::rle(&vals);
        assert_eq!(col.decode(), vals);
        assert_eq!(col.runs().len(), 4);
        assert_eq!(col.len(), 10);
        assert_eq!(col.encoded_bytes(), 4 * RLE_RUN_BYTES);
    }

    #[test]
    fn rle_value_at_binary_search() {
        let vals = vec![7, 7, 8, 8, 8, 9];
        let col = IntColumn::rle(&vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(col.value_at(i as u32), v);
        }
        assert_eq!(col.run_containing(0), 0);
        assert_eq!(col.run_containing(4), 1);
        assert_eq!(col.run_containing(5), 2);
    }

    #[test]
    fn auto_picks_rle_for_sorted_data() {
        let mut vals = Vec::new();
        for v in 0..10 {
            vals.extend(std::iter::repeat_n(v, 100));
        }
        assert!(IntColumn::auto(vals).is_rle());
    }

    #[test]
    fn auto_picks_packed_for_random_small_range_data() {
        // Random 17-bit values: no runs, but 18-bit lanes (3 per word) beat
        // the 4-byte plain width.
        let vals: Vec<i64> = (0..1000).map(|i| (i * 2_654_435_761u64 as i64) % 100_000).collect();
        let col = IntColumn::auto(vals.clone());
        assert!(!col.is_rle());
        assert!(col.is_packed());
        assert!(col.encoded_bytes() < IntColumn::plain(vals).encoded_bytes());
    }

    #[test]
    fn auto_keeps_plain_when_packing_cannot_win() {
        // 31-bit deltas need 32-bit lanes — exactly the 4-byte plain width,
        // so packing never strictly beats plain and plain is kept.
        let vals: Vec<i64> = (0..100).map(|i| (i * 40_503_481) % ((1 << 31) - 1)).collect();
        let col = IntColumn::auto(vals);
        assert!(!col.is_rle() && !col.is_packed());
    }

    #[test]
    fn packed_round_trips_with_negative_reference() {
        let vals: Vec<i64> = (-500..500).map(|i| i * 3).collect();
        let col = IntColumn::packed(&vals).expect("small delta must pack");
        assert_eq!(col.decode(), vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(col.value_at(i as u32), v);
        }
        match &col {
            IntColumn::Packed { reference, packed } => {
                assert_eq!(*reference, -1500);
                assert_eq!(col.encoded_bytes(), packed.bytes());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn packed_rejects_oversized_ranges_and_empty() {
        assert!(IntColumn::packed(&[]).is_none());
        assert!(IntColumn::packed(&[0, 1 << 40]).is_none());
        assert!(IntColumn::packed(&[i64::MIN, i64::MAX]).is_none());
        assert!(IntColumn::packed(&[7]).is_some());
    }

    #[test]
    fn byte_width_minimized() {
        assert_eq!(byte_width(&[0, 200]), 1);
        assert_eq!(byte_width(&[0, 60_000]), 2);
        assert_eq!(byte_width(&[0, 20_000_000]), 4);
        assert_eq!(byte_width(&[0, 1 << 40]), 8);
        assert_eq!(byte_width(&[-1]), 8);
        assert_eq!(byte_width(&[]), 1);
    }

    #[test]
    fn plain_int_bytes_use_width() {
        let col = IntColumn::plain(vec![19920101, 19981231]);
        assert_eq!(col.encoded_bytes(), 2 * 4);
    }

    #[test]
    fn dict_is_sorted_and_order_preserving() {
        let vals: Vec<String> =
            ["EUROPE", "ASIA", "ASIA", "AFRICA", "EUROPE"].iter().map(|s| s.to_string()).collect();
        let col = StrColumn::dict(&vals);
        let (dict, codes) = col.dict_parts();
        assert_eq!(dict.len(), 3);
        assert!(dict.windows(2).all(|w| w[0] < w[1]));
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&*dict[codes.get(i as u32) as usize], v.as_str());
            assert_eq!(col.value_at(i as u32), v.as_str());
        }
        // Order preservation: code comparison == string comparison.
        let code_of = |s: &str| dict.iter().position(|d| &**d == s).unwrap();
        assert!(code_of("AFRICA") < code_of("ASIA"));
        assert!(code_of("ASIA") < code_of("EUROPE"));
    }

    #[test]
    fn dict_bytes_smaller_than_plain_for_low_cardinality() {
        let vals: Vec<String> = (0..10_000).map(|i| format!("REGION{}", i % 5)).collect();
        let plain = StrColumn::plain(vals.clone());
        let dict = StrColumn::dict(&vals);
        assert!(dict.encoded_bytes() < plain.encoded_bytes() / 10);
        assert!(StrColumn::auto(vals).is_dict());
    }

    #[test]
    fn auto_str_picks_plain_for_unique_strings() {
        let vals: Vec<String> = (0..100).map(|i| format!("unique-value-{i:05}")).collect();
        assert!(!StrColumn::auto(vals).is_dict());
    }

    #[test]
    fn str_decode_round_trips() {
        let vals: Vec<String> = (0..50).map(|i| format!("v{}", i % 7)).collect();
        for col in [StrColumn::plain(vals.clone()), StrColumn::dict(&vals)] {
            let dec = col.decode();
            assert_eq!(dec.len(), vals.len());
            for (d, v) in dec.iter().zip(&vals) {
                assert_eq!(&**d, v.as_str());
            }
        }
    }

    #[test]
    fn bits_for_cardinalities() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn column_encode_respects_compress_flag() {
        let data = ColumnData::Int(vec![1; 1000]);
        assert!(Column::encode(&data, true).as_int().is_rle());
        assert!(!Column::encode(&data, false).as_int().is_rle());
        let sdata = ColumnData::Str((0..1000).map(|i| format!("x{}", i % 3)).collect());
        assert!(Column::encode(&sdata, true).as_str().is_dict());
        assert!(!Column::encode(&sdata, false).as_str().is_dict());
    }

    #[test]
    fn code_bounds_per_encoding() {
        let vals = vec![1993i64, 1992, 1998, 1992];
        assert_eq!(IntColumn::plain(vals.clone()).code_bounds(), Some((1992, 7)));
        let rle = IntColumn::rle(&[5, 5, 5, 9, 9, 2]);
        assert_eq!(rle.code_bounds(), Some((2, 8)));
        let packed = IntColumn::packed(&vals).unwrap();
        let (reference, domain) = packed.code_bounds().unwrap();
        assert_eq!(reference, 1992);
        assert!(domain >= 7, "packed domain must cover the delta range");
        for (i, &v) in vals.iter().enumerate() {
            let code = (packed.value_at(i as u32) - reference) as u64;
            assert!(code < domain);
            assert_eq!(reference + code as i64, v);
        }
        // Empty and over-wide ranges have no code space.
        assert_eq!(IntColumn::plain(vec![]).code_bounds(), None);
        assert_eq!(IntColumn::rle(&[]).code_bounds(), None);
        assert_eq!(IntColumn::plain(vec![0, 1 << 40]).code_bounds(), None);
        assert_eq!(IntColumn::plain(vec![i64::MIN, i64::MAX]).code_bounds(), None);
    }

    #[test]
    fn str_code_at_matches_dict_lookup() {
        let vals: Vec<String> = (0..40).map(|i| format!("v{}", i % 7)).collect();
        let col = StrColumn::dict(&vals);
        let (dict, _) = col.dict_parts();
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&*dict[col.code_at(i as u32) as usize], v.as_str());
        }
    }

    #[test]
    fn empty_columns() {
        assert_eq!(IntColumn::rle(&[]).len(), 0);
        assert!(IntColumn::plain(vec![]).is_empty());
        assert_eq!(StrColumn::plain(vec![]).encoded_bytes(), 0);
    }
}
